"""CXL protocol substrate: transactions, links, arbitration, memory devices."""

from repro.cxl.arbiter import (
    Arbiter,
    ArbiterStats,
    ArbitrationPolicy,
    RequestStream,
    compare_policies,
)
from repro.cxl.memdev import AccessCounters, FunctionalCxlDevice
from repro.cxl.link import FLIT_BYTES, FLIT_PAYLOAD_BYTES, GEN5_X16, CXLLink
from repro.cxl.protocol import (
    CACHELINE_BYTES,
    Opcode,
    Protocol,
    Source,
    Transaction,
)

__all__ = [
    "AccessCounters",
    "FunctionalCxlDevice",
    "Arbiter",
    "ArbiterStats",
    "ArbitrationPolicy",
    "CACHELINE_BYTES",
    "CXLLink",
    "FLIT_BYTES",
    "FLIT_PAYLOAD_BYTES",
    "GEN5_X16",
    "Opcode",
    "Protocol",
    "RequestStream",
    "Source",
    "Transaction",
    "compare_policies",
]
