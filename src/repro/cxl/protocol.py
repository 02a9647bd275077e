"""CXL protocol message model (CXL.io / CXL.mem, transaction level).

The CXL standard layers three protocols over the PCIe PHY (§II-A):
``CXL.io`` (configuration/initialization, PCIe-semantics), ``CXL.cache``
(not used by Type-3 devices), and ``CXL.mem`` (load/store access to
host-managed device memory).  We model the transaction level: master-to-
subordinate (M2S) requests and subordinate-to-master (S2M) responses in
64-byte granules, which is what the arbiter, link, and device models
consume.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.errors import ProtocolError

#: CXL.mem transfers are cacheline-granular.
CACHELINE_BYTES = 64


class Protocol(enum.Enum):
    """Which CXL sub-protocol a message travels on."""

    IO = "cxl.io"
    MEM = "cxl.mem"


class Opcode(enum.Enum):
    """Transaction opcodes (simplified M2S/S2M vocabulary)."""

    MEM_RD = "MemRd"          # M2S request: read one cacheline
    MEM_WR = "MemWr"          # M2S request with data: write one cacheline
    MEM_RD_DATA = "MemData"   # S2M data response
    CMP = "Cmp"               # S2M completion (for writes)
    CFG_RD = "CfgRd"          # CXL.io config/register read
    CFG_WR = "CfgWr"          # CXL.io config/register write
    CFG_CMP = "CfgCmp"        # CXL.io completion (with data for reads)

    @property
    def is_request(self) -> bool:
        return self in (Opcode.MEM_RD, Opcode.MEM_WR, Opcode.CFG_RD,
                        Opcode.CFG_WR)

    @property
    def protocol(self) -> Protocol:
        if self in (Opcode.CFG_RD, Opcode.CFG_WR, Opcode.CFG_CMP):
            return Protocol.IO
        return Protocol.MEM

    @property
    def carries_data(self) -> bool:
        return self in (Opcode.MEM_WR, Opcode.MEM_RD_DATA, Opcode.CFG_WR)


class Source(enum.Enum):
    """Who issued a memory request — the host CPU or the PNM accelerator."""

    HOST = "host"
    PNM = "pnm"


_tag_counter = itertools.count()


@dataclass(frozen=True)
class Transaction:
    """One transaction-layer message.

    Attributes:
        opcode: Message type.
        addr: Target physical address; cacheline-aligned for CXL.mem.
        size: Payload bytes (``CACHELINE_BYTES`` for CXL.mem data).
        source: Issuer, used by the arbiter.
        tag: Request/response matching tag, auto-assigned.
    """

    opcode: Opcode
    addr: int
    size: int = CACHELINE_BYTES
    source: Source = Source.HOST
    tag: int = field(default_factory=lambda: next(_tag_counter))

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ProtocolError(f"negative address {self.addr:#x}")
        if self.size <= 0:
            raise ProtocolError(f"non-positive size {self.size}")
        if self.opcode.protocol is Protocol.MEM:
            if self.addr % CACHELINE_BYTES:
                raise ProtocolError(
                    f"CXL.mem address {self.addr:#x} not 64B-aligned")
            if self.size != CACHELINE_BYTES:
                raise ProtocolError(
                    f"CXL.mem transfers are {CACHELINE_BYTES}B, got "
                    f"{self.size}")

    def response(self) -> "Transaction":
        """Build the matching S2M response for a request, preserving the tag."""
        if not self.opcode.is_request:
            raise ProtocolError(f"{self.opcode} is not a request")
        if self.opcode is Opcode.MEM_RD:
            op = Opcode.MEM_RD_DATA
        elif self.opcode is Opcode.MEM_WR:
            op = Opcode.CMP
        else:
            op = Opcode.CFG_CMP
        return Transaction(opcode=op, addr=self.addr, size=self.size,
                           source=self.source, tag=self.tag)
