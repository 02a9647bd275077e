"""DRAM technologies, CXL-module composition, timing, and interleaving."""

from repro.memory.banksim import (
    BankGeometry,
    BankSimulator,
    random_trace,
    sequential_trace,
    strided_trace,
)
from repro.memory.dram import (
    DDR5,
    GDDR6,
    HBM3,
    LPDDR5X,
    TABLE1_ORDER,
    TECHNOLOGIES,
    DramTechnology,
    StackingTech,
    get_technology,
)
from repro.memory.ecc import (
    DecodeStatus,
    InlineEccConfig,
    ScrubPolicy,
    decode,
    encode,
    inject_errors,
)
from repro.memory.reliable import ReliableRegion, ScrubReport
from repro.memory.interleave import (
    HOST_INTERLEAVE,
    MODULE_LOCAL_INTERLEAVE,
    InterleaveScheme,
    accelerator_visible_fraction,
    streaming_bandwidth_fraction,
)
from repro.memory.module import (
    MemoryModule,
    build_module,
    lpddr5x_module,
    table1_rows,
)
from repro.memory.packaging import (
    FHHL,
    HHHL,
    MODULE_POWER_BUDGET_WATTS,
    FormFactor,
    max_packages,
    packaging_cost_factor,
    validate_composition,
)
from repro.memory.power import REFERENCE_UTILIZATION, ModulePowerModel
from repro.memory.timing import (
    SEQUENTIAL_STREAM,
    AccessPattern,
    ChannelTimingModel,
)

__all__ = [
    "ReliableRegion",
    "ScrubReport",
    "BankGeometry",
    "BankSimulator",
    "DecodeStatus",
    "InlineEccConfig",
    "ScrubPolicy",
    "decode",
    "encode",
    "inject_errors",
    "random_trace",
    "sequential_trace",
    "strided_trace",
    "AccessPattern",
    "ChannelTimingModel",
    "DDR5",
    "DramTechnology",
    "FHHL",
    "FormFactor",
    "GDDR6",
    "HBM3",
    "HHHL",
    "HOST_INTERLEAVE",
    "InterleaveScheme",
    "LPDDR5X",
    "MODULE_LOCAL_INTERLEAVE",
    "MODULE_POWER_BUDGET_WATTS",
    "MemoryModule",
    "ModulePowerModel",
    "REFERENCE_UTILIZATION",
    "SEQUENTIAL_STREAM",
    "StackingTech",
    "TABLE1_ORDER",
    "TECHNOLOGIES",
    "accelerator_visible_fraction",
    "build_module",
    "get_technology",
    "lpddr5x_module",
    "max_packages",
    "packaging_cost_factor",
    "streaming_bandwidth_fraction",
    "table1_rows",
    "validate_composition",
]
