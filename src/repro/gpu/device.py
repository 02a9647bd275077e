"""GPU device specifications (the paper's baseline hardware).

The evaluation baseline is an NVIDIA DGX A100 appliance: eight A100 GPUs
with 40 GB HBM2e and 1.555 TB/s each, connected by NVLink, running
FasterTransformer (§VII).  Specs here are public datasheet numbers; the
behavioural parameters (achievable efficiencies, launch overheads) live in
:mod:`repro.perf.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import GB, GiB, TB


@dataclass(frozen=True)
class GPUSpec:
    """One GPU device.

    Attributes:
        name: Marketing name.
        memory_bytes: HBM capacity.
        memory_bandwidth: Peak HBM bandwidth (bytes/s).
        fp16_tensor_flops: Peak FP16 tensor-core throughput.
        nvlink_bandwidth: Per-GPU aggregate NVLink bandwidth (bytes/s).
        pcie_bandwidth: Host link bandwidth (bytes/s, per direction).
        tdp_watts: Board power limit.
        price_usd: Street price used by Table III ($10,000 for A100).
    """

    name: str
    memory_bytes: int
    memory_bandwidth: float
    fp16_tensor_flops: float
    nvlink_bandwidth: float
    pcie_bandwidth: float
    tdp_watts: float
    price_usd: float

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0 or self.memory_bandwidth <= 0:
            raise ConfigurationError(f"{self.name}: invalid memory spec")
        if self.fp16_tensor_flops <= 0:
            raise ConfigurationError(f"{self.name}: invalid compute spec")

    def fits(self, working_set_bytes: int) -> bool:
        """Whether a working set fits in device memory (with headroom for
        activations/workspace, ~6%)."""
        return working_set_bytes <= self.memory_bytes * 0.94


#: The paper's baseline device: A100 40 GB (DGX A100, §VII).
A100_40G = GPUSpec(
    name="A100-40G",
    memory_bytes=40 * GiB,
    memory_bandwidth=1.555 * TB,
    fp16_tensor_flops=312e12,
    nvlink_bandwidth=600 * GB,
    pcie_bandwidth=32 * GB,      # PCIe 4.0 x16
    tdp_watts=400.0,
    price_usd=10_000.0,
)

A100_80G = GPUSpec(
    name="A100-80G",
    memory_bytes=80 * GiB,
    memory_bandwidth=2.039 * TB,
    fp16_tensor_flops=312e12,
    nvlink_bandwidth=600 * GB,
    pcie_bandwidth=32 * GB,
    tdp_watts=400.0,
    price_usd=15_000.0,
)
