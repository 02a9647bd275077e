"""DMA-engine timing model.

The DMA engine (Fig. 7) moves tensors between device memory and the
register files, and — for multi-device appliances — between devices under
host orchestration through the unified CXL address space (§V-C removed
DFX's PCIe router in favour of exactly this).  Transfers stream at the
module's effective bandwidth and double-buffer against compute; the 1 MB
DMA buffer (Table II) bounds the burst size, adding a per-burst
re-arm cost for very large transfers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arrays import any_true, maximum, where
from repro.errors import SimulationError
from repro.units import MiB


@dataclass(frozen=True)
class DmaTiming:
    """Transfer-time model for the device DMA engine.

    Attributes:
        bandwidth: Achievable device-memory bandwidth in bytes/s.
        buffer_bytes: DMA staging buffer (1 MB per Table II).
        setup_s: Descriptor setup cost per transfer.
        burst_rearm_s: Cost to re-arm between buffer-sized bursts.
    """

    bandwidth: float
    buffer_bytes: int = 1 * MiB
    setup_s: float = 150e-9
    burst_rearm_s: float = 40e-9

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise SimulationError("DMA bandwidth must be positive")
        if self.buffer_bytes <= 0:
            raise SimulationError("DMA buffer must be positive")

    def transfer_time(self, num_bytes: float) -> float:
        """Seconds to move ``num_bytes`` between memory and registers
        (elementwise for an array of sizes)."""
        if any_true(num_bytes < 0):
            raise SimulationError("negative DMA size")
        bursts = maximum(1, (num_bytes + self.buffer_bytes - 1)
                         // self.buffer_bytes)
        return where(num_bytes == 0, 0.0,
                     self.setup_s + (bursts - 1) * self.burst_rearm_s
                     + num_bytes / self.bandwidth)

    def gather_time(self, num_rows: int, row_bytes: float) -> float:
        """Seconds for a row gather (embedding lookup): per-row requests."""
        if num_rows <= 0 or row_bytes <= 0:
            raise SimulationError("gather needs positive rows and size")
        per_row = max(row_bytes / self.bandwidth, 20e-9)
        return self.setup_s + num_rows * per_row
