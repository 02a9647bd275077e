"""Host-memory parameter offloading for models that exceed GPU memory.

When a model's parameters do not fit in a single GPU (paper §III-A,
Fig. 3), frameworks such as DeepSpeed-Inference or FlexGen keep the
parameters in host DRAM/storage and stream each layer's weights to the
GPU right before computing it.  The stream rides PCIe, which is orders of
magnitude slower than HBM — the paper measures ~99% of OPT-30B inference
time going to memcpy on a 40 GB A100.

The model: each stage must copy every non-resident parameter byte over
PCIe once (resident layers stay cached in the GPU's leftover memory);
compute overlaps with the copy, so stage time is
``max(copy_time, compute_time)`` plus the non-overlappable fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.gpu.device import GPUSpec
from repro.gpu.kernels import GpuKernelModel
from repro.llm.config import LLMConfig
from repro.llm.graph import CompactStage, per_op
import repro.perf.calibration as cal
from repro.perf.metrics import left_sum


@dataclass(frozen=True)
class OffloadModel:
    """Streaming-offload execution model for one oversized model.

    Attributes:
        spec: The GPU device.
        config: The LLM being offloaded.
        h2d_bandwidth: Achieved host-to-device copy bandwidth.  Defaults
            to the pageable-transfer rate the paper's Fig. 3 measurement
            implies; pass ``PCIE_H2D_PINNED_BYTES_S`` for the pinned
            ablation.
        activation_reserve_bytes: GPU memory reserved for activations,
            KV cache, and workspace (not available for weight caching).
    """

    spec: GPUSpec
    config: LLMConfig
    h2d_bandwidth: float = cal.PCIE_H2D_PAGEABLE_BYTES_S
    activation_reserve_bytes: int = 6 * 2**30

    def __post_init__(self) -> None:
        if self.h2d_bandwidth <= 0:
            raise ConfigurationError("h2d bandwidth must be positive")

    @property
    def is_needed(self) -> bool:
        """Whether the model actually overflows the GPU."""
        return not self.spec.fits(self.config.param_bytes)

    @property
    def resident_fraction(self) -> float:
        """Fraction of parameters that stay cached on the GPU."""
        budget = max(0, self.spec.memory_bytes
                     - self.activation_reserve_bytes)
        return min(1.0, budget / self.config.param_bytes)

    @property
    def streamed_bytes_per_stage(self) -> float:
        """Parameter bytes copied over PCIe for each sum/gen stage."""
        return self.config.param_bytes * (1.0 - self.resident_fraction)

    def copy_time_per_stage(self) -> float:
        return self.streamed_bytes_per_stage / self.h2d_bandwidth

    def stage_time(self, stage: CompactStage,
                   kernels: GpuKernelModel) -> float:
        """Stage time with weight streaming overlapped against compute."""
        compute = left_sum(per_op(stage, kernels.op_time))
        if not self.is_needed:
            return compute
        copy = self.copy_time_per_stage()
        # Prefetch overlap hides compute under the copy; framework
        # scheduling gaps leave a small non-overlapped tail.
        return max(copy, compute) + 0.02 * min(copy, compute)

    def memcpy_fraction(self, stage: CompactStage,
                        kernels: GpuKernelModel) -> float:
        """Fraction of stage time attributable to PCIe copies (Fig. 3)."""
        if not self.is_needed:
            return 0.0
        compute = left_sum(per_op(stage, kernels.op_time))
        copy = self.copy_time_per_stage()
        total = self.stage_time(stage, kernels)
        return max(0.0, (total - compute) / total) if copy > compute \
            else copy / total
