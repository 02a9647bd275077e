"""Device-to-device communication models for tensor-parallel groups.

Each decoding layer under tensor parallelism ends in two all-reduces of
the activation tile (after the attention projection and after FC2).  The
platforms implement them differently (paper §V-C):

* **GPU**: NCCL ring all-reduce over NVLink (:class:`NvlinkAllReduce`);
* **CXL-PNM**: the paper *removed* DFX's device-to-device router; instead
  the host orchestrates transfers with each device's DMA engine through
  the unified CXL address space.  Each boundary costs a host software
  overhead plus pipelined link time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cxl.link import CXLLink, GEN5_X16
from repro.errors import ParallelismError
from repro.gpu.device import GPUSpec
from repro.llm.config import LLMConfig
import repro.perf.calibration as cal

#: All-reduces per decoding layer under Megatron-style tensor parallelism.
ALLREDUCES_PER_LAYER = 2


@dataclass(frozen=True)
class NvlinkAllReduce:
    """Ring all-reduce cost model over NVLink.

    Ring all-reduce moves ``2 * (n-1) / n`` of the payload through each
    device's links; small payloads are dominated by the per-collective
    latency.
    """

    spec: GPUSpec
    num_devices: int

    def __post_init__(self) -> None:
        if self.num_devices < 2:
            raise ParallelismError("all-reduce needs at least 2 devices")

    def time(self, payload_bytes: float) -> float:
        if payload_bytes < 0:
            raise ParallelismError("negative all-reduce payload")
        n = self.num_devices
        wire_bytes = 2.0 * (n - 1) / n * payload_bytes
        bandwidth = self.spec.nvlink_bandwidth * cal.NVLINK_BW_EFF
        return cal.NVLINK_ALLREDUCE_LATENCY_S + wire_bytes / bandwidth


@dataclass(frozen=True)
class GpuCommModel:
    """Per-stage NVLink all-reduce cost for a GPU tensor-parallel group."""

    spec: GPUSpec
    config: LLMConfig
    tensor_parallel: int

    def __call__(self, batch_tokens: int) -> float:
        if self.tensor_parallel == 1:
            return 0.0
        payload = batch_tokens * self.config.d_model * self.config.dtype_bytes
        allreduce = NvlinkAllReduce(self.spec, self.tensor_parallel)
        return (self.config.num_layers * ALLREDUCES_PER_LAYER
                * allreduce.time(payload))


@dataclass(frozen=True)
class CxlCommModel:
    """Per-stage host-orchestrated DMA all-reduce for a CXL-PNM group.

    One all-reduce among ``tp`` devices moves ``2 (tp-1)/tp`` of the
    payload through each device's CXL port (ring-equivalent traffic),
    orchestrated by host doorbells — each boundary pays
    ``CXL_D2D_SW_OVERHEAD_S`` of software latency plus two port
    traversals.
    """

    config: LLMConfig
    tensor_parallel: int
    link: CXLLink = GEN5_X16

    def __post_init__(self) -> None:
        if self.tensor_parallel < 1:
            raise ParallelismError("tensor_parallel must be >= 1")

    def allreduce_time(self, payload_bytes: float) -> float:
        if self.tensor_parallel == 1:
            return 0.0
        tp = self.tensor_parallel
        wire = 2.0 * (tp - 1) / tp * payload_bytes
        return (cal.CXL_D2D_SW_OVERHEAD_S
                + 2 * self.link.read_latency_s
                + wire / self.link.effective_bandwidth)

    def __call__(self, batch_tokens: int) -> float:
        if self.tensor_parallel == 1:
            return 0.0
        payload = batch_tokens * self.config.d_model * self.config.dtype_bytes
        return (self.config.num_layers * ALLREDUCES_PER_LAYER
                * self.allreduce_time(payload))
