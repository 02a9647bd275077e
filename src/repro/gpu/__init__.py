"""GPU baseline models: devices, kernels, offloading, power."""

from repro.gpu.device import A100_40G, A100_80G, GPUSpec
from repro.gpu.kernels import GpuKernelModel
from repro.gpu.offload import OffloadModel
from repro.gpu.power import GpuPowerModel

__all__ = [
    "A100_40G",
    "A100_80G",
    "GPUSpec",
    "GpuKernelModel",
    "GpuPowerModel",
    "OffloadModel",
]
