"""Appliance-level composition: N devices serving one LLM.

Builds the end-to-end configurations of Fig. 11 and Table III: a GPU
appliance (DGX-style, tensor parallelism across all devices) and CXL-PNM
appliances at any DP x MP split, and evaluates latency, throughput, and
energy per configuration via the analytical performance models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accelerator.device import CXLPNMDevice
from repro.appliance.comm import CxlCommModel, GpuCommModel
from repro.appliance.parallelism import ParallelismPlan, params_per_device
from repro.errors import ParallelismError
from repro.gpu.device import GPUSpec
from repro.llm.config import LLMConfig
from repro.llm.kvcache import peak_kv_bytes
from repro.perf.analytical import (
    GpuPerfModel,
    InferenceTimer,
    PnmPerfModel,
    no_comm,
)
from repro.perf.metrics import ApplianceResult


@dataclass(frozen=True)
class GpuAppliance:
    """A DGX-style appliance of ``num_devices`` identical GPUs."""

    spec: GPUSpec
    num_devices: int = 8

    @property
    def name(self) -> str:
        return f"{self.num_devices}x{self.spec.name}"

    @property
    def hardware_cost_usd(self) -> float:
        return self.num_devices * self.spec.price_usd

    def run(self, config: LLMConfig, plan: ParallelismPlan, input_len: int,
            output_len: int) -> ApplianceResult:
        """Evaluate one request under a DP x TP plan."""
        kv = peak_kv_bytes(config, input_len, output_len) \
            // plan.tensor_parallel
        plan.validate_for(config, self.num_devices, self.spec.memory_bytes,
                          kv_reserve_bytes=kv)
        comm = GpuCommModel(self.spec, config, plan.tensor_parallel) \
            if plan.tensor_parallel > 1 else no_comm
        timer = InferenceTimer(config=config, model=GpuPerfModel(self.spec),
                               tensor_parallel=plan.tensor_parallel,
                               comm=comm)
        result = timer.run(input_len, output_len)
        return ApplianceResult(name=f"GPU {plan.label}",
                               num_devices=self.num_devices,
                               instances=plan.data_parallel,
                               per_request=result)


@dataclass(frozen=True)
class PnmAppliance:
    """An appliance of ``num_devices`` CXL-PNM cards."""

    device: CXLPNMDevice = field(default_factory=CXLPNMDevice)
    num_devices: int = 8

    @property
    def name(self) -> str:
        return f"{self.num_devices}xCXL-PNM"

    @property
    def hardware_cost_usd(self) -> float:
        return self.num_devices * self.device.price_usd

    def run(self, config: LLMConfig, plan: ParallelismPlan, input_len: int,
            output_len: int) -> ApplianceResult:
        kv = peak_kv_bytes(config, input_len, output_len) \
            // plan.tensor_parallel
        plan.validate_for(config, self.num_devices,
                          self.device.memory_capacity, kv_reserve_bytes=kv)
        comm = CxlCommModel(config, plan.tensor_parallel,
                            self.device.link) \
            if plan.tensor_parallel > 1 else no_comm
        timer = InferenceTimer(config=config,
                               model=PnmPerfModel(self.device),
                               tensor_parallel=plan.tensor_parallel,
                               comm=comm)
        result = timer.run(input_len, output_len)
        return ApplianceResult(name=f"CXL-PNM {plan.label}",
                               num_devices=self.num_devices,
                               instances=plan.data_parallel,
                               per_request=result)


def devices_required(config: LLMConfig, device_memory_bytes: int,
                     kv_reserve_bytes: int = 0) -> int:
    """Minimum tensor-parallel devices for a model to fit (§IX analysis)."""
    if device_memory_bytes <= kv_reserve_bytes:
        raise ParallelismError("device memory below the KV reserve")
    for tp in range(1, 4097):
        if params_per_device(config, tp) + kv_reserve_bytes \
                <= device_memory_bytes:
            return tp
    raise ParallelismError(
        f"{config.name} does not fit even at tensor_parallel=4096")
