"""GPU kernel-time model: GEMM/GEMV rooflines with launch overheads.

Models how a GPU executes the operator graphs of :mod:`repro.llm.graph`
(paper §III-B): GEMMs ride the tensor cores with size-dependent
efficiency; GEMVs are bound by achieved HBM bandwidth; every operator
pays a kernel-launch cost.  The same interface
(:meth:`GpuKernelModel.op_time`) is implemented by the CXL-PNM analytical
model, so the inference timer is device-agnostic.  Like it, the time
methods price an array-valued op (:mod:`repro.arrays`) elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arrays import any_true, maximum
from repro.errors import SimulationError
from repro.gpu.device import GPUSpec
from repro.llm.ops import OpKind, OpSpec
import repro.perf.calibration as cal


@dataclass(frozen=True)
class GpuKernelModel:
    """Per-operator execution-time model for one GPU device."""

    spec: GPUSpec
    launch_overhead_s: float = cal.GPU_KERNEL_LAUNCH_S

    def gemm_flop_efficiency(self, rows: int) -> float:
        """Tensor-core FLOP efficiency as a function of GEMM row count.

        Thin GEMMs (few token rows) underfill the tensor cores; efficiency
        saturates toward ``GPU_GEMM_MAX_EFF`` for large row counts.
        """
        if any_true(rows <= 0):
            raise SimulationError(f"non-positive GEMM rows {rows}")
        return cal.GPU_GEMM_MAX_EFF * rows / (rows + cal.GPU_GEMM_HALF_ROWS)

    def gemv_bandwidth_efficiency(self, streamed_bytes: float) -> float:
        """Achieved HBM fraction for a GEMV streaming ``streamed_bytes``.

        Large weight streams reach ``GPU_GEMV_BW_EFF``; small slices (as
        created by high tensor-parallel degrees) lose efficiency to launch
        granularity and DRAM page effects.
        """
        if any_true(streamed_bytes <= 0):
            raise SimulationError("GEMV must stream a positive size")
        return cal.GPU_GEMV_BW_EFF * streamed_bytes / (
            streamed_bytes + cal.GPU_GEMV_SIZE_HALF_BYTES)

    def gemm_time(self, op: OpSpec) -> float:
        compute = op.flops / (self.spec.fp16_tensor_flops
                              * self.gemm_flop_efficiency(op.m))
        memory = op.total_bytes / (self.spec.memory_bandwidth
                                   * cal.GPU_VECTOR_BW_EFF)
        return self.launch_overhead_s + maximum(compute, memory)

    def gemv_time(self, op: OpSpec) -> float:
        eff = self.gemv_bandwidth_efficiency(op.weight_bytes
                                             + op.input_bytes)
        memory = op.total_bytes / (self.spec.memory_bandwidth * eff)
        return self.launch_overhead_s + memory

    def vector_time(self, op: OpSpec) -> float:
        memory = op.total_bytes / (self.spec.memory_bandwidth
                                   * cal.GPU_VECTOR_BW_EFF)
        return self.launch_overhead_s + memory

    def op_time(self, op: OpSpec) -> float:
        """Execution time of one operator on this GPU."""
        if op.kind is OpKind.GEMM:
            return self.gemm_time(op)
        if op.kind is OpKind.GEMV:
            return self.gemv_time(op)
        return self.vector_time(op)

    def op_flop_utilization(self, op: OpSpec) -> float:
        """Achieved fraction of peak FLOPS while the op runs."""
        t = self.op_time(op)
        return op.flops / (t * self.spec.fp16_tensor_flops)

    def op_reported_utilization(self, op: OpSpec) -> float:
        """The 'GPU utilization' a tool like nvidia-smi would report.

        That metric measures SM occupancy, not FLOP efficiency: GEMMs keep
        nearly all SMs busy; bandwidth-bound GEMVs keep a fraction busy
        (Fig. 4a shows ~94% for the sum stage vs <25% for gen stages).
        """
        if op.kind is OpKind.GEMM:
            return 0.94
        if op.kind is OpKind.GEMV:
            return 0.22
        return 0.35
