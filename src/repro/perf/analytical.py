"""Analytical (roofline + overhead) performance model for both platforms.

Implements a common per-operator interface for the GPU and the CXL-PNM
accelerator and integrates it over the op graphs of a full inference:
one sum stage plus ``output_len - 1`` gen stages with a growing KV cache.
Stages are priced in compact form (:class:`~repro.llm.graph.CompactStage`):
each distinct op is timed once and the per-op times are summed over the
flat-list order, so results are bit-identical to pricing the flat list.
Gen-stage time is affine in the context length between roofline regime
switches, so the integrator samples context lengths and integrates with a
trapezoid rule — exact-summation is available (and tested) for small
token counts.

This is the reproduction analog of the paper's validated performance
simulator (§VII); the instruction-level simulator in
:mod:`repro.perf.simulator` cross-checks it on compiled decoder stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.accelerator.device import CXLPNMDevice
from repro.accelerator.mpu import MpuTiming
from repro.accelerator.vpu import VpuTiming
from repro.errors import ConfigurationError
from repro.gpu.device import GPUSpec
from repro.gpu.kernels import GpuKernelModel
from repro.gpu.power import GpuPowerModel
from repro.llm.batching import compact_batched_gen_stage
from repro.llm.config import LLMConfig
from repro.llm.graph import (
    Stage,
    compact_gen_stage,
    compact_sum_stage,
    per_op,
)
from repro.llm.ops import OpKind, OpSpec
import repro.perf.calibration as cal
from repro.perf.metrics import InferenceResult, StageResult


class DevicePerfModel(Protocol):
    """What the inference timer needs from a device."""

    name: str

    @property
    def peak_flops(self) -> float: ...

    @property
    def peak_bandwidth(self) -> float: ...

    def op_time(self, op: OpSpec) -> float: ...

    def power_watts(self, compute_utilization: float,
                    bandwidth_utilization: float) -> float: ...


@dataclass(frozen=True)
class GpuPerfModel:
    """GPU implementation of the device performance interface."""

    spec: GPUSpec

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def peak_flops(self) -> float:
        return self.spec.fp16_tensor_flops

    @property
    def peak_bandwidth(self) -> float:
        return self.spec.memory_bandwidth

    def op_time(self, op: OpSpec) -> float:
        return GpuKernelModel(self.spec).op_time(op)

    def power_watts(self, compute_utilization: float,
                    bandwidth_utilization: float) -> float:
        return GpuPowerModel(self.spec).power_watts(
            compute_utilization, bandwidth_utilization)


@dataclass(frozen=True)
class PnmPerfModel:
    """CXL-PNM implementation of the device performance interface.

    Matmuls take ``max(compute, memory-stream)`` with tile-rounded compute
    cycles from :class:`MpuTiming`; vector ops run on the VPU; every
    instruction pays the control unit's dispatch overhead.
    """

    device: CXLPNMDevice

    @property
    def name(self) -> str:
        return "CXL-PNM"

    @property
    def peak_flops(self) -> float:
        spec = self.device.spec
        return spec.peak_gemm_flops + spec.peak_gemv_flops

    @property
    def peak_bandwidth(self) -> float:
        return self.device.peak_memory_bandwidth

    def _matmul_time(self, op: OpSpec) -> float:
        mpu = self.device.mpu_timing()
        clock = self.device.spec.clock_hz
        # Attention ops fold heads into flops; recover the per-matmul
        # shape scale so tile rounding applies per head.
        base_flops = 2.0 * max(op.m, 1) * op.n * op.k
        head_factor = max(1.0, op.flops / base_flops)
        bandwidth = self.device.effective_memory_bandwidth
        if op.kind is OpKind.GEMM:
            # A GEMM can run on the PE array (weights stream once; rows
            # round up to the 64-row array) or as row-by-row GEMV sweeps
            # on the adder trees (each sweep re-streams the weights).
            # The control unit picks the faster datapath; tree-only
            # designs (DFX) have no choice — the memory blow-up the
            # paper's PE array exists to remove.
            sweep_traffic = op.total_bytes + (op.m - 1) * op.weight_bytes
            sweep_cycles = mpu.pipeline_fill_cycles + op.m * (
                mpu.gemv_cycles(op.k, op.n) - mpu.pipeline_fill_cycles)
            tree_time = max(head_factor * sweep_cycles / clock,
                            sweep_traffic / bandwidth)
            if mpu.gemm_via_tree:
                return tree_time + cal.PNM_INSTRUCTION_OVERHEAD_S
            pea_cycles = mpu.gemm_cycles(op.m, op.k, op.n)
            pea_time = max(head_factor * pea_cycles / clock,
                           op.total_bytes / bandwidth)
            return min(pea_time, tree_time) \
                + cal.PNM_INSTRUCTION_OVERHEAD_S
        cycles = mpu.gemv_cycles(op.k, op.n)
        compute = head_factor * cycles / clock
        memory = op.total_bytes / bandwidth
        return max(compute, memory) + cal.PNM_INSTRUCTION_OVERHEAD_S

    def _vector_time(self, op: OpSpec) -> float:
        vpu = self.device.vpu_timing()
        elements = op.output_bytes / op.elem_bytes
        passes = {
            OpKind.SOFTMAX: 3.0, OpKind.LAYERNORM: 3.0, OpKind.GELU: 2.0,
        }.get(op.kind, 1.0)
        cycles = vpu.issue_cycles + passes * elements / vpu.lanes
        compute = cycles / self.device.spec.clock_hz
        memory = op.total_bytes / self.device.effective_memory_bandwidth
        return max(compute, memory) + cal.PNM_INSTRUCTION_OVERHEAD_S

    def op_time(self, op: OpSpec) -> float:
        if op.kind.is_matmul:
            return self._matmul_time(op)
        if op.kind is OpKind.EMBEDDING:
            dma = self.device.dma_timing()
            return dma.transfer_time(op.total_bytes) \
                + cal.PNM_INSTRUCTION_OVERHEAD_S
        return self._vector_time(op)

    def power_watts(self, compute_utilization: float,
                    bandwidth_utilization: float) -> float:
        return self.device.power_watts(compute_utilization,
                                       bandwidth_utilization)


#: Extra time appended to each stage (e.g. tensor-parallel all-reduces).
CommModel = Callable[[int], float]


def no_comm(_batch_tokens: int) -> float:
    return 0.0


def _stage_time_s(stage: Stage, model: DevicePerfModel) -> float:
    """Sum of op times over the stage's flat order; each distinct op of a
    compact stage is timed once."""
    return sum(per_op(stage, model.op_time))


def stage_result(name: str, ops: Stage, model: DevicePerfModel,
                 comm_s: float = 0.0) -> StageResult:
    """Time one stage (compact or flat) on a device and account energy."""
    time_s = _stage_time_s(ops, model) + comm_s
    flops = sum(per_op(ops, attrgetter("flops")))
    mem = sum(per_op(ops, attrgetter("total_bytes")))
    cu = min(1.0, flops / (time_s * model.peak_flops)) if time_s else 0.0
    bu = min(1.0, mem / (time_s * model.peak_bandwidth)) if time_s else 0.0
    energy = model.power_watts(cu, bu) * time_s
    return StageResult(name=name, time_s=time_s, flops=flops, mem_bytes=mem,
                       comm_s=comm_s, energy_j=energy)


@dataclass(frozen=True)
class InferenceTimer:
    """Integrates stage times over a full inference request.

    Attributes:
        config: The model.
        model: The device performance model (one device, or one device of
            a tensor-parallel group when ``tensor_parallel > 1``).
        tensor_parallel: Ways the model is split; op graphs shrink
            accordingly and ``comm`` charges the boundary collectives.
        comm: Per-stage communication model (batch tokens -> seconds).
        gen_samples: Context-length sample count for the trapezoid
            integration of gen-stage time (exact when >= output_len).
    """

    config: LLMConfig
    model: DevicePerfModel
    tensor_parallel: int = 1
    comm: CommModel = no_comm
    gen_samples: int = 24

    def __post_init__(self) -> None:
        if self.tensor_parallel < 1:
            raise ConfigurationError("tensor_parallel must be >= 1")
        if self.gen_samples < 2:
            raise ConfigurationError("need at least 2 gen samples")

    def sum_stage(self, input_len: int) -> StageResult:
        stage = compact_sum_stage(self.config, input_len,
                                  self.tensor_parallel)
        return stage_result("sum", stage, self.model, self.comm(input_len))

    def gen_stage(self, context_len: int) -> StageResult:
        stage = compact_gen_stage(self.config, context_len,
                                  self.tensor_parallel)
        return stage_result(f"gen@{context_len}", stage, self.model,
                            self.comm(1))

    def _gen_total(self, input_len: int, output_len: int, exact: bool
                   ) -> StageResult:
        """Total over gen stages at context input_len+1 .. input_len+
        output_len-1 (the first output token comes from the sum stage)."""
        contexts = np.arange(input_len + 1, input_len + output_len)
        if len(contexts) == 0:
            return StageResult(name="gen", time_s=0.0, flops=0.0,
                               mem_bytes=0.0, energy_j=0.0)
        if exact or len(contexts) <= self.gen_samples:
            results = [self.gen_stage(int(c)) for c in contexts]
            return StageResult(
                name="gen",
                time_s=sum(r.time_s for r in results),
                flops=sum(r.flops for r in results),
                mem_bytes=sum(r.mem_bytes for r in results),
                comm_s=sum(r.comm_s for r in results),
                energy_j=sum(r.energy_j for r in results))
        samples = np.unique(np.linspace(contexts[0], contexts[-1],
                                        self.gen_samples).astype(int))
        sampled = [self.gen_stage(int(c)) for c in samples]

        def integrate(values: List[float]) -> float:
            # Mean stage value via trapezoid over context, times stages.
            return float(np.trapezoid(values, samples)
                         / (samples[-1] - samples[0])) * len(contexts)

        return StageResult(
            name="gen",
            time_s=integrate([r.time_s for r in sampled]),
            flops=integrate([r.flops for r in sampled]),
            mem_bytes=integrate([r.mem_bytes for r in sampled]),
            comm_s=integrate([r.comm_s for r in sampled]),
            energy_j=integrate([r.energy_j for r in sampled]))

    def run(self, input_len: int, output_len: int,
            exact: bool = False) -> InferenceResult:
        """Latency and energy of one request on one model instance.

        Energy covers the whole tensor-parallel group (``tensor_parallel``
        devices each running the shrunken op graph for the same duration).
        """
        if input_len <= 0 or output_len <= 0:
            raise ConfigurationError("token counts must be positive")
        sum_r = self.sum_stage(input_len)
        gen_r = self._gen_total(input_len, output_len, exact)
        group_energy = (sum_r.energy_j + gen_r.energy_j) \
            * self.tensor_parallel
        return InferenceResult(
            device_name=self.model.name,
            input_len=input_len,
            output_len=output_len,
            sum_time_s=sum_r.time_s,
            gen_time_s=gen_r.time_s,
            energy_j=group_energy)


@dataclass
class BatchStepTimer:
    """Per-iteration costs for the continuous-batching scheduler.

    One *decode step* runs a batched gen stage — each running request
    contributes one token row, the weights stream once — so its cost
    comes from :func:`~repro.llm.batching.compact_batched_gen_stage`; one
    *prefill* is the plain sum stage of a newly admitted request.

    Decode cost is affine in the attention span, so the scheduler may
    quote a step at the batch's mean context.  Shapes repeat across
    thousands of simulated iterations; results are memoized after
    quantizing the context up to ``context_quantum`` (set it to 1 for
    exact per-context costing).

    Attributes:
        config: The model.
        model: Device performance model (one device or one tensor-
            parallel shard).
        tensor_parallel: Ways the model is split.
        comm: Per-step communication model (batch tokens -> seconds).
        context_quantum: Context quantization step for memoization.
    """

    config: LLMConfig
    model: DevicePerfModel
    tensor_parallel: int = 1
    comm: CommModel = no_comm
    context_quantum: int = 32
    _prefill_cache: Dict[int, float] = field(
        default_factory=dict, repr=False)
    _decode_cache: Dict[Tuple[int, int], float] = field(
        default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.tensor_parallel < 1:
            raise ConfigurationError("tensor_parallel must be >= 1")
        if self.context_quantum < 1:
            raise ConfigurationError("context_quantum must be >= 1")

    def prefill_s(self, input_len: int) -> float:
        """Seconds to run one request's sum stage (emits its first token)."""
        if input_len < 1:
            raise ConfigurationError("input_len must be >= 1")
        cached = self._prefill_cache.get(input_len)
        if cached is None:
            stage = compact_sum_stage(self.config, input_len,
                                      self.tensor_parallel)
            cached = _stage_time_s(stage, self.model) + self.comm(input_len)
            self._prefill_cache[input_len] = cached
        return cached

    def _quantize(self, context_len: int) -> int:
        q = self.context_quantum
        quantized = ((context_len + q - 1) // q) * q
        # Never quantize past the model's position budget (unless the
        # caller's context already exceeds it).
        return min(quantized, max(context_len, self.config.max_seq_len))

    def decode_step_s(self, batch: int, context_len: int) -> float:
        """Seconds for one batched gen step at the given attention span."""
        if batch < 1 or context_len < 1:
            raise ConfigurationError("batch and context must be >= 1")
        key = (batch, self._quantize(context_len))
        cached = self._decode_cache.get(key)
        if cached is None:
            stage = compact_batched_gen_stage(self.config, key[1], batch,
                                              self.tensor_parallel)
            cached = _stage_time_s(stage, self.model) + self.comm(batch)
            self._decode_cache[key] = cached
        return cached

    def decode_steps_s(self, batch: int,
                       context_lens: Sequence[int]) -> np.ndarray:
        """Seconds for a cohort of decode steps at one batch size.

        Vectorized companion to :meth:`decode_step_s` for the event
        kernel's macro-steps: quantization happens in one numpy pass,
        the underlying cost model is consulted once per *unique*
        quantized context (at most ``len(context_lens) //
        context_quantum + 1`` times for a consecutive run), and each
        returned element is bit-identical to the scalar call.
        """
        ctxs = np.asarray(context_lens, dtype=np.int64)
        if ctxs.size == 0:
            return np.empty(0, dtype=float)
        if batch < 1 or int(ctxs.min()) < 1:
            raise ConfigurationError("batch and context must be >= 1")
        q = self.context_quantum
        quantized = np.minimum(-(ctxs // -q) * q,
                               np.maximum(ctxs, self.config.max_seq_len))
        uniques, inverse = np.unique(quantized, return_inverse=True)
        costs = np.array([self.decode_step_s(batch, int(u))
                          for u in uniques], dtype=float)
        return costs[inverse]
