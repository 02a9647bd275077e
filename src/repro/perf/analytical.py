"""Analytical (roofline + overhead) performance model for both platforms.

Implements a common per-operator interface for the GPU and the CXL-PNM
accelerator and integrates it over the op graphs of a full inference:
one sum stage plus ``output_len - 1`` gen stages with a growing KV cache.
Stages are priced in compact form (:class:`~repro.llm.graph.CompactStage`):
each distinct op is timed once and the per-op times are summed over the
flat-list order (:func:`~repro.perf.metrics.fold_stages`, many contexts
at once), so results are bit-identical to pricing the flat list.
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
from typing import Callable, Dict, List, Protocol, Sequence, Tuple

import numpy as np

from repro.accelerator.device import CXLPNMDevice
from repro.accelerator.dma import DmaTiming
from repro.accelerator.mpu import MpuTiming
from repro.accelerator.vpu import VpuTiming
from repro.arrays import maximum, minimum
from repro.errors import ConfigurationError
from repro.gpu.device import GPUSpec
from repro.gpu.kernels import GpuKernelModel
from repro.gpu.power import GpuPowerModel
from repro.llm.config import LLMConfig
from repro.llm.graph import (
    CompactStage,
    GenStageSweep,
    compact_sum_stage,
    op_values,
)
from repro.llm.ops import OpKind, OpSpec
import repro.perf.calibration as cal
from repro.perf.metrics import (InferenceResult, StageResult, fold_stages,
                                left_sum)


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
    """GPU implementation of the device performance interface.

    The kernel and power models are built once, at construction.
    """

    spec: GPUSpec
    _kernels: GpuKernelModel = field(init=False, repr=False, compare=False)
    _power: GpuPowerModel = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_kernels", GpuKernelModel(self.spec))
        object.__setattr__(self, "_power", GpuPowerModel(self.spec))

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
        return self._kernels.op_time(op)

    def power_watts(self, compute_utilization: float,
                    bandwidth_utilization: float) -> float:
        return self._power.power_watts(compute_utilization,
                                       bandwidth_utilization)


#: VPU passes over the data per vector-op kind (others make one pass).
_VPU_PASSES = {OpKind.SOFTMAX: 3.0, OpKind.LAYERNORM: 3.0, OpKind.GELU: 2.0}


@dataclass(frozen=True)
class PnmPerfModel:
    """CXL-PNM implementation of the device performance interface.

    Matmuls take ``max(compute, memory-stream)`` with tile-rounded compute
    cycles from :class:`MpuTiming`; vector ops run on the VPU; every
    instruction pays the control unit's dispatch overhead.  The device's
    unit timings, clock and effective bandwidth are derived once, at
    construction (the device is frozen).  ``op_time`` prices an
    array-valued op (:mod:`repro.arrays`) elementwise, each element the
    float the scalar op of its shape gets.
    """

    device: CXLPNMDevice
    _mpu: MpuTiming = field(init=False, repr=False, compare=False)
    _vpu: VpuTiming = field(init=False, repr=False, compare=False)
    _dma: DmaTiming = field(init=False, repr=False, compare=False)
    _clock_hz: float = field(init=False, repr=False, compare=False)
    _bandwidth: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        device, init = self.device, object.__setattr__
        init(self, "_mpu", device.mpu_timing())
        init(self, "_vpu", device.vpu_timing())
        init(self, "_dma", device.dma_timing())
        init(self, "_clock_hz", device.spec.clock_hz)
        init(self, "_bandwidth", device.effective_memory_bandwidth)

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
        mpu = self._mpu
        clock = self._clock_hz
        # Tile rounding applies per head of an attention op.
        head_factor = op.matmul_instances
        bandwidth = self._bandwidth
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
            tree_time = maximum(head_factor * sweep_cycles / clock,
                                sweep_traffic / bandwidth)
            if mpu.gemm_via_tree:
                return tree_time + cal.PNM_INSTRUCTION_OVERHEAD_S
            pea_cycles = mpu.gemm_cycles(op.m, op.k, op.n)
            pea_time = maximum(head_factor * pea_cycles / clock,
                               op.total_bytes / bandwidth)
            return minimum(pea_time, tree_time) \
                + cal.PNM_INSTRUCTION_OVERHEAD_S
        cycles = mpu.gemv_cycles(op.k, op.n)
        compute = head_factor * cycles / clock
        memory = op.total_bytes / bandwidth
        return maximum(compute, memory) + cal.PNM_INSTRUCTION_OVERHEAD_S

    def _vector_time(self, op: OpSpec) -> float:
        vpu = self._vpu
        elements = op.output_bytes / op.elem_bytes
        passes = _VPU_PASSES.get(op.kind, 1.0)
        cycles = vpu.issue_cycles + passes * elements / vpu.lanes
        compute = cycles / self._clock_hz
        memory = op.total_bytes / self._bandwidth
        return maximum(compute, memory) + cal.PNM_INSTRUCTION_OVERHEAD_S

    def op_time(self, op: OpSpec) -> float:
        if op.kind.is_matmul:
            return self._matmul_time(op)
        if op.kind is OpKind.EMBEDDING:
            return self._dma.transfer_time(op.total_bytes) \
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


def _stage_fold(stage: CompactStage, fn: Callable[[OpSpec], object]
                ) -> np.ndarray:
    """:func:`left_sum` of ``fn``'s values over the stage's flat order,
    one sum per quantity ``fn`` returns, as a ``(contexts, q)`` array:
    one row per element of an array-valued stage (one row otherwise).
    Each distinct op is valued once."""
    return fold_stages(op_values(stage.head, fn), op_values(stage.layer, fn),
                       stage.num_layers, op_values(stage.tail, fn))


def _stage_time_s(stage: CompactStage, model: DevicePerfModel) -> float:
    """Sum of op times over the stage's flat order."""
    return _stage_fold(stage, model.op_time).item()


def _priced(model: DevicePerfModel) -> Callable[[OpSpec],
                                                Tuple[float, float, float]]:
    """Per-op ``(time, flops, total_bytes)`` on ``model``."""
    op_time = model.op_time
    return lambda op: (op_time(op), op.flops, op.total_bytes)


def stage_result(name: str, stage: CompactStage, model: DevicePerfModel,
                 comm_s: float = 0.0) -> StageResult:
    """Time one stage on a device and account energy."""
    return _stage_result(name, *_stage_fold(stage, _priced(model))[0].tolist(),
                         model, comm_s)


def _stage_result(name: str, op_time_s: float, flops: float, mem: float,
                  model: DevicePerfModel, comm_s: float) -> StageResult:
    """A stage's result from the flat-order sums of its op times,
    flops and bytes: add ``comm_s`` and account utilization and
    energy."""
    time_s = op_time_s + comm_s
    cu = min(1.0, flops / (time_s * model.peak_flops)) if time_s else 0.0
    bu = min(1.0, mem / (time_s * model.peak_bandwidth)) if time_s else 0.0
    energy = model.power_watts(cu, bu) * time_s
    return StageResult(name=name, time_s=time_s, flops=flops, mem_bytes=mem,
                       comm_s=comm_s, energy_j=energy)


@dataclass(frozen=True)
class InferenceTimer:
    """Integrates stage times over a full inference request.

    Gen stages are priced from a per-instance memo: a
    :class:`~repro.llm.graph.GenStageSweep` of each op's time, ``flops``
    and ``total_bytes``.  The first gen stage prices every distinct op
    of its compact stage; every later one prices its three attention
    ops only.  :meth:`gen_stages` adds the values of all its contexts in
    flat-list order at once (:func:`~repro.perf.metrics.fold_stages`),
    so each stage equals :func:`stage_result` of the whole compact gen
    stage to the last bit, in any order of contexts; :meth:`gen_stage`
    is its one-context case.

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
    _gen_sweep: GenStageSweep = field(init=False, repr=False,
                                      compare=False)

    def __post_init__(self) -> None:
        if self.tensor_parallel < 1:
            raise ConfigurationError("tensor_parallel must be >= 1")
        if self.gen_samples < 2:
            raise ConfigurationError("need at least 2 gen samples")
        object.__setattr__(self, "_gen_sweep", GenStageSweep(
            self.config, 1, _priced(self.model), self.tensor_parallel))

    def sum_stage(self, input_len: int) -> StageResult:
        stage = compact_sum_stage(self.config, input_len,
                                  self.tensor_parallel)
        return stage_result("sum", stage, self.model, self.comm(input_len))

    def gen_stages(self, contexts: Sequence[int]) -> List[StageResult]:
        """The gen stage at every attention span in ``contexts``: one
        sweep, whose per-op (time, flops, bytes) are folded for all
        contexts at once."""
        head, layer, tail = self._gen_sweep(contexts)
        sums = fold_stages(head, layer, self.config.num_layers, tail)
        comm_s = self.comm(1)
        return [_stage_result(f"gen@{context_len}", time_s, flops, mem,
                              self.model, comm_s)
                for context_len, (time_s, flops, mem)
                in zip(contexts, sums.tolist())]

    def gen_stage(self, context_len: int) -> StageResult:
        return self.gen_stages((context_len,))[0]

    def _gen_total(self, input_len: int, output_len: int, exact: bool
                   ) -> StageResult:
        """Total over gen stages at context input_len+1 .. input_len+
        output_len-1 (the first output token comes from the sum stage)."""
        contexts = range(input_len + 1, input_len + output_len)
        if len(contexts) == 0:
            return StageResult(name="gen", time_s=0.0, flops=0.0,
                               mem_bytes=0.0, energy_j=0.0)
        if exact or len(contexts) <= self.gen_samples:
            results = self.gen_stages(contexts)
            return StageResult(
                name="gen",
                time_s=left_sum(r.time_s for r in results),
                flops=left_sum(r.flops for r in results),
                mem_bytes=left_sum(r.mem_bytes for r in results),
                comm_s=left_sum(r.comm_s for r in results),
                energy_j=left_sum(r.energy_j for r in results))
        samples = np.unique(np.linspace(contexts[0], contexts[-1],
                                        self.gen_samples).astype(int))
        sampled = self.gen_stages(samples.tolist())

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


def quantize_context(context_len: int, quantum: int, max_seq_len: int
                     ) -> int:
    """Round a context up to a multiple of ``quantum`` for step memos.

    Never past the model's position budget, unless the context itself
    already exceeds it.  Idempotent: a quantized context quantizes to
    itself.
    """
    quantized = ((context_len + quantum - 1) // quantum) * quantum
    return min(quantized, max(context_len, max_seq_len))


def quantized_contexts(quantum: int, max_seq_len: int) -> List[int]:
    """Every context :func:`quantize_context` returns for a context in
    ``1 .. max_seq_len``, ascending: the multiples of ``quantum`` up to
    the budget, and the budget itself."""
    contexts = list(range(quantum, max_seq_len + 1, quantum))
    if max_seq_len % quantum:
        contexts.append(max_seq_len)
    return contexts


@dataclass
class StepTimer:
    """The memoizing front end both continuous-batching step timers share.

    ``prefill_s``, ``decode_step_s`` and ``decode_steps_s`` validate
    their arguments, quantize a decode context up to
    ``context_quantum`` and look the cost up in a memo; only a miss
    reaches the subclass's pricing hook (``_price_prefill_s`` or
    ``_price_decode_s``).  ``decode_step_s`` first looks the context up
    as given, so a quantized context skips quantizing again.
    Subclasses declare ``config`` and ``context_quantum`` as fields.
    """

    _prefill_cache: Dict[int, float] = field(
        default_factory=dict, repr=False, kw_only=True)
    _decode_cache: Dict[Tuple[int, int], float] = field(
        default_factory=dict, repr=False, kw_only=True)

    def __post_init__(self) -> None:
        if self.context_quantum < 1:
            raise ConfigurationError("context_quantum must be >= 1")

    def prefill_s(self, input_len: int) -> float:
        """Seconds to run one request's sum stage (emits its first token)."""
        if input_len < 1:
            raise ConfigurationError("input_len must be >= 1")
        cached = self._prefill_cache.get(input_len)
        if cached is None:
            cached = self._price_prefill_s(input_len)
            self._prefill_cache[input_len] = cached
        return cached

    def decode_step_s(self, batch: int, context_len: int) -> float:
        """Seconds for one batched gen step at the given attention span."""
        # Memo keys hold quantized contexts, which quantize to
        # themselves, so a hit on the context as given is its quantized
        # context's cost: the cohort walk passes quantized contexts.
        cached = self._decode_cache.get((batch, context_len))
        if cached is not None:
            return cached
        if batch < 1 or context_len < 1:
            raise ConfigurationError("batch and context must be >= 1")
        key = (batch, quantize_context(context_len, self.context_quantum,
                                       self.config.max_seq_len))
        cached = self._decode_cache.get(key)
        if cached is None:
            cached = self._price_decode_s(*key)
            self._decode_cache[key] = cached
        return cached

    def decode_steps_s(self, batch: int,
                       context_lens: Sequence[int]) -> List[float]:
        """Seconds for a cohort of decode steps at one batch size.

        Walks the contexts and calls ``self.decode_step_s(batch,
        quantized)`` once per *run* of equal quantized context, so each
        element is the scalar call's value to the last bit.  An
        event-kernel cohort is the consecutive contexts ``ctx0 ..
        ctx0+k-1``, whose runs are its ascending distinct quantized
        contexts, each priced once.  Quantization is monotone and
        idempotent, so a context between the run's first context and
        the run's quantized context is in the run without quantizing.
        """
        if batch < 1:
            raise ConfigurationError("batch and context must be >= 1")
        quantum = self.context_quantum
        max_seq_len = self.config.max_seq_len
        costs: List[float] = []
        first, run, cost = 1, 0, None
        for context_len in context_lens:
            if not first <= context_len <= run:
                if context_len < 1:
                    raise ConfigurationError(
                        "batch and context must be >= 1")
                quantized = quantize_context(context_len, quantum,
                                             max_seq_len)
                if quantized != run:
                    first, run = context_len, quantized
                    cost = self.decode_step_s(batch, quantized)
            costs.append(cost)
        return costs

    def _price_prefill_s(self, input_len: int) -> float:
        """A prefill memo miss: price the sum stage of ``input_len``."""
        raise NotImplementedError

    def _price_decode_s(self, batch: int, context_len: int) -> float:
        """A decode memo miss: price one step at a quantized context."""
        raise NotImplementedError


@dataclass
class BatchStepTimer(StepTimer):
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

    Memo misses read two kinds of table.  The first prefill miss
    prices the sum stage of every input length up to
    ``config.max_seq_len`` at once: one array-valued sum stage for
    lengths 2 and up (one GEMM stage) and one for length 1 (the GEMV
    case), each op priced once over the whole array.  A batch size's
    first decode miss prices its step at every quantized context up to
    ``config.max_seq_len`` (:func:`quantized_contexts`) in one call of
    that batch's :class:`~repro.llm.graph.GenStageSweep` of op times,
    which keeps every op but the three attention ops.  A longer input
    or context is priced on demand, the same way.  The op times add in
    flat-list order, so each cost equals pricing its whole compact
    stage to the last bit.  The tables are lists indexed by length or
    by quantized context, so the memos keep only the shapes a run
    asks for; they belong to the instance: a fresh timer pays its own
    fills.

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
    _prefill_table: List[float] = field(
        default_factory=list, init=False, repr=False)
    _decode_tables: Dict[int, Tuple[GenStageSweep, List[float]]] = field(
        default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.tensor_parallel < 1:
            raise ConfigurationError("tensor_parallel must be >= 1")
        super().__post_init__()

    def _price_prefill_s(self, input_len: int) -> float:
        table = self._prefill_table
        if not table:
            lengths = range(1, self.config.max_seq_len + 1)
            table += self._sum_stages_s(lengths[:1]) \
                + self._sum_stages_s(lengths[1:])
        if input_len <= len(table):
            return table[input_len - 1]
        return self._sum_stages_s((input_len,))[0]

    def _sum_stages_s(self, input_lens: Sequence[int]) -> List[float]:
        """Prefill seconds at every length of ``input_lens``, all 1 or
        all above 1: one array-valued sum stage, priced op by op."""
        if not len(input_lens):
            return []
        stage = compact_sum_stage(self.config, np.asarray(input_lens),
                                  self.tensor_parallel)
        times = _stage_fold(stage, self.model.op_time)[:, 0].tolist()
        return [time_s + self.comm(input_len)
                for input_len, time_s in zip(input_lens, times)]

    def _price_decode_s(self, batch: int, context_len: int) -> float:
        quantum = self.context_quantum
        entry = self._decode_tables.get(batch)
        if entry is None:
            sweep = GenStageSweep(self.config, batch, self.model.op_time,
                                  self.tensor_parallel)
            entry = sweep, self._decode_steps(sweep, quantized_contexts(
                quantum, self.config.max_seq_len))
            self._decode_tables[batch] = entry
        sweep, table = entry
        if context_len <= self.config.max_seq_len:
            # A quantized context's place in quantized_contexts.
            return table[-(-context_len // quantum) - 1]
        return self._decode_steps(sweep, (context_len,))[0]

    def _decode_steps(self, sweep: GenStageSweep,
                      contexts: Sequence[int]) -> List[float]:
        """Seconds of ``sweep``'s batched decode step at every context."""
        head, layer, tail = sweep(contexts)
        comm_s = self.comm(sweep.batch)
        return [time_s + comm_s for time_s in fold_stages(
            head, layer, self.config.num_layers, tail)[:, 0].tolist()]
