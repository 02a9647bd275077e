"""Instruction-level timing simulator for the CXL-PNM accelerator.

Schedules compiled acceleration code (the same
:class:`~repro.accelerator.isa.Instruction` objects the functional
executor runs) onto the accelerator's resources: the DMA engine, the PE
array, the adder trees, and the VPU, with device-memory bandwidth shared
among the units.  Dependencies come from register dataflow
(read-after-write, and write-after-read/write serialization), so
independent instructions on different units overlap — e.g. the weight
stream of the next matmul behind the VPU work of the previous operator.
Register shapes, which size the VPU work, follow each instruction's own
:meth:`~repro.accelerator.isa.Instruction.out_shapes` rule.

This is the reproduction's analog of the paper's cycle-level simulator
(§VII, validated to 0.5% against the FPGA prototype).  Our validation
analog: tests assert agreement with the independent analytical model of
:mod:`repro.perf.analytical` on full decoder stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Sequence, Tuple

from repro.accelerator import isa
from repro.accelerator.device import CXLPNMDevice
from repro.errors import SimulationError
from repro.llm.config import LLMConfig
from repro.obs.context import get_metrics, get_tracer
from repro.perf.analytical import StepTimer
import repro.perf.calibration as cal


#: Units in plan order: a lowered step names its unit by index here.
_UNITS = tuple(isa.Unit)
_UNIT_INDEX = {unit: i for i, unit in enumerate(_UNITS)}

#: Unit indices of the two plan steps that schedule no instruction.
_BARRIER, _BOUNDARY = -1, -2
_BARRIER_STEP = (_BARRIER, (), (), 0.0, 0.0, 0.0, 0.0, None)
_BOUNDARY_STEP = (_BOUNDARY, (), (), 0.0, 0.0, 0.0, 0.0, None)

#: Matmuls that stream their memory operand once per activation row
#: when a tree-only device runs them as GEMV sweeps in place of the PE
#: array (convolutions do not).
_ROW_STREAMED = (isa.MpuMmPea, isa.MpuMaskedMm, isa.MpuAttnContext)


@dataclass
class SimulationResult:
    """Schedule summary of one program run."""

    total_time_s: float
    instructions: int
    unit_busy_s: Dict[isa.Unit, float]
    mem_bytes: float
    flops: float

    def utilization(self, unit: isa.Unit) -> float:
        if self.total_time_s == 0:
            return 0.0
        return self.unit_busy_s.get(unit, 0.0) / self.total_time_s

    @property
    def bandwidth_utilization_of(self) -> float:
        return self.mem_bytes / self.total_time_s if self.total_time_s \
            else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready flat view, for exporters and benchmarks."""
        out: Dict[str, float] = {
            "total_time_s": self.total_time_s,
            "instructions": float(self.instructions),
            "mem_bytes": self.mem_bytes,
            "flops": self.flops,
        }
        for unit in isa.Unit:
            busy = self.unit_busy_s.get(unit, 0.0)
            out[f"busy_s.{unit.name}"] = busy
            out[f"utilization.{unit.name}"] = self.utilization(unit)
        return out


class AcceleratorSimulator:
    """List scheduler over the accelerator's units and memory bandwidth."""

    def __init__(self, device: Optional[CXLPNMDevice] = None,
                 dtype_bytes: int = 2, tracer=None, metrics=None,
                 memoize: bool = True):
        self.device = device or CXLPNMDevice()
        self.dtype_bytes = dtype_bytes
        self._tracer = tracer
        self._metrics = metrics
        self.memoize = memoize
        self._mpu = self.device.mpu_timing()
        self._vpu = self.device.vpu_timing()
        self._dma = self.device.dma_timing()
        self._clock = self.device.spec.clock_hz
        self._bw = self.device.effective_memory_bandwidth
        #: (instruction, out_elems) -> :meth:`_cost`.  The cost of an
        #: instruction is a pure function of its fields, its output
        #: size (VPU cost input), and device constants, so this key is
        #: exact — repeated decode steps reuse per-instruction costs
        #: instead of re-deriving them.
        self._costs: Dict[Tuple[isa.Instruction, int],
                          Tuple[int, float, float, float, float]] = {}
        #: CachedProgram.timing_key -> SimulationResult for whole-program
        #: reuse (identical stage geometry schedules identically).
        self._results: Dict[Hashable, SimulationResult] = {}

    def _duration(self, instr: isa.Instruction, out_elems: int
                  ) -> Tuple[float, float, float]:
        """(busy s on the instruction's unit, memory s, memory bytes)."""
        mem_bytes = instr.mem_bytes(self.dtype_bytes)
        if self._mpu.gemm_via_tree and instr.unit is isa.Unit.PE_ARRAY \
                and isinstance(instr, _ROW_STREAMED):
            # DFX-style GEMM-as-row-sweeps re-streams the memory operand
            # once per activation row (see PnmPerfModel._matmul_time).
            mem_bytes *= instr.m
        mem_time = mem_bytes / self._bw
        unit = instr.unit
        if unit is isa.Unit.DMA:
            if isinstance(instr, isa.DmaGather):
                row_bytes = instr.row_elems * (
                    1 if instr.dtype == "int8" else self.dtype_bytes)
                busy = self._dma.gather_time(len(instr.indices), row_bytes)
            else:
                busy = self._dma.transfer_time(mem_bytes)
            return busy, busy, mem_bytes
        if unit in (isa.Unit.PE_ARRAY, isa.Unit.ADDER_TREE):
            cycles = self._mpu.cycles(instr)
            busy = max(cycles / self._clock, mem_time) \
                + cal.PNM_INSTRUCTION_OVERHEAD_S
            return busy, mem_time, mem_bytes
        if unit is isa.Unit.VPU:
            cycles = self._vpu.cycles(instr, float(out_elems))
            busy = max(cycles / self._clock, mem_time) \
                + cal.PNM_INSTRUCTION_OVERHEAD_S
            return busy, mem_time, mem_bytes
        return 0.0, 0.0, 0.0  # control instructions

    def _cost(self, instr: isa.Instruction, out_elems: int
              ) -> Tuple[int, float, float, float, float]:
        """(unit index, busy s, memory s, memory bytes, flops)."""
        if self.memoize:
            key = (instr, out_elems)
            hit = self._costs.get(key)
            if hit is not None:
                return hit
            if len(self._costs) > 65536:
                self._costs.clear()
        cost = (_UNIT_INDEX[instr.unit], *self._duration(instr, out_elems),
                instr.flops())
        if self.memoize:
            self._costs[key] = cost
        return cost

    @staticmethod
    def _copy_result(result: SimulationResult) -> SimulationResult:
        return SimulationResult(
            total_time_s=result.total_time_s,
            instructions=result.instructions,
            unit_busy_s=dict(result.unit_busy_s),
            mem_bytes=result.mem_bytes,
            flops=result.flops)

    def _lower(self, program: isa.CompactProgram
               ) -> Tuple[list, int, int, int, Tuple[int, ...]]:
        """Lower ``program`` once into integer-indexed plan steps.

        Returns ``(steps, slots, carry_in, carry_out, layer_slots)``.
        A step is ``(unit index, read slots, write slots, busy s,
        memory s, memory bytes, flops, instruction)``; a barrier or a
        layer boundary is a step whose unit index is ``_BARRIER`` or
        ``_BOUNDARY``.  Each register name gets one slot.  The layer is
        lowered once and its steps repeat ``num_layers`` times, each
        time after a boundary.  The head writes the carried register
        into ``carry_out``'s slot, so every boundary does the same: move
        ``carry_out``'s times to ``carry_in``'s slot and reset the
        layer's own slots to 0.0, as fresh register names start.
        """
        shapes: Dict[str, isa.Shape] = {}
        slots: Dict[str, int] = {}

        def lower(code: Sequence[isa.Instruction],
                  names: Dict[str, str]) -> list:
            steps = []
            for instr in code:
                if isinstance(instr, isa.Barrier):
                    steps.append(_BARRIER_STEP)
                    continue
                try:
                    out = isa.propagate_shapes(instr, shapes)
                except KeyError as missing:
                    raise SimulationError(
                        f"shape of {missing.args[0]} unknown at schedule "
                        f"time") from None
                writes = instr.writes()
                unit, busy, mem_time, mem_bytes, flops = self._cost(
                    instr, math.prod(out[0]) if out else 0)
                steps.append((
                    unit,
                    [slots.setdefault(names.get(r, r), len(slots))
                     for r in instr.reads()],
                    [slots.setdefault(names.get(r, r), len(slots))
                     for r in writes],
                    busy, mem_time, mem_bytes, flops, instr))
            return steps

        if not program.num_layers:
            steps = lower(program.head, {}) + lower(program.tail, {})
            return steps, len(slots), 0, 0, ()
        carry_in, carry_out = program.carry_in, program.carry_out
        head = lower(program.head, {carry_in: carry_out})
        entry_shape = shapes.get(carry_in)
        layer = lower(program.layer, {})
        if program.num_layers > 1 \
                and shapes.get(carry_out) != entry_shape:
            raise SimulationError(
                f"layer 0 reads a carry of shape {entry_shape} but hands "
                f"on {shapes.get(carry_out)}, so later layers "
                f"would not repeat it")
        # The tail names the last layer's registers by their flat names.
        last = program.num_layers - 1
        aliases = {program.rename(r, last): r for r in program.layer_regs}
        for flat, own in aliases.items():
            if own in shapes:
                shapes[flat] = shapes[own]
        tail = lower(program.tail, aliases)
        steps = head + ([_BOUNDARY_STEP] + layer) * program.num_layers \
            + tail
        cin = slots.setdefault(carry_in, len(slots))
        layer_slots = tuple(slots[r] for r in program.layer_regs)
        return steps, len(slots), cin, slots[carry_out], layer_slots

    def run(self, program: Sequence[isa.Instruction],
            trace_offset_s: float = 0.0) -> SimulationResult:
        """Schedule a program; returns makespan and per-unit busy time.

        ``trace_offset_s`` shifts the emitted observability spans on the
        simulated timeline (callers running many programs back to back —
        e.g. a generation session — lay stages out contiguously).  It
        never affects the returned result.

        A :class:`~repro.accelerator.isa.CompactProgram` is lowered from
        its one decoder layer and scheduled as its expansion would be,
        with the same float operations in the same order; a flat program
        is the compact case with no layer.

        Programs produced by a :class:`~repro.accelerator.compiler
        .ProgramCache` carry a ``timing_key`` identifying their stage
        geometry; with ``memoize`` on, re-running the same geometry
        returns a copy of the previously computed result without
        rescheduling.  The bypass is disabled while a tracer or metrics
        registry is active so observability output stays complete.
        """
        if not isinstance(program, (tuple, isa.CompactProgram)):
            program = tuple(program)
        tracer = get_tracer(self._tracer)
        metrics = get_metrics(self._metrics)
        timing_key = getattr(program, "timing_key", None)
        use_result_cache = (self.memoize and timing_key is not None
                            and not tracer.enabled and not metrics.enabled)
        if use_result_cache:
            cached = self._results.get(timing_key)
            if cached is not None:
                # A result-cache hit means a program with this geometry
                # already passed validation on its first run.
                return self._copy_result(cached)
        isa.validate_program_cached(program)
        if not isinstance(program, isa.CompactProgram):
            program = isa.CompactProgram(program)
        tracing, counting = tracer.enabled, metrics.enabled
        n_units = len(_UNITS)
        unit_free = [0.0] * n_units
        unit_busy = [0.0] * n_units
        mem_free = 0.0
        makespan = 0.0
        total_mem = 0.0
        total_flops = 0.0

        with tracer.span("simulator.run", category="accelerator",
                         instructions=len(program)):
            steps, n_slots, cin, cout, layer_slots = self._lower(program)
            ready = [0.0] * n_slots
            last_read = [0.0] * n_slots
            for unit, reads, writes, busy, mem_time, mem_bytes, flops, \
                    instr in steps:
                if unit < 0:
                    if unit == _BARRIER:
                        unit_free = [makespan] * n_units
                        mem_free = makespan
                    else:
                        ready[cin] = ready[cout]
                        last_read[cin] = last_read[cout]
                        for slot in layer_slots:
                            ready[slot] = 0.0
                            last_read[slot] = 0.0
                    continue
                start = unit_free[unit]
                for slot in reads:
                    if ready[slot] > start:
                        start = ready[slot]
                for slot in writes:
                    # WAW / WAR serialization.
                    if ready[slot] > start:
                        start = ready[slot]
                    if last_read[slot] > start:
                        start = last_read[slot]
                if mem_time > 0 and mem_free > start:
                    start = mem_free
                end = start + busy
                unit_free[unit] = end
                unit_busy[unit] += busy
                if mem_time > 0:
                    mem_free = start + mem_time
                    # Count the bytes the timing model actually streamed
                    # (on gemm_via_tree devices the memory operand is
                    # re-streamed per activation row), so mem_bytes and
                    # bandwidth_utilization_of reflect modelled traffic.
                    total_mem += mem_bytes
                for slot in reads:
                    if end > last_read[slot]:
                        last_read[slot] = end
                for slot in writes:
                    ready[slot] = end
                total_flops += flops
                if end > makespan:
                    makespan = end
                if tracing:
                    tracer.sim_span(
                        instr.opcode, start_s=trace_offset_s + start,
                        dur_s=busy, track=f"pnm.{_UNITS[unit].name}",
                        category="accelerator")
                if counting:
                    metrics.counter("sim.instructions",
                                    opcode=instr.opcode).inc()

        busy_s = dict(zip(_UNITS, unit_busy))
        result = SimulationResult(
            total_time_s=makespan,
            instructions=len(program),
            unit_busy_s=busy_s,
            mem_bytes=total_mem,
            flops=total_flops)
        if counting:
            metrics.counter("sim.time_s").inc(makespan)
            metrics.counter("sim.mem_bytes").inc(total_mem)
            metrics.counter("sim.flops").inc(total_flops)
            for unit in _UNITS:
                if busy_s[unit] > 0.0:
                    metrics.counter("sim.unit_busy_s",
                                    unit=unit.name).inc(busy_s[unit])
                    metrics.gauge("sim.unit_utilization",
                                  unit=unit.name).set(
                        result.utilization(unit))
        if use_result_cache:
            if len(self._results) > 4096:
                self._results.clear()
            self._results[timing_key] = self._copy_result(result)
        return result


@dataclass
class SimulatedStepTimer(StepTimer):
    """Continuous-batching step costs from the instruction-level simulator.

    A drop-in :class:`~repro.appliance.continuous.BatchStepModel`: where
    :class:`~repro.perf.analytical.BatchStepTimer` prices a step by
    summing per-op costs, this schedules a real instruction stream —
    :func:`~repro.accelerator.compiler.timing_program` for prefill and
    :func:`~repro.accelerator.compiler.batched_timing_program` for a
    batched decode step — so unit overlap and the shared memory channel
    are modelled exactly as in stage simulations.  Validation, context
    quantization and memos are the shared
    :class:`~repro.perf.analytical.StepTimer` front end.  Single device
    only (no tensor parallelism).

    Attributes:
        config: The model.
        simulator: Scheduler to price steps with (defaults to a CXL-PNM
            device simulator).
        context_quantum: Context quantization step for memoization.
        quantize: ``"int8"`` prices the int8 weight path (weights stream
            at 1 byte/elem, scales/bias at full width) — the programs it
            times are the ones the quantizing compiler emits.
    """

    config: LLMConfig
    simulator: Optional[AcceleratorSimulator] = None
    context_quantum: int = 32
    quantize: Optional[str] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.simulator is None:
            self.simulator = AcceleratorSimulator()

    def _price_prefill_s(self, input_len: int) -> float:
        from repro.accelerator.compiler import timing_program
        program = timing_program(self.config, input_len, ctx_prev=0,
                                 quantize=self.quantize)
        return self.simulator.run(program).total_time_s

    def _price_decode_s(self, batch: int, context_len: int) -> float:
        from repro.accelerator.compiler import batched_timing_program
        program = batched_timing_program(self.config, batch,
                                         ctx_prev=context_len - 1,
                                         quantize=self.quantize)
        return self.simulator.run(program).total_time_s
