"""Register dataflow analysis over compiled accelerator programs.

A single forward pass over a :data:`repro.accelerator.isa.Program`
recovers the register-level facts the verifier's diagnostics are built
from: def/use/free sites per register, RAW/WAR/WAW hazard edges (the
dependencies the timing simulator serializes on), and the *violations*
— reads before any write, accesses after ``FREE``, writes that are
never observed.  A second pass propagates register shapes (each
instruction's :meth:`~repro.accelerator.isa.Instruction.out_shapes`
rule, which the timing simulator applies too) to produce a
liveness/pressure report: peak live bytes per register bank at the
modelled FP16 datatype, which is what the 63 MB register file of
Table II actually bounds.

The pass is purely syntactic — it never executes instructions — so it
runs on timing-only templates (fake layouts, placeholder tokens) just
as well as on functional programs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.accelerator import isa
from repro.accelerator.registers import (
    MATRIX_RF_BYTES,
    SCALAR_RF_BYTES,
    VECTOR_RF_BYTES,
)

#: Modelled bytes per register element: the accelerator datatype is
#: FP16 (functional storage is fp32; ``RegisterFileState`` charges
#: ``nbytes * logical_scale`` — the same 2 bytes/element).
LOGICAL_BYTES_PER_ELEM = 2

#: Table II register-file budgets, keyed by bank letter.
BANK_CAPACITY_BYTES: Dict[str, int] = {
    "m": MATRIX_RF_BYTES,
    "v": VECTOR_RF_BYTES,
    "s": SCALAR_RF_BYTES,
}


@dataclass(frozen=True)
class Access:
    """One register access: ``kind`` is ``read``, ``write``, or ``free``."""

    index: int
    reg: str
    kind: str


@dataclass
class DataflowFacts:
    """Everything the forward dataflow pass learns about a program.

    Violation lists hold ``(instruction index, register)`` pairs; the
    hazard-edge counters count the dependency edges an in-order
    scheduler must respect (they are facts, not defects).
    """

    defs: Dict[str, List[int]] = field(default_factory=dict)
    uses: Dict[str, List[int]] = field(default_factory=dict)
    frees: Dict[str, List[int]] = field(default_factory=dict)
    use_before_def: List[Tuple[int, str]] = field(default_factory=list)
    use_after_free: List[Tuple[int, str]] = field(default_factory=list)
    bad_free: List[Tuple[int, str]] = field(default_factory=list)
    dead_writes: List[Tuple[int, str]] = field(default_factory=list)
    unfreed: List[str] = field(default_factory=list)
    raw_edges: int = 0
    war_edges: int = 0
    waw_edges: int = 0
    live_after: List[int] = field(default_factory=list)

    @property
    def peak_live_registers(self) -> int:
        return max(self.live_after, default=0)


def analyze_program(program) -> DataflowFacts:
    """Forward dataflow pass: def/use chains, hazards, and violations."""
    facts = DataflowFacts()
    #: reg -> (last write index, observed-since-write, freed)
    state: Dict[str, Tuple[int, bool]] = {}
    freed: Dict[str, int] = {}
    for idx, instr in enumerate(program):
        is_free = isinstance(instr, isa.Free)
        reads = instr.regs if is_free else instr.reads()
        if not is_free:
            for reg in reads:
                facts.uses.setdefault(reg, []).append(idx)
                if reg in state:
                    write_idx, _ = state[reg]
                    state[reg] = (write_idx, True)
                    facts.raw_edges += 1
                elif reg in freed:
                    facts.use_after_free.append((idx, reg))
                else:
                    facts.use_before_def.append((idx, reg))
            for reg in instr.writes():
                facts.defs.setdefault(reg, []).append(idx)
                if reg in state:
                    write_idx, observed = state[reg]
                    if observed:
                        facts.war_edges += 1
                    else:
                        facts.waw_edges += 1
                        facts.dead_writes.append((write_idx, reg))
                elif reg in freed:
                    facts.use_after_free.append((idx, reg))
                    freed.pop(reg)
                state[reg] = (idx, False)
        else:
            for reg in instr.regs:
                facts.frees.setdefault(reg, []).append(idx)
                if reg in state:
                    write_idx, observed = state.pop(reg)
                    if not observed:
                        facts.dead_writes.append((write_idx, reg))
                    freed[reg] = idx
                else:
                    facts.bad_free.append((idx, reg))
                    freed[reg] = idx
        facts.live_after.append(len(state))
    for reg, (write_idx, observed) in state.items():
        facts.unfreed.append(reg)
        if not observed:
            facts.dead_writes.append((write_idx, reg))
    facts.unfreed.sort()
    facts.dead_writes.sort()
    return facts


def infer_shapes(program) -> List[Optional[Tuple[isa.Shape, ...]]]:
    """Shapes of the registers each instruction writes, in the order of
    its ``writes()`` (None when unknowable).

    Applies the ISA's shape rule (:func:`repro.accelerator.isa
    .propagate_shapes`) but tolerates unknown inputs instead of raising
    — hand-built fragments analyze fine.  A register written from an
    unknown input is itself unknown until written again.
    """
    shapes: Dict[str, isa.Shape] = {}
    out: List[Optional[Tuple[isa.Shape, ...]]] = []
    for instr in program:
        try:
            out.append(isa.propagate_shapes(instr, shapes))
        except KeyError:
            for reg in instr.writes():
                shapes.pop(reg, None)
            out.append(None)
    return out


@dataclass
class PressureReport:
    """Peak register-file pressure of a program, per bank.

    ``peak_bytes`` is at the modelled FP16 width; ``peak_index`` is the
    instruction index where each bank's peak occurred.  Registers whose
    shape could not be inferred contribute zero bytes and are listed in
    ``unknown_shape_regs`` so callers know the bound is partial.
    """

    peak_bytes: Dict[str, int] = field(default_factory=dict)
    peak_index: Dict[str, int] = field(default_factory=dict)
    peak_live_registers: int = 0
    unknown_shape_regs: Tuple[str, ...] = ()

    def utilization(self, bank: str,
                    capacity: Optional[int] = None) -> float:
        cap = capacity if capacity is not None \
            else BANK_CAPACITY_BYTES[bank]
        return self.peak_bytes.get(bank, 0) / cap if cap else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "peak_bytes": dict(self.peak_bytes),
            "peak_index": dict(self.peak_index),
            "peak_live_registers": self.peak_live_registers,
            "unknown_shape_regs": list(self.unknown_shape_regs),
            "utilization": {bank: self.utilization(bank)
                            for bank in BANK_CAPACITY_BYTES},
        }


def register_pressure(program,
                      bytes_per_elem: int = LOGICAL_BYTES_PER_ELEM
                      ) -> PressureReport:
    """Track live register bytes per bank through the program.

    Most registers are charged at ``bytes_per_elem`` (the modelled FP16
    width).  The destination of an int8 matmul is the exception: the
    PE array accumulates at int32, so those outputs occupy 4 bytes per
    element until freed or overwritten.
    """
    shapes = infer_shapes(program)
    live_bytes: Dict[str, int] = {"m": 0, "v": 0, "s": 0}
    reg_bytes: Dict[str, int] = {}
    peak: Dict[str, int] = {"m": 0, "v": 0, "s": 0}
    peak_idx: Dict[str, int] = {}
    unknown: List[str] = []
    live = 0
    peak_live = 0
    for idx, instr in enumerate(program):
        if isinstance(instr, isa.Free):
            for reg in instr.regs:
                nbytes = reg_bytes.pop(reg, None)
                if nbytes is not None:
                    live_bytes[reg[0]] -= nbytes
                    live -= 1
            continue
        writes = instr.writes()
        if not writes:
            continue
        elem_bytes = bytes_per_elem
        if isinstance(instr, (isa.MpuMv, isa.MpuMmPea)) \
                and instr.dtype == "int8":
            elem_bytes = 4  # int32 accumulator before dequant
        out = shapes[idx]
        for order, reg in enumerate(writes):
            bank = reg[0] if reg[:1] in live_bytes else None
            if bank is None:
                continue
            if out is None:
                if reg not in reg_bytes:
                    unknown.append(reg)
                nbytes = 0
            else:
                nbytes = math.prod(out[order]) * elem_bytes
            old = reg_bytes.get(reg)
            if old is None:
                live += 1
            live_bytes[bank] += nbytes - (old or 0)
            reg_bytes[reg] = nbytes
            if live_bytes[bank] > peak[bank]:
                peak[bank] = live_bytes[bank]
                peak_idx[bank] = idx
        peak_live = max(peak_live, live)
    return PressureReport(
        peak_bytes={b: n for b, n in peak.items() if n},
        peak_index=peak_idx,
        peak_live_registers=peak_live,
        unknown_shape_regs=tuple(sorted(set(unknown))))
