"""Static verifier for compiled PNM ISA programs.

Combines three analyses into one :class:`AnalysisReport`:

* **Register dataflow** (:mod:`repro.analysis.dataflow`): use-before-def
  (PNM101), use-after-free (PNM102), free-of-unknown (PNM103), dead
  writes (PNM104), leaked registers (PNM105).
* **Register-file pressure**: peak live bytes per bank at the modelled
  FP16 width against the Table II budgets — 48 MB matrix, 14 MB vector,
  1 MB scalar (PNM106).
* **Device address space**: every memory window an instruction touches
  (DMA transfers, streamed weights/bias/LN parameters, aggregated KV
  reads) must be non-negative (PNM201), inside the device address space
  (PNM202), and 4-byte aligned (PNM203); DMA stores between two
  barriers must not overlap (PNM204).  When a :class:`ModelLayout` is
  supplied the checks become layout-aware: windows must stay inside the
  region they start in (PNM205) and stores may only target mutable
  regions — the per-layer KV caches and the I/O buffers (PNM206).
* **Weight dtype** (PNM3xx): an int8 matmul must name its per-channel
  scale tensor (PNM301), and a program must not mix int8 and fp16
  weight matmuls — the MAC datapath's weight precision is a
  program-level mode on the DFX-lineage design (PNM302).

A program **verifies clean** when the report has no ERRORs
(``report.ok``).  Warnings flag legal-but-suspicious constructs that
shipped timing templates intentionally contain — e.g. at batch >= 2
``batched_timing_program`` re-stores each request's KV row at the same
fake address, which is exactly what PNM204 describes.  That program is
timed, not executed: running it needs per-request KV addresses and row
shapes.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.accelerator import isa

from .dataflow import (
    BANK_CAPACITY_BYTES,
    analyze_program,
    register_pressure,
)
from .diagnostics import AnalysisReport, Diagnostic, Severity

#: Functional device memory stores fp32 (timing charges FP16 at the
#: register file; the *address space* is laid out at 4 bytes/element).
DEVICE_BYTES_PER_ELEM = 4

#: Minimum DMA/stream alignment.  Device regions are cacheline-aligned;
#: element-granular sub-offsets (KV rows, position-embedding rows) are
#: always whole fp32 elements, so every legal address is 4-byte aligned.
ADDRESS_ALIGNMENT = 4

#: Default device address-space bound when neither a layout nor a
#: capacity is supplied: a 48-bit host-managed device-memory window.
#: Deliberately generous — timing-only fake layouts for the largest
#: MODEL_ZOO entries (OPT-175B, GPT-3 175B) span ~0.7 TB.
DEFAULT_ADDRESS_SPACE = 1 << 48

#: Region-name suffixes/names a DMA store may legally target.  Weights,
#: biases, LN parameters, and embedding tables are written once at model
#: load and are read-only to compiled programs.
_MUTABLE_SUFFIXES = ("kcache", "vcache")
_MUTABLE_NAMES = ("input_buffer", "output_buffer")


def _region_is_mutable(name: str) -> bool:
    return name.endswith(_MUTABLE_SUFFIXES) or name in _MUTABLE_NAMES


def _numel(shape: Tuple[int, ...]) -> int:
    n = 1
    for dim in shape:
        n *= dim
    return n


def memory_windows(instr) -> List[Tuple[int, int, str]]:
    """``(addr, nbytes, kind)`` windows an instruction touches.

    ``kind`` is ``"load"`` (device -> register / streamed operand) or
    ``"store"`` (register -> device).  Windows are in bytes at the
    functional fp32 width.
    """
    windows: List[Tuple[int, int, str]] = []
    b = DEVICE_BYTES_PER_ELEM
    if isinstance(instr, isa.DmaLoad):
        windows.append((instr.addr, _numel(instr.shape) * b, "load"))
    elif isinstance(instr, isa.DmaStore):
        nbytes = _numel(instr.shape) * b if instr.shape else 0
        windows.append((instr.addr, nbytes, "store"))
    elif isinstance(instr, isa.DmaGather):
        row = instr.row_elems * b
        top = (max(instr.indices) + 1) if instr.indices else 0
        windows.append((instr.table_addr, top * row, "load"))
    elif isinstance(instr, (isa.MpuMv, isa.MpuMmPea)):
        windows.append((instr.weight_addr, instr.k * instr.n * b, "load"))
        # Quantization side streams: per-channel scales and the fused
        # bias live at the functional fp32 width like everything else.
        if instr.scale_addr >= 0:
            windows.append((instr.scale_addr, instr.n * b, "load"))
        if instr.bias_addr >= 0:
            windows.append((instr.bias_addr, instr.n * b, "load"))
    elif isinstance(instr, isa.MpuMaskedMm):
        nbytes = instr.ctx * instr.heads * instr.head_dim * b
        windows.append((instr.k_addr, nbytes, "load"))
    elif isinstance(instr, isa.MpuAttnContext):
        nbytes = instr.ctx * instr.heads * instr.head_dim * b
        windows.append((instr.v_addr, nbytes, "load"))
    elif isinstance(instr, isa.MpuConv2d):
        nbytes = instr.out_ch * instr.in_ch * instr.kh * instr.kw * b
        windows.append((instr.weight_addr, nbytes, "load"))
    elif isinstance(instr, isa.VpuBias):
        windows.append((instr.bias_addr, instr.n * b, "load"))
    elif isinstance(instr, isa.VpuLayerNorm):
        windows.append((instr.gamma_addr, instr.n * b, "load"))
        windows.append((instr.beta_addr, instr.n * b, "load"))
    return windows


def _find_region(regions, addr: int):
    for region in regions:
        if region.addr <= addr < region.end:
            return region
    return None


def _address_bound(regions, memory_capacity: Optional[int]) -> int:
    if memory_capacity is not None:
        return memory_capacity
    if regions:
        return max(r.end for r in regions)
    return DEFAULT_ADDRESS_SPACE


def _program_windows(program) -> Iterator[Tuple[int, isa.Instruction, int,
                                               int, str]]:
    """``(index, instruction, addr, nbytes, kind)`` for every memory
    window of ``program``, in flat program order.

    On a :class:`~repro.accelerator.isa.CompactProgram`, layer ``i``'s
    windows are layer 0's shifted by ``i × layer_bytes``: every layer is
    checked, and nothing is expanded.
    """
    if not isinstance(program, isa.CompactProgram):
        program = isa.CompactProgram(tuple(program))
    for idx, instr in enumerate(program.head):
        for window in memory_windows(instr):
            yield (idx, instr, *window)
    layer = [(j, instr, memory_windows(instr))
             for j, instr in enumerate(program.layer)]
    for i in range(program.num_layers):
        start, shift = program.layer_start(i), i * program.layer_bytes
        for j, instr, windows in layer:
            for addr, nbytes, kind in windows:
                yield start + j, instr, addr + shift, nbytes, kind
    start = program.layer_start(program.num_layers)
    for idx, instr in enumerate(program.tail, start):
        for window in memory_windows(instr):
            yield (idx, instr, *window)


def address_diagnostics(program, *, layout=None,
                        memory_capacity: Optional[int] = None
                        ) -> List[Diagnostic]:
    """PNM201-203, PNM205-206: bounds, alignment and layout-aware checks.

    Every finding is an ERROR.  Overlapping stores (PNM204 warnings) are
    :func:`store_overlap_diagnostics`.
    """
    diags: List[Diagnostic] = []
    regions = list(layout.regions.values()) if layout is not None else []
    bound = _address_bound(regions, memory_capacity)

    def error(code: str, message: str) -> None:
        diags.append(Diagnostic(code, Severity.ERROR, message,
                                location=f"program[{idx}]", index=idx,
                                source=instr.opcode))

    for idx, instr, addr, nbytes, kind in _program_windows(program):
        if addr < 0:
            error("PNM201", f"negative device address {addr}")
            continue
        if addr + nbytes > bound:
            error("PNM202", f"window [{addr:#x}, {addr + nbytes:#x}) "
                            f"exceeds the device address space "
                            f"({bound:#x} bytes)")
            continue
        if addr % ADDRESS_ALIGNMENT:
            error("PNM203", f"address {addr:#x} is not "
                            f"{ADDRESS_ALIGNMENT}-byte aligned")
        if regions and nbytes > 0:
            region = _find_region(regions, addr)
            if region is None:
                error("PNM205", f"window start {addr:#x} falls outside "
                                f"every layout region")
            elif addr + nbytes > region.end:
                error("PNM205", f"window [{addr:#x}, {addr + nbytes:#x}) "
                                f"crosses the end of region "
                                f"'{region.name}' ({region.end:#x})")
            elif kind == "store" and not _region_is_mutable(region.name):
                error("PNM206",
                      f"store into read-only region '{region.name}'")
    return diags


def store_overlap_diagnostics(program, *, layout=None,
                              memory_capacity: Optional[int] = None
                              ) -> List[Diagnostic]:
    """PNM204: DMA store windows that overlap with no barrier between.

    Quadratic in the stores between two barriers, so only
    :func:`verify_program` runs it.  Windows that fail PNM201/PNM202
    are skipped: :func:`address_diagnostics` reports those.
    """
    diags: List[Diagnostic] = []
    regions = list(layout.regions.values()) if layout is not None else []
    bound = _address_bound(regions, memory_capacity)
    #: store windows seen since the last barrier: (index, addr, nbytes)
    stores: List[Tuple[int, int, int]] = []
    for idx, instr in enumerate(program):
        if isinstance(instr, isa.Barrier):
            stores.clear()
            continue
        for addr, nbytes, kind in memory_windows(instr):
            if kind != "store" or nbytes <= 0 or addr < 0 \
                    or addr + nbytes > bound:
                continue
            for prev_idx, prev_addr, prev_bytes in stores:
                if addr < prev_addr + prev_bytes \
                        and prev_addr < addr + nbytes:
                    diags.append(Diagnostic(
                        "PNM204", Severity.WARNING,
                        f"store window [{addr:#x}, {addr + nbytes:#x}) "
                        f"overlaps the store at program[{prev_idx}] with "
                        f"no intervening barrier",
                        location=f"program[{idx}]", index=idx,
                        source=instr.opcode))
                    break
            stores.append((idx, addr, nbytes))
    return diags


def dtype_diagnostics(program) -> List[Diagnostic]:
    """PNM301/PNM302: weight-dtype consistency for int8 programs.

    * PNM301 — an int8 matmul without a per-channel scale tensor
      (``scale_addr < 0``): the executor cannot dequantize the int32
      accumulator and refuses the instruction at run time.
    * PNM302 — a single program mixing int8 and fp16 weight matmuls:
      the MAC datapath's weight precision is a program-level mode, so a
      compiler must emit a whole stage at one width.
    """
    diags: List[Diagnostic] = []
    seen_dtypes: Dict[str, int] = {}
    for idx, instr in enumerate(program):
        if not isinstance(instr, (isa.MpuMv, isa.MpuMmPea)):
            continue
        loc = f"program[{idx}]"
        if instr.dtype == "int8" and instr.scale_addr < 0:
            diags.append(Diagnostic(
                "PNM301", Severity.ERROR,
                "int8 matmul has no per-channel scale tensor "
                "(scale_addr < 0); the int32 accumulator cannot be "
                "dequantized",
                location=loc, index=idx, source=instr.opcode))
        if instr.dtype not in seen_dtypes:
            seen_dtypes[instr.dtype] = idx
            if len(seen_dtypes) == 2:
                first_dtype, first_idx = next(iter(seen_dtypes.items()))
                diags.append(Diagnostic(
                    "PNM302", Severity.ERROR,
                    f"program mixes weight dtypes: this {instr.dtype} "
                    f"matmul follows the {first_dtype} matmul at "
                    f"program[{first_idx}]",
                    location=loc, index=idx, source=instr.opcode))
    return diags


def dataflow_diagnostics(program) -> List[Diagnostic]:
    """PNM101-PNM105: register def/use/free violations."""
    facts = analyze_program(program)
    diags: List[Diagnostic] = []

    def emit(pairs: Iterable[Tuple[int, str]], code: str,
             severity: Severity, fmt: str) -> None:
        for idx, reg in pairs:
            diags.append(Diagnostic(
                code, severity, fmt.format(reg=reg),
                location=f"program[{idx}]", index=idx,
                source=program[idx].opcode))

    emit(facts.use_before_def, "PNM101", Severity.ERROR,
         "register {reg} read before any write")
    emit(facts.use_after_free, "PNM102", Severity.ERROR,
         "register {reg} accessed after FREE")
    emit(facts.bad_free, "PNM103", Severity.WARNING,
         "FREE of register {reg} which holds no live value")
    emit(facts.dead_writes, "PNM104", Severity.WARNING,
         "value written to {reg} is never read")
    for reg in facts.unfreed:
        last_def = facts.defs[reg][-1]
        diags.append(Diagnostic(
            "PNM105", Severity.WARNING,
            f"register {reg} is still live at program end (never freed)",
            location=f"program[{last_def}]", index=last_def,
            source=program[last_def].opcode))
    diags.sort(key=lambda d: (d.index if d.index is not None else -1,
                              d.code))
    return diags


def pressure_diagnostics(program,
                         budgets: Optional[Dict[str, int]] = None
                         ) -> List[Diagnostic]:
    """PNM106: peak register-file pressure against per-bank budgets."""
    budgets = budgets if budgets is not None else BANK_CAPACITY_BYTES
    report = register_pressure(program)
    diags: List[Diagnostic] = []
    for bank, peak in sorted(report.peak_bytes.items()):
        budget = budgets.get(bank)
        if budget is not None and peak > budget:
            idx = report.peak_index.get(bank)
            diags.append(Diagnostic(
                "PNM106", Severity.ERROR,
                f"peak {bank}-bank pressure {peak} B exceeds the "
                f"{budget} B register-file budget "
                f"({peak / budget:.2f}x)",
                location=f"program[{idx}]" if idx is not None else "",
                index=idx,
                source=program[idx].opcode if idx is not None else None))
    return diags


def verify_program(program, *, layout=None,
                   memory_capacity: Optional[int] = None,
                   budgets: Optional[Dict[str, int]] = None,
                   check_pressure: bool = True,
                   subject: str = "") -> AnalysisReport:
    """Run all static checks over a program; never raises on findings.

    Args:
        program: Any sequence of :class:`repro.accelerator.isa.Instruction`.
        layout: Optional :class:`ModelLayout` (real or fake) enabling the
            layout-aware region checks (PNM205/PNM206) and an exact
            address-space bound.
        memory_capacity: Optional explicit address-space bound in bytes;
            overrides the layout-derived bound.
        budgets: Per-bank register-file budgets (defaults to Table II).
        check_pressure: Disable to skip shape inference (cheapest mode).
        subject: Label for the report (e.g. ``"gen m=1 ctx=576"``).
    """
    diags: List[Diagnostic] = []
    diags.extend(dataflow_diagnostics(program))
    # Address errors and overlap warnings in program order, as one scan
    # used to report them (at one index, the errors come first).
    diags.extend(heapq.merge(
        address_diagnostics(program, layout=layout,
                            memory_capacity=memory_capacity),
        store_overlap_diagnostics(program, layout=layout,
                                  memory_capacity=memory_capacity),
        key=lambda d: d.index))
    diags.extend(dtype_diagnostics(program))
    if check_pressure:
        diags.extend(pressure_diagnostics(program, budgets))
    return AnalysisReport.collect(diags, subject=subject)
