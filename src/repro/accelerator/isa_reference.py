"""Machine-generated ISA reference.

Introspects the instruction classes of :mod:`repro.accelerator.isa` into
a reference table (mnemonic, execution unit, operands, one-line
semantics), so documentation can never drift from the implementation.
Exposed through ``python -m repro isa``.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Dict, List, Type

from repro.accelerator import isa

#: Classes whose opcode depends on operands, with the mnemonics they emit.
_POLYMORPHIC: Dict[Type[isa.Instruction], List[str]] = {
    isa.MpuMaskedMm: ["MPU_MASKEDMM_PEA", "MPU_MASKEDMM_REDUMAX_PEA",
                      "MPU_MASKEDMV"],
    isa.MpuAttnContext: ["MPU_MM_PEA (context)", "MPU_MV (context)"],
    isa.MpuConv2d: ["MPU_CONV2D_PEA", "MPU_CONV2D_GELU_PEA"],
}

#: The six instructions §V-C adds to the DFX ISA for the PE array.
NEW_PEA_MNEMONICS = (
    "MPU_MM_PEA", "MPU_MM_REDUMAX_PEA", "MPU_MASKEDMM_PEA",
    "MPU_MASKEDMM_REDUMAX_PEA", "MPU_CONV2D_PEA", "MPU_CONV2D_GELU_PEA",
)


def _instruction_classes() -> List[Type[isa.Instruction]]:
    abstract = (isa.Instruction, isa.VpuBinary)
    return [obj for _, obj in inspect.getmembers(isa, inspect.isclass)
            if issubclass(obj, isa.Instruction)
            and obj not in abstract
            and dataclasses.is_dataclass(obj)]


def _operands(cls: Type[isa.Instruction]) -> str:
    fields = [f.name for f in dataclasses.fields(cls)]
    return ", ".join(fields) if fields else "-"


def _summary(cls: Type[isa.Instruction]) -> str:
    doc = inspect.getdoc(cls) or ""
    first = doc.splitlines()[0] if doc else ""
    return first.rstrip(".")


def _unit_of(cls: Type[isa.Instruction]) -> str:
    unit = getattr(cls, "UNIT", None)
    if unit is not None:
        return unit.value
    if cls in (isa.MpuMaskedMm, isa.MpuAttnContext):
        return "pe-array / adder-tree (by m)"
    return "-"


def isa_reference() -> List[Dict[str, str]]:
    """One row per instruction class, documentation-ready."""
    rows = []
    for cls in sorted(_instruction_classes(), key=lambda c: c.__name__):
        if cls is isa.VpuBinary:
            continue
        mnemonics = _POLYMORPHIC.get(cls)
        opcode = " / ".join(mnemonics) if mnemonics \
            else getattr(cls, "OPCODE", cls.__name__)
        rows.append({
            "mnemonic": opcode,
            "class": cls.__name__,
            "unit": _unit_of(cls),
            "operands": _operands(cls),
            "semantics": _summary(cls),
        })
    return rows


def render_isa_reference() -> str:
    """Plain-text ISA table."""
    from repro.experiments.report import text_table
    return text_table(isa_reference(),
                      columns=["mnemonic", "unit", "operands", "semantics"])
