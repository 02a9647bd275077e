"""Generated ISA reference: completeness against the implementation."""

from repro.accelerator import isa, timing_program
from repro.accelerator.isa_reference import (
    NEW_PEA_MNEMONICS,
    isa_reference,
    render_isa_reference,
)
from repro.cli import main
from repro.llm import tiny_config


class TestReferenceTable:
    def test_every_row_documented(self):
        for row in isa_reference():
            assert row["mnemonic"]
            assert row["unit"] != ""
            assert row["semantics"], f"{row['class']} lacks a docstring"

    def test_all_six_pea_instructions_listed(self):
        rendered = render_isa_reference()
        for mnemonic in NEW_PEA_MNEMONICS:
            assert mnemonic in rendered

    def test_reference_covers_compiled_programs(self):
        """Every opcode the compiler can emit appears in the reference."""
        program = timing_program(tiny_config(), batch_tokens=4, ctx_prev=0)
        rendered = render_isa_reference()
        for instr in program:
            base = instr.opcode.split(" ")[0]
            assert base in rendered, f"{base} missing from ISA reference"

    def test_abstract_classes_excluded(self):
        classes = {row["class"] for row in isa_reference()}
        assert "Instruction" not in classes
        assert "VpuBinary" not in classes

    def test_units_are_real(self):
        valid = {u.value for u in isa.Unit} | {
            "pe-array / adder-tree (by m)"}
        for row in isa_reference():
            assert row["unit"] in valid


class TestCliCommands:
    def test_isa_command(self, capsys):
        assert main(["isa"]) == 0
        out = capsys.readouterr().out
        assert "MPU_MM_PEA" in out and "VPU_LAYERNORM" in out

    def test_roofline_command(self, capsys):
        assert main(["roofline", "OPT-13B"]) == 0
        out = capsys.readouterr().out
        assert "CXL-PNM" in out and "memory" in out
