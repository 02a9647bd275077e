"""Compact timing programs: head + one decoder layer × num_layers + tail.

The timing compilers emit only decoder layer 0; the scheduler replays
its lowered plan ``num_layers`` times and the checkers shift its memory
windows per layer.  None of that may change a result: a compact program
must schedule, validate and expand exactly as its flat program does.
"""

import dataclasses
import hashlib

import pytest

from repro.accelerator import isa
from repro.accelerator.compiler import (
    StageCompiler,
    batched_timing_program,
    timing_layout,
    timing_program,
)
from repro.analysis.verifier import DEFAULT_ADDRESS_SPACE, memory_windows
from repro.errors import IsaError
from repro.llm.config import OPT_125M, OPT_1_3B, OPT_13B, tiny_config
from repro.perf.simulator import AcceleratorSimulator

MODELS = [OPT_125M, OPT_1_3B, OPT_13B]


def _hex(result):
    """Every field of a SimulationResult, floats by ``float.hex``."""
    return (result.total_time_s.hex(), result.mem_bytes.hex(),
            result.flops.hex(), result.instructions,
            {unit: busy.hex() for unit, busy in result.unit_busy_s.items()})


def _verdict(program):
    try:
        isa.validate_program(program)
    except IsaError as exc:
        return str(exc)
    return None


class TestScheduleReplay:
    @pytest.mark.parametrize("config", MODELS, ids=lambda c: c.name)
    def test_batched_decode_grid(self, config):
        sim = AcceleratorSimulator()
        for quantize in (None, "int8"):
            for batch in (1, 2, 3, 8, 16, 64):
                for ctx_prev in (0, 31, 255):
                    program = batched_timing_program(
                        config, batch, ctx_prev, quantize=quantize)
                    assert _hex(sim.run(program)) \
                        == _hex(sim.run(program.expand())), \
                        (quantize, batch, ctx_prev)

    @pytest.mark.parametrize("config", MODELS, ids=lambda c: c.name)
    @pytest.mark.parametrize("m", [1, 7, 64, 200])
    def test_prefill_expands_to_compile_stage(self, config, m):
        sim = AcceleratorSimulator()
        for quantize in (None, "int8"):
            program = timing_program(config, m, 0, quantize=quantize)
            flat = StageCompiler(timing_layout(config, quantize)) \
                .compile_stage([0] * m, 0)
            assert program.expand() == flat
            assert len(program) == len(flat)
            assert _hex(sim.run(program)) == _hex(sim.run(flat))

    # float.hex of the flat-program scheduler before compact programs
    # existed, and the sha256 of the flat program's repr.
    RECORDED = {
        ("batched", OPT_1_3B, None, 8, 255): (
            "c05f2b90bd4241efb33bccfb46b5e0f066b5fbb749ea72ac1fd71f8aecb5bbcc",
            "0x1.54ce52cb1e561p-5", "0x1.4fd471ba60168p-5"),
        ("batched", OPT_13B, "int8", 64, 31): (
            "598d489450d310d4a8f3fc95a53e5d0e5f60b41f4f4405bee0ea539aa2cceb86",
            "0x1.9ee1f436418eep-2", "0x1.9af044b247cbcp-2"),
        ("prefill", OPT_1_3B, None, 200, 0): (
            "538528d1b419098e2b575bee0d8174a423d836df21584f50443bad05e522cc77",
            "0x1.3f7ab097bab36p-3", "0x1.3e2eed5bec17ap-3"),
    }

    @pytest.mark.parametrize("key", list(RECORDED),
                             ids=lambda k: f"{k[0]}-{k[1].name}-{k[3]}")
    def test_matches_recorded_flat_schedule(self, key):
        kind, config, quantize, n, ctx_prev = key
        make = batched_timing_program if kind == "batched" \
            else timing_program
        program = make(config, n, ctx_prev, quantize=quantize)
        digest, total, pe_busy = self.RECORDED[key]
        flat = tuple(program.expand())
        assert hashlib.sha256(repr(flat).encode()).hexdigest() == digest
        result = AcceleratorSimulator().run(program)
        assert result.total_time_s.hex() == total
        assert result.unit_busy_s[isa.Unit.PE_ARRAY].hex() == pe_busy

    # sha256 over the reprs of every batch >= 2 program of the grid
    # below, recorded while batched_timing_program emitted its own head,
    # layer and tail.
    BATCHED_PROGRAMS_SHA256 = \
        "1067c9434751a4067b45b257204998993f5a8118c0d99f5f7b5844f1d702eb2e"

    def test_batched_programs_match_recorded_digest(self):
        digest = hashlib.sha256()
        for config in MODELS:
            for quantize in (None, "int8"):
                for batch in (2, 3, 8, 16, 64):
                    for ctx_prev in (0, 31, 255):
                        digest.update(repr(batched_timing_program(
                            config, batch, ctx_prev,
                            quantize=quantize)).encode())
        assert digest.hexdigest() == self.BATCHED_PROGRAMS_SHA256

    def test_flat_program_is_the_compact_case_without_layer(self):
        flat = timing_program(tiny_config(), 3, 2).expand()
        as_compact = isa.CompactProgram(flat)
        assert len(as_compact) == len(flat)
        assert as_compact.expand() == flat
        assert _hex(AcceleratorSimulator().run(as_compact)) \
            == _hex(AcceleratorSimulator().run(flat))

    def test_single_layer_model(self):
        config = tiny_config(num_layers=1)
        program = batched_timing_program(config, 3, 5)
        assert program.num_layers == 1 and program.layer_bytes == 0
        assert _hex(AcceleratorSimulator().run(program)) \
            == _hex(AcceleratorSimulator().run(program.expand()))


    def test_layer_boundary_moves_the_carry_and_frees_the_layer(self):
        """A layer whose first load depends on nothing, and whose carry
        is read on another unit than the one that wrote it: replay must
        start the load as a fresh register would and hold the carry's
        reader until the previous layer wrote it."""
        from repro.obs import Tracer

        head = (isa.DmaLoad(dst="m0", addr=0, shape=(256, 256)),)
        layer = (
            isa.DmaLoad(dst="m1", addr=1 << 22, shape=(4, 4)),
            isa.DmaStore(src="m0", addr=1 << 20, shape=(256, 256)),
            isa.VpuGelu(dst="m2", src="m0"),
            isa.VpuAdd(dst="m3", a="m2", b="m1"),
            isa.Free(regs=("m0", "m1", "m2")),
        )
        program = isa.CompactProgram(
            head=head, layer=layer,
            tail=(isa.Free(regs=("m9",)), isa.Barrier()), num_layers=3,
            carry_in="m0", carry_out="m3", reg_stride=(("m", 3),),
            layer_bytes=1 << 24)

        def schedule(code):
            tracer = Tracer()
            result = AcceleratorSimulator(tracer=tracer).run(code)
            spans = [(s.name, s.start_ns, s.dur_ns, s.track)
                     for s in tracer.spans if s.clock == "sim"]
            return _hex(result), spans

        assert schedule(program) == schedule(program.expand())


class TestCompactForm:
    def test_sequence_protocol_reads_the_expansion(self):
        program = batched_timing_program(tiny_config(num_layers=3), 2, 4)
        flat = program.expand()
        assert len(program) == len(flat)
        assert list(program) == list(flat)
        assert program[len(program.head) + len(program.layer)] \
            == flat[program.layer_start(1)]

    def test_layers_are_renamed_and_shifted(self):
        config = tiny_config(num_layers=3)
        program = timing_program(config, 2, 0)
        layout = timing_layout(config)
        assert program.layer_bytes == (layout.addr("layer1.ln1_gamma")
                                       - layout.addr("layer0.ln1_gamma"))
        layer2 = program.layer_at(2)
        assert layer2[0].gamma_addr == layout.addr("layer2.ln1_gamma")
        assert layer2[0].src == program.rename(program.carry_out, 1)

    def test_every_field_is_classified(self):
        """Each register or address field of every instruction is one
        the per-layer relocation renames or shifts."""
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        shifted = isa.ADDRESS_FIELDS | isa.OPTIONAL_ADDRESS_FIELDS
        for cls in subclasses(isa.Instruction):
            for f in dataclasses.fields(cls):
                if f.name.endswith("addr"):
                    assert f.name in shifted, (cls.__name__, f.name)
                elif f.type == "Tuple[str, ...]":
                    assert f.name == "regs", (cls.__name__, f.name)
                elif f.type in ("str", "Optional[str]") \
                        and f.name != "dtype":
                    assert f.name in isa.REGISTER_FIELDS, \
                        (cls.__name__, f.name)

    def test_head_sharing_a_layer_register_is_rejected(self):
        program = timing_program(tiny_config(num_layers=3), 2, 0)
        clash = isa.VpuAdd(dst=program.layer_regs[0], a=program.carry_in,
                           b=program.carry_in)
        with pytest.raises(IsaError, match="head register"):
            dataclasses.replace(program, head=program.head + (clash,))

    def test_tail_naming_an_inner_layer_is_rejected(self):
        program = timing_program(tiny_config(num_layers=3), 2, 0)
        inner = program.rename(program.carry_out, 0)
        tail = (isa.Free(regs=(inner,)),) + program.tail
        with pytest.raises(IsaError, match="tail register"):
            dataclasses.replace(program, tail=tail)


class TestValidationParity:
    @pytest.mark.parametrize("make", [
        lambda: timing_program(OPT_1_3B, 7, 3),
        lambda: timing_program(tiny_config(num_layers=3), 1, 9,
                               quantize="int8"),
        lambda: batched_timing_program(OPT_1_3B, 8, 127),
        lambda: batched_timing_program(tiny_config(num_layers=1), 3, 0),
    ])
    def test_valid_programs(self, make):
        program = make()
        assert _verdict(program) is None
        assert _verdict(program.expand()) is None

    def test_read_before_write_inside_the_layer(self):
        program = timing_program(tiny_config(num_layers=3), 2, 0)
        first = program.layer[0]
        # The first LayerNorm reads the register the layer writes last.
        broken = dataclasses.replace(
            program,
            layer=(dataclasses.replace(first, src=program.carry_out),)
            + program.layer[1:])
        verdict = _verdict(broken)
        assert verdict is not None and "before any write" in verdict
        assert verdict == _verdict(broken.expand())

    def test_carry_dropped_fails_in_layer_one(self):
        """Layer 0 passes; freeing the carry leaves layer 1 nothing to
        read, which only the expansion's layer 1 shows."""
        program = timing_program(tiny_config(num_layers=3), 2, 0)
        free = program.layer[-1]
        broken = dataclasses.replace(program, layer=program.layer[:-1] + (
            isa.Free(regs=free.regs + (program.carry_out,)),))
        verdict = _verdict(broken)
        assert verdict == _verdict(broken.expand())
        assert f"program[{broken.layer_start(1)}]" in verdict

    def test_last_layer_kv_window_beyond_the_address_space(self):
        config = tiny_config(num_layers=3)
        program = timing_program(config, 2, 0)
        kcache = timing_layout(config).regions["layer0.kcache"]
        kv_end = max(addr + nbytes for instr in program.layer
                     for addr, nbytes, _ in memory_windows(instr)
                     if addr == kcache.addr)
        last = program.num_layers - 1
        # Just enough per-layer offset to push the last layer's KV window
        # past the bound; every earlier layer stays inside it.
        step = -(-(DEFAULT_ADDRESS_SPACE - kv_end + 1) // last)
        broken = dataclasses.replace(program, layer_bytes=step + (-step % 4))
        verdict = _verdict(broken)
        assert verdict is not None and "PNM202" in verdict
        assert verdict == _verdict(broken.expand())
        indices = [int(part.split("]")[0])
                   for part in verdict.split("program[")[1:]]
        assert indices and all(
            broken.layer_start(last) <= i < broken.layer_start(last + 1)
            for i in indices)
