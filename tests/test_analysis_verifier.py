"""Static program verifier: known-bad programs and clean-sweep property.

Two halves.  First, hand-built programs seeded with exactly one defect
each — RAW-violating use-before-def, use-after-free, dead write,
overlapping DMA windows, a misaligned KV append, an out-of-bounds DMA —
must each yield the expected diagnostic code *at the expected
instruction index*.  Second, the property the verifier exists to
enforce: every program the shipped compiler emits, across a
batch/context sweep and through the ``ProgramCache`` patching fast
path, verifies clean.
"""

import math

import pytest

from repro.accelerator import isa
from repro.accelerator.compiler import (
    ProgramCache,
    StageCompiler,
    batched_timing_program,
    timing_layout,
    timing_program,
)
from repro.accelerator.engine import Executor
from repro.analysis import (
    AnalysisReport,
    Severity,
    address_diagnostics,
    analyze_program,
    infer_shapes,
    register_pressure,
    store_overlap_diagnostics,
    verify_program,
)
from repro.analysis import verifier
from repro.errors import IsaError, ProgramVerificationError
from repro.llm import get_model, random_weights, tiny_config
from repro.perf.simulator import AcceleratorSimulator
from repro.runtime.session import InferenceSession
from repro.units import KiB


def _load(dst, addr=0, shape=(4, 4)):
    return isa.DmaLoad(dst=dst, addr=addr, shape=shape)


class TestKnownBadPrograms:
    def test_use_before_def_raw_hazard(self):
        # m1 is consumed before anything wrote it: the RAW dependency
        # has no producer.
        program = (
            _load("m0"),
            isa.VpuAdd(dst="m2", a="m0", b="m1"),
        )
        report = verify_program(program)
        diags = report.by_code("PNM101")
        assert len(diags) == 1
        assert diags[0].index == 1
        assert diags[0].severity is Severity.ERROR
        assert "m1" in diags[0].message
        assert not report.ok

    def test_use_after_free(self):
        program = (
            _load("m0"),
            isa.Free(regs=("m0",)),
            isa.VpuGelu(dst="m1", src="m0"),
        )
        report = verify_program(program)
        diags = report.by_code("PNM102")
        assert len(diags) == 1
        assert diags[0].index == 2
        assert not report.ok

    def test_dead_write(self):
        # m0 is written twice with no read in between: the first write
        # is dead.
        program = (
            _load("m0"),
            _load("m0", addr=64),
            isa.DmaStore(src="m0", addr=1024, shape=(4, 4)),
            isa.Free(regs=("m0",)),
        )
        report = verify_program(program)
        diags = report.by_code("PNM104")
        assert len(diags) == 1
        assert diags[0].index == 0  # the overwritten write, not the killer
        assert diags[0].severity is Severity.WARNING
        assert report.ok  # warnings only: still verifies clean

    def test_overlapping_dma_store_windows(self):
        program = (
            _load("m0", shape=(4, 4)),
            isa.DmaStore(src="m0", addr=256, shape=(4, 4)),
            isa.DmaStore(src="m0", addr=288, shape=(4, 4)),  # overlaps
            isa.Free(regs=("m0",)),
        )
        report = verify_program(program)
        diags = report.by_code("PNM204")
        assert len(diags) == 1
        assert diags[0].index == 2
        assert "program[1]" in diags[0].message

    def test_barrier_separates_store_windows(self):
        program = (
            _load("m0", shape=(4, 4)),
            isa.DmaStore(src="m0", addr=256, shape=(4, 4)),
            isa.Barrier(),
            isa.DmaStore(src="m0", addr=256, shape=(4, 4)),
            isa.Free(regs=("m0",)),
        )
        assert not verify_program(program).by_code("PNM204")

    def test_misaligned_kv_append(self):
        # A KV append whose row offset is not element-aligned.
        program = (
            _load("m0", shape=(1, 16)),
            isa.DmaStore(src="m0", addr=4 * KiB + 2, shape=(1, 16)),
            isa.Free(regs=("m0",)),
        )
        report = verify_program(program)
        diags = report.by_code("PNM203")
        assert len(diags) == 1
        assert diags[0].index == 1
        assert not report.ok

    def test_out_of_bounds_dma(self):
        program = (_load("m0", addr=2 ** 50, shape=(8, 8)),
                   isa.Free(regs=("m0",)))
        report = verify_program(program)
        diags = report.by_code("PNM202")
        assert len(diags) == 1
        assert diags[0].index == 0
        assert not report.ok

    def test_negative_address(self):
        program = (isa.DmaStore(src="m0", addr=-4, shape=(1,)),)
        report = verify_program(program)
        assert report.by_code("PNM201")[0].index == 0

    def test_leaked_register(self):
        program = (_load("m0"), isa.VpuGelu(dst="m1", src="m0"),
                   isa.Free(regs=("m0",)))
        report = verify_program(program)
        codes = report.codes()
        assert "PNM105" in codes  # m1 never freed
        assert report.ok

    def test_free_of_unknown_register(self):
        program = (isa.Free(regs=("m9",)),)
        report = verify_program(program)
        assert report.by_code("PNM103")[0].index == 0


class TestLayoutAwareChecks:
    def test_window_crossing_region_boundary(self):
        cfg = tiny_config()
        layout = timing_layout(cfg)
        region = layout.regions["token_embedding"]
        # Start inside the embedding table but read past its end.
        elems = region.nbytes // 4
        program = (
            isa.DmaLoad(dst="m0", addr=region.addr, shape=(elems + 4,)),
            isa.Free(regs=("m0",)),
        )
        report = verify_program(program, layout=layout)
        diags = report.by_code("PNM205")
        assert len(diags) == 1 and diags[0].index == 0

    def test_store_to_read_only_region(self):
        cfg = tiny_config()
        layout = timing_layout(cfg)
        program = (
            isa.DmaLoad(dst="m0", addr=layout.addr("input_buffer"),
                        shape=(1, cfg.d_model)),
            isa.DmaStore(src="m0", addr=layout.addr("layer0.w_qkv"),
                         shape=(1, cfg.d_model)),
            isa.Free(regs=("m0",)),
        )
        report = verify_program(program, layout=layout)
        diags = report.by_code("PNM206")
        assert len(diags) == 1 and diags[0].index == 1
        assert "w_qkv" in diags[0].message

    def test_kv_cache_store_is_legal(self):
        cfg = tiny_config()
        layout = timing_layout(cfg)
        program = (
            isa.DmaLoad(dst="m0", addr=layout.addr("input_buffer"),
                        shape=(1, cfg.d_model)),
            isa.DmaStore(src="m0", addr=layout.addr("layer0.kcache"),
                         shape=(1, cfg.d_model)),
            isa.Free(regs=("m0",)),
        )
        assert verify_program(program, layout=layout).clean


class TestRegisterPressure:
    """Subsumes the ad-hoc budget checks in test_register_pressure.py:
    the same hoarding construction now yields a PNM106 diagnostic
    statically, before anything executes."""

    def test_hoarding_exceeds_budget(self):
        # 16 live 256x256 fp16 tensors = 2 MiB logical; budget 1 MiB.
        program = tuple(_load(f"m{i}", shape=(256, 256))
                        for i in range(16))
        report = verify_program(program,
                                budgets={"m": 1024 * KiB})
        diags = report.by_code("PNM106")
        assert len(diags) == 1
        assert diags[0].severity is Severity.ERROR
        assert not report.ok

    def test_freeing_stays_under_budget(self):
        code = []
        for i in range(16):
            code.append(_load(f"m{i}", shape=(256, 256)))
            code.append(isa.Free(regs=(f"m{i}",)))
        report = verify_program(tuple(code), budgets={"m": 1024 * KiB})
        assert not report.by_code("PNM106")

    def test_compiled_stage_fits_table_ii_budgets(self):
        cfg = tiny_config()
        program = timing_program(cfg, batch_tokens=4, ctx_prev=8)
        pressure = register_pressure(program)
        assert not pressure.unknown_shape_regs
        assert 0 < pressure.utilization("m") < 1.0

    def test_row_maxima_charged_at_their_shape(self):
        # A 3-row masked matmul over 2 heads writes (2, 3, 8) scores and
        # (2, 3, 1) row maxima: 6 fp16 maxima in the v bank, not 2.
        program = (_load("m0", shape=(3, 8)),
                   isa.MpuMaskedMm(dst="m1", q="m0", k_addr=0, heads=2,
                                   head_dim=4, ctx=8, m=3, scale=0.5,
                                   mask_offset=5, rowmax_dst="v0"),
                   isa.Free(regs=("m0", "m1", "v0")))
        pressure = register_pressure(program)
        assert pressure.peak_bytes["v"] == 2 * 3 * 1 * 2
        assert pressure.peak_bytes["m"] == (3 * 8 + 2 * 3 * 8) * 2

    def test_unknown_input_is_tolerated(self):
        program = (isa.VpuGelu(dst="m1", src="m0"),
                   _load("m2", shape=(4, 8)),
                   isa.VpuAdd(dst="m3", a="m1", b="m2"),
                   isa.Free(regs=("m1", "m2", "m3")))
        assert infer_shapes(program) == [None, ((4, 8),), None, ()]
        pressure = register_pressure(program)
        assert pressure.unknown_shape_regs == ("m1", "m3")
        assert pressure.peak_bytes["m"] == 4 * 8 * 2

    def test_pressure_report_peaks(self):
        program = (_load("m0", shape=(64, 64)),
                   _load("v0", shape=(64,)),
                   isa.Free(regs=("m0", "v0")))
        pressure = register_pressure(program)
        assert pressure.peak_bytes["m"] == 64 * 64 * 2
        assert pressure.peak_bytes["v"] == 64 * 2
        assert pressure.peak_live_registers == 2


class TestDataflowFacts:
    def test_hazard_edge_counts(self):
        program = (
            _load("m0"),
            isa.VpuGelu(dst="m1", src="m0"),   # RAW on m0
            _load("m0", addr=64),              # WAR on m0
            isa.VpuGelu(dst="m1", src="m0"),   # RAW on m0, WAW on m1
            isa.Free(regs=("m0", "m1")),
        )
        facts = analyze_program(program)
        assert facts.raw_edges == 2
        assert facts.war_edges == 1
        assert facts.waw_edges == 1
        # m1's write at [1] is killed by [3]; the value from [3] is
        # freed unread — both are dead writes.
        assert facts.dead_writes == [(1, "m1"), (3, "m1")]

    def test_shape_inference_matches_simulator_rules(self, monkeypatch):
        """The ISA's shape rule against the executor's arrays.

        Tiny compiled stages (fp32 and int8; a 3-token prefill, a
        1-token gen step, a 4-token stage at context 4) run on an
        :class:`Executor`; every register it writes, row maxima
        included, has the shape ``out_shapes`` states, and
        ``infer_shapes`` and the simulator's lowering use those same
        shapes.  So does a hand-built program that feeds a 1-D register
        to MPU_TRANSPOSE, VPU_ROW, VPU_SLICE, VPU_BIAS and
        VPU_LAYERNORM.
        """
        weights = random_weights(tiny_config(), seed=3)
        written, priced = [], []
        for quantize in (None, "int8"):
            session = InferenceSession(weights, simulate_timing=False,
                                       quantize=quantize)
            executor = Executor(session.memory)
            simulator = AcceleratorSimulator(memoize=False)
            write, cost = executor.registers.write, simulator._cost

            def spy_write(reg, value, write=write):
                written.append((reg, value.shape))
                write(reg, value)

            def spy_cost(instr, out_elems, cost=cost):
                priced.append(out_elems)
                return cost(instr, out_elems)

            monkeypatch.setattr(executor.registers, "write", spy_write)
            monkeypatch.setattr(simulator, "_cost", spy_cost)
            gamma = session.layout.addr("ln_f_gamma")
            beta = session.layout.addr("ln_f_beta")
            vector = (isa.DmaLoad("v0", gamma, (4,)),
                      isa.MpuTranspose("v1", "v0"),
                      isa.VpuRow("v2", "v0", row=-1),
                      isa.VpuSlice("v3", "v0", 1, 3),
                      isa.VpuBias("v4", "v0", bias_addr=beta, n=4),
                      isa.VpuLayerNorm("v5", "v0", gamma_addr=gamma,
                                       beta_addr=beta, n=4))
            for tokens, ctx_prev in (([1, 2, 3], 0), ([4], 3),
                                     ([5, 6, 7, 8], 4), (None, None)):
                program = vector if tokens is None \
                    else session.compiler.compile_stage(tokens, ctx_prev)
                del written[:], priced[:]
                executor.execute(program)
                simulator.run(program)
                shapes, rule = {}, []
                for instr in program:
                    rule.append(isa.propagate_shapes(instr, shapes))
                assert written == [
                    pair for instr, out in zip(program, rule)
                    for pair in zip(instr.writes(), out)]
                assert infer_shapes(program) == rule
                assert priced == [math.prod(out[0]) if out else 0
                                  for instr, out in zip(program, rule)
                                  if not isinstance(instr, isa.Barrier)]
                if tokens is None:
                    assert rule[1:] == [((4,),), ((1,),), ((2,),),
                                        ((4,),), ((4,),)]
                else:
                    assert any(len(out) == 2 for out in rule)  # row maxima


class TestCompilerOutputsVerifyClean:
    """The property the verifier enforces: shipped programs are clean."""

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("ctx_prev", [0, 3, 17])
    def test_stage_sweep_clean(self, m, ctx_prev):
        cfg = tiny_config()
        layout = timing_layout(cfg)
        program = StageCompiler(layout).compile_stage([1] * m, ctx_prev)
        report = verify_program(program, layout=layout)
        assert report.clean, report.render()

    def test_program_cache_patched_programs_clean(self):
        cfg = tiny_config()
        layout = timing_layout(cfg)
        cache = ProgramCache(StageCompiler(layout))
        for ctx_prev in (2, 5, 9):
            program = cache.stage((7,), ctx_prev)
            report = verify_program(program, layout=layout)
            assert report.clean, report.render()
        assert cache.hits >= 2

    def test_opt13b_service_geometry_clean(self):
        cfg = get_model("OPT-13B")
        program = timing_program(cfg, batch_tokens=1, ctx_prev=576)
        report = verify_program(program, layout=timing_layout(cfg))
        assert report.clean, report.render()

    def test_batched_decode_no_errors(self):
        cfg = tiny_config()
        program = batched_timing_program(cfg, batch=4, ctx_prev=8)
        report = verify_program(program, layout=timing_layout(cfg))
        assert report.ok, report.render()
        # The per-request loop intentionally reuses registers and
        # re-stores KV rows at the same fake addresses; the verifier
        # must describe that as warnings, nothing else.
        assert set(report.codes()) == {"PNM104", "PNM204"}


class TestVerifyStaticHook:
    def test_results_bit_identical_with_hook_on(self):
        cfg = tiny_config()
        weights = random_weights(cfg, seed=3)
        plain = InferenceSession(weights)
        checked = InferenceSession(weights, verify_static=True)
        t_plain = plain.generate([1, 2, 3], 6)
        t_checked = checked.generate([1, 2, 3], 6)
        assert t_plain.tokens == t_checked.tokens
        assert t_plain.stage_times_s == t_checked.stage_times_s

    def test_hook_checks_once_per_timing_key(self):
        cfg = tiny_config()
        layout = timing_layout(cfg)
        cache = ProgramCache(StageCompiler(layout), verify_static=True)
        cache.stage((1,), 4)
        cache.stage((2,), 4)  # same key (m=1, ctx_prev=4): no re-verify
        assert len(cache._static_ok) == 1
        cache.stage((1,), 5)
        assert len(cache._static_ok) == 2

    def test_hook_raises_on_bad_program(self):
        cfg = tiny_config()
        layout = timing_layout(cfg)
        cache = ProgramCache(StageCompiler(layout), verify_static=True)

        real_compile = cache.compiler.compile_stage
        weights_addr = layout.addr("layer0.w_qkv")

        def bad_compile(tokens, ctx_prev):
            # Structurally valid (passes isa.validate_program) but
            # stores into a read-only weights region: only the
            # layout-aware static verifier can catch it.
            prologue = (
                isa.DmaLoad(dst="m999", addr=weights_addr,
                            shape=(1, cfg.d_model)),
                isa.DmaStore(src="m999", addr=weights_addr,
                             shape=(1, cfg.d_model)),
                isa.Free(regs=("m999",)),
            )
            return prologue + real_compile(tokens, ctx_prev)

        cache.compiler.compile_stage = bad_compile
        with pytest.raises(ProgramVerificationError, match="PNM206"):
            cache.stage((1,), 4)


class TestValidateProgramAddressRegression:
    """Satellite: ``isa.validate_program`` surfaces the verifier's
    bounds/alignment diagnostics (when repro.analysis is importable)."""

    def test_out_of_bounds_dma_rejected(self):
        bad = (isa.DmaLoad(dst="m0", addr=2 ** 50, shape=(4, 4)),)
        with pytest.raises(IsaError, match="PNM202"):
            isa.validate_program(bad)

    def test_misaligned_dma_rejected(self):
        bad = (isa.DmaLoad(dst="m0", addr=6, shape=(2,)),)
        with pytest.raises(IsaError, match="PNM203"):
            isa.validate_program(bad)

    def test_negative_address_rejected(self):
        bad = (isa.DmaLoad(dst="m0", addr=-64, shape=(2,)),)
        with pytest.raises(IsaError, match="PNM201"):
            isa.validate_program(bad)

    def test_clean_program_still_validates(self):
        cfg = tiny_config()
        program = timing_program(cfg, batch_tokens=1, ctx_prev=2)
        isa.validate_program(program)  # should not raise


class TestStoreOverlapScan:
    """PNM204 is its own scan, run by verify_program only."""

    def test_validate_program_never_runs_the_scan(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("overlap scan on the validation path")

        monkeypatch.setattr(verifier, "store_overlap_diagnostics", refuse)
        program = batched_timing_program(tiny_config(), batch=4, ctx_prev=8)
        isa.validate_program(program)
        isa.validate_program(program.expand())

    def test_address_diagnostics_holds_errors_only(self):
        program = batched_timing_program(tiny_config(), batch=4, ctx_prev=8)
        assert address_diagnostics(program) == []
        assert store_overlap_diagnostics(program)

    def test_errors_precede_the_overlap_at_one_index(self):
        program = (
            _load("m0", shape=(4, 4)),
            isa.DmaStore(src="m0", addr=256, shape=(4, 4)),
            isa.DmaStore(src="m0", addr=258, shape=(4, 4)),
            isa.Free(regs=("m0",)),
        )
        at_two = [d.code for d in verify_program(program).diagnostics
                  if d.index == 2]
        assert at_two == ["PNM203", "PNM204"]

    def test_out_of_bounds_store_is_not_an_overlap(self):
        program = (
            _load("m0", shape=(4, 4)),
            isa.DmaStore(src="m0", addr=2 ** 50, shape=(4, 4)),
            isa.DmaStore(src="m0", addr=2 ** 50, shape=(4, 4)),
            isa.Free(regs=("m0",)),
        )
        report = verify_program(program)
        assert len(report.by_code("PNM202")) == 2
        assert not report.by_code("PNM204")


class TestReportModel:
    def test_as_dict_round_trip(self):
        program = (_load("m0", addr=2 ** 50),)
        report = verify_program(program, subject="bad")
        data = report.as_dict()
        assert data["subject"] == "bad"
        assert data["ok"] is False and data["clean"] is False
        assert data["counts"]["error"] >= 1
        first = data["diagnostics"][0]
        assert {"code", "severity", "message", "location"} <= set(first)

    def test_render_sorts_errors_first(self):
        program = (
            _load("m0"),
            _load("m0", addr=2 ** 50),       # dead write + OOB
            isa.VpuAdd(dst="m1", a="m0", b="m9"),  # use-before-def m9
        )
        rendered = verify_program(program).render()
        lines = [ln for ln in rendered.splitlines() if "PNM" in ln]
        assert "error" in lines[0]
        assert lines[-1].startswith("  warning") or "warning" in lines[-1]

    def test_merged_reports(self):
        a = verify_program((_load("m0"), isa.Free(regs=("m0",))))
        b = verify_program((_load("m0", addr=-4),))
        merged = a.merged(b)
        assert isinstance(merged, AnalysisReport)
        assert not merged.ok
