"""End-to-end INT8 weight path: quantizer, compiler, executor, analysis.

The quantization contract, layer by layer:

* ``quantize_per_channel`` reconstructs every weight within half a
  quantization step (symmetric per-output-channel scales);
* an int8 session's greedy predictions agree with the fp32 session's
  on >= 95% of teacher-forced steps (both sessions see identical
  prefixes, so disagreements measure rounding, not divergence);
* the fp32 path is bit-identical to the pre-quantization compiler —
  ``quantize=None`` programs carry no int8 instruction and no aux
  addresses;
* the executor's float64 accumulation of int8 codes equals int32
  accumulation bit for bit, up to k = 20,480 (OPT-13B's d_ff);
* ``ProgramCache`` patches quantized templates into exactly the
  program a fresh compile would emit;
* the static analyses know the new instructions: scale/bias windows
  are address-checked, int8 destinations charge int32 pressure, and
  PNM301/PNM302 flag scale-less and mixed-dtype programs that
  ``isa.validate_program`` deliberately still accepts.
"""

import numpy as np
import pytest

from repro.accelerator import isa
from repro.accelerator.compiler import (
    StageCompiler,
    batched_timing_program,
    load_model,
    quantize_per_channel,
    timing_layout,
    timing_program,
)
from repro.accelerator.engine import int8_codes_matmul
from repro.accelerator.memory import DeviceMemory
from repro.analysis import (
    dtype_diagnostics,
    memory_windows,
    register_pressure,
    verify_program,
)
from repro.errors import ConfigurationError, ExecutionError
from repro.llm import ReferenceModel, random_weights, tiny_config
from repro.llm.config import OPT_13B, LLMConfig
from repro.perf.calibration import weight_stream_bytes
from repro.perf.simulator import SimulatedStepTimer
from repro.runtime.session import InferenceSession
from repro.tco.energy import daily_weight_traffic_bytes

CFG = tiny_config()

#: Large enough that int8 rounding can plausibly flip argmaxes while
#: a 64+-step teacher-forced run stays fast.
ACC_CFG = LLMConfig(name="quant-test", d_model=128, num_heads=8,
                    d_ff=512, num_layers=2, vocab_size=512,
                    max_seq_len=128)
PROMPT = [11, 29, 3, 101, 7, 45]


class TestQuantizer:
    def test_roundtrip_within_half_step(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((64, 48)).astype(np.float32)
        codes, scales = quantize_per_channel(w)
        assert codes.dtype == np.float32 and scales.dtype == np.float32
        assert np.all(codes == np.rint(codes))
        assert np.all(np.abs(codes) <= 127)
        err = np.abs(w - codes * scales)
        assert np.all(err <= scales / 2 + 1e-7)

    def test_zero_column_gets_unit_scale(self):
        w = np.zeros((8, 3), dtype=np.float32)
        w[:, 1] = 2.54
        codes, scales = quantize_per_channel(w)
        assert scales[0] == 1.0 and scales[2] == 1.0
        assert np.all(codes[:, 0] == 0) and np.all(codes[:, 2] == 0)
        assert scales[1] == pytest.approx(2.54 / 127)
        assert np.all(codes[:, 1] == 127)

    def test_load_model_rejects_unknown_mode(self):
        weights = random_weights(CFG, seed=0)
        with pytest.raises(ConfigurationError):
            load_model(DeviceMemory(64 << 20), weights, quantize="fp8")

    def test_int8_layout_has_scale_regions(self):
        weights = random_weights(CFG, seed=0)
        layout = load_model(DeviceMemory(64 << 20), weights,
                            quantize="int8")
        assert layout.quantize == "int8"
        assert "lm_head.scale" in layout.regions
        assert "layer0.w_qkv.scale" in layout.regions
        # Unquantized tensors get no scale sibling.
        assert "embedding.scale" not in layout.regions
        assert "layer0.kcache.scale" not in layout.regions


class TestInt8Accuracy:
    def test_teacher_forced_top1_agreement(self):
        weights = random_weights(ACC_CFG, seed=0)
        fp32 = InferenceSession(weights, simulate_timing=False)
        int8 = InferenceSession(weights, simulate_timing=False,
                                quantize="int8")
        num_tokens = 80
        ref = fp32.generate(PROMPT, num_tokens).tokens
        preds = [int8.generate(PROMPT, 1).tokens[0]]
        for token in ref[:-1]:
            preds.append(int8.extend([token], 1).tokens[0])
        agreement = sum(p == r for p, r in zip(preds, ref)) / num_tokens
        assert num_tokens >= 64
        assert agreement >= 0.95

    def test_fp32_session_unchanged_by_quantize_default(self):
        weights = random_weights(CFG, seed=1)
        expected = ReferenceModel(weights).generate(PROMPT[:3], 6)
        got = InferenceSession(weights,
                               simulate_timing=False
                               ).generate(PROMPT[:3], 6)
        assert got.tokens == list(expected)

    def test_int8_executor_requires_scales(self):
        weights = random_weights(CFG, seed=0)
        session = InferenceSession(weights, simulate_timing=False,
                                   quantize="int8")
        bad = [isa.DmaLoad("m0", session.layout.addr("input_buffer"),
                           (1, CFG.d_model)),
               isa.MpuMv("m1", "m0", session.layout.addr("lm_head"),
                         CFG.d_model, CFG.vocab_size, dtype="int8"),
               isa.DmaStore("m1", session.layout.output_region.addr,
                            shape=(1, CFG.vocab_size)),
               isa.Free(("m0", "m1"))]
        session.driver.program(bad)
        with pytest.raises(ExecutionError):
            session.driver.launch()


def _int32_matmul(codes, weight):
    """The int32-accumulating reference: exact, then one float32 cast."""
    return (codes.astype(np.int32) @ weight.astype(np.int32)) \
        .astype(np.float32)


class TestInt8Accumulation:
    # k up to OPT-13B's d_ff; past 2**24 / 127**2 ~ 1,040 the sums no
    # longer fit float32's mantissa, so the final cast really rounds.
    @pytest.mark.parametrize("k", [1, 7, 768, 1041, 5120, 20480])
    def test_random_codes_match_int32_bitwise(self, k):
        rng = np.random.default_rng(k)
        codes = rng.integers(-127, 128, size=(3, k)).astype(np.float32)
        weight = rng.integers(-127, 128, size=(k, 16)).astype(np.float32)
        assert int8_codes_matmul(codes, weight).tobytes() \
            == _int32_matmul(codes, weight).tobytes()

    @pytest.mark.parametrize("k", [1, 1041, 20480])
    def test_all_127_worst_cases_match_int32_bitwise(self, k):
        # Largest-magnitude partial sums: every product is +-127**2.
        codes = np.full((2, k), 127.0, dtype=np.float32)
        codes[1] = -127.0
        weight = np.full((k, 2), 127.0, dtype=np.float32)
        weight[:, 1] = -127.0
        got = int8_codes_matmul(codes, weight)
        assert got.tobytes() == _int32_matmul(codes, weight).tobytes()
        assert got[0, 0] == np.float32(k * 127 * 127)


    @pytest.mark.parametrize("m", [1, 3, 17])
    @pytest.mark.parametrize("k", [8, 128, 512, 1040, 1041, 2048, 3072,
                                   4096])
    def test_float32_chunks_match_int32_bitwise(self, k, m):
        # 1,040 rows is the longest k whose partial sums float32 holds
        # exactly; longer ones run in chunks added in float64.
        rng = np.random.default_rng(k * 100 + m)
        codes = rng.integers(-127, 128, size=(m, k)).astype(np.float32)
        weight = rng.integers(-127, 128, size=(k, 5)).astype(np.float32)
        codes[0] = 127.0
        weight[:, 0] = 127.0
        weight[:, 1] = -127.0
        got = int8_codes_matmul(codes, weight)
        assert got.dtype == np.float32
        assert got.tobytes() == _int32_matmul(codes, weight).tobytes()


class TestCompilerEmission:
    def test_fp32_programs_bit_identical_to_seed(self):
        # The dtype plumbing must be invisible at quantize=None: no
        # int8 instruction, no aux stream, anywhere in the template.
        for program in (timing_program(CFG, 4, 0),
                        batched_timing_program(CFG, 4, 16)):
            for instr in program:
                assert getattr(instr, "dtype", "fp16") == "fp16"
                assert getattr(instr, "scale_addr", -1) == -1
                if isinstance(instr, (isa.MpuMv, isa.MpuMmPea)):
                    assert instr.bias_addr == -1

    def test_int8_matmuls_fuse_scale_and_bias(self):
        program = timing_program(CFG, 1, 16, quantize="int8")
        matmuls = [i for i in program
                   if isinstance(i, (isa.MpuMv, isa.MpuMmPea))]
        assert matmuls and all(m.dtype == "int8" for m in matmuls)
        assert all(m.scale_addr >= 0 for m in matmuls)
        # Layer matmuls fuse their bias; the LM head has none.
        assert sum(m.bias_addr >= 0 for m in matmuls) == len(matmuls) - 1
        # Fused bias means no separate VPU_BIAS on matmul outputs: the
        # only remaining VpuBias uses are outside the weight matmuls.
        fp16 = timing_program(CFG, 1, 16)
        n_bias = sum(isinstance(i, isa.VpuBias) for i in fp16)
        n_bias_q = sum(isinstance(i, isa.VpuBias) for i in program)
        assert n_bias_q == n_bias - 4 * CFG.num_layers

    def test_compiler_requires_scale_regions(self):
        weights = random_weights(CFG, seed=0)
        layout = load_model(DeviceMemory(64 << 20), weights)
        with pytest.raises(ConfigurationError):
            StageCompiler(layout, quantize="int8")

    def test_program_cache_patches_quantized_templates(self):
        weights = random_weights(CFG, seed=0)
        session = InferenceSession(weights, simulate_timing=False,
                                   quantize="int8")
        cache = session.program_cache
        fresh = StageCompiler(session.layout)
        # Warm the template with one token/context, then patch another:
        # the patched clone must equal a from-scratch compile exactly.
        cache.gen_stage(5, context_len=7)
        patched = cache.gen_stage(9, context_len=8)
        scratch = fresh.compile_gen_stage(9, context_len=8)
        assert list(patched) == list(scratch)


class TestTimingModel:
    def test_mem_bytes_arithmetic(self):
        load = isa.DmaLoad("m0", 0, (4, 8))
        assert load.mem_bytes(2) == 64
        assert isa.DmaLoad("m0", 0, (4, 8), dtype="int8").mem_bytes(2) == 32
        mv = isa.MpuMv("m1", "m0", 0, 16, 8)
        assert mv.mem_bytes(2) == 16 * 8 * 2
        q = isa.MpuMv("m1", "m0", 0, 16, 8, dtype="int8", scale_addr=64)
        # int8 weights stream at 1 byte/elem; scales at full width.
        assert q.mem_bytes(2) == 16 * 8 * 1 + 8 * 2
        qb = isa.MpuMv("m1", "m0", 0, 16, 8, dtype="int8",
                       scale_addr=64, bias_addr=128)
        assert qb.mem_bytes(2) == 16 * 8 * 1 + 2 * 8 * 2
        assert q.aux_elems() == 8 and qb.aux_elems() == 16

    def test_rejects_unknown_dtype(self):
        with pytest.raises(Exception):
            isa.DmaLoad("m0", 0, (4, 8), dtype="int4")

    def test_modeled_decode_speedup(self):
        # The acceptance bar: the bandwidth-bound m=1 gen step must be
        # >= 1.8x faster at int8 (weights are ~all the streamed bytes).
        fp16 = SimulatedStepTimer(OPT_13B).decode_step_s(1, 576)
        int8 = SimulatedStepTimer(OPT_13B, quantize="int8"
                                  ).decode_step_s(1, 576)
        assert fp16 / int8 >= 1.8

    def test_traffic_helpers(self):
        assert weight_stream_bytes(1000, 2) == 2000.0
        assert weight_stream_bytes(1000, 1) == 1000.0
        with pytest.raises(ValueError):
            weight_stream_bytes(1000, 0)
        assert daily_weight_traffic_bytes(10.0, 1000) == 20_000.0
        assert daily_weight_traffic_bytes(10.0, 1000, elem_bytes=1) \
            == 10_000.0
        with pytest.raises(ConfigurationError):
            daily_weight_traffic_bytes(-1.0, 1000)


class TestAnalysis:
    def test_scale_and_bias_windows_checked(self):
        q = isa.MpuMv("m1", "m0", 0, 16, 8, dtype="int8",
                      scale_addr=1024, bias_addr=2048)
        windows = memory_windows(q)
        assert (1024, 8 * 4, "load") in windows
        assert (2048, 8 * 4, "load") in windows
        # Defaults must not leak a bogus negative window.
        plain = isa.MpuMv("m1", "m0", 0, 16, 8)
        assert all(addr >= 0 for addr, _n, _k in memory_windows(plain))

    def test_int8_dst_charged_at_int32_width(self):
        program = [isa.DmaLoad("m0", 0, (1, 16)),
                   isa.MpuMv("m1", "m0", 0, 16, 8, dtype="int8",
                             scale_addr=1024),
                   isa.Free(("m0", "m1"))]
        fp16_dst = isa.MpuMv("m1", "m0", 0, 16, 8)
        peak_q = register_pressure(program).peak_bytes["m"]
        peak_f = register_pressure(
            [program[0], fp16_dst, program[2]]).peak_bytes["m"]
        # Same shapes; the int8 accumulator doubles the dst bytes.
        assert peak_q == peak_f + 8 * 2

    def test_pnm301_scaleless_int8_matmul(self):
        program = [isa.DmaLoad("m0", 0, (1, 16)),
                   isa.MpuMv("m1", "m0", 0, 16, 8, dtype="int8"),
                   isa.Free(("m0", "m1"))]
        isa.validate_program(program)  # structurally legal on purpose
        codes = [d.code for d in dtype_diagnostics(program)]
        assert codes == ["PNM301"]
        report = verify_program(program)
        assert not report.ok
        assert {d.code for d in report.errors} == {"PNM301"}

    def test_pnm302_mixed_dtype_program(self):
        program = [isa.DmaLoad("m0", 0, (1, 16)),
                   isa.MpuMv("m1", "m0", 0, 16, 8, dtype="int8",
                             scale_addr=1024),
                   isa.MpuMv("m2", "m1", 4096, 8, 8),
                   isa.Free(("m0", "m1", "m2"))]
        isa.validate_program(program)
        codes = [d.code for d in dtype_diagnostics(program)]
        assert codes == ["PNM302"]

    def test_int8_timing_programs_verify_clean(self):
        layout = timing_layout(CFG, quantize="int8")
        report = verify_program(
            timing_program(CFG, 1, 16, quantize="int8"), layout=layout)
        assert report.ok and report.clean
        batched = verify_program(
            batched_timing_program(CFG, 4, 16, quantize="int8"),
            layout=layout)
        assert batched.ok
        assert {d.code for d in batched.diagnostics} \
            == {"PNM104", "PNM204"}
