"""Token-loop fast path is invisible to results.

The decode fast path stacks a program cache (compile once, patch
immediates), validate-once registration, a memoized duration model,
whole-program timing reuse, and vectorized executor kernels.  Every test
here pins the same property from a different angle: with all caches on,
generations are token-exact and simulated numbers are bit-identical to
the uncached seed behaviour.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerator import DeviceMemory, Executor, isa
from repro.accelerator.compiler import (ProgramCache, batched_timing_program,
                                        timing_program)
from repro.accelerator.dfx import dfx_device
from repro.accelerator.engine import (_fast_gelu, _fast_layernorm,
                                      _fast_softmax)
from repro.appliance import simulated_step_model
from repro.errors import ConfigurationError
from repro.experiments.sweep import run_sweep
from repro.llm import ReferenceModel, random_weights, tiny_config
from repro.llm.reference import gelu, layernorm, softmax
from repro.perf.simulator import AcceleratorSimulator, SimulatedStepTimer
from repro.runtime import InferenceSession
from repro.units import MiB


@pytest.fixture(scope="module")
def weights():
    return random_weights(tiny_config(), seed=3)


class TestProgramCache:
    def test_patched_equals_fresh_compile(self, weights):
        session = InferenceSession(weights, simulate_timing=False)
        # verify=True recompiles on every patch and raises on divergence.
        cache = ProgramCache(session.compiler, verify=True)
        for tokens, ctx_prev in [((5, 9, 2), 0), ((7,), 3), ((1,), 4),
                                 ((8,), 5), ((3, 3), 6), ((11,), 8)]:
            patched = cache.stage(tokens, ctx_prev)
            fresh = session.compiler.compile_stage(list(tokens), ctx_prev)
            assert tuple(patched) == tuple(fresh)
        assert cache.misses == 3  # one template per batch size (3, 1, 2)
        assert cache.hits == 3

    def test_template_identity_on_exact_repeat(self, weights):
        session = InferenceSession(weights, simulate_timing=False)
        cache = ProgramCache(session.compiler)
        first = cache.gen_stage(7, context_len=4)
        again = cache.gen_stage(7, context_len=4)
        assert again is first

    def test_session_fast_vs_slow_multiturn(self, weights):
        fast = InferenceSession(weights, fast_path=True)
        slow = InferenceSession(weights, fast_path=False)
        for prompt, n in [([3, 1, 4], 4), ([9], 3), ([2, 7], 5)]:
            tf = fast.extend(prompt, n)
            ts = slow.extend(prompt, n)
            assert tf.tokens == ts.tokens
            assert tf.stage_times_s == ts.stage_times_s
        assert fast.program_cache.hits > 0

    def test_fast_path_matches_reference(self, weights):
        session = InferenceSession(weights, simulate_timing=False,
                                   fast_path=True)
        reference = ReferenceModel(weights)
        prompt = [5, 100, 42]
        assert session.generate(prompt, 8).tokens == \
            reference.generate(prompt, 8)


class TestDurationMemo:
    @settings(max_examples=12, deadline=None)
    @given(batch=st.integers(1, 3), ctx_prev=st.integers(0, 12))
    def test_memo_never_changes_makespan(self, batch, ctx_prev):
        program = timing_program(tiny_config(), batch, ctx_prev)
        memo = AcceleratorSimulator(memoize=True).run(program)
        plain = AcceleratorSimulator(memoize=False).run(program)
        assert memo.total_time_s == plain.total_time_s
        assert memo.mem_bytes == plain.mem_bytes
        assert memo.flops == plain.flops
        assert memo.unit_busy_s == plain.unit_busy_s

    def test_result_cache_returns_identical_copies(self, weights):
        session = InferenceSession(weights, simulate_timing=False)
        cache = ProgramCache(session.compiler)
        program = cache.gen_stage(7, context_len=4)
        assert program.timing_key is not None
        sim = AcceleratorSimulator(memoize=True)
        first = sim.run(program)
        second = sim.run(program)
        assert second == first
        # Cached results are copies: mutating one must not leak.
        second.unit_busy_s[isa.Unit.DMA] = -1.0
        assert sim.run(program) == first


class TestDfxMemBytes:
    def test_gemm_via_tree_bytes_match_modelled_traffic(self):
        """Regression: DFX re-streams the GEMM memory operand ``m``
        times for timing; ``SimulationResult.mem_bytes`` must count the
        same traffic, not the single-pass bytes."""
        m, k, n = 3, 16, 8
        program = (
            isa.DmaLoad(dst="m0", addr=0, shape=(m, k)),
            isa.MpuMmPea(dst="m1", act="m0", weight_addr=4096,
                         m=m, k=k, n=n),
        )
        dtype_bytes = 2
        load_bytes = program[0].mem_elems() * dtype_bytes
        gemm_bytes = program[1].mem_elems() * dtype_bytes
        dfx = AcceleratorSimulator(dfx_device(),
                                   dtype_bytes=dtype_bytes).run(program)
        assert dfx.mem_bytes == load_bytes + gemm_bytes * m
        pnm = AcceleratorSimulator(dtype_bytes=dtype_bytes).run(program)
        assert pnm.mem_bytes == load_bytes + gemm_bytes


class TestVectorizedKernels:
    def test_fast_vpu_kernels_bitwise(self):
        rng = np.random.default_rng(11)
        for shape in [(1, 64), (3, 33), (5, 128)]:
            x = rng.standard_normal(shape).astype(np.float32) * 3
            gamma = rng.standard_normal(shape[-1]).astype(np.float32)
            beta = rng.standard_normal(shape[-1]).astype(np.float32)
            np.testing.assert_array_equal(_fast_gelu(x), gelu(x))
            np.testing.assert_array_equal(_fast_softmax(x), softmax(x))
            np.testing.assert_array_equal(
                _fast_layernorm(x, gamma, beta, 1e-5),
                layernorm(x, gamma, beta))

    @pytest.mark.parametrize("m,mask_offset", [(3, 1), (1, 4), (4, 3)])
    def test_attention_vectorized_matches_loops(self, m, mask_offset):
        heads, hd, ctx = 4, 8, 5
        rng = np.random.default_rng(m)
        mem = DeviceMemory(1 * MiB)
        q = rng.standard_normal((m, heads * hd)).astype(np.float32)
        keys = rng.standard_normal((ctx, heads * hd)).astype(np.float32)
        values = rng.standard_normal((ctx, heads * hd)).astype(np.float32)
        qr = mem.store_named("q", q)
        kr = mem.store_named("k", keys)
        vr = mem.store_named("v", values)
        program = (
            isa.DmaLoad(dst="m0", addr=qr.addr, shape=(m, heads * hd)),
            isa.MpuMaskedMm(dst="m1", q="m0", k_addr=kr.addr, heads=heads,
                            head_dim=hd, ctx=ctx, m=m, scale=0.25,
                            mask_offset=mask_offset),
            isa.VpuSoftmax(dst="m2", src="m1"),
            isa.MpuAttnContext(dst="m3", probs="m2", v_addr=vr.addr,
                               heads=heads, head_dim=hd, ctx=ctx, m=m),
        )
        vec = Executor(mem, vectorized=True)
        loop = Executor(mem, vectorized=False)
        vec.execute(program)
        loop.execute(program)
        for reg in ("m1", "m2", "m3"):
            np.testing.assert_array_equal(vec.registers.read(reg),
                                          loop.registers.read(reg))

    def test_gather_vectorized_matches_loops(self):
        mem = DeviceMemory(1 * MiB)
        table = np.arange(40, dtype=np.float32).reshape(10, 4)
        region = mem.store_named("table", table)
        program = (isa.DmaGather(dst="m0", table_addr=region.addr,
                                 row_elems=4, indices=(9, 0, 4, 9)),)
        vec = Executor(mem, vectorized=True)
        loop = Executor(mem, vectorized=False)
        vec.execute(program)
        loop.execute(program)
        np.testing.assert_array_equal(vec.registers.read("m0"),
                                      loop.registers.read("m0"))
        np.testing.assert_array_equal(vec.registers.read("m0"),
                                      table[[9, 0, 4, 9]])


class TestReadCacheCoherence:
    """Operand reads see live device memory; registers are snapshots."""

    def test_own_store_invalidates_cached_read(self):
        mem = DeviceMemory(1 * MiB)
        a = mem.store_named("a", np.ones(16, dtype=np.float32))
        b = mem.store_named("b", np.full(16, 7.0, dtype=np.float32))
        ex = Executor(mem)
        ex.execute((
            isa.DmaLoad(dst="m0", addr=a.addr, shape=(16,)),
            isa.DmaLoad(dst="m1", addr=b.addr, shape=(16,)),
            isa.DmaStore(src="m1", addr=a.addr, shape=(16,)),  # clobbers a
            isa.DmaLoad(dst="m2", addr=a.addr, shape=(16,)),
        ))
        np.testing.assert_array_equal(ex.registers.read("m2"),
                                      np.full(16, 7.0, dtype=np.float32))

    def test_external_write_invalidates_cached_read(self):
        mem = DeviceMemory(1 * MiB)
        a = mem.store_named("a", np.ones(16, dtype=np.float32))
        ex = Executor(mem)
        load = (isa.DmaLoad(dst="m0", addr=a.addr, shape=(16,)),)
        ex.execute(load)
        # A host-side store between launches is seen by the next load.
        mem.write_tensor(a.addr, np.full(16, 5.0, dtype=np.float32))
        ex.execute(load)
        np.testing.assert_array_equal(ex.registers.read("m0"),
                                      np.full(16, 5.0, dtype=np.float32))

    def test_loaded_register_survives_store_to_its_source(self):
        mem = DeviceMemory(1 * MiB)
        a = mem.store_named("a", np.ones(16, dtype=np.float32))
        b = mem.store_named("b", np.full(16, 7.0, dtype=np.float32))
        ex = Executor(mem)
        ex.execute((
            isa.DmaLoad(dst="m0", addr=a.addr, shape=(16,)),
            isa.DmaLoad(dst="m1", addr=b.addr, shape=(16,)),
            isa.DmaStore(src="m1", addr=a.addr, shape=(16,)),
        ))
        np.testing.assert_array_equal(mem.read_tensor(a.addr, (16,)),
                                      np.full(16, 7.0, dtype=np.float32))
        np.testing.assert_array_equal(ex.registers.read("m0"),
                                      np.ones(16, dtype=np.float32))

    def test_generate_holds_no_weight_copy(self):
        # Operands are views of device memory, so a decode allocates far
        # less than the model's weights; a per-session weight copy (a
        # read cache, a copying operand read) would push the traced peak
        # past the fp32 parameter bytes.
        cfg = tiny_config(d_model=256, vocab_size=512)
        weights = random_weights(cfg, seed=3)
        InferenceSession(weights, simulate_timing=False).generate([1, 2], 2)
        session = InferenceSession(weights, simulate_timing=False)
        tracemalloc.start()
        try:
            session.generate([1, 2, 3], 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cfg.num_params * 4


class TestSimulatedStepTimer:
    def test_quantized_memoization(self):
        timer = SimulatedStepTimer(tiny_config())
        p = timer.prefill_s(4)
        assert p > 0
        assert timer.prefill_s(4) == p
        d_near = timer.decode_step_s(2, 5)
        d_far = timer.decode_step_s(2, 20)
        assert d_near == d_far  # same 32-token quantum
        assert len(timer._decode_cache) == 1

    def test_factory_builds_working_model(self):
        model = simulated_step_model(tiny_config())
        assert model.prefill_s(3) > 0
        assert model.decode_step_s(1, 1) > 0

    def test_batched_timing_program_validates(self):
        program = batched_timing_program(tiny_config(), batch=3, ctx_prev=7)
        isa.validate_program(program)  # register discipline holds


class TestSweepRunner:
    def test_parallel_matches_serial(self):
        ids = ["fig3", "table1"]
        serial = run_sweep(ids, jobs=1)
        parallel = run_sweep(ids, jobs=2)
        assert [r.experiment_id for r in serial] == ids
        assert serial == parallel

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(["fig99"])

    def test_bad_job_count_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(["fig3"], jobs=0)
