"""Analytical performance model: rooflines, integration, energy."""

import pytest

from repro.accelerator import CXLPNMDevice
from repro.errors import ConfigurationError
from repro.gpu import A100_40G
from repro.llm import OPT_13B, OPT_1_3B, tiny_config
from repro.llm.graph import compact_sum_stage
from repro.llm.ops import matmul_op, vector_op, OpKind
from repro.perf.analytical import (
    GpuPerfModel,
    InferenceTimer,
    PnmPerfModel,
    no_comm,
    stage_result,
)
from repro.perf.metrics import relative_delta


@pytest.fixture(scope="module")
def pnm():
    return PnmPerfModel(CXLPNMDevice())


@pytest.fixture(scope="module")
def gpu():
    return GpuPerfModel(A100_40G)


class TestPnmOpModel:
    def test_gemv_is_bandwidth_bound(self, pnm):
        op = matmul_op("v", m=1, n=5120, k=5120, dtype_bytes=2)
        t = pnm.op_time(op)
        mem_time = op.total_bytes / pnm.device.effective_memory_bandwidth
        assert t == pytest.approx(mem_time, rel=0.15)

    def test_wide_gemm_is_compute_bound(self, pnm):
        op = matmul_op("g", m=2048, n=5120, k=5120, dtype_bytes=2)
        t = pnm.op_time(op)
        compute_time = op.flops / pnm.device.spec.peak_gemm_flops
        assert t == pytest.approx(compute_time, rel=0.2)

    def test_vector_op_cheap(self, pnm):
        op = vector_op("ln", OpKind.LAYERNORM, elements=5120, dtype_bytes=2)
        assert pnm.op_time(op) < 1e-4

    def test_embedding_uses_dma(self, pnm):
        from repro.llm.graph import embedding_ops, StageShape
        op = embedding_ops(tiny_config(),
                           StageShape(batch_tokens=4, context_len=4))[0]
        assert pnm.op_time(op) > 0


class TestStageResult:
    def test_energy_positive_and_consistent(self, pnm):
        stage = compact_sum_stage(tiny_config(), 16)
        result = stage_result("s", stage, pnm)
        assert result.energy_j > 0
        assert result.energy_j / result.time_s \
            <= pnm.device.spec.platform_max_watts

    def test_comm_included_in_time(self, pnm):
        stage = compact_sum_stage(tiny_config(), 16)
        base = stage_result("s", stage, pnm)
        with_comm = stage_result("s", stage, pnm, comm_s=1e-3)
        assert with_comm.time_s == pytest.approx(base.time_s + 1e-3)


class TestInferenceTimer:
    def test_sampled_integration_matches_exact(self, pnm):
        timer = InferenceTimer(OPT_1_3B, pnm, gen_samples=12)
        approx = timer.run(16, 96)
        exact = timer.run(16, 96, exact=True)
        assert approx.gen_time_s == pytest.approx(exact.gen_time_s,
                                                  rel=0.01)
        assert approx.energy_j == pytest.approx(exact.energy_j, rel=0.01)

    def test_latency_monotone_in_output_tokens(self, pnm):
        timer = InferenceTimer(OPT_1_3B, pnm)
        latencies = [timer.run(64, n).latency_s for n in (1, 32, 256)]
        assert latencies == sorted(latencies)

    def test_tensor_parallel_speeds_up_gen(self, pnm):
        full = InferenceTimer(OPT_13B, pnm).gen_stage(512).time_s
        split = InferenceTimer(OPT_13B, pnm,
                               tensor_parallel=4).gen_stage(512).time_s
        assert split < full / 2

    def test_tp_energy_covers_group(self, pnm):
        single = InferenceTimer(OPT_13B, pnm).run(16, 8, exact=True)
        group = InferenceTimer(OPT_13B, pnm, tensor_parallel=4).run(
            16, 8, exact=True)
        # 4 devices each ~1/4 of the work: group energy stays comparable
        # (within 3x) of single-device energy, not 4x smaller.
        assert group.energy_j > single.energy_j / 3

    def test_comm_model_applied_per_stage(self, pnm):
        flat = InferenceTimer(OPT_1_3B, pnm).run(16, 8, exact=True)
        slow = InferenceTimer(OPT_1_3B, pnm,
                              comm=lambda tokens: 1e-3).run(16, 8,
                                                            exact=True)
        assert slow.latency_s == pytest.approx(flat.latency_s + 8e-3,
                                               rel=0.05)

    def test_invalid_parameters_rejected(self, pnm):
        with pytest.raises(ConfigurationError):
            InferenceTimer(OPT_1_3B, pnm, tensor_parallel=0)
        with pytest.raises(ConfigurationError):
            InferenceTimer(OPT_1_3B, pnm, gen_samples=1)
        with pytest.raises(ConfigurationError):
            InferenceTimer(OPT_1_3B, pnm).run(0, 8)


class TestMetricsDerivation:
    def test_inference_result_derived_metrics(self, gpu):
        result = InferenceTimer(OPT_1_3B, gpu).run(64, 128)
        assert result.latency_s == pytest.approx(
            result.sum_time_s + result.gen_time_s)
        assert result.tokens_per_s == pytest.approx(
            128 / result.latency_s)
        assert result.mean_power_w == pytest.approx(
            result.energy_j / result.latency_s)
        assert result.ms_per_token == pytest.approx(
            1e3 * result.latency_s / 128)

    def test_relative_delta(self):
        assert relative_delta(110, 100) == pytest.approx(0.1)
        with pytest.raises(ConfigurationError):
            relative_delta(1, 0)
