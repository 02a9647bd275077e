"""Ablation studies: each design choice must pay off measurably."""

import pytest

from repro.accelerator.device import CXLPNMDevice
from repro.experiments import ablations
from repro.llm import OPT_13B
from repro.llm.graph import compact_gen_stage, per_op
from repro.llm.workload import PAPER_INPUT_TOKENS


class TestPeArrayAblation:
    def test_speedup_grows_with_input_length(self):
        rows = ablations.pe_array_ablation().rows
        speedups = [r["speedup"] for r in rows]
        assert speedups[-1] > speedups[0]
        assert speedups[-1] > 5.0

    def test_dfx_sum_share_grows(self):
        rows = ablations.pe_array_ablation().rows
        shares = [r["dfx_sum_share_of_e2e"] for r in rows]
        assert shares == sorted(shares)
        assert shares[-1] > 0.4


class TestTileDimAblation:
    def test_bigger_tile_fewer_cycles(self):
        rows = ablations.tile_dim_ablation().rows
        times = {r["tile_dim"]: r["matmul_compute_ms"] for r in rows}
        assert times[128] < times[64] < times[32]

    def test_compute_covers_every_head(self):
        """No tile can finish the gen token's matmuls in fewer cycles
        than its MACs over the trees' MACs per cycle.  Attention ops
        aggregate all heads into one op with per-head ``k`` and ``n``,
        so counting one head per op falls below this floor."""
        stage = compact_gen_stage(OPT_13B, PAPER_INPUT_TOKENS + 512)
        macs = sum(per_op(stage, lambda op: op.flops / 2
                          if op.kind.is_matmul else 0.0))
        clock = CXLPNMDevice().spec.clock_hz
        for row in ablations.tile_dim_ablation().rows:
            cycles = row["matmul_compute_ms"] / 1e3 * clock
            assert cycles >= macs / row["tree_macs_per_cycle"], row


class TestRedumaxAblation:
    def test_fusion_saves_about_a_third(self):
        rows = ablations.redumax_ablation().rows
        big = [r for r in rows if r["context_len"] == 2048][0]
        assert big["cycles_saved_pct"] == pytest.approx(33.3, abs=5.0)


class TestBatchingAblation:
    def test_pnm_throughput_grows_with_batch(self):
        rows = ablations.batching_ablation().rows
        b1 = [r for r in rows if r["batch"] == 1][0]
        b64 = [r for r in rows if r["batch"] == 64][0]
        assert b64["pnm_tokens_per_s"] > 3 * b1["pnm_tokens_per_s"]

    def test_pnm_per_token_cost_drops_at_large_batch(self):
        """Once the batch fills the PE array's 64 rows, weight streams
        amortize and per-token time falls well below single-stream."""
        rows = ablations.batching_ablation().rows
        b1 = [r for r in rows if r["batch"] == 1][0]
        b64 = [r for r in rows if r["batch"] == 64][0]
        assert b64["pnm_step_ms"] / 64 < 0.5 * b1["pnm_step_ms"]

    def test_gpu_batches_better_than_pnm(self):
        """The 4.1 TFLOPS PE array caps PNM batching long before the
        312 TFLOPS GPU saturates -- the design targets single-stream
        latency, not batched throughput."""
        rows = ablations.batching_ablation().rows
        b64 = [r for r in rows if r["batch"] == 64][0]
        assert b64["gpu_tokens_per_s"] > 2 * b64["pnm_tokens_per_s"]

    def test_memory_allows_large_batches(self):
        result = ablations.batching_ablation()
        assert result.anchors["cxl_pnm_max_batch_by_memory"] > 100


class TestQuantizationAblation:
    def test_int8_near_2x(self):
        rows = ablations.quantization_ablation().rows
        speedup = [r for r in rows if r["dtype"] == "INT8 speedup"][0]
        assert speedup["tokens_per_s"] == pytest.approx(2.0, rel=0.15)


class TestMoEAblation:
    def test_large_moe_fits_one_device(self):
        rows = ablations.moe_ablation().rows
        biggest = rows[-1]
        assert biggest["fits_one_cxl_pnm"]
        assert biggest["a100_40g_needed"] >= 8

    def test_gen_token_time_flat_across_expert_counts(self):
        rows = ablations.moe_ablation().rows
        times = [r["pnm_gen_token_ms"] for r in rows]
        assert max(times) / min(times) < 1.2


class TestDmaBufferAblation:
    def test_bigger_buffer_higher_efficiency(self):
        rows = ablations.dma_buffer_ablation().rows
        effs = [r["efficiency"] for r in rows]
        assert effs == sorted(effs)
        one_mb = [r for r in rows if r["buffer_KiB"] == 1024][0]
        assert one_mb["efficiency"] > 0.9


class TestParallelismStrategyAblation:
    def test_tp_wins_latency_pp_wins_saturated_throughput(self):
        rows = {r["strategy"]: r
                for r in ablations.parallelism_strategy_ablation().rows}
        tp = rows["tensor parallel (TP=8)"]
        pp = rows["pipeline parallel (PP=8)"]
        assert tp["token_latency_ms"] < pp["token_latency_ms"]
        assert pp["full_pipeline_tokens_per_s"] \
            > tp["full_pipeline_tokens_per_s"]

    def test_both_fit_40gb_devices(self):
        for row in ablations.parallelism_strategy_ablation().rows:
            assert row["params_per_device_gb"] < 40


class TestCxlExpansionAblation:
    def test_strict_ordering_of_configurations(self):
        rows = ablations.cxl_expansion_ablation().rows
        times = [r["gen_token_ms"] for r in rows]
        # offload > expander > PNM, each by a large factor.
        assert times[0] > 10 * times[1]
        assert times[1] > 10 * times[2]


STUDIES = ("pe_array", "tile_dim", "redumax", "batching", "quantization",
           "moe", "dma_buffer", "parallelism_strategy", "cxl_expansion")


def test_bundle_runs_every_study():
    # The bundle's rows are every study's rows, in study order, each
    # tagged with its study's id.
    expected = []
    for name in STUDIES:
        study = getattr(ablations, f"{name}_ablation")()
        expected += [{"ablation": study.experiment_id, **row}
                     for row in study.rows]
    result = ablations.run()
    assert result.rows == expected
    assert len({row["ablation"] for row in result.rows}) == 9


def test_changed_ablation_value_changes_bundle_rows(monkeypatch):
    # The bundle is what the paper-artifacts fingerprint sees: a moved
    # number in any one study must move its rows.
    before = ablations.run().rows
    tile_dim = ablations.tile_dim_ablation

    def moved():
        study = tile_dim()
        study.rows[-1] = {**study.rows[-1], "matmul_compute_ms":
                          study.rows[-1]["matmul_compute_ms"] * 1.001}
        return study

    monkeypatch.setattr(ablations, "tile_dim_ablation", moved)
    after = ablations.run().rows
    assert after != before
    assert [i for i, (a, b) in enumerate(zip(before, after)) if a != b] \
        == [9]
