"""Experiment harnesses: registry, rendering, per-experiment sanity."""

import math

import pytest

from repro.accelerator import CXLPNMDevice
from repro.errors import ConfigurationError
from repro.experiments import run_experiment
from repro.experiments.continuous_batching import MODEL
from repro.gpu import A100_40G
from repro.llm import PAPER_INPUT_TOKENS
from repro.perf.analytical import GpuPerfModel, InferenceTimer, PnmPerfModel
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import ExperimentResult, text_table


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "fig2", "fig3", "fig4", "table1", "table2", "fig10", "fig11",
            "table3", "scalability", "validation", "ablations",
            "disadvantages", "sensitivity", "service",
            "continuous-batching", "reliability"}

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")


class TestRendering:
    def test_text_table_alignment(self):
        rows = [{"a": 1, "b": "xx"}, {"a": 200, "b": "y"}]
        rendered = text_table(rows)
        lines = rendered.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[:2])) <= 2

    def test_empty_rows(self):
        assert text_table([]) == "(no rows)"

    def test_result_requires_id(self):
        with pytest.raises(ConfigurationError):
            ExperimentResult(experiment_id="", title="x", rows=[])

    def test_render_includes_anchors_and_notes(self):
        result = ExperimentResult(experiment_id="t", title="T",
                                  rows=[{"a": 1}], anchors={"k": 2},
                                  notes=["careful"])
        rendered = result.render()
        assert "k = 2" in rendered
        assert "note: careful" in rendered


class TestFig2:
    def test_gpt35_exceeds_single_gpu(self):
        rows = run_experiment("fig2").rows
        gpt35 = [r for r in rows if "175B" in r["model"]][0]
        assert gpt35["capacity_GiB"] == pytest.approx(326, abs=5)
        assert gpt35["required_bw_TB_s"] > 1.55

    def test_capacity_monotone_in_model_size(self):
        rows = run_experiment("fig2").rows
        caps = [r["capacity_GiB"] for r in rows]
        assert caps == sorted(caps)


class TestFig3:
    def test_memcpy_dominates_pageable(self):
        rows = run_experiment("fig3").rows
        pageable = [r for r in rows if r["transfer"] == "pageable"]
        assert all(r["memcpy_fraction"] > 0.95 for r in pageable)

    def test_pinned_still_bottlenecked(self):
        rows = run_experiment("fig3").rows
        pinned = [r for r in rows if r["transfer"] == "pinned"]
        assert all(r["memcpy_fraction"] > 0.8 for r in pinned)


class TestFig4:
    def test_utilization_gap(self):
        rows = {r["metric"]: r["value"]
                for r in run_experiment("fig4").rows}
        assert rows["sum-stage GPU utilization"] > 0.75
        assert rows["gen-stage GPU utilization"] < 0.30

    def test_gemv_time_share_near_83_percent(self):
        rows = {r["metric"]: r["value"]
                for r in run_experiment("fig4").rows}
        assert rows["GEMV share of execution time"] == pytest.approx(
            0.83, abs=0.08)


class TestTables:
    def test_table1_lpddr_column(self):
        rows = run_experiment("table1").rows
        lpddr = [r for r in rows if r["technology"] == "LPDDR5X"][0]
        assert lpddr["cap_per_module_GB"] == pytest.approx(512.0)
        assert lpddr["bw_per_module_GB_s"] == pytest.approx(1088.0)

    def test_table2_key_parameters(self):
        rows = {r["parameter"]: r["value"]
                for r in run_experiment("table2").rows}
        assert rows["num_pes"] == 2048
        assert rows["peak_pe_tflops"] == pytest.approx(4.096)

    def test_table3_pnm_cheaper_to_run(self):
        rows = run_experiment("table3").rows
        gpu = [r for r in rows if "GPU" in r["appliance"]][0]
        pnm = [r for r in rows if "CXL-PNM" in r["appliance"]][0]
        assert pnm["usd_per_day"] < gpu["usd_per_day"] / 2
        assert pnm["Mtokens_per_usd"] > 3 * gpu["Mtokens_per_usd"]


class TestValidationExperiment:
    def test_worst_case_agreement_within_5_percent(self):
        rows = run_experiment("validation").rows
        worst = [r for r in rows if r["model"] == "worst case"][0]
        assert worst["rel_error"] < 0.05


class TestContinuousBatchingExperiment:
    def test_fcfs_ttft_finite_and_at_least_prefill(self):
        """The batch-1 baseline records every first token, so its TTFT
        is a number, and no request sees its first token before its own
        prefill has run."""
        rows = {r["scenario"]: r
                for r in run_experiment("continuous-batching").rows}
        for name, perf in (("CXL-PNM", PnmPerfModel(CXLPNMDevice())),
                           ("A100-40G", GpuPerfModel(A100_40G))):
            ttft = rows[f"{name} TTFT (s), fcfs vs continuous / TBT"]["fcfs"]
            prefill = InferenceTimer(MODEL, perf).sum_stage(
                PAPER_INPUT_TOKENS).time_s
            assert math.isfinite(ttft)
            assert ttft >= prefill


def _hex_rows(rows):
    """Rows with every float spelled as ``float.hex``."""
    return [{key: value.hex() if isinstance(value, float) else value
             for key, value in row.items()} for row in rows]


class TestSumAlgorithm:
    def test_fig10_does_not_depend_on_sum_algorithm(self, monkeypatch):
        # fig10 priced under Python 3.12's compensated sum() matches the
        # same rows priced left to right: every stage and gen-total sum
        # in the analytical model goes through left_sum.
        from repro.perf import analytical
        from tests.test_step_pricing import _compensated_sum

        plain = _hex_rows(run_experiment("fig10").rows)
        monkeypatch.setattr(analytical, "sum", _compensated_sum,
                            raising=False)
        assert _hex_rows(run_experiment("fig10").rows) == plain
