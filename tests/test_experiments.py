"""Experiment harnesses: registry, rendering, per-experiment sanity."""

import importlib
import math
import pkgutil

import pytest

from repro.accelerator import CXLPNMDevice
from repro.errors import ConfigurationError
from repro.experiments import run_experiment
from repro.experiments.continuous_batching import MODEL
from repro.gpu import A100_40G
from repro.gpu.kernels import GpuKernelModel
from repro.llm import OPT_6_7B, PAPER_INPUT_TOKENS
from repro.llm.graph import compact_gen_stage, compact_sum_stage, per_op
from repro.llm.ops import OpKind
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

    def test_matches_whole_stage_per_op_loop(self):
        # The reference: every stage rebuilt whole and walked op by op,
        # adds left to right; the harness must match it bit for bit.
        from repro.experiments import fig04_gpu_utilization as fig4

        kernels = GpuKernelModel(A100_40G)

        def profile(stage):
            return per_op(stage, lambda op: (
                kernels.op_time(op), kernels.op_reported_utilization(op),
                op.kind))

        def total(values):
            acc = 0.0
            for v in values:
                acc += v
            return acc

        by_kind = {OpKind.GEMV: 0.0, OpKind.GEMM: 0.0}
        other = gen_time = gen_util = 0.0
        stages = [profile(compact_gen_stage(OPT_6_7B, fig4.INPUT_TOKENS + s))
                  for s in range(1, fig4.OUTPUT_TOKENS)]
        sum_prof = profile(compact_sum_stage(OPT_6_7B, fig4.INPUT_TOKENS))
        for prof in stages:
            stage = total(t for t, _, _ in prof)
            gen_time += stage
            gen_util += stage * (total(t * u for t, u, _ in prof) / stage)
        for prof in stages + [sum_prof]:
            for t, _, kind in prof:
                if kind in by_kind:
                    by_kind[kind] += t
                else:
                    other += t
        sum_time = total(t for t, _, _ in sum_prof)
        all_time = sum_time + gen_time
        rows = {r["metric"]: r["value"]
                for r in run_experiment("fig4").rows}
        expected = {
            "sum-stage GPU utilization":
                total(t * u for t, u, _ in sum_prof) / sum_time,
            "gen-stage GPU utilization": gen_util / gen_time,
            "GEMV share of execution time": by_kind[OpKind.GEMV] / all_time,
            "GEMM share of execution time": by_kind[OpKind.GEMM] / all_time,
            "other-kernel share of execution time": other / all_time,
            "sum-stage time (ms)": sum_time * 1e3,
            "gen-stage total time (s)": gen_time,
        }
        assert {k: v.hex() for k, v in rows.items()} \
            == {k: v.hex() for k, v in expected.items()}


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


#: The 13 paper figure and table harnesses, in paper order.
PAPER_HARNESSES = ("fig2", "fig3", "fig4", "table1", "table2", "fig10",
                   "fig11", "table3", "scalability", "validation",
                   "ablations", "disadvantages", "sensitivity")


def _sum_modules():
    """Every module whose ``sum`` could round a paper harness's rows:
    each ``repro.experiments`` module, the analytical model, the GPU
    offload model and the inference session."""
    import repro.experiments

    names = [f"repro.experiments.{info.name}"
             for info in pkgutil.iter_modules(repro.experiments.__path__)]
    names += ["repro.perf.analytical", "repro.gpu.offload",
              "repro.runtime.session"]
    return [importlib.import_module(name) for name in names]


class TestSumAlgorithm:
    @pytest.mark.parametrize("eid", PAPER_HARNESSES)
    def test_paper_harness_does_not_depend_on_sum_algorithm(
            self, eid, monkeypatch):
        # Rows priced under Python 3.12's compensated sum() match the
        # same rows priced left to right: every float sum behind them
        # goes through left_sum.
        from tests.test_step_pricing import _compensated_sum

        plain = _hex_rows(run_experiment(eid).rows)
        for module in _sum_modules():
            monkeypatch.setattr(module, "sum", _compensated_sum,
                                raising=False)
        assert _hex_rows(run_experiment(eid).rows) == plain
