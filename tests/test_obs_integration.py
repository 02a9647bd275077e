"""Instrumentation is behaviour-preserving and covers the whole stack.

Two contracts are asserted here:

* **bit-identical results** — running a session or an experiment under
  an ambient tracer/registry produces exactly the numbers an untraced
  run produces (observability only records; it never feeds back);
* **coverage** — ``repro run service --trace-out`` / ``repro generate
  --trace-out`` emit Chrome-trace JSON whose complete events span at
  least three stack layers (accelerator, CXL, scheduler/runtime).
"""

import json

import pytest

from repro.accelerator.compiler import batched_timing_program, timing_program
from repro.cli import main
from repro.experiments.registry import run_experiment
from repro.llm import random_weights, tiny_config
from repro.llm.config import OPT_1_3B
from repro.obs import observe
from repro.perf.simulator import AcceleratorSimulator
from repro.runtime.session import InferenceSession


@pytest.fixture(scope="module")
def weights():
    return random_weights(tiny_config(), seed=0)


def _generate(weights, **session_kwargs):
    session = InferenceSession(weights, **session_kwargs)
    return session.generate([1, 2, 3], 5)


class TestBehaviourPreserving:
    def test_session_identical_with_tracing_on_vs_off(self, weights):
        baseline = _generate(weights)
        with observe() as (tracer, metrics):
            traced = _generate(weights)
        assert traced.tokens == baseline.tokens
        assert traced.stage_times_s == baseline.stage_times_s  # bitwise
        assert traced.instructions == baseline.instructions
        assert len(tracer.spans) > 0
        assert metrics.counter("driver.launches").value > 0

    def test_experiment_identical_with_tracing_on_vs_off(self):
        baseline = run_experiment("fig10")
        with observe():
            traced = run_experiment("fig10")
        assert traced.rows == baseline.rows  # bitwise float equality
        assert traced.anchors == baseline.anchors

    def test_simulator_identical_with_tracing_on_vs_off(self):
        program = timing_program(OPT_1_3B, batch_tokens=1, ctx_prev=32)
        baseline = AcceleratorSimulator().run(program)
        with observe():
            traced = AcceleratorSimulator().run(program)
        assert traced.total_time_s == baseline.total_time_s
        assert traced.unit_busy_s == baseline.unit_busy_s
        assert traced.as_dict() == baseline.as_dict()

    @pytest.mark.parametrize("program", [
        batched_timing_program(OPT_1_3B, batch=3, ctx_prev=31),
        timing_program(OPT_1_3B, batch_tokens=7, ctx_prev=0,
                       quantize="int8"),
    ], ids=["batched", "prefill-int8"])
    def test_compact_program_observed_like_its_expansion(self, program):
        """Replaying one lowered layer emits the sim spans and sim.*
        metrics that scheduling the flat program does."""
        from repro.obs import MetricsRegistry, Tracer

        class Recording(Tracer):
            def __init__(self):
                super().__init__()
                self.sim_calls = []

            def sim_span(self, name, start_s, dur_s, track,
                         category="sim", args=None):
                self.sim_calls.append(
                    (name, start_s.hex(), dur_s.hex(), track, category))
                super().sim_span(name, start_s, dur_s, track, category,
                                 args)

        def observed(code):
            tracer, metrics = Recording(), MetricsRegistry()
            AcceleratorSimulator(tracer=tracer, metrics=metrics).run(
                code, trace_offset_s=0.25)
            wall = [(s.name, s.args) for s in tracer.spans
                    if s.clock == "wall"]
            return tracer.sim_calls, wall, metrics.as_dict()

        compact, flat = observed(program), observed(program.expand())
        assert compact[0] and compact == flat

    def test_injected_tracer_equivalent_to_ambient(self, weights):
        from repro.obs import MetricsRegistry, Tracer
        tracer, metrics = Tracer(), MetricsRegistry()
        injected = _generate(weights, tracer=tracer, metrics=metrics)
        baseline = _generate(weights)
        assert injected.tokens == baseline.tokens
        assert injected.stage_times_s == baseline.stage_times_s
        assert {"runtime", "accelerator", "cxl"} <= set(
            tracer.categories())


class TestNoOpPath:
    def test_nothing_recorded_without_observe(self, weights):
        from repro.obs import get_metrics, get_tracer
        from repro.obs.metrics import NULL_REGISTRY
        from repro.obs.tracer import NULL_TRACER
        _generate(weights)
        assert get_tracer() is NULL_TRACER
        assert get_metrics() is NULL_REGISTRY
        assert NULL_TRACER.spans == ()

    def test_timing_disabled_trace_reports_zero(self, weights):
        trace = _generate(weights, simulate_timing=False)
        assert not trace.has_timing
        assert trace.stage_times_s == []
        assert trace.sum_time_s == 0.0
        assert trace.gen_time_s == 0.0
        assert trace.total_time_s == 0.0
        assert len(trace.tokens) == 5


class TestCliTraceExport:
    @pytest.fixture(scope="class")
    def service_trace(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("obs")
        trace_path = tmp / "service_trace.json"
        metrics_path = tmp / "service_metrics.json"
        assert main(["run", "service",
                     "--trace-out", str(trace_path),
                     "--metrics-out", str(metrics_path)]) == 0
        return trace_path, metrics_path

    def test_run_emits_three_layer_chrome_trace(self, service_trace):
        trace_path, _ = service_trace
        with open(trace_path) as handle:
            doc = json.load(handle)
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert events, "trace must contain complete events"
        categories = {e["cat"] for e in events}
        assert {"accelerator", "cxl", "scheduler"} <= categories

    def test_run_emits_metrics_dump(self, service_trace):
        _, metrics_path = service_trace
        with open(metrics_path) as handle:
            dump = json.load(handle)
        assert dump["counters"]["scheduler.admitted"]["value"] == 48
        assert dump["histograms"]["scheduler.latency_s"]["count"] == 48
        assert dump["gauges"]["scheduler.queue_depth"]["min"] >= 0

    def test_trace_summarize_cli(self, service_trace, capsys):
        trace_path, _ = service_trace
        assert main(["trace", "summarize", str(trace_path),
                     "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "sim_ms" in out
        assert "request" in out

    def test_generate_emits_runtime_layers(self, tmp_path):
        trace_path = tmp_path / "gen_trace.json"
        assert main(["generate", "--num-tokens", "4",
                     "--trace-out", str(trace_path)]) == 0
        with open(trace_path) as handle:
            doc = json.load(handle)
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        categories = {e["cat"] for e in events}
        assert {"accelerator", "cxl", "runtime"} <= categories


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
