"""Exporters: Chrome-trace JSON schema, metrics dump, summaries."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    MetricsRegistry,
    Tracer,
    load_chrome_trace,
    render_summary,
    summarize_trace_file,
    to_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.export import SIM_PID, WALL_PID


@pytest.fixture()
def tracer():
    tracer = Tracer()
    with tracer.span("host-work", category="runtime", note="outer"):
        with tracer.span("compile", category="runtime"):
            pass
    tracer.sim_span("MPU_MM", start_s=2e-6, dur_s=1e-6, track="pnm.PE",
                    category="accelerator", args={"idx": 0})
    tracer.sim_span("VPU_ADD", start_s=3e-6, dur_s=5e-7, track="pnm.VPU",
                    category="accelerator")
    return tracer


class TestChromeTraceSchema:
    def test_document_shape(self, tracer):
        doc = to_chrome_trace(tracer)
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ns"

    def test_complete_events_have_required_fields(self, tracer):
        events = [e for e in to_chrome_trace(tracer)["traceEvents"]
                  if e["ph"] == "X"]
        assert len(events) == 4
        for event in events:
            for key in ("name", "cat", "ts", "dur", "pid", "tid"):
                assert key in event, key

    def test_sim_timebase_is_simulated_microseconds(self, tracer):
        events = to_chrome_trace(tracer)["traceEvents"]
        mpu = next(e for e in events if e.get("name") == "MPU_MM")
        assert mpu["pid"] == SIM_PID
        assert mpu["ts"] == pytest.approx(2.0)  # 2 us of simulated time
        assert mpu["dur"] == pytest.approx(1.0)

    def test_wall_spans_on_wall_process(self, tracer):
        events = to_chrome_trace(tracer)["traceEvents"]
        compile_event = next(e for e in events
                             if e.get("name") == "compile")
        assert compile_event["pid"] == WALL_PID

    def test_track_names_become_thread_metadata(self, tracer):
        events = to_chrome_trace(tracer)["traceEvents"]
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"pnm.PE", "pnm.VPU"} <= names

    def test_args_passthrough(self, tracer):
        events = to_chrome_trace(tracer)["traceEvents"]
        mpu = next(e for e in events if e.get("name") == "MPU_MM")
        assert mpu["args"] == {"idx": 0}


class TestRoundTrip:
    def test_file_roundtrip_is_valid_json(self, tracer, tmp_path):
        path = write_chrome_trace(tracer, str(tmp_path / "trace.json"))
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["traceEvents"]
        events = load_chrome_trace(path)
        assert [e for e in events if e["ph"] == "X"]

    def test_bare_array_variant_loads(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(
            [{"ph": "X", "name": "x", "cat": "c", "ts": 0, "dur": 1,
              "pid": 1, "tid": 1}]))
        assert len(load_chrome_trace(str(path))) == 1

    def test_non_trace_file_rejected(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ConfigurationError):
            load_chrome_trace(str(path))


class TestSummaries:
    @pytest.fixture()
    def trace_file(self, tracer, tmp_path):
        return write_chrome_trace(tracer, str(tmp_path / "trace.json"))

    def test_ranked_by_cumulative_sim_time(self, trace_file):
        rows = summarize_trace_file(trace_file, top_n=10)
        assert [(r["span"], r["count"]) for r in rows[:2]] \
            == [("MPU_MM", 1), ("VPU_ADD", 1)]
        assert rows[0]["sim_ms"] == pytest.approx(1e-3)
        assert rows[1]["sim_ms"] == pytest.approx(5e-4)
        sim_totals = [r["sim_ms"] for r in rows]
        assert sim_totals == sorted(sim_totals, reverse=True)

    def test_top_n_truncates(self, trace_file):
        assert len(summarize_trace_file(trace_file, top_n=1)) == 1

    def test_render(self, trace_file):
        text = render_summary(summarize_trace_file(trace_file), title="top")
        assert "MPU_MM" in text
        assert "sim_ms" in text
        assert text.startswith("== top ==")

    def test_render_empty(self):
        assert "(no spans recorded)" in render_summary([])


class TestMetricsDump:
    def test_json_file(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("sim.instructions", opcode="MPU_MM").inc(3)
        registry.histogram("wait_s").observe(1e-4)
        path = write_metrics_json(registry, str(tmp_path / "m.json"))
        with open(path) as handle:
            dump = json.load(handle)
        assert dump["counters"]["sim.instructions{opcode=MPU_MM}"][
            "value"] == 3
        assert dump["histograms"]["wait_s"]["count"] == 1


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
