"""Exporters: Chrome-trace JSON, metrics JSON, and summary tables.

The Chrome-trace exporter emits the classic ``traceEvents`` array of
complete (``"ph": "X"``) events that ``chrome://tracing`` and Perfetto
both load.  The two clocks become two processes:

* pid 1 (**sim**) — simulated device time; each span's ``track`` (a
  hardware unit, a scheduler instance, the CXL link) becomes a named
  thread row, and ``ts``/``dur`` are *simulated nanoseconds* divided by
  1000 (the trace format's microsecond timebase).
* pid 2 (**wall**) — host wall-clock time, one thread row per Python
  thread, nested spans stacking as in any profiler.

Because simulated time starts at zero for every run, loading a trace in
Perfetto shows the device schedule exactly as the timing models computed
it — the reproduction's analog of the paper's Fig. 3/Fig. 10 time
breakdowns.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry, NullMetricsRegistry
from repro.obs.tracer import (
    NullTracer,
    SIM_CLOCK,
    Tracer,
)

SIM_PID = 1
WALL_PID = 2

_PROCESS_NAMES = {SIM_PID: "sim (device time)",
                  WALL_PID: "wall (host time)"}


def chrome_trace_events(tracer: Union[Tracer, NullTracer]
                        ) -> List[Dict[str, Any]]:
    """Flatten a tracer's spans into Chrome trace events."""
    events: List[Dict[str, Any]] = []
    tids: Dict[tuple, int] = {}
    for pid, name in _PROCESS_NAMES.items():
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name", "args": {"name": name}})
    for span in tracer.spans:
        pid = SIM_PID if span.clock == SIM_CLOCK else WALL_PID
        track_key = (pid, span.track)
        tid = tids.get(track_key)
        if tid is None:
            tid = tids[track_key] = len(tids) + 1
            events.append({"ph": "M", "pid": pid, "tid": tid,
                           "name": "thread_name",
                           "args": {"name": span.track}})
        event: Dict[str, Any] = {
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "name": span.name,
            "cat": span.category,
            "ts": span.start_ns / 1e3,
            "dur": span.dur_ns / 1e3,
        }
        if span.args:
            event["args"] = dict(span.args)
        events.append(event)
    return events


def to_chrome_trace(tracer: Union[Tracer, NullTracer]) -> Dict[str, Any]:
    """The full Chrome-trace JSON object."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ns",
        "otherData": {"producer": "repro.obs",
                      "sim_timebase": "simulated nanoseconds"},
    }


def write_chrome_trace(tracer: Union[Tracer, NullTracer],
                       path: str) -> str:
    """Write the trace to ``path``; returns the path for chaining."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(tracer), handle)
    return path


def load_chrome_trace(path: str) -> List[Dict[str, Any]]:
    """Load a trace file and return its event list (validating shape)."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, list):  # bare-array variant of the format
        return data
    events = data.get("traceEvents")
    if not isinstance(events, list):
        raise ConfigurationError(
            f"{path} is not a Chrome trace (no traceEvents array)")
    return events


def write_metrics_json(metrics: Union[MetricsRegistry, NullMetricsRegistry],
                       path: str) -> str:
    """Flat JSON dump of every counter/gauge/histogram."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(metrics.as_dict(), handle, indent=2, sort_keys=True)
    return path


def summarize_trace_file(path: str, top_n: int = 20
                         ) -> List[Dict[str, Any]]:
    """Top-N summary straight from an exported Chrome-trace file."""
    rows = _aggregate(
        ((e.get("name", "?"), e.get("cat", "?"),
          e.get("pid") == SIM_PID, int(e.get("dur", 0) * 1e3))
         for e in load_chrome_trace(path) if e.get("ph") == "X"))
    return rows[:top_n]


def _aggregate(items: Iterable[tuple]) -> List[Dict[str, Any]]:
    """Shared aggregation: (name, category, is_sim, dur_ns) tuples."""
    totals: Dict[tuple, Dict[str, Any]] = {}
    for name, category, is_sim, dur_ns in items:
        entry = totals.setdefault((name, category), {
            "span": name, "category": category, "count": 0,
            "sim_ms": 0.0, "wall_ms": 0.0})
        entry["count"] += 1
        entry["sim_ms" if is_sim else "wall_ms"] += dur_ns / 1e6
    return sorted(totals.values(),
                  key=lambda r: (-r["sim_ms"], -r["wall_ms"], r["span"]))


def render_summary(rows: Sequence[Dict[str, Any]],
                   title: Optional[str] = None) -> str:
    """Aligned text table of a span summary (CLI output)."""
    from repro.experiments.report import text_table
    header = f"== {title} ==\n" if title else ""
    if not rows:
        return header + "(no spans recorded)"
    return header + text_table(
        list(rows), columns=["span", "category", "count", "sim_ms",
                             "wall_ms"])
