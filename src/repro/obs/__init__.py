"""Observability for the simulation stack: spans, metrics, exporters.

``repro.obs`` is the measurement foundation of the reproduction: a
hierarchical span tracer over wall-clock *and* simulated device time, a
counter/gauge/histogram registry, and exporters to Chrome-trace JSON
(``chrome://tracing`` / Perfetto), flat metrics JSON, and text summary
tables.  Every instrumented component takes an injectable tracer and
registry that default to shared no-ops, so observability off is the
bit-identical (and near-free) default; ``repro run --trace-out`` turns
it on process-wide via :func:`repro.obs.observe`.
"""

from repro.obs.context import get_metrics, get_tracer, observe
from repro.obs.export import (
    chrome_trace_events,
    load_chrome_trace,
    render_summary,
    summarize_trace_file,
    to_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullMetricsRegistry,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    SIM_CLOCK,
    SpanRecord,
    Tracer,
    WALL_CLOCK,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTracer",
    "SIM_CLOCK",
    "SpanRecord",
    "Tracer",
    "WALL_CLOCK",
    "chrome_trace_events",
    "get_metrics",
    "get_tracer",
    "load_chrome_trace",
    "observe",
    "render_summary",
    "summarize_trace_file",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_metrics_json",
]
