"""Hierarchical span tracing over two clocks: wall time and device time.

The reproduction runs two kinds of "time".  Wall-clock time is what the
Python process spends (compiling stages, executing numpy kernels);
*simulated* time is what the modelled CXL-PNM hardware would spend (the
schedule the timing simulator computes, the arbiter's service windows,
the scheduler's request timelines).  A :class:`Tracer` records both as
:class:`SpanRecord` entries on a single shared timeline store:

* ``with tracer.span("compile", category="runtime"):`` opens a
  *wall-clock* span.  Nesting is tracked per thread, so spans form a
  tree (``parent_id``/``depth``) and export cleanly to Chrome's trace
  viewer as stacked slices.
* ``tracer.sim_span("MPU_MM", start_s=t0, dur_s=dt, track="pnm.PE")``
  records a *simulated-time* span at an explicit position on a named
  track — the per-unit schedule of the instruction simulator, for
  example.

Disabled tracing must cost (almost) nothing: :data:`NULL_TRACER` is a
shared singleton whose ``span`` returns one reusable no-op context
manager and whose ``sim_span`` is a constant-return method, so
instrumented hot loops pay one attribute check (``tracer.enabled``) or
one no-op call when observability is off.  Instrumented components are
bit-identical with tracing on or off because the tracer only *records*;
it never feeds back into any model.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Clock tags carried by every span record.
WALL_CLOCK = "wall"
SIM_CLOCK = "sim"


@dataclass(frozen=True)
class SpanRecord:
    """One completed span on either clock.

    Attributes:
        span_id: Unique id within the owning tracer.
        parent_id: Enclosing wall-clock span id, or ``None`` at top level
            (sim spans are positioned by ``track``, not by nesting).
        name: What the span covers, e.g. an opcode or a stage name.
        category: The stack layer that emitted it (``"accelerator"``,
            ``"cxl"``, ``"scheduler"``, ``"runtime"``, ...).
        clock: :data:`WALL_CLOCK` or :data:`SIM_CLOCK`.
        start_ns: Start time in integer nanoseconds on that clock
            (wall spans are relative to tracer creation).
        dur_ns: Duration in nanoseconds.
        track: Export track (thread name for wall spans, unit/instance
            name for sim spans).
        depth: Nesting depth of wall spans (0 at top level).
        args: Optional key/value payload shown in trace viewers.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    clock: str
    start_ns: int
    dur_ns: int
    track: str
    depth: int = 0
    args: Optional[Dict[str, Any]] = None


class _NullSpan:
    """Reusable no-op context manager handed out by the null tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **_args: Any) -> None:
        """Discard span arguments."""


NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer that records nothing; the default for every component."""

    enabled = False

    def span(self, name: str, category: str = "wall",
             **args: Any) -> _NullSpan:
        return NULL_SPAN

    def sim_span(self, name: str, start_s: float, dur_s: float,
                 track: str, category: str = "sim",
                 args: Optional[Dict[str, Any]] = None) -> None:
        return None

    @property
    def spans(self) -> Tuple[SpanRecord, ...]:
        return ()


NULL_TRACER = NullTracer()


class _SpanHandle:
    """Live wall-clock span; records itself on ``__exit__``."""

    __slots__ = ("_tracer", "_name", "_category", "_args", "_span_id",
                 "_parent_id", "_depth", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 args: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args

    def set(self, **args: Any) -> None:
        """Attach (or update) argument payload while the span is open."""
        self._args.update(args)

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        stack = tracer._stack()
        self._parent_id = stack[-1][0] if stack else None
        self._depth = len(stack)
        self._span_id = next(tracer._ids)
        stack.append((self._span_id, self._name))
        self._start_ns = time.perf_counter_ns() - tracer._epoch_ns
        return self

    def __exit__(self, *exc_info) -> bool:
        end_ns = time.perf_counter_ns() - self._tracer._epoch_ns
        tracer = self._tracer
        tracer._stack().pop()
        record = SpanRecord(
            span_id=self._span_id,
            parent_id=self._parent_id,
            name=self._name,
            category=self._category,
            clock=WALL_CLOCK,
            start_ns=self._start_ns,
            dur_ns=end_ns - self._start_ns,
            track=threading.current_thread().name,
            depth=self._depth,
            args=self._args or None)
        with tracer._lock:
            tracer._spans.append(record)
        return False


class Tracer:
    """Collects spans from every instrumented layer of the stack.

    Thread-safe: wall-clock nesting is tracked per thread and the span
    store is guarded by a lock, so a tracer can be shared by the whole
    process (the CLI does exactly that via :mod:`repro.obs.context`).
    """

    enabled = True

    def __init__(self) -> None:
        self._spans: List[SpanRecord] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._epoch_ns = time.perf_counter_ns()

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording ---------------------------------------------------------

    def span(self, name: str, category: str = "wall",
             **args: Any) -> _SpanHandle:
        """Open a wall-clock span; use as a context manager."""
        return _SpanHandle(self, name, category, args)

    def sim_span(self, name: str, start_s: float, dur_s: float,
                 track: str, category: str = "sim",
                 args: Optional[Dict[str, Any]] = None) -> None:
        """Record a span at an explicit simulated-time position.

        ``start_s``/``dur_s`` are simulated seconds; they are stored as
        integer nanoseconds, the timebase the Chrome-trace exporter uses.
        """
        record = SpanRecord(
            span_id=next(self._ids),
            parent_id=None,
            name=name,
            category=category,
            clock=SIM_CLOCK,
            start_ns=int(round(start_s * 1e9)),
            dur_ns=int(round(dur_s * 1e9)),
            track=track,
            depth=0,
            args=args)
        with self._lock:
            self._spans.append(record)

    # -- reading -----------------------------------------------------------

    @property
    def spans(self) -> Tuple[SpanRecord, ...]:
        """Snapshot of every recorded span (order of completion)."""
        with self._lock:
            return tuple(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def categories(self) -> Tuple[str, ...]:
        """Distinct categories seen so far (sorted) — layer coverage."""
        return tuple(sorted({s.category for s in self.spans}))
