"""Wall-clock span recorder for the traced benchmark run.

The recorder times layers from outside: it patches public callables of
the ``repro`` package (class attributes, module functions and the
experiment registry) with thin wrappers for as long as it is active,
and restores them on exit.  Nothing under ``src/`` is instrumented, and
the wrappers only record, so a traced run computes exactly what an
untraced one does.

Each wrapped call becomes a span (id, parent id, name, start, end and,
where the call has one, a sequence id).  A span's *self time* is its
duration minus the part its child spans cover; the self times of all
spans under one root sum to the root's duration, which is how the
benchmark splits a traced ``wall_s`` by layer.  A span's layer is the
part of its name before the first dot.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.accelerator import compiler
from repro.appliance.continuous import ContinuousBatchScheduler
from repro.cxl.arbiter import Arbiter
from repro.experiments import registry
from repro.llm import workload as request_gen
from repro.memory.interleave import InterleaveScheme
from repro.perf.analytical import BatchStepTimer, GpuPerfModel, PnmPerfModel
from repro.perf.simulator import AcceleratorSimulator, SimulatedStepTimer
from repro.runtime.driver import CxlPnmDriver
from repro.runtime.session import InferenceSession

#: Spans kept for the Chrome trace; self times and counts keep
#: accumulating past it, so only the exported file is truncated.
MAX_KEPT_SPANS = 50_000

#: Step-model lookups: a lookup with no child span was served from the
#: step model's memo, without pricing anything.
LOOKUPS = ("step.prefill", "step.decode")

#: Simulated units whose busy fraction the traced run reports.
SIM_UNITS = ("DMA", "PE_ARRAY", "ADDER_TREE", "VPU")

#: Layers in report order; ``bench`` is the benchmark's own root span.
LAYERS = ("bench", "appliance", "step", "sim", "compile", "exec", "session",
          "exp", "interleave", "arbiter", "op_time", "workload")

Hook = Callable[["Recorder", tuple, object], None]


def _count_cohort(rec: "Recorder", args: tuple, out) -> None:
    rec.counters["step.cohort.steps"] += len(args[2])


def _count_sim(rec: "Recorder", args: tuple, out) -> None:
    rec.counters["sim.time_s"] += out.total_time_s
    for unit, busy in out.unit_busy_s.items():
        rec.counters[f"sim.busy_s.{unit.name}"] += busy


def _count_launch(rec: "Recorder", args: tuple, out) -> None:
    rec.counters["exec.instructions"] += len(
        args[0].control.instruction_buffer)


#: (owner, attribute, span name, post-call hook).
TARGETS: Tuple[Tuple[object, str, str, Optional[Hook]], ...] = (
    (ContinuousBatchScheduler, "run", "appliance.run", None),
    (BatchStepTimer, "prefill_s", "step.prefill", None),
    (BatchStepTimer, "decode_step_s", "step.decode", None),
    (BatchStepTimer, "decode_steps_s", "step.cohort", _count_cohort),
    (SimulatedStepTimer, "prefill_s", "step.prefill", None),
    (SimulatedStepTimer, "decode_step_s", "step.decode", None),
    (SimulatedStepTimer, "decode_steps_s", "step.cohort", _count_cohort),
    (AcceleratorSimulator, "run", "sim.run", _count_sim),
    (compiler, "timing_program", "compile.timing_program", None),
    (compiler, "batched_timing_program", "compile.batched_timing_program",
     None),
    (compiler.ProgramCache, "stage", "compile.stage", None),
    (CxlPnmDriver, "launch", "exec.launch", _count_launch),
    (InferenceSession, "__init__", "session.init", None),
    (InferenceSession, "generate", "session.generate", None),
    (InterleaveScheme, "bytes_in_channel", "interleave.bytes_in_channel",
     None),
    (Arbiter, "simulate", "arbiter.simulate", None),
    (PnmPerfModel, "op_time", "op_time.pnm", None),
    (GpuPerfModel, "op_time", "op_time.gpu", None),
    *((request_gen, fn, f"workload.{fn}", None)
      for fn in ("sampled_workload", "multi_tenant_workload",
                 "steady_arrivals", "arrivals_for_shape")),
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    """Spans in memory, per-name calls and self time, and counters.

    Use as a context manager: entering patches every target, leaving
    restores the originals.  ``span`` opens a span from benchmark code
    (the per-iteration root and set-up spans).
    """

    def __init__(self) -> None:
        #: span name -> [calls, self seconds, inclusive seconds]
        self._acc: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Dict[str, float] = defaultdict(float)
        self.spans: List[tuple] = []
        self.dropped = 0
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        self._epoch = time.perf_counter()
        self._restore: List[Callable[[], None]] = []

    @property
    def calls(self) -> Dict[str, int]:
        return defaultdict(int, {k: v[0] for k, v in self._acc.items()})

    @property
    def self_s(self) -> Dict[str, float]:
        return defaultdict(float, {k: v[1] for k, v in self._acc.items()})

    @property
    def total_s(self) -> Dict[str, float]:
        return defaultdict(float, {k: v[2] for k, v in self._acc.items()})

    # -- spans -----------------------------------------------------------
    #
    # A frame is [span id, name, accumulator, start, child seconds,
    # child count, item].  Wrappers build frames inline and share one
    # ``_close``: the tracing overhead per call is what ``trace.
    # overhead_pct`` reports, so it is kept to one extra call.

    def _close(self, frame: list) -> float:
        end = time.perf_counter()
        stack = self._stack
        if stack.pop() is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        span_id, name, acc, start, child_s, children, item = frame
        dur = end - start
        acc[0] += 1
        acc[1] += dur - child_s
        acc[2] += dur
        parent_id = None
        if stack:
            parent = stack[-1]
            parent[4] += dur
            parent[5] += 1
            parent_id = parent[0]
        if children == 0 and name in LOOKUPS:
            self.counters["step.hits"] += 1
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((span_id, parent_id, name, start, end, item))
        else:
            self.dropped += 1
        return dur

    def span(self, name: str, fn: Callable[[], object]) -> Tuple[object,
                                                                  float]:
        """Run ``fn`` inside a span; returns (result, span seconds)."""
        frame = [next(self._ids), name, self._acc[name],
                 time.perf_counter(), 0.0, 0, None]
        self._stack.append(frame)
        try:
            out = fn()
        finally:
            dur = self._close(frame)
        return out, dur

    def _wrap(self, fn: Callable, name: str, hook: Optional[Hook],
              numbered: bool = False) -> Callable:
        rec, acc, stack, ids = self, self._acc[name], self._stack, self._ids
        close, clock = self._close, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [next(ids), name, acc, 0.0, 0.0, 0,
                     acc[0] if numbered else None]
            stack.append(frame)
            frame[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                close(frame)
            if hook is not None:
                hook(rec, args, out)
            return out

        return wrapper

    # -- patching --------------------------------------------------------

    def __enter__(self) -> "Recorder":
        try:
            for owner, attr, name, hook in TARGETS:
                original = getattr(owner, attr)
                self._restore.append(functools.partial(setattr, owner, attr,
                                                       original))
                setattr(owner, attr, self._wrap(
                    original, name, hook,
                    numbered=name == "session.generate"))
            experiments = registry.EXPERIMENTS
            for eid, fn in list(experiments.items()):
                self._restore.append(functools.partial(
                    experiments.__setitem__, eid, fn))
                experiments[eid] = self._wrap(fn, f"exp.{eid}", None)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> bool:
        while self._restore:
            self._restore.pop()()
        return False

    # -- reports ---------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            out[layer_of(name)] += seconds
        return out

    def sum_calls(self, prefix: str) -> int:
        return sum(n for name, n in self.calls.items()
                   if name == prefix or name.startswith(prefix + "."))

    def write_chrome_trace(self, path: Path, title: str) -> Path:
        """Chrome-trace ``X`` events on pid 2 (the wall clock)."""
        events = [
            {"ph": "M", "pid": 2, "tid": 0, "name": "process_name",
             "args": {"name": "wall (host time)"}},
            {"ph": "M", "pid": 2, "tid": 1, "name": "thread_name",
             "args": {"name": title}},
        ]
        for span_id, parent_id, name, start, end, item in self.spans:
            args = {"span_id": span_id, "parent_id": parent_id}
            if item is not None:
                args["seq"] = item
            events.append({"ph": "X", "pid": 2, "tid": 1, "name": name,
                           "cat": layer_of(name),
                           "ts": (start - self._epoch) * 1e6,
                           "dur": (end - start) * 1e6, "args": args})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"producer": "benchmarks/e2e",
                          "dropped_spans": self.dropped}}))
        return path
