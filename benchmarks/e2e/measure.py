"""Measure one workload: set-up, timed runs, checks, trace and record.

``measure`` is what ``run.py`` calls once per workload process, and
what the tests call with small sizes.  The timed section repeats the
workload's operation on the same inputs for a fixed budget of seconds
and reports the median; no untimed run precedes it.  Set-up runs in
separate fresh processes, several times, and reports the median too,
so work moved into set-up (or into imports) shows in ``setup_s``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from recorder import LAYERS, SIM_UNITS, Recorder
from workloads import PAPER_IDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"


def benchmark_spec() -> dict:
    """The repository's ``BENCHMARK.json``: metric names, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- set-up --------------------------------------------------------------

_SETUP = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = {paths!r}
import workloads
workloads.WORKLOADS[{name!r}].build({seed!r}, {size!r})
print(repr(time.perf_counter() - t0))
"""


def probe_setup(name: str, seed: int, size: Optional[dict] = None) -> float:
    """Seconds a fresh interpreter takes to import and build a workload.

    Interpreter start-up is excluded; imports, input generation and
    model construction are included.
    """
    code = _SETUP.format(paths=[str(SRC), str(HERE)], name=name, seed=seed,
                         size=size)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.split()[-1])


# -- timed runs ----------------------------------------------------------


@dataclass
class Loop:
    """Results of one phase (untraced or traced) of timed runs."""

    walls: List[float] = field(default_factory=list)
    hashes: set = field(default_factory=set)
    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)
    first: object = None


def _attempt(workload, inputs):
    try:
        return workload.run(inputs)
    except Exception as exc:  # the whole run's ops failed; reported below
        return exc


def timed_loop(workload, inputs, budget_s: float,
               recorder: Optional[Recorder] = None) -> Loop:
    """Repeat the run until the next one would overrun the budget.

    At least one run happens.  Every run's outputs are checked and
    hashed after it, outside the timed region.
    """
    loop = Loop()
    ops = workload.ops(inputs)
    while not loop.walls or \
            sum(loop.walls) + statistics.mean(loop.walls) <= budget_s:
        gc.collect()
        if recorder is None:
            start = time.perf_counter()
            out = _attempt(workload, inputs)
            wall = time.perf_counter() - start
        else:
            out, wall = recorder.span("bench.iteration",
                                      lambda: _attempt(workload, inputs))
        loop.walls.append(wall)
        loop.attempted += ops
        if isinstance(out, Exception):
            traceback.print_exception(type(out), out, out.__traceback__,
                                      file=sys.stderr)
            loop.failed += ops
            loop.messages.append(f"run raised {out!r}")
            loop.hashes.add(f"raised {type(out).__name__}")
            continue
        messages = workload.failures(inputs, out)
        loop.failed += len(messages)
        loop.messages.extend(messages[:5])
        loop.hashes.add(hashlib.sha256(
            workload.fingerprint(out).encode()).hexdigest())
        if loop.first is None:
            loop.first = out
    return loop


# -- per-layer metrics ---------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(rec: Recorder, traced: Loop, untraced: Loop,
                      setup_rec: Recorder, counts: Dict[str, float]
                      ) -> Dict[str, tuple]:
    """Every per-layer metric as ``{name: (value, unit)}``.

    Times are shares of the traced wall (self times sum to 100%), so a
    layer a workload bypasses reads 0 rather than a time; counts are per
    run; ratios are over the programs or lookups the traced runs made.
    """
    n = len(traced.walls)
    wall = sum(traced.walls)
    self_s = rec.layer_self_s()
    out: Dict[str, tuple] = {}
    for layer in LAYERS:
        if layer != "workload":
            out[f"{layer}.self_pct"] = (100.0 * self_s[layer] / wall, "%")
    for eid in PAPER_IDS:
        out[f"exp.{eid}.pct"] = (100.0 * rec.total_s[f"exp.{eid}"] / wall,
                                 "%")
    calls = rec.calls
    per_run = {
        "step.prefill.calls": calls["step.prefill"],
        "step.decode.calls": calls["step.decode"],
        "step.cohort.calls": calls["step.cohort"],
        "step.cohort.steps": rec.counters["step.cohort.steps"],
        "sim.run.calls": calls["sim.run"],
        "compile.calls": rec.sum_calls("compile"),
        "exec.calls": calls["exec.launch"],
        "exec.instructions": rec.counters["exec.instructions"],
        "interleave.calls": rec.sum_calls("interleave"),
        "arbiter.calls": rec.sum_calls("arbiter"),
        "op_time.calls": rec.sum_calls("op_time"),
    }
    for name, total in per_run.items():
        out[name] = (total / n, "count")
    out["step.hit_ratio"] = (_ratio(
        rec.counters["step.hits"], calls["step.prefill"]
        + calls["step.decode"]), "ratio")
    for unit in SIM_UNITS:
        out[f"sim.busy_frac.{unit.lower()}"] = (_ratio(
            rec.counters[f"sim.busy_s.{unit}"], rec.counters["sim.time_s"]),
            "ratio")
    out["exec.instructions_per_s"] = (_ratio(
        rec.counters["exec.instructions"], rec.total_s["exec.launch"]),
        "1/s")
    iterations = counts.get("appliance.iterations", 0.0)
    out["appliance.iterations"] = (iterations, "count")
    out["appliance.iterations_per_s"] = (_ratio(
        iterations * n, self_s["appliance"]), "1/s")
    for name, unit in (("appliance.mean_batch", "req"),
                       ("appliance.utilization", "ratio"),
                       ("appliance.preemptions", "count"),
                       ("appliance.shed_ratio", "ratio")):
        out[name] = (counts.get(name, 0.0), unit)
    setup_wall = setup_rec.total_s["bench.setup"]
    out["workload.gen_pct"] = (100.0 * _ratio(
        setup_rec.layer_self_s()["workload"], setup_wall), "%")
    untraced_wall = statistics.median(untraced.walls)
    out["trace.overhead_pct"] = (100.0 * (statistics.median(traced.walls)
                                          - untraced_wall) / untraced_wall,
                                 "%")
    return out


def layer_table(rec: Recorder, runs: int) -> Dict[str, dict]:
    """Per-run self seconds and calls of each layer (the printed split)."""
    self_s = rec.layer_self_s()
    return {layer: {"self_s": self_s[layer] / runs,
                    "calls": rec.sum_calls(layer) / runs}
            for layer in LAYERS if layer != "workload"}


# -- one workload --------------------------------------------------------


def _metric(value: float, unit: str, better: Optional[str] = None) -> dict:
    out = {"value": value, "unit": unit}
    if better is not None:
        out["better"] = better
    return out


def measure(name: str, seed: int, seconds: float, trace: bool = False,
            size: Optional[dict] = None, setup_reps: int = 5,
            trace_dir: Optional[Path] = None) -> dict:
    """Set up, time, check and (optionally) trace one workload.

    With ``trace`` the budget is split: the first half runs untraced
    (the end-to-end metrics and the overhead baseline), the second half
    under the recorder.  Returns the workload's record.
    """
    workload = WORKLOADS[name]
    setup = [probe_setup(name, seed, size) for _ in range(setup_reps)]
    setup_rec = Recorder()
    if trace:
        with setup_rec:
            inputs, _ = setup_rec.span("bench.setup",
                                       lambda: workload.build(seed, size))
    else:
        inputs = workload.build(seed, size)
    budget = seconds / 2 if trace else seconds
    untraced = timed_loop(workload, inputs, budget)
    # Before the traced half, whose spans would count toward it.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record: dict = {"workload": name, "seed": seed,
                    "size": size or workload.size,
                    "op_unit": workload.op_unit}
    loops = [untraced]
    if trace:
        with Recorder() as rec:
            traced = timed_loop(workload, inputs, budget, rec)
        loops.append(traced)
        counts = workload.layer_counts(traced.first) \
            if traced.first is not None else {}
        record["per_layer"] = {
            k: _metric(*v) for k, v in per_layer_metrics(
                rec, traced, untraced, setup_rec, counts).items()}
        record["layers"] = layer_table(rec, len(traced.walls))
        # What the layers' per-run self times sum to.
        record["traced_wall_s"] = statistics.mean(traced.walls)
        if trace_dir is not None:
            record["trace_file"] = str(rec.write_chrome_trace(
                trace_dir / f"{name}.trace.json", name))
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    # Every run, traced or not, must compute the same outputs.
    hashes = sorted(set().union(*(loop.hashes for loop in loops)))
    record.update({
        "ops": attempted,
        "ops_failed": failed,
        "error_rate": failed / attempted,
        "failures": [m for loop in loops for m in loop.messages][:10],
        "outputs_sha256": hashes[0] if len(hashes) == 1 else hashes,
        "correct": failed == 0 and len(hashes) == 1,
        "runs": {"untraced": len(untraced.walls),
                 "traced": len(loops[-1].walls) if trace else 0},
        "wall": {"untraced_s": statistics.median(untraced.walls),
                 "traced_s": statistics.median(loops[-1].walls)
                 if trace else None},
        "samples": {"wall_s": untraced.walls, "setup_s": setup,
                    "traced_wall_s": loops[-1].walls if trace else []},
        "metrics": {
            "wall_s": _metric(statistics.median(untraced.walls), "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
        },
        "sim": {k: _metric(*v) for k, v in workload.sim_metrics(
            inputs, untraced.first).items()}
        if untraced.first is not None else {},
    })
    return record
