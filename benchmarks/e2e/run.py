#!/usr/bin/env python
"""End-to-end benchmark: five workloads, host and simulated metrics.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--trace 0|1] [--trace-dir DIR] [--out FILE]

With ``--workload`` the named workload runs in this process; without
it every workload runs in turn, each in its own fresh process.  Every
process is single-threaded (``OMP/OPENBLAS/MKL_NUM_THREADS=1``), so
``setup_s`` and ``peak_rss_mb`` belong to one workload and no
workload's caches warm the next.  Each workload is timed for
``run_seconds`` of ``BENCHMARK.json``; ``--seconds``, if given, must
equal it, so two records always cover the same length of run.

The benchmark prints every metric by name with its unit, checks every
operation's outputs, writes a JSON record (``--out``, by default under
``benchmarks/e2e/.bench/records/``) and ends with one JSON line:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics of ``BENCHMARK.json``, or with ``--trace 1`` its per-layer
metrics, which come from a second, traced half of the run.
``--trace 1`` also writes ``<workload>.trace.json`` (Chrome trace,
pid 2 = wall clock) to ``--trace-dir``, readable by
``python -m repro trace summarize``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / ".bench"
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def environment(args, seconds: float) -> dict:
    import numpy
    return {"commit": _commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "threads": {k: os.environ.get(k) for k in THREAD_ENV},
            "platform": platform.platform(), "seed": args.seed,
            "seconds": seconds, "trace": bool(args.trace)}


def _fmt(metric: dict) -> str:
    return f"{metric['value']:.6g} {metric['unit']}"


def report(rec: dict) -> List[str]:
    """Human-readable lines for one workload record."""
    lines = [f"== {rec['workload']} (seed {rec['seed']}): {rec['ops']} "
             f"{rec['op_unit']}s attempted over "
             f"{rec['runs']['untraced']} timed + "
             f"{rec['runs']['traced']} traced runs, "
             f"{rec['ops_failed']} failed ==",
             f"  outputs_sha256      {rec['outputs_sha256']}"]
    lines += [f"  {k:<19} {_fmt(v)}" for k, v in rec["metrics"].items()]
    lines += [f"  {k:<19} {_fmt(v)}  (simulated)"
              for k, v in rec["sim"].items()]
    lines += [f"  failure: {m}" for m in rec["failures"]]
    if "layers" in rec:
        wall = rec["traced_wall_s"]
        lines.append(f"  traced run: {wall:.6g} s per run, self time by "
                     "layer:")
        lines += [f"    {layer:<11} {row['self_s']:>10.6f} s "
                  f"{100 * row['self_s'] / wall:6.2f} %  "
                  f"{row['calls']:>10.1f} calls"
                  for layer, row in rec["layers"].items()]
        lines += [f"  {k:<31} {_fmt(v)}"
                  for k, v in rec["per_layer"].items()]
        if "trace_file" in rec:
            lines.append(f"  trace: {rec['trace_file']}")
    return lines


def result_line(records: Dict[str, dict], spec: dict, trace: bool) -> dict:
    """The closing JSON line; metric names come from ``BENCHMARK.json``."""
    kind = "per_layer" if trace else "end_to_end"
    key = "per_layer" if trace else "metrics"
    single = len(records) == 1
    metrics = {}
    for name, rec in records.items():
        for m in spec[kind]:
            metrics[m["name"] if single else f"{name}.{m['name']}"] = \
                rec[key][m["name"]]
    return {"correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["ops"] for r in records.values()),
            "failed": sum(r["ops_failed"] for r in records.values()),
            "metrics": metrics}


def _run_children(names: List[str], args) -> Dict[str, dict]:
    """Each workload in a fresh process of this script; their records."""
    records = {}
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for name in names:
            out = Path(tmp) / f"{name}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--trace", str(args.trace),
                   "--trace-dir", str(args.trace_dir), "--out", str(out)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=900)
            # The child's report, without its record path and JSON line.
            print("\n".join(proc.stdout.splitlines()[:-2]), flush=True)
            if proc.returncode != 0:
                raise RuntimeError(f"{name} exited with {proc.returncode}")
            records[name] = json.loads(out.read_text())["workloads"][name]
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (default 7; hold out 8)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced half and report per-layer "
                             "metrics")
    parser.add_argument("--trace-dir", type=Path,
                        default=OUT_DIR / "traces",
                        help="where --trace 1 writes Chrome traces")
    parser.add_argument("--out", type=Path, default=None,
                        help="JSON record path (default "
                             "benchmarks/e2e/.bench/records/)")
    args = parser.parse_args(argv)

    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import measure
        spec = measure.benchmark_spec()
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot load the benchmark: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(names)}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"]
    if args.seconds not in (None, seconds):
        print(f"error: --seconds {args.seconds:g} differs from run_seconds "
              f"{seconds} of BENCHMARK.json", file=sys.stderr)
        return 2

    if args.workload is not None:
        rec = measure.measure(args.workload, args.seed, seconds,
                              trace=bool(args.trace),
                              trace_dir=args.trace_dir)
        print("\n".join(report(rec)), flush=True)
        records = {args.workload: rec}
    else:
        try:
            records = _run_children(names, args)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    stem = "-".join([time.strftime("%Y%m%d-%H%M%S"),
                     args.workload or "all", f"seed{args.seed}",
                     "trace" if args.trace else "timed", str(os.getpid())])
    out = args.out or OUT_DIR / "records" / f"{stem}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"schema": 1, **environment(args, seconds),
                               "workloads": records}, indent=1) + "\n")
    print(f"record: {out}")
    print(json.dumps(result_line(records, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
