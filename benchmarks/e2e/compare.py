#!/usr/bin/env python
"""Compare benchmark records of a parent commit and a change.

    python benchmarks/e2e/compare.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ... [--claim WORKLOAD:METRIC ...]

Each file is a record written by ``run.py``.  The i-th parent record
and the i-th change record form a pair; run at least ten pairs,
alternating which side runs first, with the same seeds on both sides.

For every workload and end-to-end metric of ``BENCHMARK.json`` this
prints each side's median and quartiles and a status:

* ``regression`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` — the parent's own spread (its quartile distance over
  its median) exceeds the bound, so no verdict, unless every change run
  beats every parent run (``better``);
* ``ok`` otherwise.

Simulated metrics and ``outputs_sha256`` are compared pair by pair:
they repeat exactly for a seed, so any difference means the change
altered what is computed, and a simulated metric that got worse is a
regression with an exact bound.  A claim (``--claim``) holds when the
change wins at least 9 in 10 pairs (ties count for neither) and the
medians differ by more than the parent's quartile distance.

Exits 1 on any regression, any increase in failed operations, or a
claim that does not hold; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent
#: Relative tolerance of the simulated metrics, which repeat exactly.
SIM_TOLERANCE = 1e-9
MIN_PAIRS = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def load(paths: Sequence[Path]) -> Dict[str, List[dict]]:
    """Workload name -> its records, in the order the files were given."""
    out: Dict[str, List[dict]] = {}
    for path in paths:
        for name, rec in json.loads(path.read_text())["workloads"].items():
            out.setdefault(name, []).append(rec)
    return out


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def host_rows(parent: List[dict], change: List[dict], spec: dict
              ) -> List[dict]:
    rows = []
    for m in spec["end_to_end"]:
        name, better, bound = m["name"], m["better"], m["bound"]
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pq, cq = quartiles(p), quartiles(c)
        delta = (cq[1] - pq[1]) / pq[1]
        worse_by = delta if better == "lower" else -delta
        spread = (pq[2] - pq[0]) / pq[1]
        if spread > bound:
            dominates = all(_better(x, y, better) for x in c for y in p)
            status = "better" if dominates else "unresolved"
        else:
            status = "regression" if worse_by > bound else "ok"
        rows.append({"metric": name, "parent": pq, "change": cq,
                     "delta": delta, "bound": bound, "status": status})
    return rows


def sim_findings(parent: List[dict], change: List[dict]
                 ) -> Tuple[List[str], bool]:
    """Pairwise exact comparison of outputs; (messages, any regression)."""
    messages, regressed = [], False
    for i, (p, c) in enumerate(zip(parent, change)):
        if p["seed"] != c["seed"]:
            messages.append(f"pair {i}: seeds differ ({p['seed']} vs "
                            f"{c['seed']}); outputs not compared")
            continue
        if p["outputs_sha256"] != c["outputs_sha256"]:
            messages.append(f"pair {i} (seed {p['seed']}): outputs_sha256 "
                            "changed")
        for name, pm in p["sim"].items():
            cm = c["sim"].get(name)
            if cm is None:
                messages.append(f"pair {i}: {name} missing from the change")
                continue
            a, b = pm["value"], cm["value"]
            if abs(b - a) <= SIM_TOLERANCE * max(abs(a), abs(b)):
                continue
            worse = _better(a, b, pm["better"])
            regressed |= worse
            messages.append(f"pair {i} (seed {p['seed']}): {name} "
                            f"{a:.9g} -> {b:.9g} "
                            f"({'worse' if worse else 'better'})")
    return messages, regressed


def claim_holds(parent: List[dict], change: List[dict], metric: str,
                better: str) -> Tuple[bool, str]:
    p = [r["metrics"][metric]["value"] for r in parent]
    c = [r["metrics"][metric]["value"] for r in change]
    pairs = min(len(p), len(c))
    wins = sum(_better(b, a, better) for a, b in zip(p, c))
    pq, cq = quartiles(p), quartiles(c)
    gap, iqr = abs(cq[1] - pq[1]), pq[2] - pq[0]
    ok = pairs >= MIN_PAIRS and wins >= 0.9 * pairs and gap > iqr \
        and _better(cq[1], pq[1], better)
    return ok, (f"{wins}/{pairs} pairs won, medians differ by {gap:.6g} "
                f"vs parent quartile distance {iqr:.6g}")


def _fmt(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    failed = False

    print(f"{'workload':<16} {'metric':<12} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'delta':>8} {'bound':>6}  status")
    for name in sorted(set(parent) & set(change)):
        p, c = parent[name], change[name]
        if min(len(p), len(c)) < MIN_PAIRS:
            print(f"{name}: only {min(len(p), len(c))} pairs; "
                  f"{MIN_PAIRS} are needed for a verdict")
        for row in host_rows(p, c, spec):
            failed |= row["status"] == "regression"
            print(f"{name:<16} {row['metric']:<12} {_fmt(row['parent']):<34} "
                  f"{_fmt(row['change']):<34} {100 * row['delta']:>7.2f}% "
                  f"{row['bound']:>6.2f}  {row['status']}")
        p_failed = sum(r["ops_failed"] for r in p)
        c_failed = sum(r["ops_failed"] for r in c)
        if c_failed > p_failed:
            failed = True
            print(f"{name}: failed ops rose from {p_failed} to {c_failed}")
        messages, regressed = sim_findings(p, c)
        failed |= regressed
        for message in messages:
            print(f"{name}: {message}")
        if not messages:
            print(f"{name}: outputs and simulated metrics identical in all "
                  f"{min(len(p), len(c))} pairs")
    for missing in sorted(set(parent) ^ set(change)):
        print(f"{missing}: present on one side only")

    betters = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for claim in args.claim:
        name, _, metric = claim.partition(":")
        if name not in parent or name not in change or metric not in betters:
            print(f"claim {claim}: unknown workload or metric")
            return 2
        ok, detail = claim_holds(parent[name], change[name], metric,
                                 betters[metric])
        failed |= not ok
        print(f"claim {claim}: {'holds' if ok else 'not met'} ({detail})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
