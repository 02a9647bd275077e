#!/usr/bin/env python
"""Run alternating benchmark pairs of a parent revision and this tree.

    python tools/bench_pairs.py [--parent REV] [--pairs N] [--seed S] \\
        [--workload NAME] [--claim WORKLOAD:METRIC ...] \\
        [--out-dir DIR] [--work-dir DIR]

The parent side is ``REV`` (default ``HEAD``), checked out into a
detached ``git worktree`` in a temporary directory; the change side is
the working tree this script sits in, uncommitted edits included.
Each side runs ``benchmarks/e2e/run.py`` (one workload, or all five)
``N`` times with the same seed.  Pair ``i`` runs the parent first when
``i`` is even and the change first when it is odd, so a slow stretch of
the host lands on both sides.  Then this tree's
``benchmarks/e2e/compare.py`` holds the records against each other,
with any ``--claim``; its exit status is the script's.

Records are kept in ``--out-dir`` (default
``benchmarks/e2e/.bench/pairs/<time>``) as ``parent-<i>.json`` and
``change-<i>.json``; the worktree is removed on exit.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str, cwd: Path = ROOT) -> str:
    proc = subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def _run(tree: Path, args, out: Path) -> None:
    cmd = [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
           "--seed", str(args.seed), "--out", str(out)]
    if args.workload:
        cmd += ["--workload", args.workload]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD",
                        help="parent revision (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs of runs (default 10)")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed for both sides (default 7)")
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC",
                        help="passed on to compare.py")
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="where the records go")
    parser.add_argument("--work-dir", type=Path, default=None,
                        help="directory for the parent worktree "
                             "(default: a new temporary directory)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    out_dir = args.out_dir or (ROOT / "benchmarks" / "e2e" / ".bench"
                               / "pairs" / time.strftime("%Y%m%d-%H%M%S"))
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        rev = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(dir=args.work_dir) as tmp:
        parent = Path(tmp) / "parent"
        _git("worktree", "add", "--detach", str(parent), rev)
        try:
            sides = {"parent": parent, "change": ROOT}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 \
                    else ("change", "parent")
                for side in order:
                    _run(sides[side], args, out_dir / f"{side}-{i}.json")
                print(f"pair {i + 1}/{args.pairs} done "
                      f"({order[0]} first)", flush=True)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            _git("worktree", "remove", "--force", str(parent))

    records = {side: [str(out_dir / f"{side}-{i}.json")
                      for i in range(args.pairs)]
               for side in ("parent", "change")}
    cmd = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "compare.py"),
           "--parent", *records["parent"], "--change", *records["change"]]
    for claim in args.claim:
        cmd += ["--claim", claim]
    print(f"parent {rev[:12]} vs {ROOT}; records in {out_dir}", flush=True)
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
