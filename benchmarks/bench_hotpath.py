#!/usr/bin/env python
"""Decode-loop hot-path benchmark: cached vs uncached token loop.

Times a greedy decode of ``--tokens`` tokens through the full
compile -> program -> execute -> simulate path twice:

* **uncached** (``fast_path=False``): every stage recompiles, every
  consumer re-validates, executor kernels loop per head, the timing
  simulator re-derives every duration — the seed behaviour;
* **cached** (``fast_path=True``): stage-program cache with patching,
  validate-once, vectorized kernels, memoized durations, and
  whole-program timing reuse.  Both paths read weights as zero-copy
  views of device memory.

Each path runs ``--runs`` times on one session (so caches reach steady
state, as in a serving loop) and the best wall time wins.  The script
asserts the two paths are *bit-identical* — same tokens, same simulated
stage times — then writes a JSON record next to the other benchmark
results.  Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_hotpath.py

Read ``speedup`` from the JSON (or stdout): wall seconds of the uncached
loop divided by the cached loop, for the same generated text.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.llm.config import LLMConfig
from repro.llm.reference import random_weights
from repro.runtime.session import InferenceSession

RESULTS = Path(__file__).resolve().parent / "results" / \
    "BENCH_hotpath.json"

CONFIG = LLMConfig(name="bench-tiny", d_model=256, num_heads=16,
                   d_ff=1024, num_layers=4, vocab_size=2048,
                   max_seq_len=256)
PROMPT = (11, 29, 3, 101, 7, 45)
SEED = 0


def build_session(fast_path: bool) -> InferenceSession:
    weights = random_weights(CONFIG, seed=SEED)
    return InferenceSession(weights, fast_path=fast_path)


def time_decode(session: InferenceSession, tokens: int, runs: int):
    """Best wall time over ``runs`` decodes; returns (seconds, trace)."""
    best = float("inf")
    trace = None
    for _ in range(runs):
        session.reset()
        start = time.perf_counter()
        trace = session.generate(PROMPT, tokens)
        best = min(best, time.perf_counter() - start)
    return best, trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tokens", type=int, default=100,
                        help="decode length (default 100)")
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per path, best-of (default 3)")
    parser.add_argument("--out", type=Path, default=RESULTS,
                        help=f"JSON output path (default {RESULTS})")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail below this cached-vs-uncached ratio")
    args = parser.parse_args(argv)

    slow_s, slow = time_decode(build_session(fast_path=False),
                               args.tokens, args.runs)
    fast_s, fast = time_decode(build_session(fast_path=True),
                               args.tokens, args.runs)

    if fast.tokens != slow.tokens:
        print("FAIL: cached and uncached paths generated different tokens")
        return 1
    if fast.stage_times_s != slow.stage_times_s:
        print("FAIL: cached and uncached simulated stage times differ")
        return 1

    speedup = slow_s / fast_s
    record = {
        "benchmark": "decode_loop_hotpath",
        "model": {"d_model": CONFIG.d_model, "num_heads": CONFIG.num_heads,
                  "d_ff": CONFIG.d_ff, "num_layers": CONFIG.num_layers,
                  "vocab_size": CONFIG.vocab_size},
        "prompt_tokens": len(PROMPT),
        "decode_tokens": args.tokens,
        "runs_per_path": args.runs,
        "uncached_s": slow_s,
        "cached_s": fast_s,
        "speedup": speedup,
        "outputs_identical": True,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")

    per_tok = fast_s / (args.tokens) * 1e3
    print(f"decode {args.tokens} tokens: uncached {slow_s:.3f} s, "
          f"cached {fast_s:.3f} s ({per_tok:.2f} ms/token) "
          f"-> {speedup:.2f}x, outputs identical")
    print(f"wrote {args.out}")
    if speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x below required "
              f"{args.min_speedup:.2f}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
