"""Tests of the end-to-end benchmark, at small input sizes.

Run with ``python -m pytest benchmarks/e2e -q``.  Sizes are passed to
the workload functions as arguments; the benchmark's own sizes are
fixed in ``workloads.py``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
from recorder import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {
    "serve-steady": {"requests": 40, "streams": 1},
    "serve-slo": {"requests": 80, "streams": 2},
    "serve-sim": {"requests": 6, "streams": 1},
    "decode-opt125m": {"prompts": 1, "tokens": 3},
    "paper-artifacts": {"ids": ["fig2", "fig3", "table1", "table2"]},
}
SPEC = measure.benchmark_spec()


def _digest(name: str, seed: int, traced: bool = False):
    workload = WORKLOADS[name]
    inputs = workload.build(seed, SMALL[name])
    if traced:
        with Recorder():
            out = workload.run(inputs)
    else:
        out = workload.run(inputs)
    assert workload.failures(inputs, out) == []
    digest = hashlib.sha256(workload.fingerprint(out).encode()).hexdigest()
    return digest, workload.sim_metrics(inputs, out)


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.fixture(scope="module")
def traced_record():
    return measure.measure("serve-steady", seed=3, seconds=0.2, trace=True,
                           size=SMALL["serve-steady"], setup_reps=1)


def test_printed_metric_names_equal_the_spec(traced_record):
    records = {"serve-steady": traced_record}
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line(records, SPEC, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in SPEC[kind]]
        for m in SPEC[kind]:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
    assert set(traced_record["per_layer"]) == {
        m["name"] for m in SPEC["per_layer"]}


def test_self_times_sum_to_the_traced_wall(traced_record):
    total = sum(row["self_s"] for row in traced_record["layers"].values())
    assert total == pytest.approx(traced_record["traced_wall_s"], rel=0.01)
    shares = [v["value"] for k, v in traced_record["per_layer"].items()
              if k.endswith(".self_pct")]
    assert sum(shares) == pytest.approx(100.0, rel=0.01)


def test_traced_and_untraced_runs_agree(traced_record):
    assert traced_record["correct"]
    assert isinstance(traced_record["outputs_sha256"], str)
    assert traced_record["runs"]["traced"] >= 1


@pytest.mark.parametrize("name", list(SMALL))
def test_same_seed_same_outputs_and_tracing_changes_nothing(name):
    first, sim = _digest(name, seed=5)
    again, sim_again = _digest(name, seed=5, traced=True)
    assert again == first
    assert sim_again == sim


@pytest.mark.parametrize("name", ["serve-steady", "serve-slo", "serve-sim",
                                  "decode-opt125m"])
def test_another_seed_gives_other_outputs(name):
    assert _digest(name, seed=5)[0] != _digest(name, seed=6)[0]


def test_a_broken_output_counts_in_error_rate(monkeypatch):
    workload = WORKLOADS["serve-steady"]
    real_run = workload.run

    def broken(inputs):
        runs = real_run(inputs)
        stats = runs[0]
        stats.completed.append(stats.completed[0])   # served twice
        stats.completed.pop(1)                       # and one lost
        return runs

    monkeypatch.setattr(workload, "run", broken)
    rec = measure.measure("serve-steady", seed=3, seconds=0.05,
                          size=SMALL["serve-steady"], setup_reps=1)
    assert rec["ops_failed"] == 2 * rec["runs"]["untraced"]
    assert rec["error_rate"] == rec["ops_failed"] / rec["ops"] > 0
    assert not rec["correct"]


def test_paper_anchor_errors_cover_the_published_anchors():
    workload = WORKLOADS["paper-artifacts"]
    ids = ["fig10", "fig11", "table3"]
    errors = workload.anchor_errors(workload.run(ids))
    assert len(errors) == 24
    assert all(0.0 <= e < float("inf") for e in errors.values())


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "serve-steady", "--seed", "1", "--seconds",
         str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_run_length_other_than_the_spec_is_refused(capsys):
    seconds = SPEC["run_seconds"] + 1
    assert run.main(["--workload", "serve-steady",
                     "--seconds", str(seconds)]) == 2
    assert capsys.readouterr().out == ""


def _record(path: Path, wall: float, seed: int, sha: str = "a") -> Path:
    rec = {"seed": seed, "ops_failed": 0, "outputs_sha256": sha,
           "sim": {"sim_goodput_tok_s": {"value": 10.0, "unit": "tok/s",
                                         "better": "higher"}},
           "metrics": {m["name"]: {"value": wall, "unit": m["unit"]}
                       for m in SPEC["end_to_end"]}}
    path.write_text(json.dumps({"workloads": {"serve-steady": rec}}))
    return path


def _records(tmp_path: Path, side: str, walls) -> list:
    return [_record(tmp_path / f"{side}{i}.json", w, seed=i)
            for i, w in enumerate(walls)]


def test_compare_flags_a_regression_and_accepts_noise(tmp_path):
    parent = _records(tmp_path, "p", [1.0 + 0.01 * (i % 3)
                                      for i in range(10)])
    slower = _records(tmp_path, "s", [1.5 + 0.01 * (i % 3)
                                      for i in range(10)])
    same = _records(tmp_path, "c", [1.0 + 0.01 * ((i + 1) % 3)
                                    for i in range(10)])
    args = ["--parent", *map(str, parent)]
    assert compare.main(args + ["--change", *map(str, slower)]) == 1
    assert compare.main(args + ["--change", *map(str, same)]) == 0


def test_compare_claim_rule(tmp_path):
    parent = _records(tmp_path, "p", [1.0 + 0.01 * (i % 3)
                                      for i in range(10)])
    faster = _records(tmp_path, "f", [0.8 + 0.01 * (i % 3)
                                      for i in range(10)])
    args = ["--parent", *map(str, parent), "--change", *map(str, faster)]
    assert compare.main(args + ["--claim", "serve-steady:wall_s"]) == 0
    assert compare.main(
        ["--parent", *map(str, parent), "--change", *map(str, parent),
         "--claim", "serve-steady:wall_s"]) == 1
