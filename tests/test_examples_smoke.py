"""Smoke tests: every example script runs cleanly end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_populated():
    assert len(EXAMPLES) >= 5
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("script", [e for e in EXAMPLES
                                    if e != "paper_figures.py"])
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stdout[-2000:]}\n"
        f"{result.stderr[-2000:]}")
    assert result.stdout.strip(), f"{script} printed nothing"


def test_paper_figures_subset_runs(tmp_path):
    """Run the all-figures driver on two cheap artifacts only, writing
    under ``tmp_path`` so the committed full run stays as it is."""
    out = tmp_path / "figures.txt"
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "paper_figures.py"),
         "--out", str(out), "table1", "table2"],
        capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    assert "LPDDR5X" in result.stdout
    assert "LPDDR5X" in out.read_text()
