"""Suite composition and the suppression baseline's lifecycle.

The baseline is a policy mechanism, so its semantics get direct tests:
match by (code, path, stripped line text) — a moved line stays
suppressed, an edited line goes stale — plus the loader's validation
(version, required fields, non-empty justification) and the suite's
pass selection, report merging, and the single tree walk.
"""

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.suite import (
    PASSES,
    render_result,
    resolve_passes,
    run_suite,
)
from repro.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parents[1]
REPO_SRC = REPO_ROOT / "src" / "repro"
BASELINE_FILE = REPO_ROOT / "tools" / "static_analysis_baseline.json"

#: A perf-package file with one violation per lint family.
DIRTY = textwrap.dedent("""
    '''doc.'''
    def f(table, request, rate):
        table[id(request)] = rate / 1e9
""")


def _write_dirty(tmp_path):
    pkg = tmp_path / "perf"
    pkg.mkdir()
    (pkg / "bad.py").write_text(DIRTY)
    return tmp_path


def _baseline_file(tmp_path, entries):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 1, "entries": entries}))
    return path


class TestResolvePasses:
    def test_default_is_all_in_order(self):
        assert resolve_passes(None) == tuple(PASSES)
        assert resolve_passes([]) == tuple(PASSES)

    def test_aliases(self):
        assert resolve_passes(["det", "unit"]) \
            == ("determinism", "units")
        assert resolve_passes(["unit", "pur"]) == ("units", "purity")
        with pytest.raises(ConfigurationError):
            resolve_passes(["con"])

    def test_duplicates_collapse(self):
        assert resolve_passes(["units", "unit"]) == ("units",)

    def test_unknown_pass_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_passes(["spelling"])


class TestRunSuite:
    def test_dirty_tree_reports_both_families(self, tmp_path):
        result = run_suite(_write_dirty(tmp_path))
        codes = sorted(d.code for d in result.report.diagnostics)
        assert codes == ["DET501", "UNIT403"]
        assert not result.ok

    def test_pass_selection_limits_findings(self, tmp_path):
        result = run_suite(_write_dirty(tmp_path), passes=["units"])
        assert [d.code for d in result.report.diagnostics] \
            == ["UNIT403"]

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_suite(tmp_path / "nowhere")


class TestOneTreeWalk:
    def test_each_file_parsed_once_for_all_passes(self, monkeypatch):
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            parsed.append(source)
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        result = run_suite(REPO_SRC, baseline=Baseline.load(BASELINE_FILE))
        assert result.ok, render_result(result)
        files = len(list(REPO_SRC.rglob("*.py")))
        parses = len(parsed)
        assert parses == files

    def test_syntax_error_yields_each_pass_code(self, tmp_path):
        pkg = tmp_path / "accelerator"
        pkg.mkdir()
        (pkg / "broken.py").write_text("def f(:\n")
        result = run_suite(tmp_path)
        assert [d.code for d in result.report.diagnostics] \
            == ["PUR300", "UNIT400", "DET500"]
        assert all(d.location == "accelerator/broken.py:1"
                   for d in result.report.diagnostics)


class TestBaselineMatching:
    def test_matching_entry_suppresses(self, tmp_path):
        root = _write_dirty(tmp_path)
        baseline = Baseline((
            BaselineEntry("DET501", "perf/bad.py",
                          "table[id(request)] = rate / 1e9",
                          "test exception"),
            BaselineEntry("UNIT403", "perf/bad.py",
                          "table[id(request)] = rate / 1e9",
                          "test exception"),
        ))
        result = run_suite(root, baseline=baseline)
        assert result.ok
        assert len(result.suppressed) == 2 and not result.stale

    def test_edited_line_goes_stale(self, tmp_path):
        root = _write_dirty(tmp_path)
        baseline = Baseline((
            BaselineEntry("DET501", "perf/bad.py",
                          "some other line text", "test exception"),
        ))
        result = run_suite(root, passes=["determinism"],
                           baseline=baseline)
        # The finding is kept AND the entry is stale: both fail.
        assert not result.ok
        assert [d.code for d in result.report.diagnostics] \
            == ["DET501"]
        assert len(result.stale) == 1
        assert "stale baseline entry" in render_result(result)

    def test_stale_entry_alone_fails_clean_tree(self, tmp_path):
        pkg = tmp_path / "perf"
        pkg.mkdir()
        (pkg / "ok.py").write_text("'''doc.'''\nX = 1\n")
        baseline = Baseline((
            BaselineEntry("DET501", "perf/ok.py", "gone = True",
                          "obsolete"),
        ))
        result = run_suite(tmp_path, baseline=baseline)
        assert result.report.clean and not result.ok
        assert result.as_dict()["ok"] is False
        assert result.as_dict()["stale_baseline"][0]["code"] == "DET501"

    def test_out_of_scope_entries_not_stale_under_selection(self, tmp_path):
        # An entry for a pass that did not run matches nothing by
        # construction; scoping must keep it from reading as stale.
        root = _write_dirty(tmp_path)
        baseline = Baseline((
            BaselineEntry("UNIT403", "perf/bad.py",
                          "table[id(request)] = rate / 1e9",
                          "test exception"),
            BaselineEntry("DET501", "perf/bad.py",
                          "table[id(request)] = rate / 1e9",
                          "test exception"),
        ))
        result = run_suite(root, passes=["units"], baseline=baseline)
        assert result.ok, render_result(result)
        assert len(result.suppressed) == 1 and not result.stale

    def test_shipped_baseline_not_stale_per_pass(self):
        # Every single-pass run of the real tree must stay clean with
        # the full checked-in baseline applied.
        baseline = Baseline.load(BASELINE_FILE)
        for name in PASSES:
            result = run_suite(REPO_SRC, passes=[name],
                               baseline=baseline)
            assert result.ok, f"{name}: {render_result(result)}"
            assert not result.stale

    def test_wrong_code_does_not_match(self, tmp_path):
        root = _write_dirty(tmp_path)
        baseline = Baseline((
            BaselineEntry("UNIT403", "perf/bad.py",
                          "table[id(request)] = rate / 1e9",
                          "suppresses only the magnitude"),
        ))
        result = run_suite(root, baseline=baseline)
        assert [d.code for d in result.report.diagnostics] \
            == ["DET501"]


class TestBaselineLoader:
    def test_round_trip(self, tmp_path):
        path = _baseline_file(tmp_path, [
            {"code": "DET501", "path": "a.py", "line": "x = id(y)",
             "reason": "why"}])
        baseline = Baseline.load(path)
        assert len(baseline.entries) == 1
        assert baseline.entries[0].reason == "why"

    def test_blank_reason_rejected(self, tmp_path):
        path = _baseline_file(tmp_path, [
            {"code": "DET501", "path": "a.py", "line": "x", "reason": " "}])
        with pytest.raises(ConfigurationError):
            Baseline.load(path)

    def test_missing_field_rejected(self, tmp_path):
        path = _baseline_file(tmp_path, [
            {"code": "DET501", "path": "a.py", "line": "x"}])
        with pytest.raises(ConfigurationError):
            Baseline.load(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 2, "entries": []}))
        with pytest.raises(ConfigurationError):
            Baseline.load(path)

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            Baseline.load(tmp_path / "missing.json")


class TestShippedBaseline:
    def test_suite_clean_with_shipped_baseline(self):
        result = run_suite(REPO_SRC,
                           baseline=Baseline.load(BASELINE_FILE))
        assert result.ok, render_result(result)
        assert not result.stale

    def test_at_most_ten_individually_justified_entries(self):
        baseline = Baseline.load(BASELINE_FILE)
        assert 0 < len(baseline.entries) <= 10
        for entry in baseline.entries:
            assert len(entry.reason.split()) >= 5, (
                f"{entry.code} at {entry.path}: justification too thin")

    def test_every_entry_is_used(self):
        # No speculative suppressions: each entry must match a live
        # finding (run_suite fails stale entries, assert it directly).
        result = run_suite(REPO_SRC,
                           baseline=Baseline.load(BASELINE_FILE))
        baseline = Baseline.load(BASELINE_FILE)
        assert len(result.suppressed) == len(baseline.entries)
