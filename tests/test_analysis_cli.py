"""CLI surfaces of the static-analysis layer: exit codes and JSON.

The repo-wide convention under test: 0 = clean, 2 = the tool ran and
found diagnostics, 1 = the tool itself failed.  CI scripts rely on the
distinction to tell "findings" from "the linter broke".
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import EXIT_DIAGNOSTICS, main

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class TestLintProgramExitCodes:
    def test_clean_program_exits_zero(self):
        code, out = _run(["lint-program", "tiny"])
        assert code == 0
        assert "clean" in out

    def test_warnings_exit_two(self):
        code, out = _run(["lint-program", "tiny", "--batched", "4"])
        assert code == EXIT_DIAGNOSTICS == 2
        assert "PNM104" in out and "PNM204" in out

    def test_errors_only_ignores_warnings(self):
        code, _ = _run(["lint-program", "tiny", "--batched", "4",
                        "--errors-only"])
        assert code == 0

    def test_unknown_model_is_tool_failure(self):
        code, _ = _run(["lint-program", "no-such-model"])
        assert code == 1

    def test_impossible_geometry_is_tool_failure(self):
        # ctx beyond max_seq_len: the compiler refuses, which is a
        # crash (1), not a diagnostic finding (2).
        code, _ = _run(["lint-program", "tiny", "--ctx-prev", "4096"])
        assert code == 1

    def test_explicit_geometry(self):
        code, out = _run(["lint-program", "tiny",
                          "--batch-tokens", "4", "--ctx-prev", "8"])
        assert code == 0
        assert "m=4" in out and "ctx_prev=8" in out


class TestLintProgramJson:
    def test_json_clean(self):
        code, out = _run(["lint-program", "tiny", "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True and report["clean"] is True
        assert report["diagnostics"] == []

    def test_json_diagnostics_carry_index_and_code(self):
        code, out = _run(["lint-program", "tiny", "--batched", "3",
                          "--json"])
        assert code == 2
        report = json.loads(out)
        assert report["ok"] is True and report["clean"] is False
        for diag in report["diagnostics"]:
            assert diag["code"].startswith("PNM")
            assert isinstance(diag["index"], int)
            assert diag["severity"] == "warning"


class TestLintProgramOutputStable:
    """Byte-identical ``lint-program`` output (sha256 of stdout, recorded
    before the PNM204 overlap scan moved to its own function and timing
    programs became compact), warnings and all."""

    RECORDED = {
        ("tiny", "--batched", "4", "--json"):
            "a6336973259e2e57c824264650d8878e35e4fb579d69f56f5f3225916e30df27",
        ("OPT-1.3B", "--batched", "8"):
            "0e8698ffdca16d63940031d46ac6cbf19fa25a8e44f2f9973614155d912bc13b",
        ("OPT-1.3B", "--batched", "8", "--dtype", "int8", "--json"):
            "cca6ff97feb42307dcb866fbe35710a72b9c59bbaaf71f908e9fa162990199d4",
        ("tiny", "--batch-tokens", "3", "--ctx-prev", "2", "--json"):
            "58f1dfe760e72a16833f9ab6002e8a047bc08187737aef11f18d1a7a73a1cba8",
    }

    @pytest.mark.parametrize("argv", list(RECORDED), ids=" ".join)
    def test_output_unchanged(self, argv):
        _, out = _run(["lint-program", *argv])
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.RECORDED[argv]


class TestLintTree:
    def test_real_tree_clean_with_default_baseline(self):
        code, out = _run(["lint"])
        assert code == 0
        assert "clean" in out and "suppressed by baseline" in out

    def test_no_baseline_exposes_known_exceptions(self):
        code, out = _run(["lint", "--no-baseline"])
        assert code == EXIT_DIAGNOSTICS == 2
        assert "DET501" in out, out
        assert "CON6" not in out, out

    def test_select_limits_passes(self):
        code, out = _run(["lint", "--select", "units", "--no-baseline"])
        assert code == 0, out
        assert "clean" in out and "DET501" not in out

    def test_select_with_default_baseline_stays_clean(self):
        # The checked-in baseline carries DET entries only; a
        # units-only run must scope them out rather than call them
        # stale (regression: this used to exit 2).
        code, out = _run(["lint", "--select", "units"])
        assert code == 0, out
        assert "stale" not in out

    def test_select_alias_and_json(self):
        code, out = _run(["lint", "--select", "det,unit",
                          "--no-baseline", "--json"])
        assert code == 2
        report = json.loads(out)
        codes = {d["code"] for d in report["diagnostics"]}
        assert codes == {"DET501"}, codes

    def test_json_reports_baseline_accounting(self):
        code, out = _run(["lint", "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True and report["clean"] is True
        assert report["stale_baseline"] == []
        assert len(report["suppressed"]) == 2
        codes = {d["code"] for d in report["suppressed"]}
        assert codes == {"DET501"}

    def test_explicit_root_without_baseline(self, tmp_path):
        pkg = tmp_path / "perf"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "'''doc.'''\nRATE = 1 / 1e9\n")
        code, out = _run(["lint", "--root", str(tmp_path),
                          "--no-baseline"])
        assert code == 2 and "UNIT403" in out

    def test_missing_root_is_tool_failure(self):
        code, _ = _run(["lint", "--root", "/no/such/dir"])
        assert code == 1

    def test_unknown_pass_is_tool_failure(self):
        code, _ = _run(["lint", "--select", "spelling"])
        assert code == 1


class TestStaticChecksTool:
    """The static-analysis job as ``make lint`` and CI run it: ``python
    -m repro lint`` in its own process, so the exit code is what the
    shell sees."""

    @staticmethod
    def _lint(*args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *args],
            capture_output=True, text=True, env=env, timeout=300)

    def test_real_tree_clean_exits_zero(self):
        result = self._lint()
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    def test_dirty_tree_exits_two(self, tmp_path):
        pkg = tmp_path / "perf"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            '"""doc."""\nimport time\nT = time.time()\n')
        result = self._lint("--root", str(tmp_path))
        assert result.returncode == EXIT_DIAGNOSTICS == 2
        assert "PUR301" in result.stdout

    def test_json_output(self):
        result = self._lint("--json")
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["clean"] is True
