"""Dimensional lint: rule units on synthetic sources + the real tree.

Each UNIT4xx rule gets known-bad snippets asserting the exact code and
line, plus negative cases proving the conservative inference stays
silent on legitimate code (conversion factors, dimensionless math).
The integration test asserts the real ``src/repro`` tree is clean
modulo the checked-in baseline — the property the blocking CI job
enforces.
"""

import textwrap
from pathlib import Path

from repro.analysis import Baseline, run_suite
from repro.analysis.units_lint import (
    dimension_of_name,
    infer_dimension,
    lint_source,
    rules_for,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
REPO_SRC = REPO_ROOT / "src" / "repro"


def _diags(source, relpath="perf/example.py"):
    return lint_source(textwrap.dedent(source), relpath)


def _codes(source, relpath="perf/example.py"):
    return [d.code for d in _diags(source, relpath)]


def _lines(source, relpath="perf/example.py"):
    return [int(d.location.rsplit(":", 1)[1])
            for d in _diags(source, relpath)]


class TestDimensionOfName:
    def test_time_suffixes(self):
        assert dimension_of_name("decode_step_s") == "time[s]"
        assert dimension_of_name("latency_ns") == "time[ns]"
        assert dimension_of_name("wait_us") == "time[us]"
        assert dimension_of_name("ttft_ms") == "time[ms]"

    def test_byte_suffixes_distinguish_scales(self):
        assert dimension_of_name("mem_bytes") == "bytes"
        assert dimension_of_name("capacity_gb") == "bytes[gb]"
        assert dimension_of_name("footprint_gib") == "bytes[gib]"

    def test_rate_names(self):
        assert dimension_of_name("goodput_tokens_per_s") \
            == "tokens/time[s]"
        assert dimension_of_name("cost_usd_per_kwh") \
            == "money[usd]/energy[kwh]"

    def test_single_tokens_never_match_suffixes(self):
        # A loop variable ``j`` or a bare ``s`` must not acquire a
        # dimension by accident; only whole-name entries match.
        assert dimension_of_name("s") is None
        assert dimension_of_name("j") is None
        assert dimension_of_name("gb") is None
        assert dimension_of_name("seconds") == "time[s]"
        assert dimension_of_name("nbytes") == "bytes"

    def test_undimensioned_names(self):
        assert dimension_of_name("batch") is None
        assert dimension_of_name("batch_size") is None


class TestInferDimension:
    def test_multiplication_erases(self):
        import ast
        expr = ast.parse("wait_s * scale_bytes", mode="eval").body
        assert infer_dimension(expr) is None

    def test_addition_preserves_agreeing_dims(self):
        import ast
        expr = ast.parse("wait_s + queue_s", mode="eval").body
        assert infer_dimension(expr) == "time[s]"

    def test_min_max_propagate(self):
        import ast
        expr = ast.parse("max(wait_s, queue_s)", mode="eval").body
        assert infer_dimension(expr) == "time[s]"


class TestRuleSelection:
    def test_magnitude_rule_scoped_to_timing_packages(self):
        assert "UNIT403" in rules_for("perf/analytical.py")
        assert "UNIT403" in rules_for("tco/cost.py")
        assert "UNIT403" in rules_for("cxl/link.py")
        assert "UNIT403" not in rules_for("obs/tracer.py")
        assert "UNIT403" not in rules_for("cli.py")

    def test_mixing_rules_everywhere(self):
        for rel in ("perf/analytical.py", "llm/kvcache.py", "cli.py"):
            assert "UNIT401" in rules_for(rel)
            assert "UNIT402" in rules_for(rel)


class TestUnit401MixedArithmetic:
    def test_seconds_plus_bytes(self):
        src = """
        def total(queue_s, mem_bytes):
            return queue_s + mem_bytes
        """
        assert _codes(src) == ["UNIT401"]

    def test_exact_line(self):
        src = (
            "def f(a_s, b_bytes):\n"
            "    x = 1\n"
            "    y = a_s + b_bytes\n"
        )
        diags = lint_source(src, "perf/example.py")
        assert [d.code for d in diags] == ["UNIT401"]
        assert diags[0].location == "perf/example.py:3"

    def test_seconds_plus_nanoseconds_without_factor(self):
        src = """
        def skew(start_s, start_ns):
            return start_s - start_ns
        """
        codes = _codes(src)
        assert "UNIT401" in codes

    def test_nanoseconds_via_conversion_factor_clean(self):
        src = """
        NANOSECOND = 1.0
        def skew(start_s, start_ns):
            return start_s - start_ns * NANOSECOND
        """
        assert "UNIT401" not in _codes(src, "llm/example.py")

    def test_comparison_across_dimensions(self):
        src = """
        def check(deadline_s, used_bytes):
            return deadline_s < used_bytes
        """
        assert _codes(src) == ["UNIT401"]

    def test_augmented_assignment(self):
        src = """
        def accumulate(total_s, delta_bytes):
            total_s += delta_bytes
            return total_s
        """
        assert _codes(src) == ["UNIT401"]

    def test_same_dimension_clean(self):
        src = """
        def total(queue_s, service_s, deadline_s):
            both_s = queue_s + service_s
            return both_s < deadline_s
        """
        assert _codes(src) == []


class TestUnit402UnitDropping:
    def test_assignment_drops_units(self):
        src = """
        def f(op):
            total_s = op.total_bytes
            return total_s
        """
        diags = _diags(src)
        assert [d.code for d in diags] == ["UNIT402"]
        assert "total_s" in diags[0].message

    def test_annotated_assignment(self):
        src = """
        def f(op):
            total_s: float = op.total_bytes
            return total_s
        """
        assert _codes(src) == ["UNIT402"]

    def test_return_contradicts_function_name(self):
        src = """
        class Timer:
            def decode_step_s(self):
                return self.mem_bytes
        """
        diags = _diags(src)
        assert [d.code for d in diags] == ["UNIT402"]
        assert "decode_step_s" in diags[0].message

    def test_lambda_masks_enclosing_function_name(self):
        src = """
        def decode_step_s(items):
            key = lambda r: r.mem_bytes
            return sorted(items, key=key)[0].step_s
        """
        assert _codes(src) == []

    def test_matching_dimensions_clean(self):
        src = """
        def f(op):
            total_s = op.queue_s
            return total_s
        """
        assert _codes(src) == []

    def test_conversion_through_division_clean(self):
        src = """
        GB = 10**9
        def footprint_gb(mem_bytes):
            return mem_bytes / GB
        """
        assert _codes(src, "llm/example.py") == []


class TestUnit403BareMagnitudes:
    def test_1e9_flagged_with_suggestion(self):
        src = """
        def bandwidth(rate):
            return rate / 1e9
        """
        diags = _diags(src)
        assert [d.code for d in diags] == ["UNIT403"]
        assert "GIGA / GB / Gbps / GHZ" in diags[0].message

    def test_power_of_ten_expression(self):
        src = """
        def cap():
            return 10**12
        """
        diags = _diags(src, "tco/example.py")
        assert [d.code for d in diags] == ["UNIT403"]
        # The Pow literal is one finding, not two operand findings.
        assert len(diags) == 1

    def test_negative_exponent(self):
        src = """
        def tick():
            return 10**-9
        """
        assert _codes(src, "cxl/example.py") == ["UNIT403"]

    def test_power_of_two_magnitudes(self):
        src = """
        def cap():
            return 4.0 * 2**30
        """
        assert _codes(src) == ["UNIT403"]

    def test_exact_line(self):
        src = (
            "X = 1\n"
            "Y = 2\n"
            "Z = 1e9\n"
        )
        diags = lint_source(src, "perf/example.py")
        assert [(d.code, d.location) for d in diags] \
            == [("UNIT403", "perf/example.py:3")]

    def test_small_literals_clean(self):
        src = """
        def f(x):
            return x * 2.0 + 0.5 - 100
        """
        assert _codes(src) == []

    def test_out_of_scope_package_clean(self):
        src = """
        def bandwidth(rate):
            return rate / 1e9
        """
        assert _codes(src, "obs/example.py") == []

    def test_int_1000_not_flagged(self):
        # Only float spellings (1e3) and Pow expressions are banned;
        # a plain int 1000 is a count more often than a magnitude.
        src = """
        def f(x):
            return x * 1000
        """
        assert _codes(src) == []


class TestSyntaxError:
    def test_unparsable_source_reports_unit400(self):
        diags = lint_source("def f(:\n", "perf/example.py")
        assert [d.code for d in diags] == ["UNIT400"]


def _real_tree_report():
    return run_suite(REPO_SRC, passes=["units"],
                     baseline=Baseline()).report


class TestRealTree:
    def test_tree_clean_modulo_baseline(self):
        report = _real_tree_report()
        baseline = Baseline.load(
            REPO_ROOT / "tools" / "static_analysis_baseline.json")
        result = baseline.apply(report, REPO_SRC)
        assert result.report.clean, result.report.render()

    def test_known_exception_is_the_roofline_grid_bound(self):
        report = _real_tree_report()
        locations = [d.location for d in report.diagnostics]
        assert all(loc.startswith("perf/roofline.py")
                   for loc in locations), locations
