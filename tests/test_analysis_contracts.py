"""Cross-model contract checker: synthetic pairs + the shipped pairing.

CON601/CON602 get synthetic two-class cases, plus the test the rule
exists for: deliberately renaming a ``SimulatedStepTimer`` method in
the *real* source must produce a CON601 on both surviving sides.
CON603 gets known-bad ``as_dict`` bodies with exact codes and lines.
The integration test asserts the shipped ``BatchStepTimer`` /
``SimulatedStepTimer`` pairing is contract-clean.
"""

import textwrap
from pathlib import Path

from repro.analysis import Baseline, run_suite
from repro.analysis.contracts import (
    STEP_TIMER_CONTRACT,
    check_as_dict_keys,
    class_surface,
    compare_step_timers,
    rules_for,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
REPO_SRC = REPO_ROOT / "src" / "repro"

TIMER_A = textwrap.dedent("""
    class A:
        def prefill_s(self, input_len: int) -> float:
            return 0.0
        def decode_step_s(self, batch: int, context_len: int) -> float:
            return 0.0
""")


def _real_sources():
    (path_a, class_a), (path_b, class_b) = STEP_TIMER_CONTRACT
    return ((REPO_SRC / path_a).read_text(encoding="utf-8"), class_a,
            path_a,
            (REPO_SRC / path_b).read_text(encoding="utf-8"), class_b,
            path_b)


class TestClassSurface:
    def test_only_public_unit_suffixed_methods(self):
        src = textwrap.dedent("""
            class T:
                def prefill_s(self):
                    return 0.0
                def _private_s(self):
                    return 0.0
                def helper(self):
                    return 0.0
        """)
        surface = class_surface(src, "T")
        assert sorted(surface) == ["prefill_s"]

    def test_missing_class_raises(self):
        import pytest
        with pytest.raises(ValueError):
            class_surface("class Other:\n    pass\n", "T")

    def test_params_exclude_self(self):
        surface = class_surface(TIMER_A, "A")
        assert surface["decode_step_s"].params \
            == ("batch", "context_len")
        assert surface["decode_step_s"].returns == "float"


class TestCon601MissingCounterpart:
    def test_extra_method_on_one_side(self):
        timer_b = TIMER_A.replace("class A", "class B") + (
            "    def decode_steps_s(self, batch: int) -> float:\n"
            "        return 0.0\n"
        )
        diags = compare_step_timers(TIMER_A, "A", "a.py",
                                    timer_b, "B", "b.py")
        assert [d.code for d in diags] == ["CON601"]
        assert "B.decode_steps_s" in diags[0].message
        assert diags[0].source == "b.py"

    def test_renamed_real_simulated_timer_method_caught(self):
        # The regression this checker exists for: rename one side of
        # the shipped contract and the pass must fire in both
        # directions (method lost on one side, gained on the other).
        (src_a, class_a, path_a,
         src_b, class_b, path_b) = _real_sources()
        broken = src_b.replace("def decode_steps_s(",
                               "def decode_steps_sim_s(")
        assert broken != src_b, "rename did not apply"
        diags = compare_step_timers(src_a, class_a, path_a,
                                    broken, class_b, path_b)
        assert [d.code for d in diags] == ["CON601", "CON601"]
        messages = " / ".join(d.message for d in diags)
        assert "BatchStepTimer.decode_steps_s" in messages
        assert "SimulatedStepTimer.decode_steps_sim_s" in messages


class TestCon602SignatureMismatch:
    def test_param_name_divergence(self):
        timer_b = TIMER_A.replace("class A", "class B").replace(
            "batch: int, context_len: int", "batch: int, ctx: int")
        diags = compare_step_timers(TIMER_A, "A", "a.py",
                                    timer_b, "B", "b.py")
        assert [d.code for d in diags] == ["CON602"]
        assert "decode_step_s" in diags[0].message

    def test_return_annotation_divergence(self):
        timer_b = TIMER_A.replace("class A", "class B").replace(
            "context_len: int) -> float", "context_len: int) -> int")
        diags = compare_step_timers(TIMER_A, "A", "a.py",
                                    timer_b, "B", "b.py")
        assert [d.code for d in diags] == ["CON602"]

    def test_identical_surfaces_clean(self):
        timer_b = TIMER_A.replace("class A", "class B")
        assert compare_step_timers(TIMER_A, "A", "a.py",
                                   timer_b, "B", "b.py") == []


class TestCon600Unreadable:
    def test_missing_class_is_con600(self):
        diags = compare_step_timers("class X:\n    pass\n", "A", "a.py",
                                    TIMER_A, "A", "b.py")
        assert [d.code for d in diags] == ["CON600"]

    def test_syntax_error_is_con600(self):
        diags = compare_step_timers("def f(:\n", "A", "a.py",
                                    TIMER_A, "A", "b.py")
        assert [d.code for d in diags] == ["CON600"]


class TestCon603AsDictKeys:
    def test_fstring_key_in_dict_literal(self):
        src = (
            "class Stats:\n"
            "    def as_dict(self):\n"
            "        return {f'k.{self.name}': 1}\n"
        )
        diags = check_as_dict_keys(src, "perf/example.py")
        assert [(d.code, d.location) for d in diags] \
            == [("CON603", "perf/example.py:3")]

    def test_computed_subscript_store(self):
        src = textwrap.dedent("""
            class Stats:
                def as_dict(self):
                    out = {}
                    out[self.key] = 1
                    return out
        """)
        diags = check_as_dict_keys(src, "appliance/example.py")
        assert [d.code for d in diags] == ["CON603"]

    def test_literal_keys_clean(self):
        src = textwrap.dedent("""
            class Stats:
                def as_dict(self):
                    out = {"requests": 1}
                    out["completed"] = 2
                    return out
        """)
        assert check_as_dict_keys(src, "perf/example.py") == []

    def test_double_star_expansion_exempt(self):
        src = textwrap.dedent("""
            class Stats:
                def as_dict(self):
                    return {"requests": 1, **self.extra}
        """)
        assert check_as_dict_keys(src, "perf/example.py") == []

    def test_other_functions_ignored(self):
        src = textwrap.dedent("""
            class Stats:
                def snapshot(self):
                    return {self.key: 1}
        """)
        assert check_as_dict_keys(src, "perf/example.py") == []


class TestRuleSelection:
    def test_contract_files_get_pairing_rules(self):
        assert rules_for("perf/analytical.py") \
            == ("CON601", "CON602", "CON603")
        assert rules_for("perf/simulator.py") \
            == ("CON601", "CON602", "CON603")

    def test_as_dict_scope(self):
        assert rules_for("appliance/continuous.py") == ("CON603",)
        assert rules_for("obs/tracer.py") == ()
        assert rules_for("cxl/arbiter.py") == ()


def _real_tree_report():
    return run_suite(REPO_SRC, passes=["contracts"],
                     baseline=Baseline()).report


class TestRealTree:
    def test_shipped_pairing_contract_clean(self):
        diags = compare_step_timers(*_real_sources())
        assert diags == [], [d.message for d in diags]

    def test_tree_clean_modulo_baseline(self):
        report = _real_tree_report()
        baseline = Baseline.load(
            REPO_ROOT / "tools" / "static_analysis_baseline.json")
        result = baseline.apply(report, REPO_SRC)
        assert result.report.clean, result.report.render()

    def test_known_exceptions_are_the_unit_enum_keys(self):
        report = _real_tree_report()
        assert [d.code for d in report.diagnostics] \
            == ["CON603", "CON603"]
        assert all(d.location.startswith("perf/simulator.py")
                   for d in report.diagnostics)
