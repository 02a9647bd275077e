"""Determinism lint: rule units on synthetic sources + the real tree.

Each DET5xx rule gets known-bad snippets asserting the exact code and
line — including the two bug classes this repo has actually shipped
(an ``id()``-keyed attribution dict, fixed in the event-kernel
rewrite; heap keys that fall through to payload comparison).  The
integration test asserts the real ``src/repro`` tree is clean modulo
the checked-in baseline.
"""

import textwrap
from pathlib import Path

from repro.analysis import Baseline, run_suite
from repro.analysis.determinism import lint_source, rules_for

REPO_ROOT = Path(__file__).resolve().parents[1]
REPO_SRC = REPO_ROOT / "src" / "repro"


def _diags(source, relpath="appliance/example.py"):
    return lint_source(textwrap.dedent(source), relpath)


def _codes(source, relpath="appliance/example.py"):
    return [d.code for d in _diags(source, relpath)]


class TestRuleSelection:
    def test_order_rules_in_timing_packages(self):
        for rel in ("perf/simulator.py", "cxl/arbiter.py",
                    "appliance/continuous.py"):
            assert rules_for(rel) == ("DET501", "DET502", "DET503",
                                      "DET504")

    def test_accelerator_gets_only_id_rule(self):
        assert rules_for("accelerator/isa.py") == ("DET501",)

    def test_out_of_scope_packages_unchecked(self):
        assert rules_for("obs/tracer.py") == ()
        assert rules_for("cli.py") == ()
        src = """
        def f(requests):
            return {id(r): r for r in requests}
        """
        assert _codes(src, "obs/example.py") == []


class TestDet501IdKeys:
    def test_id_subscript_store(self):
        # The PR 6 bug class: id()-keyed failover attribution.
        src = (
            "def track(failovers, request):\n"
            "    failovers[id(request)] = 1\n"
        )
        diags = lint_source(src, "appliance/example.py")
        assert [(d.code, d.location) for d in diags] \
            == [("DET501", "appliance/example.py:2")]

    def test_id_dict_literal_key(self):
        src = """
        def snapshot(request):
            return {id(request): request}
        """
        assert _codes(src) == ["DET501"]

    def test_id_get_call(self):
        src = """
        def lookup(table, request):
            return table.get(id(request), 0)
        """
        assert _codes(src) == ["DET501"]

    def test_id_setdefault_and_pop(self):
        src = """
        def churn(table, request):
            table.setdefault(id(request), 0)
            return table.pop(id(request))
        """
        assert _codes(src) == ["DET501", "DET501"]

    def test_id_equality_compare(self):
        src = """
        def same(a, b):
            return id(a) == id(b)
        """
        assert _codes(src) == ["DET501"]

    def test_id_membership(self):
        src = """
        def seen(request, visited):
            return id(request) in visited
        """
        assert _codes(src) == ["DET501"]

    def test_id_for_logging_clean(self):
        # id() not used as a key or compared is fine (repr, debugging).
        src = """
        def label(request):
            return f"req-{id(request):x}"
        """
        assert _codes(src) == []

    def test_stable_key_clean(self):
        src = """
        def track(failovers, request):
            failovers[request.request_id] = 1
        """
        assert _codes(src) == []


class TestDet502SetIteration:
    def test_for_over_set_call(self):
        src = (
            "def drain(pending):\n"
            "    for item in set(pending):\n"
            "        item.close()\n"
        )
        diags = lint_source(src, "cxl/example.py")
        assert [(d.code, d.location) for d in diags] \
            == [("DET502", "cxl/example.py:2")]

    def test_comprehension_over_frozenset(self):
        src = """
        def names(items):
            return [i.name for i in frozenset(items)]
        """
        assert _codes(src) == ["DET502"]

    def test_list_materializes_set(self):
        src = """
        def order(pending):
            return list({p.key for p in pending})
        """
        # The set comprehension inside list() is the finding; a set
        # built from a set stays unordered and is exempt.
        assert _codes(src) == ["DET502"]

    def test_sorted_set_clean(self):
        src = """
        def order(pending):
            return sorted(set(pending))
        """
        assert _codes(src) == []

    def test_for_over_list_clean(self):
        src = """
        def drain(pending):
            for item in pending:
                item.close()
        """
        assert _codes(src) == []


class TestDet503Popitem:
    def test_popitem_flagged(self):
        src = """
        def evict(cache):
            return cache.popitem()
        """
        diags = _diags(src)
        assert [d.code for d in diags] == ["DET503"]

    def test_pop_explicit_key_clean(self):
        src = """
        def evict(cache, key):
            return cache.pop(key)
        """
        assert _codes(src) == []


class TestDet504HeapTieBreaks:
    def test_payload_tuple_without_tie_break(self):
        src = (
            "import heapq\n"
            "def push(heap, at_s, request):\n"
            "    heapq.heappush(heap, (at_s, request))\n"
        )
        diags = lint_source(src, "appliance/example.py")
        assert [(d.code, d.location) for d in diags] \
            == [("DET504", "appliance/example.py:3")]

    def test_seq_counter_accepted(self):
        # The event kernel's convention: (at_s, priority, seq, payload).
        src = """
        import heapq
        def push(heap, at_s, prio, seq, request):
            heapq.heappush(heap, (at_s, prio, seq, request))
        """
        assert _codes(src) == []

    def test_next_counter_accepted(self):
        src = """
        import heapq
        def push(heap, at_s, counter, request):
            heapq.heappush(heap, (at_s, next(counter), request))
        """
        assert _codes(src) == []

    def test_int_literal_accepted(self):
        src = """
        import heapq
        def push(heap, at_s, request):
            heapq.heappush(heap, (at_s, 0, request))
        """
        assert _codes(src) == []

    def test_bool_literal_not_a_tie_break(self):
        src = """
        import heapq
        def push(heap, at_s, request):
            heapq.heappush(heap, (at_s, True, request))
        """
        assert _codes(src) == ["DET504"]

    def test_heappushpop_checked(self):
        src = """
        import heapq
        def rotate(heap, at_s, request):
            return heapq.heappushpop(heap, (at_s, request))
        """
        assert _codes(src) == ["DET504"]

    def test_scalar_push_clean(self):
        src = """
        import heapq
        def push(heap, at_s):
            heapq.heappush(heap, at_s)
        """
        assert _codes(src) == []


class TestSyntaxError:
    def test_unparsable_source_reports_det500(self):
        diags = lint_source("def f(:\n", "perf/example.py")
        assert [d.code for d in diags] == ["DET500"]

    def test_out_of_scope_syntax_error_silent(self):
        # No rules apply -> the file is not even parsed.
        assert lint_source("def f(:\n", "obs/example.py") == []


def _real_tree_report():
    return run_suite(REPO_SRC, passes=["determinism"],
                     baseline=Baseline()).report


class TestRealTree:
    def test_tree_clean_modulo_baseline(self):
        report = _real_tree_report()
        baseline = Baseline.load(
            REPO_ROOT / "tools" / "static_analysis_baseline.json")
        result = baseline.apply(report, REPO_SRC)
        assert result.report.clean, result.report.render()

    def test_known_exceptions_are_the_isa_identity_memo(self):
        report = _real_tree_report()
        assert [d.code for d in report.diagnostics] \
            == ["DET501", "DET501"]
        assert all(d.location.startswith("accelerator/isa.py")
                   for d in report.diagnostics)
