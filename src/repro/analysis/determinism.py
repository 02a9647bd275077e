"""Determinism lint: AST rules against order-sensitivity bug classes.

Bit-identical replay is the simulator's core guarantee, and it has
already been broken twice by constructs no test suite can pin down for
every future edit: an ``id()``-keyed failover-attribution dict (fixed
in the event-kernel rewrite) and heap events whose ordering fell back
to comparing payload objects.  This pass bans the whole classes:

* **DET501** — ``id()`` used as a lookup key (subscript, dict-literal
  key, ``.get``/``.setdefault``/``.pop`` argument, ``in`` membership)
  or compared with ``==``/``!=``.  CPython reuses addresses, so two
  distinct short-lived objects can collide across a run and the same
  run can attribute state differently between replays.
* **DET502** — iterating directly over a ``set``/``frozenset``
  (literal, constructor call, or ``list(set(...))``-style
  materialization).  Set order depends on hash seeding for strings and
  insertion history for everything else; when the iteration feeds
  event order or stats accumulation the replay is no longer
  bit-identical.  ``sorted(set(...))`` is the sanctioned spelling.
* **DET503** — ``dict.popitem()``: LIFO on the *insertion* order of a
  dict whose population order is rarely an invariant anyone maintains.
* **DET504** — ``heapq.heappush`` of a key tuple with no recognizable
  total-order integer tie-break after the primary key.  Two events at
  the same simulated time fall through to comparing the next tuple
  element; if that is a payload object, heap order (and the whole
  timeline after it) depends on object identity.  The event kernel's
  convention — ``(at_s, priority, seq, ...)`` with a monotonically
  increasing ``seq`` — is what the rule looks for.

Rules select by path relative to ``src/repro`` (:func:`rules_for`):
the timing-critical packages ``perf``, ``cxl``, and ``appliance`` get
all four; ``accelerator`` additionally gets DET501 (its programs feed
the timing simulator).  ``DET500`` reports inputs that do not parse.
"""

from __future__ import annotations

import ast
from typing import List, Sequence, Tuple

from .diagnostics import Diagnostic, Severity, by_line, syntax_error

#: Code reported for a file that does not parse.
SYNTAX_CODE = "DET500"

#: Packages (relative to ``src/repro``) where event/stat order must be
#: reproducible: all DET rules apply.
ORDER_SENSITIVE = ("perf", "cxl", "appliance")

#: Packages that additionally get the ``id()``-key rule (their caches
#: hand objects to the timing layer).
ID_KEY_SENSITIVE = ORDER_SENSITIVE + ("accelerator",)

#: Dict methods whose first argument is a lookup key.
_KEYED_METHODS = frozenset({"get", "setdefault", "pop"})

#: Tie-break name fragments DET504 accepts after the primary key.
#: The event kernel uses ``seq`` from an ``itertools.count``; index-
#: and priority-like names are equally total-ordered integers.
TIE_BREAK_FRAGMENTS = (
    "seq", "serial", "prio", "order", "index", "idx", "slot",
    "instance", "tick", "count", "rank", "tie",
)


def rules_for(relpath: str) -> Tuple[str, ...]:
    """DET rule codes that apply to a file at ``relpath``."""
    rel = relpath.replace("\\", "/")
    top = rel.split("/", 1)[0]
    rules: List[str] = []
    if top in ID_KEY_SENSITIVE:
        rules.append("DET501")
    if top in ORDER_SENSITIVE:
        rules.extend(("DET502", "DET503", "DET504"))
    return tuple(rules)


def _is_id_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and len(node.args) == 1)


def _is_set_expr(node: ast.AST) -> bool:
    """A set literal, comprehension, or set()/frozenset() call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    return False


def _render(node: ast.AST) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        text = "<expr>"
    return text if len(text) <= 40 else text[:37] + "..."


def _has_tie_break(elements: Sequence[ast.AST]) -> bool:
    """Whether any secondary tuple element is a total-order integer.

    Accepts an integer literal, a ``next(...)`` call (the
    ``itertools.count`` idiom), or a name whose final segment contains
    one of :data:`TIE_BREAK_FRAGMENTS`.
    """
    for element in elements:
        if isinstance(element, ast.Constant) \
                and isinstance(element.value, int) \
                and not isinstance(element.value, bool):
            return True
        if isinstance(element, ast.Call) \
                and isinstance(element.func, ast.Name) \
                and element.func.id == "next":
            return True
        segment = None
        if isinstance(element, ast.Name):
            segment = element.id
        elif isinstance(element, ast.Attribute):
            segment = element.attr
        if segment is not None:
            lowered = segment.lower()
            if any(frag in lowered for frag in TIE_BREAK_FRAGMENTS):
                return True
    return False


class _DetVisitor(ast.NodeVisitor):
    def __init__(self, relpath: str, rules: Sequence[str]):
        self.relpath = relpath
        self.rules = frozenset(rules)
        self.diagnostics: List[Diagnostic] = []

    def _add(self, code: str, node: ast.AST, message: str) -> None:
        if code not in self.rules:
            return
        line = getattr(node, "lineno", 0)
        self.diagnostics.append(Diagnostic(
            code, Severity.ERROR, message,
            location=f"{self.relpath}:{line}", source=self.relpath))

    # -- DET501: id() as a key ----------------------------------------

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if _is_id_call(node.slice):
            self._add("DET501", node, (
                f"id()-keyed lookup {_render(node)}: CPython reuses "
                f"addresses, so identity keys can collide across a "
                f"run and differ between replays"))
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if key is not None and _is_id_call(key):
                self._add("DET501", key, (
                    f"id() as a dict-literal key "
                    f"({_render(key)}); key the state by a stable "
                    f"field (request_id, device index) instead"))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in _KEYED_METHODS \
                and node.args and _is_id_call(node.args[0]):
            self._add("DET501", node, (
                f"id()-keyed lookup {_render(node)}: key the state "
                f"by a stable field (request_id, device index) "
                f"instead"))
        # DET502: materializing a set into an ordered sequence.
        if isinstance(node.func, ast.Name) \
                and node.func.id in ("list", "tuple") \
                and len(node.args) == 1 and _is_set_expr(node.args[0]):
            self._add("DET502", node, (
                f"{_render(node)} materializes set order; use "
                f"sorted(...) to fix the sequence"))
        # DET503: dict.popitem().
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "popitem" and not node.args:
            self._add("DET503", node, (
                f"{_render(node)} pops in insertion order, which is "
                f"rarely an invariant; pop an explicit key"))
        # DET504: heap pushes without an integer tie-break.
        self._check_heappush(node)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for idx, op in enumerate(node.ops):
            left, right = operands[idx], operands[idx + 1]
            if isinstance(op, (ast.Eq, ast.NotEq)) \
                    and (_is_id_call(left) or _is_id_call(right)):
                self._add("DET501", node, (
                    f"comparison on id() ({_render(node)}); compare "
                    f"a stable field instead"))
            if isinstance(op, (ast.In, ast.NotIn)) \
                    and _is_id_call(left):
                self._add("DET501", node, (
                    f"membership test on id() ({_render(node)}); "
                    f"key the container by a stable field instead"))
        self.generic_visit(node)

    # -- DET502: iteration over sets ----------------------------------

    def _check_iter(self, node: ast.AST, iter_node: ast.AST) -> None:
        if _is_set_expr(iter_node):
            self._add("DET502", node, (
                f"iteration over a set ({_render(iter_node)}) has "
                f"hash-dependent order; iterate sorted(...) or a "
                f"sequence"))

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in node.generators:
            self._check_iter(node, gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # A set built from a set is unordered either way — the source's
        # iteration order cannot leak; no _check_iter here.
        self.generic_visit(node)

    # -- DET504: heappush tie-breaks ----------------------------------

    def _check_heappush(self, node: ast.Call) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name not in ("heappush", "heappushpop"):
            return
        if len(node.args) < 2:
            return
        item = node.args[1]
        if not isinstance(item, ast.Tuple) or len(item.elts) < 2:
            return
        if not _has_tie_break(item.elts[1:]):
            self._add("DET504", node, (
                f"heap key tuple {_render(item)} has no total-order "
                f"integer tie-break; equal primary keys fall through "
                f"to comparing payload objects (add a seq counter)"))


# -- Entry points ---------------------------------------------------------

def check_module(tree: ast.Module, relpath: str) -> List[Diagnostic]:
    """Lint one parsed file; ``relpath`` selects the applicable rules."""
    rules = rules_for(relpath)
    if not rules:
        return []
    visitor = _DetVisitor(relpath, rules)
    visitor.visit(tree)
    return by_line(visitor.diagnostics)


def lint_source(source: str, relpath: str) -> List[Diagnostic]:
    """Lint one file's source; ``relpath`` selects the applicable rules."""
    if not rules_for(relpath):
        return []
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [syntax_error(SYNTAX_CODE, exc, relpath)]
    return check_module(tree, relpath)
