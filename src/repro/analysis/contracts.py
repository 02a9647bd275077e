"""Cross-model contract checker for the two step-timer surfaces.

The continuous-batching engine accepts any ``BatchStepModel`` — in
practice :class:`repro.perf.analytical.BatchStepTimer` (per-op cost
sums) or :class:`repro.perf.simulator.SimulatedStepTimer` (scheduled
instruction streams).  Their agreement is a headline validation result,
and it rests on the two classes exposing the *same* unit-suffixed
surface: the same method names (``prefill_s``, ``decode_step_s``,
``decode_steps_s``), the same parameter names in the same order, the
same declared return types.  Until now that parity was maintained only
by convention; renaming one side's method would silently fall back to
the engine's scalar path (or crash far from the cause).

This pass pins the contract statically:

* **CON601** — a public unit-suffixed method (name carries a
  :mod:`repro.analysis.units_lint` dimension suffix) exists on one
  step timer but not the other.
* **CON602** — a shared unit-suffixed method's signature diverges:
  different parameter names/order, or a different declared return
  annotation.
* **CON603** — an ``as_dict()`` key is not a string literal (in
  ``perf`` and ``appliance``, the modules whose dicts cross the
  model boundary into exporters, benchmarks, and CI asserts).  A
  computed key can change spelling or set membership between runs;
  the key *set* is part of the cross-model contract.

``CON600`` reports inputs that do not parse.  :func:`compare_step_timers`
and :func:`check_as_dict_keys` check sources in tests;
:mod:`repro.analysis.suite` runs :func:`check_module` on every parsed
file and :func:`check_pairing` once per tree.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .diagnostics import Diagnostic, Severity, by_line, syntax_error
from .units_lint import dimension_of_name

#: Code reported for a file that does not parse.
SYNTAX_CODE = "CON600"

#: A parsed file, or the ``SyntaxError`` parsing it raised.
Parsed = Union[ast.Module, SyntaxError]

#: The shipped contract: (relative path, class name) pairs that must
#: expose identical unit-suffixed surfaces.
STEP_TIMER_CONTRACT = (
    ("perf/analytical.py", "BatchStepTimer"),
    ("perf/simulator.py", "SimulatedStepTimer"),
)

#: Packages whose ``as_dict`` key sets are contract surface (CON603).
AS_DICT_SCOPED = ("perf", "appliance")


def _annotation_text(node: Optional[ast.AST]) -> Optional[str]:
    if node is None:
        return None
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<annotation>"


class MethodSurface:
    """One method's externally visible shape.

    Attributes:
        name: Method name.
        params: Parameter names in order, ``self`` excluded.
        returns: Declared return annotation text, or ``None``.
        lineno: Definition line.
    """

    def __init__(self, name: str, params: Tuple[str, ...],
                 returns: Optional[str], lineno: int):
        self.name = name
        self.params = params
        self.returns = returns
        self.lineno = lineno

    def describe(self) -> str:
        ret = f" -> {self.returns}" if self.returns else ""
        return f"{self.name}({', '.join(self.params)}){ret}"


def class_surface(source: str, class_name: str
                  ) -> Dict[str, MethodSurface]:
    """Public unit-suffixed methods of ``class_name`` in ``source``.

    Raises ``ValueError`` when the class is absent — callers decide
    whether a missing class is itself a finding.
    """
    return _surface(ast.parse(source), class_name)


def _parse(source: str) -> Parsed:
    try:
        return ast.parse(source)
    except SyntaxError as exc:
        return exc


def _surface(parsed: Parsed, class_name: str
             ) -> Dict[str, MethodSurface]:
    if isinstance(parsed, SyntaxError):
        raise parsed
    for node in parsed.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            break
    else:
        raise ValueError(f"class {class_name} not found")
    surface: Dict[str, MethodSurface] = {}
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if item.name.startswith("_"):
            continue
        if dimension_of_name(item.name) is None:
            continue
        params = tuple(arg.arg for arg in item.args.args
                       if arg.arg != "self")
        surface[item.name] = MethodSurface(
            item.name, params, _annotation_text(item.returns),
            item.lineno)
    return surface


def compare_step_timers(source_a: str, class_a: str, relpath_a: str,
                        source_b: str, class_b: str, relpath_b: str
                        ) -> List[Diagnostic]:
    """CON601/CON602 findings between two step-timer classes."""
    return _compare(_parse(source_a), class_a, relpath_a,
                    _parse(source_b), class_b, relpath_b)


def check_pairing(parsed: Mapping[str, Parsed]) -> List[Diagnostic]:
    """CON600-602 findings for the shipped :data:`STEP_TIMER_CONTRACT`.

    ``parsed`` maps relative paths to parsed files; the pairing is
    checked only when both of its files are present.
    """
    (path_a, class_a), (path_b, class_b) = STEP_TIMER_CONTRACT
    if path_a not in parsed or path_b not in parsed:
        return []
    return _compare(parsed[path_a], class_a, path_a,
                    parsed[path_b], class_b, path_b)


def _compare(parsed_a: Parsed, class_a: str, relpath_a: str,
             parsed_b: Parsed, class_b: str, relpath_b: str
             ) -> List[Diagnostic]:
    diags: List[Diagnostic] = []

    def _parse_error(relpath: str, exc: Exception) -> Diagnostic:
        line = getattr(exc, "lineno", 0) or 0
        return Diagnostic("CON600", Severity.ERROR,
                          f"cannot read contract surface: {exc}",
                          location=f"{relpath}:{line}", source=relpath)

    try:
        surface_a = _surface(parsed_a, class_a)
    except (SyntaxError, ValueError) as exc:
        return [_parse_error(relpath_a, exc)]
    try:
        surface_b = _surface(parsed_b, class_b)
    except (SyntaxError, ValueError) as exc:
        return [_parse_error(relpath_b, exc)]

    sides = ((class_a, relpath_a, surface_a, class_b, surface_b),
             (class_b, relpath_b, surface_b, class_a, surface_a))
    for name, relpath, mine, other_cls, theirs in sides:
        for method in sorted(set(mine) - set(theirs)):
            diags.append(Diagnostic(
                "CON601", Severity.ERROR,
                f"{name}.{method} has no counterpart on {other_cls}: "
                f"the engine's feature detection will silently "
                f"diverge between step models",
                location=f"{relpath}:{mine[method].lineno}",
                source=relpath))
    for method in sorted(set(surface_a) & set(surface_b)):
        mine, theirs = surface_a[method], surface_b[method]
        if mine.params != theirs.params or mine.returns != theirs.returns:
            diags.append(Diagnostic(
                "CON602", Severity.ERROR,
                f"signature mismatch for {method}: "
                f"{class_a}.{mine.describe()} vs "
                f"{class_b}.{theirs.describe()}",
                location=f"{relpath_a}:{mine.lineno}",
                source=relpath_a))
    return diags


# -- CON603: as_dict keys must be string literals -------------------------

def _nonliteral_keys(func: ast.AST) -> List[ast.AST]:
    """Non-literal key expressions written inside an ``as_dict`` body."""
    offenders: List[ast.AST] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is None:
                    continue  # **expansion: keys checked at their source
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    offenders.append(key)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) \
                        and not (isinstance(target.slice, ast.Constant)
                                 and isinstance(target.slice.value, str)):
                    offenders.append(target.slice)
    return offenders


def check_as_dict_keys(source: str, relpath: str) -> List[Diagnostic]:
    """CON603 findings for one file (caller applies path scoping)."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [syntax_error(SYNTAX_CODE, exc, relpath)]
    return _as_dict_findings(tree, relpath)


def _as_dict_findings(tree: ast.Module, relpath: str) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name != "as_dict":
            continue
        for key in _nonliteral_keys(node):
            try:
                rendered = ast.unparse(key)
            except Exception:  # pragma: no cover
                rendered = "<key>"
            diags.append(Diagnostic(
                "CON603", Severity.ERROR,
                f"as_dict() key {rendered} is not a string literal; "
                f"computed keys make the exported key set unstable "
                f"across runs and models",
                location=f"{relpath}:{getattr(key, 'lineno', 0)}",
                source=relpath))
    return by_line(diags)


def rules_for(relpath: str) -> Tuple[str, ...]:
    """CON rule codes that apply to a file at ``relpath``."""
    rel = relpath.replace("\\", "/")
    rules: List[str] = []
    if any(rel == path for path, _ in STEP_TIMER_CONTRACT):
        rules.extend(("CON601", "CON602"))
    if rel.split("/", 1)[0] in AS_DICT_SCOPED:
        rules.append("CON603")
    return tuple(rules)


def check_module(tree: ast.Module, relpath: str) -> List[Diagnostic]:
    """CON603 findings for one parsed file, if its package is scoped."""
    if "CON603" not in rules_for(relpath):
        return []
    return _as_dict_findings(tree, relpath)
