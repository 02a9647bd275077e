"""Simulation-purity lint: AST rules pytest cannot express.

The simulator's headline guarantees — deterministic timing, seeded
randomness, observability that is bit-identical when disabled — are
*structural* properties of the source, not behaviours a test can pin
down for every future edit.  This module checks them statically:

* **PUR301** — no wall-clock reads (``time.time``, ``perf_counter``,
  ``datetime.now``, ...) inside the timing-critical packages
  ``repro.perf``, ``repro.cxl``, and ``repro.appliance``.  Simulated
  time must come from the event clock, never the host.
* **PUR302** — no unseeded randomness: zero-argument
  ``default_rng()``, legacy global-state ``numpy.random.*`` calls, and
  stdlib ``random.*`` module calls are all banned outside
  ``repro.faults`` (whose seeded substreams are the sanctioned source).
* **PUR303** — no shared-state mutation inside observability-enabled
  guards (``if tracer.enabled:`` bodies, and code following an
  ``if not tracer.enabled: return`` early exit).  Such mutations make
  simulation state depend on whether tracing is on, breaking the
  bit-identical-when-off guarantee.
* **PUR304** — no float64 leakage in ``repro.llm.reference``: the
  reference kernels are float32 end-to-end so accelerator outputs can
  be compared bit-for-bit; an explicit ``np.float64``/``dtype=float``
  silently upcasts.

Rules are selected by a file's path relative to ``src/repro`` (see
:func:`rules_for`), so :func:`lint_source` can lint detached snippets
in tests by passing a representative relative path.
"""

from __future__ import annotations

import ast
from typing import List, Sequence, Tuple

from .diagnostics import Diagnostic, Severity, by_line, syntax_error

#: Code reported for a file that does not parse.
SYNTAX_CODE = "PUR300"

#: Packages (relative to ``src/repro``) where wall-clock reads are banned.
WALL_CLOCK_BANNED = ("perf", "cxl", "appliance")

#: Package exempt from the unseeded-RNG rule (it owns the seeded streams).
RNG_EXEMPT = ("faults",)

#: The float32-only module.
FLOAT32_ONLY = ("llm/reference.py",)

_WALL_CLOCK_TIME_FNS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
})
_WALL_CLOCK_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

#: ``numpy.random`` attributes that do NOT touch the legacy global state.
_NP_RANDOM_SEEDED_OK = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
    "bit_generator", "BitGenerator",
})

#: ``random`` module attributes that construct independent (seedable)
#: generators rather than using the hidden module-global one.
_STDLIB_RANDOM_OK = frozenset({"Random", "SystemRandom"})


def rules_for(relpath: str) -> Tuple[str, ...]:
    """Rule codes that apply to a file at ``relpath`` under src/repro."""
    rel = relpath.replace("\\", "/")
    rules = ["PUR303"]
    top = rel.split("/", 1)[0]
    if top in WALL_CLOCK_BANNED:
        rules.append("PUR301")
    if top not in RNG_EXEMPT:
        rules.append("PUR302")
    if rel in FLOAT32_ONLY:
        rules.append("PUR304")
    return tuple(rules)


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted-name rendering of an expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    return ""


class _Findings:
    def __init__(self, relpath: str, rules: Sequence[str]):
        self.relpath = relpath
        self.rules = frozenset(rules)
        self.diagnostics: List[Diagnostic] = []

    def add(self, code: str, node: ast.AST, message: str) -> None:
        if code not in self.rules:
            return
        line = getattr(node, "lineno", 0)
        self.diagnostics.append(Diagnostic(
            code, Severity.ERROR, message,
            location=f"{self.relpath}:{line}", source=self.relpath))


# -- PUR301 / PUR302 / PUR304: per-call and per-node checks ---------------

def _check_call(call: ast.Call, out: _Findings,
                time_names: frozenset) -> None:
    func = call.func
    name = _dotted(func)
    # PUR301: wall clock.
    if isinstance(func, ast.Attribute):
        base = _dotted(func.value)
        if base == "time" and func.attr in _WALL_CLOCK_TIME_FNS:
            out.add("PUR301", call,
                    f"wall-clock call {name}() in timing code "
                    f"(use the simulated clock)")
        elif func.attr in _WALL_CLOCK_DATETIME_FNS \
                and base.split(".")[-1] in ("datetime", "date"):
            out.add("PUR301", call,
                    f"wall-clock call {name}() in timing code "
                    f"(use the simulated clock)")
    elif isinstance(func, ast.Name) and func.id in time_names:
        out.add("PUR301", call,
                f"wall-clock call {name}() in timing code "
                f"(use the simulated clock)")
    # PUR302: unseeded randomness.
    is_default_rng = (isinstance(func, ast.Name)
                      and func.id == "default_rng") or \
                     (isinstance(func, ast.Attribute)
                      and func.attr == "default_rng")
    if is_default_rng and not call.args and not call.keywords:
        out.add("PUR302", call,
                "default_rng() without a seed draws OS entropy; "
                "derive a seed from repro.faults substreams")
    elif isinstance(func, ast.Attribute):
        base = _dotted(func.value)
        if base in ("np.random", "numpy.random") \
                and func.attr not in _NP_RANDOM_SEEDED_OK:
            out.add("PUR302", call,
                    f"legacy global-state RNG call {name}(); use a "
                    f"seeded Generator")
        elif base == "random" and func.attr not in _STDLIB_RANDOM_OK:
            out.add("PUR302", call,
                    f"stdlib module-global RNG call {name}(); use a "
                    f"seeded random.Random or numpy Generator")


def _check_float64(node: ast.AST, out: _Findings) -> None:
    if isinstance(node, ast.Attribute) and node.attr == "float64":
        out.add("PUR304", node,
                f"{_dotted(node)} in the float32-only reference kernels")
    elif isinstance(node, ast.Constant) and node.value == "float64":
        out.add("PUR304", node,
                "dtype string 'float64' in the float32-only reference "
                "kernels")
    elif isinstance(node, ast.keyword) and node.arg == "dtype" \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "float":
        out.add("PUR304", node.value,
                "dtype=float is float64 in numpy; use np.float32")


# -- PUR303: mutation inside obs-enabled guards ---------------------------

def _is_enabled_attr(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute) and node.attr == "enabled":
        base = _dotted(node.value).lower()
        return "tracer" in base or "metrics" in base
    return False


def _is_enabled_test(node: ast.AST) -> bool:
    """``X.enabled`` or a boolean combination of enabled attributes."""
    if _is_enabled_attr(node):
        return True
    if isinstance(node, ast.BoolOp):
        return all(_is_enabled_test(v) for v in node.values)
    return False


def _is_not_enabled_test(node: ast.AST) -> bool:
    return isinstance(node, ast.UnaryOp) \
        and isinstance(node.op, ast.Not) \
        and _is_enabled_test(node.operand)


def _is_bare_return(body: Sequence[ast.stmt]) -> bool:
    return len(body) == 1 and isinstance(body[0], ast.Return) \
        and (body[0].value is None
             or (isinstance(body[0].value, ast.Constant)
                 and body[0].value.value is None))


def _mutations(stmt: ast.stmt) -> List[Tuple[ast.AST, str]]:
    """Shared-state mutations in one (possibly compound) statement.

    Does not descend into nested function/class definitions — they do
    not execute inside the guard.
    """
    found: List[Tuple[ast.AST, str]] = []

    def walk(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    found.append((node, _dotted(target) or "subscript"))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            target = node.target
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                found.append((node, _dotted(target) or "subscript"))
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            found.append((node, ", ".join(node.names)))
        for child in ast.iter_child_nodes(node):
            walk(child)

    walk(stmt)
    return found


def _scan_guarded(stmts: Sequence[ast.stmt], guarded: bool,
                  out: _Findings) -> None:
    """Recursive statement-list scan tracking the obs-guard state."""
    for pos, stmt in enumerate(stmts):
        if isinstance(stmt, ast.If):
            if _is_not_enabled_test(stmt.test) \
                    and _is_bare_return(stmt.body):
                # `if not tracer.enabled: return` — the remainder of
                # this block only runs with observability on.
                _scan_guarded(stmt.orelse, guarded, out)
                _scan_guarded(stmts[pos + 1:], True, out)
                return
            if _is_enabled_test(stmt.test):
                _scan_guarded(stmt.body, True, out)
                _scan_guarded(stmt.orelse, guarded, out)
                continue
        if guarded:
            for node, what in _mutations(stmt):
                out.add(
                    "PUR303", node,
                    f"mutation of shared state ({what}) inside an "
                    f"observability-enabled guard breaks the "
                    f"bit-identical-when-off guarantee")
            continue
        # Unguarded: recurse into compound statements' bodies.
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            _scan_guarded(stmt.body, False, out)
        elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While,
                               ast.If)):
            _scan_guarded(stmt.body, guarded, out)
            _scan_guarded(stmt.orelse, guarded, out)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            _scan_guarded(stmt.body, guarded, out)
        elif isinstance(stmt, ast.Try):
            _scan_guarded(stmt.body, guarded, out)
            for handler in stmt.handlers:
                _scan_guarded(handler.body, guarded, out)
            _scan_guarded(stmt.orelse, guarded, out)
            _scan_guarded(stmt.finalbody, guarded, out)


# -- Entry points ---------------------------------------------------------

def check_module(tree: ast.Module, relpath: str) -> List[Diagnostic]:
    """Lint one parsed file; ``relpath`` selects the applicable rules."""
    out = _Findings(relpath, rules_for(relpath))
    time_names = frozenset(
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "time"
        for alias in node.names
        if alias.name in _WALL_CLOCK_TIME_FNS)

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            _check_call(node, out, time_names)
        _check_float64(node, out)
    _scan_guarded(tree.body, False, out)
    return by_line(out.diagnostics)


def lint_source(source: str, relpath: str) -> List[Diagnostic]:
    """Lint one file's source; ``relpath`` selects the applicable rules."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [syntax_error(SYNTAX_CODE, exc, relpath)]
    return check_module(tree, relpath)
