"""Dimensional lint: unit discipline inferred from naming conventions.

The library's unit contract is written down once (``repro.units``: "all
bandwidths are bytes/second, all capacities bytes, all times seconds")
and carried everywhere else by *names* — ``latency_s``, ``mem_bytes``,
``goodput_tokens_per_s``.  Nothing used to check that the names tell
the truth.  This pass infers a physical dimension for every suffixed
name and flags the three ways the convention silently breaks:

* **UNIT401** — mixed-dimension arithmetic: adding, subtracting, or
  comparing two expressions whose inferred dimensions differ
  (``queue_s + mem_bytes``; ``wait_s + wait_ns`` without a
  ``NANOSECOND`` conversion factor).
* **UNIT402** — unit-dropping assignment/return: a suffixed name (or a
  function whose *name* carries a suffix) receives an expression of a
  different inferred dimension (``total_s = op.total_bytes``; ``def
  decode_step_s(...): return self.mem_bytes``).
* **UNIT403** — bare power-of-ten (or power-of-two) magnitude literals
  (``1e9``, ``10**9``, ``2**30``) in the timing/cost packages
  ``repro.perf``, ``repro.tco``, and ``repro.cxl``, which must spell
  the :mod:`repro.units` constant they mean (``GB``, ``GHZ``,
  ``NANOSECOND``, ...) so seconds/bytes/hertz stay distinguishable.

Inference is deliberately conservative: multiplication and division
erase the inferred dimension (a conversion factor legitimately changes
it), and a finding requires *both* sides to carry a confidently
inferred, conflicting dimension — so the pass stays silent on
dimensionless code instead of guessing.  ``UNIT400`` reports inputs
that do not parse.  Rule selection follows the file's path relative to
``src/repro`` (:func:`rules_for`), mirroring
:mod:`repro.analysis.purity`.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Tuple

from .diagnostics import Diagnostic, Severity, by_line, syntax_error

#: Code reported for a file that does not parse.
SYNTAX_CODE = "UNIT400"

#: Packages (relative to ``src/repro``) where bare magnitude literals
#: are banned (UNIT403): the packages whose numbers feed the paper's
#: latency/bandwidth/TCO claims.
MAGNITUDE_LITERAL_BANNED = ("perf", "tco", "cxl")

#: Name-suffix token -> dimension.  Scaled variants of one base
#: dimension get distinct tags (``time[s]`` vs ``time[ns]``) so mixing
#: scales without a conversion factor is itself a finding.
SUFFIX_DIMENSIONS = {
    "s": "time[s]",
    "ns": "time[ns]",
    "us": "time[us]",
    "ms": "time[ms]",
    "bytes": "bytes",
    "byte": "bytes",
    "kb": "bytes[kb]",
    "mb": "bytes[mb]",
    "gb": "bytes[gb]",
    "tb": "bytes[tb]",
    "kib": "bytes[kib]",
    "mib": "bytes[mib]",
    "gib": "bytes[gib]",
    "tib": "bytes[tib]",
    "tokens": "tokens",
    "token": "tokens",
    "hz": "frequency[hz]",
    "mhz": "frequency[mhz]",
    "ghz": "frequency[ghz]",
    "j": "energy[j]",
    "joule": "energy[j]",
    "joules": "energy[j]",
    "kwh": "energy[kwh]",
    "w": "power[w]",
    "watts": "power[w]",
    "kw": "power[kw]",
    "usd": "money[usd]",
    "flops": "flops",
    "day": "time[day]",
    "kg": "mass[kg]",
}

#: Whole names that carry a dimension without an underscore-separated
#: suffix (single-letter tokens like a bare ``s`` or loop-variable
#: ``j`` never do — see :func:`dimension_of_name`).
WHOLE_NAME_DIMENSIONS = {
    "seconds": "time[s]",
    "nanoseconds": "time[ns]",
    "joules": "energy[j]",
    "watts": "power[w]",
    "nbytes": "bytes",
    "tokens": "tokens",
}

#: Magnitude literals UNIT403 bans, with the units.py spelling(s) that
#: disambiguate what the number means.
_MAGNITUDES = {
    1e3: "KILO / KB / Kbps / KILOWATT",
    1e6: "MEGA / MB / Mbps / MHZ",
    1e9: "GIGA / GB / Gbps / GHZ",
    1e12: "TERA / TB",
    1e-3: "MILLISECOND",
    1e-6: "MICROSECOND",
    1e-9: "NANOSECOND",
    float(2 ** 10): "KiB",
    float(2 ** 20): "MiB",
    float(2 ** 30): "GiB",
    float(2 ** 40): "TiB",
}

#: Calls that pass their argument's dimension through unchanged.
_TRANSPARENT_CALLS = frozenset({"float", "int", "abs", "round"})

#: Calls whose result carries the common dimension of all arguments.
_REDUCING_CALLS = frozenset({"min", "max", "maximum", "minimum"})


def dimension_of_name(name: str) -> Optional[str]:
    """Infer the dimension a (possibly dotted-last-segment) name claims.

    ``decode_step_s`` -> ``time[s]``; ``goodput_tokens_per_s`` ->
    ``tokens/s`` (a rate); ``batch`` -> ``None``.  Single-token names
    only match via :data:`WHOLE_NAME_DIMENSIONS`, so a loop variable
    ``j`` or a bare ``s`` never acquires a dimension by accident.
    """
    lowered = name.lower()
    if lowered in WHOLE_NAME_DIMENSIONS:
        return WHOLE_NAME_DIMENSIONS[lowered]
    tokens = lowered.split("_")
    if len(tokens) < 2:
        return None
    # Rates: ``<num>_per_<den>`` (``tokens_per_s``, ``usd_per_kwh``).
    if len(tokens) >= 3 and tokens[-2] == "per":
        den = SUFFIX_DIMENSIONS.get(tokens[-1])
        num = SUFFIX_DIMENSIONS.get(tokens[-3])
        if den is not None:
            return f"{num or '?'}/{den}"
        return None
    return SUFFIX_DIMENSIONS.get(tokens[-1])


def _last_segment(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def infer_dimension(node: ast.AST) -> Optional[str]:
    """Best-effort dimension of an expression, ``None`` when unsure.

    Multiplication/division erase the dimension (conversion factors are
    exactly the multiplies we must not flag); addition/subtraction and
    min/max-style reductions preserve a dimension only when every
    operand agrees.
    """
    if isinstance(node, (ast.Name, ast.Attribute)):
        segment = _last_segment(node)
        return dimension_of_name(segment) if segment else None
    if isinstance(node, ast.Subscript):
        return infer_dimension(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.UAdd, ast.USub)):
        return infer_dimension(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub)):
        left = infer_dimension(node.left)
        right = infer_dimension(node.right)
        return left if left is not None and left == right else None
    if isinstance(node, ast.IfExp):
        body = infer_dimension(node.body)
        orelse = infer_dimension(node.orelse)
        return body if body is not None and body == orelse else None
    if isinstance(node, ast.Call):
        name = _last_segment(node.func)
        if name is None:
            return None
        if name in _TRANSPARENT_CALLS and len(node.args) == 1:
            return infer_dimension(node.args[0])
        if name in _REDUCING_CALLS and node.args and not node.keywords:
            dims = [infer_dimension(arg) for arg in node.args]
            if dims[0] is not None and all(d == dims[0] for d in dims):
                return dims[0]
            return None
        return dimension_of_name(name)
    return None


def rules_for(relpath: str) -> Tuple[str, ...]:
    """UNIT rule codes that apply to a file at ``relpath``."""
    rel = relpath.replace("\\", "/")
    rules = ["UNIT401", "UNIT402"]
    top = rel.split("/", 1)[0]
    if top in MAGNITUDE_LITERAL_BANNED:
        rules.append("UNIT403")
    return tuple(rules)


def _render(node: ast.AST) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        text = "<expr>"
    return text if len(text) <= 40 else text[:37] + "..."


def _mix_message(left: ast.AST, right: ast.AST, left_dim: str,
                 right_dim: str, what: str) -> str:
    hint = ""
    if left_dim.startswith("time[") and right_dim.startswith("time["):
        hint = " (convert through a units.py factor such as NANOSECOND)"
    return (f"{what} mixes dimensions {left_dim} and {right_dim}: "
            f"{_render(left)} vs {_render(right)}{hint}")


class _UnitVisitor(ast.NodeVisitor):
    def __init__(self, relpath: str, rules: Sequence[str]):
        self.relpath = relpath
        self.rules = frozenset(rules)
        self.diagnostics: List[Diagnostic] = []
        self._function_stack: List[str] = []

    def _add(self, code: str, node: ast.AST, message: str) -> None:
        if code not in self.rules:
            return
        line = getattr(node, "lineno", 0)
        self.diagnostics.append(Diagnostic(
            code, Severity.ERROR, message,
            location=f"{self.relpath}:{line}", source=self.relpath))

    # -- UNIT401: mixed-dimension arithmetic and comparisons ----------

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            left = infer_dimension(node.left)
            right = infer_dimension(node.right)
            if left is not None and right is not None and left != right:
                op = "+" if isinstance(node.op, ast.Add) else "-"
                self._add("UNIT401", node, _mix_message(
                    node.left, node.right, left, right,
                    f"'{op}' arithmetic"))
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for idx, op in enumerate(node.ops):
            if not isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE,
                                   ast.Eq, ast.NotEq)):
                continue
            left, right = operands[idx], operands[idx + 1]
            left_dim = infer_dimension(left)
            right_dim = infer_dimension(right)
            if left_dim is not None and right_dim is not None \
                    and left_dim != right_dim:
                self._add("UNIT401", node, _mix_message(
                    left, right, left_dim, right_dim, "comparison"))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            target = infer_dimension(node.target)
            value = infer_dimension(node.value)
            if target is not None and value is not None \
                    and target != value:
                self._add("UNIT401", node, _mix_message(
                    node.target, node.value, target, value,
                    "augmented assignment"))
        self.generic_visit(node)

    # -- UNIT402: unit-dropping assignments and returns ---------------

    def _check_binding(self, node: ast.AST, target: ast.AST,
                       value: Optional[ast.AST]) -> None:
        if value is None:
            return
        target_dim = infer_dimension(target) \
            if isinstance(target, (ast.Name, ast.Attribute)) else None
        value_dim = infer_dimension(value)
        if target_dim is not None and value_dim is not None \
                and target_dim != value_dim:
            self._add("UNIT402", node, (
                f"assignment drops units: {_render(target)} "
                f"({target_dim}) receives {_render(value)} "
                f"({value_dim})"))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_binding(node, target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_binding(node, node.target, node.value)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None and self._function_stack:
            func_name = self._function_stack[-1]
            func_dim = dimension_of_name(func_name)
            value_dim = infer_dimension(node.value)
            if func_dim is not None and value_dim is not None \
                    and func_dim != value_dim:
                self._add("UNIT402", node, (
                    f"return drops units: {func_name}() claims "
                    f"{func_dim} but returns {_render(node.value)} "
                    f"({value_dim})"))
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # A lambda has no name to claim a dimension; hide the enclosing
        # function's name from its body.
        self._function_stack.append("<lambda>")
        self.generic_visit(node)
        self._function_stack.pop()

    # -- UNIT403: bare magnitude literals -----------------------------

    def _magnitude(self, node: ast.AST) -> Optional[float]:
        """The magnitude a literal expresses, when it is one we ban."""
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, float) \
                and node.value in _MAGNITUDES:
            return node.value
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base, exp = node.left, node.right
            sign = 1
            if isinstance(exp, ast.UnaryOp) \
                    and isinstance(exp.op, ast.USub):
                sign, exp = -1, exp.operand
            if isinstance(base, ast.Constant) \
                    and isinstance(exp, ast.Constant) \
                    and isinstance(base.value, int) \
                    and isinstance(exp.value, int):
                value = float(base.value) ** (sign * exp.value)
                if value in _MAGNITUDES:
                    return value
        return None

    def visit_Constant(self, node: ast.Constant) -> None:
        value = self._magnitude(node)
        if value is not None:
            self._add("UNIT403", node, (
                f"bare magnitude literal {node.value!r}; spell the "
                f"repro.units constant it means "
                f"({_MAGNITUDES[value]})"))
        self.generic_visit(node)

    def generic_visit(self, node: ast.AST) -> None:
        # Pow literals (10**9) are BinOps; catch them here so the
        # regular BinOp visitor (Add/Sub only) stays focused.
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            value = self._magnitude(node)
            if value is not None:
                self._add("UNIT403", node, (
                    f"bare magnitude literal {_render(node)}; spell "
                    f"the repro.units constant it means "
                    f"({_MAGNITUDES[value]})"))
                return  # do not also flag the operand constants
        super().generic_visit(node)


# -- Entry points ---------------------------------------------------------

def check_module(tree: ast.Module, relpath: str) -> List[Diagnostic]:
    """Lint one parsed file; ``relpath`` selects the applicable rules."""
    visitor = _UnitVisitor(relpath, rules_for(relpath))
    visitor.visit(tree)
    return by_line(visitor.diagnostics)


def lint_source(source: str, relpath: str) -> List[Diagnostic]:
    """Lint one file's source; ``relpath`` selects the applicable rules."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [syntax_error(SYNTAX_CODE, exc, relpath)]
    return check_module(tree, relpath)
