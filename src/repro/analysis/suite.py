"""The full source-tree static-analysis suite, as one entry point.

Composes the three tree passes — simulation purity (PUR3xx), unit
discipline (UNIT4xx) and determinism (DET5xx) — into a single report,
then applies the checked-in suppression baseline
(:mod:`repro.analysis.baseline`).
This is what ``repro lint``, ``make lint``, and the blocking CI job
all run, so "clean" means the same thing at every surface.

The suite owns the tree walk: each file is read and parsed once, and
the tree goes to every selected pass that has rules for the file
(``check_module``); a file that does not parse gets each such pass's
own syntax-error code instead.

Passes are named for selection (``--select units,det``):
:data:`PASSES` maps name -> pass module.  The ISA *program* verifier
is deliberately not part of this suite — it checks compiled programs,
not source, and keeps its own entry point (``repro lint-program``).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ConfigurationError

from . import determinism, purity, units_lint
from .baseline import Baseline, BaselineResult
from .diagnostics import AnalysisReport, Diagnostic, syntax_error

#: Selectable tree passes, in report order.  Each module provides
#: ``rules_for(relpath)``, ``check_module(tree, relpath)`` and the
#: ``SYNTAX_CODE`` it reports for a file that does not parse.
PASSES = {
    "purity": purity,
    "units": units_lint,
    "determinism": determinism,
}

#: Short aliases accepted by ``--select``.
PASS_ALIASES = {
    "pur": "purity",
    "unit": "units",
    "det": "determinism",
}


def resolve_passes(names: Optional[Iterable[str]] = None
                   ) -> Tuple[str, ...]:
    """Normalize a pass selection; ``None``/empty means every pass."""
    if not names:
        return tuple(PASSES)
    resolved = []
    for name in names:
        canonical = PASS_ALIASES.get(name.strip().lower(),
                                     name.strip().lower())
        if canonical not in PASSES:
            raise ConfigurationError(
                f"unknown analysis pass {name!r}; "
                f"choose from {', '.join(PASSES)}")
        if canonical not in resolved:
            resolved.append(canonical)
    return tuple(resolved)


def run_suite(root: Path, passes: Optional[Iterable[str]] = None,
              baseline: Optional[Baseline] = None) -> BaselineResult:
    """Run the selected passes over ``root`` and apply the baseline.

    Returns a :class:`~repro.analysis.baseline.BaselineResult` whose
    ``report`` holds only unsuppressed findings; ``suppressed`` and
    ``stale`` expose the baseline's effect so tooling can both honor
    and police it (a stale entry fails CI like a finding does).
    """
    root = Path(root)
    if not root.is_dir():
        raise ConfigurationError(f"no such directory: {root}")
    selected = resolve_passes(passes)
    found: Dict[str, List[Diagnostic]] = {name: [] for name in selected}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        applicable = [name for name in selected
                      if PASSES[name].rules_for(rel)]
        if not applicable:
            continue
        parsed: Union[ast.Module, SyntaxError]
        try:
            parsed = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError as exc:
            parsed = exc
        for name in applicable:
            module = PASSES[name]
            if isinstance(parsed, SyntaxError):
                found[name].append(
                    syntax_error(module.SYNTAX_CODE, parsed, rel))
            else:
                found[name].extend(module.check_module(parsed, rel))
    merged = AnalysisReport.collect(
        (diag for name in selected for diag in found[name]),
        subject=str(root))
    if baseline is None:
        baseline = Baseline()
    # Scope the baseline to the selected passes: an entry for a pass
    # that did not run cannot match anything, and must not be counted
    # stale for it (``--select units`` with the full checked-in
    # baseline would otherwise always fail).
    prefixes = tuple(PASSES[name].SYNTAX_CODE.rstrip("0123456789")
                     for name in selected)
    scoped = Baseline(tuple(e for e in baseline.entries
                            if e.code.startswith(prefixes)))
    return scoped.apply(merged, root)


def render_result(result: BaselineResult) -> str:
    """Human-readable suite report, baseline effects included."""
    lines = [result.report.render()]
    if result.suppressed:
        lines.append(f"  {len(result.suppressed)} finding(s) "
                     f"suppressed by baseline")
    for entry in result.stale:
        lines.append(f"  stale baseline entry: {entry.code} "
                     f"{entry.path} ({entry.reason}) — matched "
                     f"nothing; delete it")
    return "\n".join(lines)
