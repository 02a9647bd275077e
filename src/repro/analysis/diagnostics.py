"""Shared diagnostic model for the static-analysis layer.

Both analysis prongs — the ISA program verifier
(:mod:`repro.analysis.verifier`) and the simulation-purity lint
(:mod:`repro.analysis.purity`) — report their findings as
:class:`Diagnostic` values collected into an :class:`AnalysisReport`.
A diagnostic carries a stable machine-readable code (``PNM1xx`` for
register dataflow, ``PNM2xx`` for the device address space, ``PUR3xx``
for purity-lint rules; the full table lives in ``docs/ANALYSIS.md``),
a severity, a human-readable message, and a location — an instruction
index for program diagnostics, a ``file:line`` pair for lint findings.

Severity semantics: a program or source tree *verifies clean* when it
has no :attr:`Severity.ERROR` diagnostics (``report.ok``); WARNING
marks constructs that are legal but suspicious (dead writes in
timing-only templates, overlapping DMA windows), and tooling decides
how strict to be — the CI purity job and ``repro lint-program`` treat
any diagnostic as a nonzero exit, while the compiler's
``verify_static`` hook raises only on errors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple


class Severity(enum.Enum):
    """How bad a diagnostic is; ordered INFO < WARNING < ERROR."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return {"info": 0, "warning": 1, "error": 2}[self.value]

    def __lt__(self, other: "Severity") -> bool:
        if not isinstance(other, Severity):
            return NotImplemented
        return self.rank < other.rank


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis pass.

    Attributes:
        code: Stable identifier (``PNM104``, ``PUR301``, ...).
        severity: How bad it is.
        message: Human-readable description with the offending values.
        location: Where — ``program[12]`` or ``path/to/file.py:45``.
        index: Instruction index for program diagnostics (None for
            source-file findings).
        source: What was analyzed — an opcode for program diagnostics,
            a file path for lint findings.
    """

    code: str
    severity: Severity
    message: str
    location: str = ""
    index: Optional[int] = None
    source: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready flat view."""
        out: Dict[str, object] = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location,
        }
        if self.index is not None:
            out["index"] = self.index
        if self.source is not None:
            out["source"] = self.source
        return out

    def render(self) -> str:
        loc = f" {self.location}" if self.location else ""
        src = f" [{self.source}]" if self.source else ""
        return f"{self.severity.value:<7} {self.code}{loc}{src}: " \
               f"{self.message}"


def syntax_error(code: str, exc: SyntaxError, relpath: str) -> Diagnostic:
    """The finding a source-tree pass reports for a file that won't parse."""
    return Diagnostic(code, Severity.ERROR, f"syntax error: {exc.msg}",
                      location=f"{relpath}:{exc.lineno or 0}",
                      source=relpath)


def by_line(diagnostics: List[Diagnostic]) -> List[Diagnostic]:
    """One file's lint findings in (line, code) order."""
    return sorted(diagnostics, key=lambda d: (
        int(d.location.rsplit(":", 1)[-1] or 0), d.code))


@dataclass
class AnalysisReport:
    """An ordered collection of diagnostics from one analysis run."""

    diagnostics: Tuple[Diagnostic, ...] = ()
    subject: str = ""

    @classmethod
    def collect(cls, diagnostics: Iterable[Diagnostic],
                subject: str = "") -> "AnalysisReport":
        return cls(diagnostics=tuple(diagnostics), subject=subject)

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics
                     if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics
                     if d.severity is Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when the subject verifies clean (no errors)."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """True when the analysis produced no diagnostics at all."""
        return not self.diagnostics

    def codes(self) -> Tuple[str, ...]:
        """Distinct diagnostic codes present, sorted."""
        return tuple(sorted({d.code for d in self.diagnostics}))

    def by_code(self, code: str) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.code == code)

    def counts(self) -> Dict[str, int]:
        out = {"error": 0, "warning": 0, "info": 0}
        for d in self.diagnostics:
            out[d.severity.value] += 1
        return out

    def merged(self, other: "AnalysisReport") -> "AnalysisReport":
        return AnalysisReport(
            diagnostics=self.diagnostics + other.diagnostics,
            subject=self.subject or other.subject)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view: diagnostics, severity counts, verdicts."""
        return {
            "subject": self.subject,
            "diagnostics": [d.as_dict() for d in self.diagnostics],
            "counts": self.counts(),
            "ok": self.ok,
            "clean": self.clean,
        }

    def render(self) -> str:
        """Human-readable multi-line report."""
        header = f"static analysis: {self.subject}" if self.subject \
            else "static analysis"
        if self.clean:
            return f"{header}: clean"
        lines: List[str] = [header]
        for diag in sorted(self.diagnostics,
                           key=lambda d: (-d.severity.rank, d.code,
                                          d.index if d.index is not None
                                          else -1)):
            lines.append("  " + diag.render())
        counts = self.counts()
        lines.append(f"  {counts['error']} error(s), "
                     f"{counts['warning']} warning(s), "
                     f"{counts['info']} info")
        return "\n".join(lines)
