"""Experiment result containers and plain-text table rendering.

Every experiment module produces an :class:`ExperimentResult`: structured
rows (what the paper's figure/table plots), the paper's anchor values for
side-by-side comparison, and free-form notes on modelling caveats.  The
benchmarks print ``render()`` output so a run reproduces the paper's
tables as text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError


def format_value(value: Any) -> str:
    """Human-friendly cell formatting."""
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3g}"
        if abs(value) >= 100:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def text_table(rows: Sequence[Dict[str, Any]],
               columns: Optional[Sequence[str]] = None) -> str:
    """Render dict rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[format_value(row.get(col, "")) for col in columns]
             for row in rows]
    widths = [max(len(col), *(len(row[i]) for row in cells))
              for i, col in enumerate(columns)]
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    rule = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(cell.ljust(w)
                               for cell, w in zip(row, widths))
                     for row in cells)
    return "\n".join((header, rule, body))


@dataclass
class ExperimentResult:
    """One reproduced figure/table.

    Attributes:
        experiment_id: Paper artifact id, e.g. ``"fig10"``.
        title: Human-readable title.
        rows: The regenerated data series/table rows.
        anchors: Paper values the rows should be compared against.
        notes: Modelling caveats and substitutions.
        columns: Optional explicit column order for rendering.
        group_by: Optional key whose consecutive equal values render as
            separate tables, each under its own header (a bundle of
            studies whose rows have different columns).
    """

    experiment_id: str
    title: str
    rows: List[Dict[str, Any]]
    anchors: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    columns: Optional[List[str]] = None
    group_by: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.experiment_id:
            raise ConfigurationError("experiment needs an id")

    def render(self) -> str:
        groups = ([list(rows) for _, rows in
                   groupby(self.rows, key=itemgetter(self.group_by))]
                  if self.group_by and self.rows else [self.rows])
        parts = [f"== {self.experiment_id}: {self.title} ==",
                 "\n\n".join(text_table(rows, self.columns)
                              for rows in groups)]
        if self.anchors:
            parts.append("paper anchors:")
            for key, value in self.anchors.items():
                parts.append(f"  {key} = {format_value(value)}")
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)
