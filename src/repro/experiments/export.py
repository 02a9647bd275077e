"""Export experiment results to JSON and CSV.

Benchmarks leave rendered text tables in ``benchmarks/results``; this
module adds machine-readable exports so reproduced figures can feed
plotting scripts or regression dashboards without re-running anything.
"""

from __future__ import annotations

import csv
import json
import pathlib
from typing import Iterable, Union

from repro.errors import ConfigurationError
from repro.experiments.report import ExperimentResult

PathLike = Union[str, pathlib.Path]


def to_json(result: ExperimentResult, path: PathLike) -> pathlib.Path:
    """Write one result (rows + anchors + notes) as JSON."""
    path = pathlib.Path(path)
    payload = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "rows": result.rows,
        "anchors": result.anchors,
        "notes": result.notes,
    }
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return path


def to_csv(result: ExperimentResult, path: PathLike) -> pathlib.Path:
    """Write one result's rows as CSV (union of all row keys)."""
    if not result.rows:
        raise ConfigurationError(
            f"{result.experiment_id}: no rows to export")
    path = pathlib.Path(path)
    columns = result.columns or list(
        dict.fromkeys(key for row in result.rows for key in row))
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns,
                                extrasaction="ignore", restval="")
        writer.writeheader()
        for row in result.rows:
            writer.writerow(row)
    return path


def export_all(results: Iterable[ExperimentResult],
               directory: PathLike) -> list:
    """Export every result as both JSON and CSV into ``directory``."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for result in results:
        written.append(to_json(result,
                               directory / f"{result.experiment_id}.json"))
        written.append(to_csv(result,
                              directory / f"{result.experiment_id}.csv"))
    return written
