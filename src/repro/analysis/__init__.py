"""Static analysis for the CXL-PNM simulation stack.

Two prongs, one diagnostic model:

* :mod:`repro.analysis.verifier` + :mod:`repro.analysis.dataflow` — a
  static verifier for compiled PNM ISA programs: register dataflow
  (hazards, use-before-def, dead writes), register-file pressure
  against the Table II budgets, and device address-space checks
  (bounds, alignment, DMA overlap, layout-aware region rules).
* the source-tree lint suite (:mod:`repro.analysis.suite`) — three
  AST passes over ``src/repro``: simulation purity
  (:mod:`repro.analysis.purity`, PUR3xx), dimensional/unit discipline
  inferred from naming conventions (:mod:`repro.analysis.units_lint`,
  UNIT4xx) and determinism against order-sensitivity bug classes
  (:mod:`repro.analysis.determinism`, DET5xx), with deliberate
  exceptions recorded in a checked-in suppression baseline
  (:mod:`repro.analysis.baseline`).

Both report :class:`repro.analysis.diagnostics.Diagnostic` values in an
:class:`repro.analysis.diagnostics.AnalysisReport`; ``report.ok`` means
no errors ("verifies clean"), ``report.clean`` means no findings at
all.  Entry points: ``repro lint`` (tree suite) and ``repro
lint-program`` (program verifier) on the CLI, and the opt-in
``verify_static=True`` hook on :class:`repro.accelerator.compiler.ProgramCache`.
"""

from .baseline import Baseline, BaselineEntry, BaselineResult
from .dataflow import (
    BANK_CAPACITY_BYTES,
    DataflowFacts,
    PressureReport,
    analyze_program,
    infer_shapes,
    register_pressure,
)
from .diagnostics import AnalysisReport, Diagnostic, Severity
from .purity import lint_source, rules_for
from .suite import PASSES, render_result, resolve_passes, run_suite
from .verifier import (
    DEFAULT_ADDRESS_SPACE,
    address_diagnostics,
    dataflow_diagnostics,
    dtype_diagnostics,
    memory_windows,
    pressure_diagnostics,
    store_overlap_diagnostics,
    verify_program,
)

__all__ = [
    "AnalysisReport",
    "BANK_CAPACITY_BYTES",
    "Baseline",
    "BaselineEntry",
    "BaselineResult",
    "DEFAULT_ADDRESS_SPACE",
    "DataflowFacts",
    "Diagnostic",
    "PASSES",
    "PressureReport",
    "Severity",
    "address_diagnostics",
    "analyze_program",
    "dataflow_diagnostics",
    "dtype_diagnostics",
    "infer_shapes",
    "lint_source",
    "memory_windows",
    "pressure_diagnostics",
    "register_pressure",
    "render_result",
    "resolve_passes",
    "rules_for",
    "run_suite",
    "store_overlap_diagnostics",
    "verify_program",
]
