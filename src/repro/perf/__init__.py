"""Performance engines: analytical roofline model and cycle simulator.

Exports are resolved lazily (PEP 562) because :mod:`repro.perf.analytical`
imports the GPU kernel models, which themselves import
:mod:`repro.perf.calibration` — eager re-exports here would close an
import cycle.
"""

from repro.perf import calibration

_ANALYTICAL = ("DevicePerfModel", "GpuPerfModel", "InferenceTimer",
               "PnmPerfModel", "no_comm", "stage_result")
_METRICS = ("ApplianceResult", "InferenceResult", "StageResult",
            "relative_delta")
_SIMULATOR = ("AcceleratorSimulator", "SimulationResult")
_ROOFLINE = ("Roofline", "device_roofline", "roofline_report",
             "stage_intensity")

__all__ = sorted(("calibration",) + _ANALYTICAL + _METRICS + _SIMULATOR
                 + _ROOFLINE)


_SUBMODULE_OF = {}
for _names, _module in ((_ANALYTICAL, "analytical"), (_METRICS, "metrics"),
                        (_SIMULATOR, "simulator"), (_ROOFLINE, "roofline")):
    for _name in _names:
        _SUBMODULE_OF[_name] = _module


def __getattr__(name):
    if name in _SUBMODULE_OF:
        import importlib
        module = importlib.import_module(
            f"repro.perf.{_SUBMODULE_OF[name]}")
        return getattr(module, name)
    raise AttributeError(f"module 'repro.perf' has no attribute {name!r}")
