"""Roofline analysis helpers.

The paper's whole argument is a roofline argument: gen-stage GEMVs sit at
~1 FLOP/byte, far below any device's ridge point, so achieved performance
is bandwidth x intensity and the right machine maximizes *memory
bandwidth per dollar/watt*, not FLOPS.  This module gives
device ceilings, ridge points, and where a model's sum and gen stages
land on any device model.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Sequence

from repro.errors import ConfigurationError
from repro.llm.config import LLMConfig
from repro.llm.graph import compact_gen_stage, compact_sum_stage, per_op
from repro.perf.analytical import DevicePerfModel
from repro.perf.metrics import left_sum
from repro.units import TERA


@dataclass(frozen=True)
class Roofline:
    """One device's roofline: compute ceiling and memory slope."""

    name: str
    peak_flops: float
    peak_bandwidth: float

    def __post_init__(self) -> None:
        if self.peak_flops <= 0 or self.peak_bandwidth <= 0:
            raise ConfigurationError("roofline needs positive peaks")

    @property
    def ridge_intensity(self) -> float:
        """FLOPs/byte at which the machine turns compute-bound."""
        return self.peak_flops / self.peak_bandwidth

    def attainable_flops(self, intensity: float) -> float:
        """Attainable FLOP/s at an arithmetic intensity (FLOPs/byte)."""
        if intensity < 0:
            raise ConfigurationError("intensity cannot be negative")
        return min(self.peak_flops, intensity * self.peak_bandwidth)

    def bound_of(self, intensity: float) -> str:
        return "compute" if intensity >= self.ridge_intensity else "memory"


def device_roofline(model: DevicePerfModel) -> Roofline:
    """Roofline of any device performance model."""
    return Roofline(name=model.name, peak_flops=model.peak_flops,
                    peak_bandwidth=model.peak_bandwidth)


def stage_intensity(config: LLMConfig, context_len: int,
                    sum_stage: bool = False,
                    input_len: int = 64) -> float:
    """Aggregate arithmetic intensity of a stage (FLOPs/byte)."""
    stage = compact_sum_stage(config, input_len) if sum_stage \
        else compact_gen_stage(config, context_len)
    flops = left_sum(per_op(stage, attrgetter("flops")))
    traffic = left_sum(per_op(stage, attrgetter("total_bytes")))
    return flops / traffic


def roofline_report(config: LLMConfig, models: Sequence[DevicePerfModel],
                    context_len: int = 576) -> List[Dict[str, object]]:
    """Rows comparing devices on a model's sum and gen stages.

    Shows the paper's crossover quantitatively: gen-stage intensity sits
    below every ridge point (memory-bound everywhere -> bandwidth wins),
    sum-stage intensity sits above small accelerators' ridge points
    (compute-bound -> FLOPS win).
    """
    gen_i = stage_intensity(config, context_len)
    sum_i = stage_intensity(config, context_len, sum_stage=True)
    rows = []
    for model in models:
        roof = device_roofline(model)
        rows.append({
            "device": roof.name,
            "ridge_intensity": roof.ridge_intensity,
            "gen_intensity": gen_i,
            "gen_bound": roof.bound_of(gen_i),
            "gen_attainable_tflops":
                roof.attainable_flops(gen_i) / TERA,
            "sum_intensity": sum_i,
            "sum_bound": roof.bound_of(sum_i),
            "sum_attainable_tflops":
                roof.attainable_flops(sum_i) / TERA,
        })
    return rows
