"""Fig. 4: GPU utilization and execution-time breakdown, OPT-6.7B.

With 32 input tokens and 1024 output tokens, the paper observes (a) GPU
utilization up to 94% during the sum stage's GEMMs but under 25% during
the gen stages' GEMVs, and (b) 83% of total inference time spent in GEMV.
This experiment regenerates both panels from the kernel model.
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter, mul
from typing import List, Sequence

from repro.experiments.report import ExperimentResult
from repro.gpu.device import A100_40G
from repro.gpu.kernels import GpuKernelModel
from repro.llm.config import OPT_6_7B
from repro.llm.graph import (GenStageSweep, compact_gen_stage,
                             compact_sum_stage, per_op)
from repro.llm.ops import OpKind
from repro.perf.metrics import left_sum

INPUT_TOKENS = 32
OUTPUT_TOKENS = 1024


def _kind_masks(kinds: Sequence[OpKind]) -> List[List[bool]]:
    """Flat-order masks of the GEMV, GEMM and other ops."""
    gemv = [kind is OpKind.GEMV for kind in kinds]
    gemm = [kind is OpKind.GEMM for kind in kinds]
    return [gemv, gemm, [not (v or m) for v, m in zip(gemv, gemm)]]


def _add_by_kind(totals: List[float], times: Sequence[float],
                 masks: List[List[bool]]) -> None:
    """Add each op time to its kind's total, in flat order."""
    for i, mask in enumerate(masks):
        total = totals[i]
        for t in compress(times, mask):
            total += t
        totals[i] = total


def run() -> ExperimentResult:
    kernels = GpuKernelModel(A100_40G)
    op_time = kernels.op_time
    utilization = kernels.op_reported_utilization

    sum_stage = compact_sum_stage(OPT_6_7B, INPUT_TOKENS)
    sum_times = per_op(sum_stage, op_time)
    sum_time = left_sum(sum_times)
    sum_util = left_sum(map(mul, sum_times,
                            per_op(sum_stage, utilization))) / sum_time

    # Gen stages: only the attention ops are re-priced per context.
    times_at = GenStageSweep(OPT_6_7B, 1, op_time)
    utils_at = GenStageSweep(OPT_6_7B, 1, utilization)
    layers = OPT_6_7B.num_layers
    gen_masks = _kind_masks(per_op(
        compact_gen_stage(OPT_6_7B, INPUT_TOKENS + 1), attrgetter("kind")))
    by_kind = [0.0, 0.0, 0.0]  # GEMV, GEMM, other
    gen_time = 0.0
    gen_util_acc = 0.0
    for step in range(1, OUTPUT_TOKENS):
        head, layer, tail = times_at(INPUT_TOKENS + step)
        times = head + layer * layers + tail
        head, layer, tail = utils_at(INPUT_TOKENS + step)
        utils = head + layer * layers + tail
        stage = left_sum(times)
        gen_time += stage
        # The stage's time-weighted utilization, weighted by its time.
        gen_util_acc += stage * (left_sum(map(mul, times, utils)) / stage)
        _add_by_kind(by_kind, times, gen_masks)
    _add_by_kind(by_kind, sum_times,
                 _kind_masks(per_op(sum_stage, attrgetter("kind"))))
    gemv_time, gemm_time, vector_time = by_kind

    total = sum_time + gen_time
    rows = [
        {"metric": "sum-stage GPU utilization", "value": sum_util},
        {"metric": "gen-stage GPU utilization",
         "value": gen_util_acc / gen_time},
        {"metric": "GEMV share of execution time", "value": gemv_time / total},
        {"metric": "GEMM share of execution time", "value": gemm_time / total},
        {"metric": "other-kernel share of execution time",
         "value": vector_time / total},
        {"metric": "sum-stage time (ms)", "value": sum_time * 1e3},
        {"metric": "gen-stage total time (s)", "value": gen_time},
    ]
    return ExperimentResult(
        experiment_id="fig4",
        title="OPT-6.7B on A100: utilization and time breakdown "
              f"(L_in={INPUT_TOKENS}, {OUTPUT_TOKENS} output tokens)",
        rows=rows,
        anchors={
            "paper_sum_utilization": 0.94,
            "paper_gen_utilization_below": 0.25,
            "paper_gemv_time_share": 0.83,
        },
        notes=[
            "GPU utilization is the occupancy-style metric nvidia-smi "
            "reports, modelled per operator class, weighted by kernel "
            "time.",
        ],
    )
