"""Fig. 4: GPU utilization and execution-time breakdown, OPT-6.7B.

With 32 input tokens and 1024 output tokens, the paper observes (a) GPU
utilization up to 94% during the sum stage's GEMMs but under 25% during
the gen stages' GEMVs, and (b) 83% of total inference time spent in GEMV.
This experiment regenerates both panels from the kernel model.
"""

from __future__ import annotations

from operator import attrgetter, mul
from typing import List, Sequence, Tuple

import numpy as np

from repro.experiments.report import ExperimentResult
from repro.gpu.device import A100_40G
from repro.gpu.kernels import GpuKernelModel
from repro.llm.config import OPT_6_7B
from repro.llm.graph import (GenStageSweep, compact_gen_stage,
                             compact_sum_stage, per_op)
from repro.llm.ops import OpKind, OpSpec
from repro.perf.metrics import flat_blocks, left_fold, left_sum

INPUT_TOKENS = 32
OUTPUT_TOKENS = 1024


def _kind_masks(kinds: Sequence[OpKind]) -> List[np.ndarray]:
    """Flat-order masks of the GEMV, GEMM and other ops."""
    gemv = np.array([kind is OpKind.GEMV for kind in kinds])
    gemm = np.array([kind is OpKind.GEMM for kind in kinds])
    return [gemv, gemm, ~(gemv | gemm)]


def _add_by_kind(totals: List[float], times: np.ndarray,
                 masks: List[np.ndarray]) -> None:
    """Add each op time of ``times`` (flat ops x stages) to its kind's
    total, stage by stage in flat order."""
    for i, mask in enumerate(masks):
        totals[i] = left_fold(
            np.concatenate(([totals[i]], times[mask].T.ravel()))).item()


def run() -> ExperimentResult:
    kernels = GpuKernelModel(A100_40G)
    op_time = kernels.op_time
    utilization = kernels.op_reported_utilization

    def weighted(op: OpSpec) -> Tuple[float, float]:
        """An op's time and its time-weighted utilization."""
        time_s = op_time(op)
        return time_s, time_s * utilization(op)

    sum_stage = compact_sum_stage(OPT_6_7B, INPUT_TOKENS)
    sum_times = per_op(sum_stage, op_time)
    sum_time = left_sum(sum_times)
    sum_util = left_sum(map(mul, sum_times,
                            per_op(sum_stage, utilization))) / sum_time

    # Gen stages: only the attention ops are re-priced per context, and
    # every stage is folded at once, a block of contexts at a time.
    contexts = range(INPUT_TOKENS + 1, INPUT_TOKENS + OUTPUT_TOKENS)
    head, layer, tail = GenStageSweep(OPT_6_7B, 1, weighted)(contexts)
    gen_masks = _kind_masks(per_op(
        compact_gen_stage(OPT_6_7B, INPUT_TOKENS + 1), attrgetter("kind")))
    by_kind = [0.0, 0.0, 0.0]  # GEMV, GEMM, other
    stages = []
    for flat in flat_blocks(head, layer, OPT_6_7B.num_layers, tail):
        stages.append(left_fold(flat))
        _add_by_kind(by_kind, flat[:, :, 0], gen_masks)
    stage, util_time = np.concatenate(stages).T
    gen_time = left_fold(stage).item()
    # Each stage's time-weighted utilization, weighted by its time.
    gen_util_acc = left_fold(stage * (util_time / stage)).item()
    _add_by_kind(by_kind, np.array(sum_times)[:, np.newaxis],
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
