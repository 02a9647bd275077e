"""Fig. 4: GPU utilization and execution-time breakdown, OPT-6.7B.

With 32 input tokens and 1024 output tokens, the paper observes (a) GPU
utilization up to 94% during the sum stage's GEMMs but under 25% during
the gen stages' GEMVs, and (b) 83% of total inference time spent in GEMV.
This experiment regenerates both panels from the kernel model.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult
from repro.gpu.device import A100_40G
from repro.gpu.kernels import GpuKernelModel
from repro.llm.config import OPT_6_7B
from repro.llm.graph import compact_gen_stage, compact_sum_stage, per_op
from repro.llm.ops import OpKind

INPUT_TOKENS = 32
OUTPUT_TOKENS = 1024


def run() -> ExperimentResult:
    kernels = GpuKernelModel(A100_40G)

    def profile(stage):
        """(kernel time, reported utilization, kind) per op, flat order."""
        return per_op(stage, lambda op: (
            kernels.op_time(op), kernels.op_reported_utilization(op),
            op.kind))

    def weighted_utilization(prof) -> float:
        total = sum(t for t, _, _ in prof)
        return sum(t * u for t, u, _ in prof) / total

    sum_prof = profile(compact_sum_stage(OPT_6_7B, INPUT_TOKENS))
    sum_time = sum(t for t, _, _ in sum_prof)
    sum_util = weighted_utilization(sum_prof)

    gemv_time = gemm_time = vector_time = 0.0
    gen_time = 0.0
    gen_util_acc = 0.0
    for step in range(1, OUTPUT_TOKENS):
        prof = profile(compact_gen_stage(OPT_6_7B, INPUT_TOKENS + step))
        stage = sum(t for t, _, _ in prof)
        gen_time += stage
        gen_util_acc += stage * weighted_utilization(prof)
        for t, _, kind in prof:
            if kind is OpKind.GEMV:
                gemv_time += t
            elif kind is OpKind.GEMM:
                gemm_time += t
            else:
                vector_time += t
    for t, _, kind in sum_prof:
        if kind is OpKind.GEMM:
            gemm_time += t
        elif kind is OpKind.GEMV:
            gemv_time += t
        else:
            vector_time += t

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
