"""Fig. 3: kernel vs memcpy time for OPT-30B on a 40 GB A100.

OPT-30B's ~60 GB of FP16 parameters overflow the GPU, so a DeepSpeed/
FlexGen-style framework streams weights from host memory over PCIe for
every stage; the paper measures ~99% of execution time going to those
copies.  This experiment reproduces the breakdown with the offload model
and adds a pinned-buffer ablation.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult
from repro.gpu.device import A100_40G
from repro.gpu.kernels import GpuKernelModel
from repro.gpu.offload import OffloadModel
from repro.llm.config import OPT_30B
from repro.llm.graph import compact_gen_stage, compact_sum_stage, per_op
import repro.perf.calibration as cal
from repro.perf.metrics import left_sum

INPUT_TOKENS = 64
CONTEXT_FOR_GEN = 576  # representative mid-generation context


def run() -> ExperimentResult:
    kernels = GpuKernelModel(A100_40G)
    rows = []
    for label, h2d in (("pageable", cal.PCIE_H2D_PAGEABLE_BYTES_S),
                       ("pinned", cal.PCIE_H2D_PINNED_BYTES_S)):
        offload = OffloadModel(spec=A100_40G, config=OPT_30B,
                               h2d_bandwidth=h2d)
        for stage, ops in (
                ("sum", compact_sum_stage(OPT_30B, INPUT_TOKENS)),
                ("gen", compact_gen_stage(OPT_30B, CONTEXT_FOR_GEN))):
            total = offload.stage_time(ops, kernels)
            kernel_time = left_sum(per_op(ops, kernels.op_time))
            memcpy_frac = offload.memcpy_fraction(ops, kernels)
            rows.append({
                "transfer": label,
                "stage": stage,
                "stage_time_ms": total * 1e3,
                "kernel_time_ms": kernel_time * 1e3,
                "memcpy_fraction": memcpy_frac,
                "streamed_GB": offload.streamed_bytes_per_stage / 1e9,
            })
    return ExperimentResult(
        experiment_id="fig3",
        title="OPT-30B on A100-40G: kernel vs host-to-device copy time",
        rows=rows,
        anchors={"paper_memcpy_fraction": 0.99},
        notes=[
            "The paper measures pageable PyTorch transfers; the pinned "
            "rows are our ablation showing the bottleneck persists even "
            "at 3x the copy bandwidth.",
        ],
    )
