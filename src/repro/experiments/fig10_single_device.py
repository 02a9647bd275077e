"""Fig. 10: single GPU vs single CXL-PNM device on OPT-13B.

Sweeps the output-token count (64 input tokens) and reports throughput
and energy efficiency for both devices, plus the paper's two side
results: latency deltas on the smaller OPT models at 1024 output tokens,
and the OPT-30B case where the GPU must stream parameters from host
memory while the CXL-PNM device holds them resident (138.8x / 127.9x in
the paper).
"""

from __future__ import annotations

from typing import List

from repro.accelerator.device import CXLPNMDevice
from repro.experiments.report import ExperimentResult
from repro.gpu.device import A100_40G
from repro.gpu.kernels import GpuKernelModel
from repro.gpu.offload import OffloadModel
from repro.gpu.power import GpuPowerModel
from repro.llm.config import OPT_13B, OPT_1_3B, OPT_2_7B, OPT_30B, OPT_6_7B
from repro.llm.graph import compact_gen_stage, compact_sum_stage
from repro.llm.workload import PAPER_INPUT_TOKENS
import repro.perf.calibration as cal
from repro.perf.analytical import GpuPerfModel, InferenceTimer, PnmPerfModel
from repro.perf.metrics import InferenceResult, relative_delta

OUTPUT_SWEEP = (1, 4, 16, 64, 128, 256, 512, 1024)


def _offload_result(config, output_len: int) -> InferenceResult:
    """GPU inference with host-offloaded parameters (OPT-30B case)."""
    kernels = GpuKernelModel(A100_40G)
    offload = OffloadModel(spec=A100_40G, config=config)
    # Stalled on PCIe copies for ~99% of the time, the GPU drops out of
    # its boosted operating point; its power approaches true board idle.
    power = GpuPowerModel(A100_40G, active_idle_watts=75.0)
    sum_time = offload.stage_time(
        compact_sum_stage(config, PAPER_INPUT_TOKENS), kernels)
    gen_time = 0.0
    step = max(1, (output_len - 1) // 16)
    sampled = list(range(1, output_len, step))
    per_stage = [offload.stage_time(
        compact_gen_stage(config, PAPER_INPUT_TOKENS + s), kernels)
        for s in sampled]
    gen_time = sum(per_stage) / len(per_stage) * (output_len - 1) \
        if sampled else 0.0
    # While copying, the GPU is mostly idle: low compute/bandwidth point.
    watts = power.power_watts(0.02, 0.05)
    total = sum_time + gen_time
    return InferenceResult(device_name=f"{A100_40G.name}+offload",
                           input_len=PAPER_INPUT_TOKENS,
                           output_len=output_len, sum_time_s=sum_time,
                           gen_time_s=gen_time, energy_j=watts * total)


def run() -> ExperimentResult:
    gpu = GpuPerfModel(A100_40G)
    pnm = PnmPerfModel(CXLPNMDevice())
    rows: List[dict] = []
    for out in OUTPUT_SWEEP:
        rg = InferenceTimer(OPT_13B, gpu).run(PAPER_INPUT_TOKENS, out)
        rp = InferenceTimer(OPT_13B, pnm).run(PAPER_INPUT_TOKENS, out)
        rows.append({
            "output_tokens": out,
            "gpu_tokens_per_s": rg.tokens_per_s,
            "pnm_tokens_per_s": rp.tokens_per_s,
            "throughput_delta": relative_delta(rp.tokens_per_s,
                                               rg.tokens_per_s),
            "gpu_tokens_per_j": rg.tokens_per_joule,
            "pnm_tokens_per_j": rp.tokens_per_joule,
            "energy_eff_ratio": rp.tokens_per_joule / rg.tokens_per_joule,
            "gpu_power_w": rg.mean_power_w,
            "pnm_power_w": rp.mean_power_w,
        })

    small_model_rows: List[dict] = []
    for config in (OPT_1_3B, OPT_2_7B, OPT_6_7B, OPT_13B):
        rg = InferenceTimer(config, gpu).run(PAPER_INPUT_TOKENS, 1024)
        rp = InferenceTimer(config, pnm).run(PAPER_INPUT_TOKENS, 1024)
        small_model_rows.append({
            "output_tokens": f"{config.name} latency_delta",
            "gpu_tokens_per_s": rg.tokens_per_s,
            "pnm_tokens_per_s": rp.tokens_per_s,
            "throughput_delta": relative_delta(rp.latency_s, rg.latency_s),
        })

    offload_gpu = _offload_result(OPT_30B, 1024)
    pnm_30b = InferenceTimer(OPT_30B, pnm).run(PAPER_INPUT_TOKENS, 1024)
    offload_row = {
        "output_tokens": "OPT-30B (GPU offloaded)",
        "gpu_tokens_per_s": offload_gpu.tokens_per_s,
        "pnm_tokens_per_s": pnm_30b.tokens_per_s,
        "throughput_delta": offload_gpu.latency_s / pnm_30b.latency_s,
        "energy_eff_ratio": (pnm_30b.tokens_per_joule
                             / offload_gpu.tokens_per_joule),
    }

    return ExperimentResult(
        experiment_id="fig10",
        title="OPT-13B single device: throughput and energy efficiency "
              "(64 input tokens)",
        rows=rows + small_model_rows + [offload_row],
        anchors={
            "throughput_delta@1024": cal.PAPER_ANCHORS[
                "fig10_opt13b_throughput_delta"],
            "energy_eff_ratio@1024": cal.PAPER_ANCHORS[
                "fig10_opt13b_energy_eff_ratio"],
            "gpu_power_w": cal.PAPER_ANCHORS["fig10_gpu_power_watts"],
            "pnm_power_w": cal.PAPER_ANCHORS["fig10_pnm_power_watts"],
            "small_model_latency_delta": cal.PAPER_ANCHORS[
                "fig10_small_model_latency_delta"],
            "opt30b_latency_ratio": cal.PAPER_ANCHORS[
                "fig10_opt30b_latency_ratio"],
            "opt30b_energy_ratio": cal.PAPER_ANCHORS[
                "fig10_opt30b_energy_ratio"],
        },
        notes=[
            "OPT-30B row: 'throughput_delta' column holds the GPU/PNM "
            "latency ratio (the paper's 138.8x).",
        ],
    )
