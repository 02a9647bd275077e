"""Ablation studies for the design choices the paper motivates.

Each function isolates one architectural decision and quantifies it:

* ``pe_array`` — DFX (adder trees only) vs CXL-PNM (with the 64x32 PE
  array): §V-C's claim that "the sum stage begins to dominate" without a
  dedicated GEMM unit.
* ``tile_dim`` — DFX's l=64 vs the paper's l=128 tile (doubled because
  the LPDDR5X module provides >2x DFX's bandwidth).
* ``redumax`` — the REDUMAX-fused masked matmul vs a separate max pass.
* ``batching`` — amortizing weight streams across concurrent requests
  (extension; the lever of the paper's reference [10]).
* ``quantization`` — INT8 weights on the bandwidth-bound gen stage
  (related-work LUT-GEMM lever).
* ``moe`` — a capacity-heavy MoE that fits one CXL-PNM device but needs
  many GPUs (§IX's scalability argument, sharpened).
* ``dma_buffer`` — DMA staging-buffer size (Table II provisions 1 MB).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from repro.accelerator.device import CXLPNMDevice
from repro.accelerator.dfx import dfx_device
from repro.accelerator.dma import DmaTiming
from repro.accelerator.mpu import MpuTiming
from repro.accelerator.vpu import VpuTiming
from repro.accelerator import isa
from repro.experiments.report import ExperimentResult
from repro.gpu.device import A100_40G
from repro.llm.batching import compact_batched_gen_stage, max_batch_for_memory
from repro.llm.config import GPT3_13B, OPT_13B, OPT_6_7B
from repro.llm.graph import gen_stage_ops
from repro.llm.moe import MoEConfig, moe_gen_stage_ops
from repro.llm.workload import PAPER_INPUT_TOKENS
from repro.perf.analytical import (
    GpuPerfModel,
    InferenceTimer,
    PnmPerfModel,
    stage_result,
)


def pe_array_ablation() -> ExperimentResult:
    """Sum-stage latency, DFX vs CXL-PNM, as input length grows."""
    dfx = PnmPerfModel(dfx_device())
    pnm = PnmPerfModel(CXLPNMDevice())
    rows = []
    for input_len in (16, 32, 64, 128, 256, 512):
        td = InferenceTimer(OPT_6_7B, dfx).sum_stage(input_len).time_s
        tp = InferenceTimer(OPT_6_7B, pnm).sum_stage(input_len).time_s
        rd = InferenceTimer(OPT_6_7B, dfx).run(input_len, 256)
        rows.append({
            "input_tokens": input_len,
            "dfx_sum_ms": td * 1e3,
            "pnm_sum_ms": tp * 1e3,
            "speedup": td / tp,
            "dfx_sum_share_of_e2e": td / rd.latency_s,
        })
    return ExperimentResult(
        experiment_id="ablation_pe_array",
        title="PE-array ablation: DFX (tree-only) vs CXL-PNM sum stage "
              "(OPT-6.7B)",
        rows=rows,
        anchors={"paper_claim": "without a GEMM unit the sum stage "
                                "dominates as input tokens increase"},
    )


def tile_dim_ablation() -> ExperimentResult:
    """Gen-token time at tile l=64 (DFX) vs l=128 (CXL-PNM, §V-C)."""
    device = CXLPNMDevice()
    rows = []
    for tile in (32, 64, 128, 256):
        mpu = MpuTiming(tree_lanes=16, tree_width=tile)
        clock = device.spec.clock_hz
        total_cycles = 0
        ops = gen_stage_ops(OPT_13B, PAPER_INPUT_TOKENS + 512)
        for op in ops:
            if op.kind.is_matmul:
                total_cycles += mpu.gemv_cycles(op.k, op.n)
        rows.append({
            "tile_dim": tile,
            "tree_macs_per_cycle": mpu.tree_macs_per_cycle,
            "matmul_compute_ms": total_cycles / clock * 1e3,
        })
    return ExperimentResult(
        experiment_id="ablation_tile_dim",
        title="Tile-dimension ablation: adder-tree compute per OPT-13B "
              "gen token",
        rows=rows,
        anchors={"paper_choice": "l doubled from 64 to 128 to exploit "
                                 ">2x DFX's memory bandwidth"},
        notes=["Gen stages are bandwidth-bound, so the tile only matters "
               "once compute cycles approach the stream time; l=128 keeps "
               "compute safely below the 1.1 TB/s stream."],
    )


def redumax_ablation() -> ExperimentResult:
    """VPU softmax cycles with and without the fused row max."""
    vpu = VpuTiming()
    rows = []
    for ctx in (128, 512, 1024, 2048):
        elements = float(OPT_13B.num_heads * ctx)
        fused = vpu.cycles(isa.VpuSoftmax(dst="m1", src="m0", rowmax="v0"),
                           elements)
        plain = vpu.cycles(isa.VpuSoftmax(dst="m1", src="m0"), elements)
        rows.append({
            "context_len": ctx,
            "softmax_cycles_plain": plain,
            "softmax_cycles_fused": fused,
            "cycles_saved_pct": 100.0 * (plain - fused) / plain,
        })
    return ExperimentResult(
        experiment_id="ablation_redumax",
        title="REDUMAX fusion ablation: softmax cycles per attention",
        rows=rows,
        anchors={"paper_feature": "MPU_MASKEDMM_REDUMAX_PEA fuses the "
                                  "max pass into the matmul"},
    )


def batching_ablation() -> ExperimentResult:
    """Throughput/latency vs gen batch size on CXL-PNM and the GPU."""
    pnm = PnmPerfModel(CXLPNMDevice())
    gpu = GpuPerfModel(A100_40G)
    ctx = PAPER_INPUT_TOKENS + 512
    rows = []
    for batch in (1, 2, 4, 8, 16, 32, 64):
        stage = compact_batched_gen_stage(OPT_13B, ctx, batch)
        p = stage_result(f"b{batch}", stage, pnm)
        g = stage_result(f"b{batch}", stage, gpu)
        rows.append({
            "batch": batch,
            "pnm_step_ms": p.time_s * 1e3,
            "pnm_tokens_per_s": batch / p.time_s,
            "gpu_step_ms": g.time_s * 1e3,
            "gpu_tokens_per_s": batch / g.time_s,
        })
    max_batch = max_batch_for_memory(
        OPT_13B, CXLPNMDevice().memory_capacity, ctx)
    return ExperimentResult(
        experiment_id="ablation_batching",
        title="Batched generation (OPT-13B): weight streams amortized "
              "across requests",
        rows=rows,
        anchors={"cxl_pnm_max_batch_by_memory": max_batch},
        notes=["The 512 GB module holds vastly more concurrent KV caches "
               "than a 40 GB GPU — batching compounds the capacity "
               "advantage."],
    )


def quantization_ablation() -> ExperimentResult:
    """INT8 vs FP16 weights on the bandwidth-bound gen stage."""
    pnm = PnmPerfModel(CXLPNMDevice())
    rows = []
    for dtype_bytes, label in ((2, "FP16"), (1, "INT8")):
        config = OPT_13B.with_dtype(dtype_bytes) if dtype_bytes != 2 \
            else OPT_13B
        stage = InferenceTimer(config, pnm).gen_stage(
            PAPER_INPUT_TOKENS + 512)
        rows.append({
            "dtype": label,
            "param_gb": config.param_bytes / 1e9,
            "gen_token_ms": stage.time_s * 1e3,
            "tokens_per_s": 1.0 / stage.time_s,
        })
    speedup = rows[0]["gen_token_ms"] / rows[1]["gen_token_ms"]
    rows.append({"dtype": "INT8 speedup", "tokens_per_s": speedup})
    # Accuracy delta of the functional int8 path: teacher-forced top-1
    # agreement against the fp32 session on a small random-weight model
    # (both see identical prefixes, so disagreements measure rounding).
    from repro.llm.config import LLMConfig
    from repro.llm.reference import random_weights
    from repro.runtime.session import InferenceSession
    acc_config = LLMConfig(name="quant-acc", d_model=128, num_heads=8,
                           d_ff=512, num_layers=2, vocab_size=512,
                           max_seq_len=128)
    weights = random_weights(acc_config, seed=0)
    fp32 = InferenceSession(weights, simulate_timing=False)
    int8 = InferenceSession(weights, simulate_timing=False,
                            quantize="int8")
    prompt, steps = [11, 29, 3, 101, 7, 45], 80
    ref = fp32.generate(prompt, steps).tokens
    preds = [int8.generate(prompt, 1).tokens[0]]
    for token in ref[:-1]:
        preds.append(int8.extend([token], 1).tokens[0])
    agreement = sum(p == r for p, r in zip(preds, ref)) / steps
    rows.append({"dtype": "INT8 top-1 agreement",
                 "tokens_per_s": agreement})
    return ExperimentResult(
        experiment_id="ablation_quantization",
        title="Weight-quantization ablation on CXL-PNM (OPT-13B gen)",
        rows=rows,
        anchors={"expected": "~2x (gen stages are weight-bandwidth "
                             "bound; cf. LUT-GEMM)",
                 "accuracy": f"{steps}-step teacher-forced greedy "
                             "agreement, int8 vs fp32, small "
                             "random-weight model"},
    )


def moe_ablation() -> ExperimentResult:
    """A GPT-3-13B-based MoE: capacity on CXL-PNM vs GPUs needed."""
    device = CXLPNMDevice()
    rows: List[dict] = []
    for experts in (8, 16, 24):
        moe = MoEConfig(base=GPT3_13B, num_experts=experts, top_k=2)
        ops = moe_gen_stage_ops(moe, PAPER_INPUT_TOKENS + 512)
        stage = stage_result("gen", ops, PnmPerfModel(device))
        rows.append({
            "model": moe.name,
            "stored_params_B": moe.num_params / 1e9,
            "active_params_B": moe.active_params_per_token / 1e9,
            "capacity_amplification": moe.capacity_amplification,
            "fits_one_cxl_pnm": moe.param_bytes <= device.memory_capacity,
            "a100_40g_needed": -(-moe.param_bytes // int(40e9 * 0.94)),
            "pnm_gen_token_ms": stage.time_s * 1e3,
        })
    return ExperimentResult(
        experiment_id="ablation_moe",
        title="Mixture-of-Experts on CXL-PNM (§IX): capacity-heavy, "
              "bandwidth-light",
        rows=rows,
        anchors={"paper_context": "§IX cites MoE as the capacity-curbing "
                                  "direction"},
    )


def dma_buffer_ablation() -> ExperimentResult:
    """DMA staging-buffer size vs large-transfer efficiency."""
    device = CXLPNMDevice()
    transfer = 64e6  # one OPT-13B fc1 weight tile stream
    rows = []
    for buffer_kib in (64, 256, 1024, 4096):
        dma = DmaTiming(bandwidth=device.effective_memory_bandwidth,
                        buffer_bytes=buffer_kib * 1024)
        t = dma.transfer_time(transfer)
        rows.append({
            "buffer_KiB": buffer_kib,
            "transfer_ms": t * 1e3,
            "efficiency": transfer / t
            / device.effective_memory_bandwidth,
        })
    return ExperimentResult(
        experiment_id="ablation_dma_buffer",
        title="DMA buffer-size ablation (64 MB weight stream)",
        rows=rows,
        anchors={"table2_choice": "1 MB DMA buffers"},
    )


def parallelism_strategy_ablation() -> ExperimentResult:
    """Tensor vs pipeline parallelism for OPT-66B on eight GPUs.

    FasterTransformer offers both (§VII).  Tensor parallelism cuts
    single-token latency (every device works on every layer) at the cost
    of two all-reduces per layer; pipeline parallelism has the cheaper
    point-to-point hops but a token still visits every layer serially --
    throughput needs the pipeline kept full.
    """
    from repro.appliance.comm import GpuCommModel
    from repro.appliance.pipeline import PipelinePlan
    from repro.llm.config import OPT_66B

    gpu = GpuPerfModel(A100_40G)
    ctx = PAPER_INPUT_TOKENS + 512

    def nvlink_hop(payload: float) -> float:
        return 10e-6 + payload / (A100_40G.nvlink_bandwidth * 0.75)

    tp_timer = InferenceTimer(OPT_66B, gpu, tensor_parallel=8,
                              comm=GpuCommModel(A100_40G, OPT_66B, 8))
    tp_latency = tp_timer.gen_stage(ctx).time_s
    pp = PipelinePlan(config=OPT_66B, num_stages=8, model=gpu,
                      hop=nvlink_hop)
    rows = [
        {
            "strategy": "tensor parallel (TP=8)",
            "token_latency_ms": tp_latency * 1e3,
            "full_pipeline_tokens_per_s": 1.0 / tp_latency,
            "params_per_device_gb": OPT_66B.param_bytes / 8 / 1e9,
        },
        {
            "strategy": "pipeline parallel (PP=8)",
            "token_latency_ms": pp.token_latency(ctx) * 1e3,
            "full_pipeline_tokens_per_s": pp.steady_throughput(ctx),
            "params_per_device_gb": pp.params_per_device / 1e9,
        },
    ]
    return ExperimentResult(
        experiment_id="ablation_parallelism_strategy",
        title="Tensor vs pipeline parallelism (OPT-66B, 8x A100)",
        rows=rows,
        anchors={"paper_baseline": "FasterTransformer TP=8 (the Fig. 11 "
                                   "GPU configuration)"},
        notes=["TP wins single-stream latency; PP wins saturated "
               "throughput only when >= 8 requests keep the pipeline "
               "full."],
    )


def cxl_expansion_ablation() -> ExperimentResult:
    """What if the GPU kept parameters in plain CXL memory (no PNM)?

    A Type-3 expander solves the *capacity* problem (no host-DRAM paging)
    but every gen token still drags all weights over the x16 link -- the
    quantitative case for computing *near* the memory instead of merely
    attaching more of it.
    """
    from repro.cxl.link import GEN5_X16
    from repro.llm.config import OPT_30B
    import repro.perf.calibration as _cal

    pnm = PnmPerfModel(CXLPNMDevice())
    ctx = PAPER_INPUT_TOKENS + 512
    streamed = OPT_30B.param_bytes
    link_time = streamed / GEN5_X16.effective_bandwidth
    pnm_time = InferenceTimer(OPT_30B, pnm).gen_stage(ctx).time_s
    offload_time = streamed / _cal.PCIE_H2D_PAGEABLE_BYTES_S
    rows = [
        {"configuration": "GPU + host-DRAM offload (Fig. 3)",
         "gen_token_ms": offload_time * 1e3},
        {"configuration": "GPU + CXL Type-3 expander (what-if)",
         "gen_token_ms": link_time * 1e3},
        {"configuration": "CXL-PNM (compute near the memory)",
         "gen_token_ms": pnm_time * 1e3},
    ]
    return ExperimentResult(
        experiment_id="ablation_cxl_expansion",
        title="Memory expansion alone vs processing-near-memory "
              "(OPT-30B gen token)",
        rows=rows,
        notes=["The expander removes paging overheads but the x16 link "
               "(~50 GB/s effective) is still ~20x slower than computing "
               "against the module's 1.05 TB/s locally."],
    )


def run() -> ExperimentResult:
    """Bundle: run every ablation and merge the headline rows."""
    studies = [pe_array_ablation(), tile_dim_ablation(),
               redumax_ablation(), batching_ablation(),
               quantization_ablation(), moe_ablation(),
               dma_buffer_ablation(), parallelism_strategy_ablation(),
               cxl_expansion_ablation()]
    rows = []
    for study in studies:
        rows.append({"ablation": study.experiment_id,
                     "rows": len(study.rows),
                     "title": study.title})
    return ExperimentResult(
        experiment_id="ablations",
        title="Design-choice ablation suite (index)",
        rows=rows,
        notes=["Each study is callable individually from "
               "repro.experiments.ablations."],
    )
