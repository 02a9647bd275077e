"""Calibrated behavioural constants, each with its provenance.

The paper's results come from measured hardware (DGX A100 + the FPGA
prototype) and a validated cycle simulator.  Reproducing the *shape* of
those results analytically requires a handful of behavioural constants
that datasheets do not give: achievable bandwidth fractions, kernel-launch
overheads, and power operating points.  Every constant below records what
it models and which paper observation anchors it.  Benchmarks and tests
compare model output against the paper's headline ratios, not absolute
numbers.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# GPU execution behaviour
# --------------------------------------------------------------------------

#: Fixed CPU-side cost per CUDA kernel launch / FasterTransformer op.
#: Anchors: Fig. 10's growing CXL-PNM latency advantage on small OPT models
#: (59%/38%/2% for 1.3B/2.7B/6.7B) is dominated by per-kernel overheads
#: that do not shrink with model size.
GPU_KERNEL_LAUNCH_S = 12e-6

#: Asymptotic fraction of peak HBM bandwidth a very large GEMV stream
#: sustains on the GPU (realized efficiency is derated by stream size via
#: ``GPU_GEMV_SIZE_HALF_BYTES`` and lands at 0.85-0.95 for the weight
#: matrices of the evaluated models).  Anchor: Fig. 10's 10.8%-lower
#: CXL-PNM throughput on OPT-13B requires the A100's achieved gen-stage
#: bandwidth to exceed CXL-PNM's ~1.05 TB/s effective stream.
GPU_GEMV_BW_EFF = 0.98

#: GEMV bandwidth efficiency halves when the streamed matrix shrinks to
#: this many bytes (cache/launch granularity effects under tensor
#: parallelism).
GPU_GEMV_SIZE_HALF_BYTES = 6e6

#: Peak fraction of tensor-core FLOPS a well-shaped large GEMM reaches.
GPU_GEMM_MAX_EFF = 0.85

#: GEMM efficiency half-saturation row count: efficiency ~ max_eff *
#: m / (m + this).  Anchor: sum-stage GEMMs at L_in = 64 run far below
#: peak; Fig. 4a's 94% figure is occupancy, not FLOP efficiency.
GPU_GEMM_HALF_ROWS = 64.0

#: Bandwidth efficiency of elementwise/normalization kernels.
GPU_VECTOR_BW_EFF = 0.75

# --------------------------------------------------------------------------
# Host-offload streaming (Fig. 3 behaviour)
# --------------------------------------------------------------------------

#: Achieved host-to-device copy bandwidth for pageable PyTorch-style
#: transfers (layer-at-a-time, unpinned staging).  Anchor: Fig. 3's ~99%
#: memcpy share for OPT-30B on a 40 GB A100 and the §VIII single-device
#: OPT-30B result (~138.8x CXL-PNM latency advantage) imply an effective
#: H2D rate of ~3 GB/s, far below the PCIe 4.0 peak of 32 GB/s.
PCIE_H2D_PAGEABLE_BYTES_S = 3e9

#: Pinned-buffer H2D rate (used by the offload ablation).
PCIE_H2D_PINNED_BYTES_S = 24e9

# --------------------------------------------------------------------------
# GPU multi-device communication
# --------------------------------------------------------------------------

#: Base latency of one NCCL all-reduce across NVLink (small payloads).
NVLINK_ALLREDUCE_LATENCY_S = 20e-6

#: Achievable fraction of NVLink bandwidth during ring all-reduce.
NVLINK_BW_EFF = 0.75

# --------------------------------------------------------------------------
# GPU power
# --------------------------------------------------------------------------

#: A100 board power when actively clocked but stalled on memory.
#: Anchor: the paper's measured 253 W for OPT-13B inference (§VIII-A),
#: a bandwidth-bound workload: 180 + 0.72 * 100 ~= 252 W.
GPU_ACTIVE_IDLE_WATTS = 180.0

#: Additional power at full memory-bandwidth utilization.
GPU_MEM_MAX_WATTS = 100.0

#: Additional power at full tensor-core utilization (capped by TDP).
GPU_CORE_MAX_WATTS = 160.0

# --------------------------------------------------------------------------
# CXL-PNM execution behaviour
# --------------------------------------------------------------------------

#: Per-instruction dispatch overhead of the accelerator control unit,
#: beyond the modelled pipeline-fill cycles.
PNM_INSTRUCTION_OVERHEAD_S = 0.2e-6

#: Software cost for the host to orchestrate one device-to-device DMA
#: (doorbell write, descriptor, completion) on top of the link time.
#: Anchor: Fig. 11's MP=8 configuration stays 23% faster than the GPU
#: appliance despite 128 boundary transfers per token.
CXL_D2D_SW_OVERHEAD_S = 10e-6

# --------------------------------------------------------------------------
# Derived traffic quantities
# --------------------------------------------------------------------------


def weight_stream_bytes(num_params: float, elem_bytes: int) -> float:
    """Parameter bytes streamed per generated token at ``elem_bytes``.

    The gen stage reads every parameter once per token, so this is the
    bandwidth-bound floor of decode traffic.  Parameterized by element
    size so fp32/fp16/int8 share one code path: the int8 ablation calls
    it with ``elem_bytes=1`` instead of assuming a fixed-width constant.
    """
    if elem_bytes < 1:
        raise ValueError(f"elem_bytes must be >= 1, got {elem_bytes}")
    return float(num_params) * elem_bytes


# --------------------------------------------------------------------------
# Paper anchor values (targets the benchmarks print alongside results)
# --------------------------------------------------------------------------

PAPER_ANCHORS = {
    "fig10_opt13b_throughput_delta": -0.108,
    "fig10_opt13b_energy_eff_ratio": 2.9,
    "fig10_gpu_power_watts": 253.0,
    "fig10_pnm_power_watts": 77.1,
    "fig10_small_model_latency_delta": {"OPT-1.3B": -0.59,
                                        "OPT-2.7B": -0.38,
                                        "OPT-6.7B": -0.02},
    "fig10_opt30b_latency_ratio": 138.8,
    "fig10_opt30b_energy_ratio": 127.9,
    "fig11_dp8_throughput_delta": 0.53,
    "fig11_dp8_energy_ratio": 4.4,
    "fig11_dp4mp2_latency_vs_dp8": -0.44,
    "fig11_dp4mp2_throughput_delta": 0.36,
    "fig11_dp4mp2_energy_ratio": 3.3,
    "fig11_mp8_latency_delta": -0.23,
    "fig11_mp8_throughput_delta": 0.31,
    "fig11_mp8_energy_ratio": 2.9,
    "table3_gpu_tokens_per_day": 3.7e6,
    "table3_pnm_tokens_per_day": 5.65e6,
    "table3_gpu_kwh_per_day": 43.2,
    "table3_pnm_kwh_per_day": 15.4,
    "table3_gpu_cost_per_day": 4.47,
    "table3_pnm_cost_per_day": 1.59,
}
