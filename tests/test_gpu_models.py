"""GPU baseline: device specs, kernel model, offload, NVLink all-reduce, power."""

import pytest

from repro.appliance import GpuCommModel, ParallelismPlan, params_per_device
from repro.appliance.comm import NvlinkAllReduce
from repro.errors import ParallelismError, SimulationError
from repro.gpu import (
    A100_40G,
    A100_80G,
    GpuKernelModel,
    GpuPowerModel,
    OffloadModel,
)
from repro.llm import OPT_13B, OPT_30B, OPT_66B, OPT_6_7B
from repro.llm.graph import compact_gen_stage, compact_sum_stage, per_op
from repro.llm.ops import matmul_op, vector_op, OpKind
import repro.perf.calibration as cal


class TestSpecs:
    def test_a100_datasheet(self):
        assert A100_40G.memory_bandwidth == pytest.approx(1.555e12)
        assert A100_40G.fp16_tensor_flops == 312e12
        assert A100_40G.price_usd == 10_000.0

    def test_fits_leaves_headroom(self):
        assert A100_40G.fits(int(39e9))
        assert not A100_40G.fits(int(41e9))

    def test_opt13b_fits_single_a100(self):
        assert A100_40G.fits(OPT_13B.param_bytes)

    def test_opt30b_overflows_single_a100(self):
        assert not A100_40G.fits(OPT_30B.param_bytes)
        assert A100_80G.fits(OPT_30B.param_bytes)


class TestKernelModel:
    def test_gemm_efficiency_grows_with_rows(self):
        model = GpuKernelModel(A100_40G)
        assert model.gemm_flop_efficiency(1) \
            < model.gemm_flop_efficiency(64) \
            < model.gemm_flop_efficiency(4096) <= cal.GPU_GEMM_MAX_EFF

    def test_gemv_efficiency_grows_with_stream_size(self):
        model = GpuKernelModel(A100_40G)
        assert model.gemv_bandwidth_efficiency(1e6) \
            < model.gemv_bandwidth_efficiency(1e9)

    def test_every_op_pays_launch_overhead(self):
        model = GpuKernelModel(A100_40G)
        tiny = vector_op("t", OpKind.GELU, elements=1, dtype_bytes=2)
        assert model.op_time(tiny) >= model.launch_overhead_s

    def test_gemv_time_bandwidth_bound(self):
        model = GpuKernelModel(A100_40G)
        op = matmul_op("v", m=1, n=5120, k=5120, dtype_bytes=2)
        t = model.op_time(op) - model.launch_overhead_s
        implied_bw = op.total_bytes / t
        assert implied_bw < A100_40G.memory_bandwidth

    def test_utilization_metrics(self):
        model = GpuKernelModel(A100_40G)
        gemm = matmul_op("g", m=64, n=512, k=512, dtype_bytes=2)
        gemv = matmul_op("v", m=1, n=512, k=512, dtype_bytes=2)
        assert model.op_reported_utilization(gemm) > \
            model.op_reported_utilization(gemv)
        assert 0 < model.op_flop_utilization(gemm) <= 1.0

    def test_invalid_shapes_rejected(self):
        model = GpuKernelModel(A100_40G)
        with pytest.raises(SimulationError):
            model.gemm_flop_efficiency(0)
        with pytest.raises(SimulationError):
            model.gemv_bandwidth_efficiency(0)


class TestOffload:
    def test_needed_only_when_overflowing(self):
        assert OffloadModel(spec=A100_40G, config=OPT_30B).is_needed
        assert not OffloadModel(spec=A100_40G, config=OPT_13B).is_needed

    def test_memcpy_dominates_for_opt30b(self):
        offload = OffloadModel(spec=A100_40G, config=OPT_30B)
        kernels = GpuKernelModel(A100_40G)
        stage = compact_gen_stage(OPT_30B, 128)
        assert offload.memcpy_fraction(stage, kernels) > 0.9

    def test_fitting_model_runs_at_kernel_speed(self):
        offload = OffloadModel(spec=A100_40G, config=OPT_13B)
        kernels = GpuKernelModel(A100_40G)
        stage = compact_gen_stage(OPT_13B, 128)
        kernel_time = sum(per_op(stage, kernels.op_time))
        assert offload.stage_time(stage, kernels) == pytest.approx(
            kernel_time)
        assert offload.memcpy_fraction(stage, kernels) == 0.0

    def test_pinned_faster_than_pageable(self):
        kernels = GpuKernelModel(A100_40G)
        stage = compact_sum_stage(OPT_30B, 64)
        pageable = OffloadModel(spec=A100_40G, config=OPT_30B)
        pinned = OffloadModel(spec=A100_40G, config=OPT_30B,
                              h2d_bandwidth=cal.PCIE_H2D_PINNED_BYTES_S)
        assert pinned.stage_time(stage, kernels) \
            < pageable.stage_time(stage, kernels) / 2

    def test_resident_fraction_bounds(self):
        offload = OffloadModel(spec=A100_40G, config=OPT_30B)
        assert 0.0 < offload.resident_fraction < 1.0


class TestMultiGpu:
    def test_allreduce_latency_floor(self):
        ar = NvlinkAllReduce(A100_40G, 8)
        assert ar.time(0) == pytest.approx(cal.NVLINK_ALLREDUCE_LATENCY_S)

    def test_allreduce_scales_with_payload(self):
        ar = NvlinkAllReduce(A100_40G, 8)
        assert ar.time(1e9) > 100 * ar.time(1e6) / 200

    def test_allreduce_needs_two_devices(self):
        with pytest.raises(ParallelismError):
            NvlinkAllReduce(A100_40G, 1)

    def test_opt66b_fits_only_split_8_ways(self):
        assert not A100_40G.fits(params_per_device(OPT_66B, 2))
        assert A100_40G.fits(params_per_device(OPT_66B, 8))

    def test_tp_must_divide_heads(self):
        with pytest.raises(ParallelismError, match="heads"):
            ParallelismPlan(1, 5).validate_for(OPT_66B, 5,
                                               A100_40G.memory_bytes)

    def test_comm_time_zero_for_single_device(self):
        assert GpuCommModel(A100_40G, OPT_6_7B, 1)(64) == 0.0

    def test_comm_time_proportional_to_layers(self):
        t8 = GpuCommModel(A100_40G, OPT_66B, 8)(1)
        per_layer = NvlinkAllReduce(A100_40G, 8).time(
            OPT_66B.d_model * OPT_66B.dtype_bytes)
        assert t8 == pytest.approx(OPT_66B.num_layers * 2 * per_layer)


class TestPower:
    def test_anchored_to_paper_measurement(self):
        # Bandwidth-bound OPT-13B inference measured 253 W (§VIII-A).
        power = GpuPowerModel(A100_40G).power_watts(0.005, 0.72)
        assert power == pytest.approx(253.0, rel=0.05)

    def test_capped_at_tdp(self):
        assert GpuPowerModel(A100_40G).power_watts(1.0, 1.0) \
            <= A100_40G.tdp_watts

    def test_bad_utilization_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            GpuPowerModel(A100_40G).power_watts(2.0, 0.0)
