"""The DFX baseline accelerator and the PE-array ablation behaviour."""

import pytest

from repro.accelerator import CXLPNMDevice
from repro.accelerator.dfx import (
    DFX_SPEC,
    HBM2_DFX,
    dfx_device,
    dfx_memory,
)
from repro.llm import OPT_6_7B
from repro.perf.analytical import InferenceTimer, PnmPerfModel


class TestDfxConfiguration:
    def test_hbm2_bandwidth_near_paper_460gb(self):
        assert dfx_memory().peak_bandwidth == pytest.approx(460.8e9)

    def test_dfx_memory_capacity_8gb(self):
        assert dfx_memory().capacity_bytes == pytest.approx(8e9)

    def test_dfx_has_no_pe_array(self):
        assert not DFX_SPEC.has_pe_array
        assert DFX_SPEC.peak_gemm_flops == 0.0

    def test_dfx_tree_peak_half_of_cxl_pnm(self):
        assert DFX_SPEC.peak_gemv_flops == pytest.approx(
            CXLPNMDevice().spec.peak_gemv_flops / 2)

    def test_timing_uses_tree_for_gemm(self):
        timing = dfx_device().mpu_timing()
        assert timing.gemm_via_tree
        # A GEMM costs ~m GEMV sweeps.
        one = timing.gemv_cycles(1024, 1024)
        swept = timing.gemm_cycles(8, 1024, 1024)
        assert swept == pytest.approx(
            timing.pipeline_fill_cycles
            + 8 * (one - timing.pipeline_fill_cycles))

    def test_device_timing_derived_from_spec(self):
        assert dfx_device().mpu_timing().gemm_via_tree
        assert not CXLPNMDevice().mpu_timing().gemm_via_tree


class TestDfxBehaviour:
    """The paper's §V-C motivation, as measurable behaviour."""

    def test_sum_stage_dominates_dfx_at_long_inputs(self):
        dfx = PnmPerfModel(dfx_device())
        timer = InferenceTimer(OPT_6_7B, dfx)
        result = timer.run(512, 256)
        assert result.sum_time_s > result.gen_time_s * 0.5

    def test_pe_array_accelerates_sum_stage(self):
        dfx = InferenceTimer(OPT_6_7B, PnmPerfModel(dfx_device()))
        pnm = InferenceTimer(OPT_6_7B, PnmPerfModel(CXLPNMDevice()))
        assert dfx.sum_stage(256).time_s > 5 * pnm.sum_stage(256).time_s

    def test_gen_stage_gap_tracks_bandwidth(self):
        """For GEMV-bound gen stages DFX loses by roughly the bandwidth
        ratio (1.1 TB/s vs 460 GB/s), not by compute."""
        dfx_dev, pnm_dev = dfx_device(), CXLPNMDevice()
        dfx = InferenceTimer(OPT_6_7B, PnmPerfModel(dfx_dev))
        pnm = InferenceTimer(OPT_6_7B, PnmPerfModel(pnm_dev))
        ratio = dfx.gen_stage(576).time_s / pnm.gen_stage(576).time_s
        bw_ratio = pnm_dev.effective_memory_bandwidth \
            / dfx_dev.effective_memory_bandwidth
        assert ratio == pytest.approx(bw_ratio, rel=0.2)

    def test_opt13b_does_not_fit_dfx_memory(self):
        from repro.llm import OPT_13B
        assert OPT_13B.param_bytes > dfx_memory().capacity_bytes
