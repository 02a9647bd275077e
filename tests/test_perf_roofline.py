"""Roofline analysis: ceilings, ridge points, stage placement."""

import pytest
from hypothesis import given, strategies as st

from repro.accelerator import CXLPNMDevice
from repro.errors import ConfigurationError
from repro.gpu import A100_40G
from repro.llm import OPT_13B
from repro.llm.graph import compact_gen_stage, per_op
from repro.perf.analytical import GpuPerfModel, PnmPerfModel
from repro.perf.roofline import (
    Roofline,
    device_roofline,
    roofline_report,
    stage_intensity,
)


@pytest.fixture(scope="module")
def pnm_roof():
    return device_roofline(PnmPerfModel(CXLPNMDevice()))


@pytest.fixture(scope="module")
def gpu_roof():
    return device_roofline(GpuPerfModel(A100_40G))


class TestRoofline:
    def test_ridge_points(self, pnm_roof, gpu_roof):
        # A100: 312T / 1.555T ~ 200 FLOPs/B; CXL-PNM: 8.2T / 1.088T ~ 7.5.
        assert gpu_roof.ridge_intensity == pytest.approx(200, rel=0.1)
        assert pnm_roof.ridge_intensity == pytest.approx(7.5, rel=0.1)

    def test_attainable_clamps_at_peak(self, gpu_roof):
        assert gpu_roof.attainable_flops(1e9) == gpu_roof.peak_flops

    def test_attainable_linear_below_ridge(self, gpu_roof):
        assert gpu_roof.attainable_flops(1.0) == pytest.approx(
            gpu_roof.peak_bandwidth)

    def test_bound_classification(self, pnm_roof):
        assert pnm_roof.bound_of(1.0) == "memory"
        assert pnm_roof.bound_of(100.0) == "compute"

    def test_curve_monotone(self, pnm_roof):
        values = [pnm_roof.attainable_flops(i)
                  for i in (0.125, 1.0, 7.5, 64.0, 1024.0)]
        assert values == sorted(values)
        assert values[-1] == pnm_roof.peak_flops

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Roofline(name="x", peak_flops=0, peak_bandwidth=1)

    @given(st.floats(0.0, 1e6))
    def test_attainable_never_exceeds_peak(self, intensity):
        roof = Roofline(name="h", peak_flops=1e12, peak_bandwidth=1e11)
        assert roof.attainable_flops(intensity) <= roof.peak_flops


class TestStagePlacement:
    def test_gen_stage_is_memory_bound_everywhere(self):
        """The paper's core roofline fact: gen-stage intensity ~1 FLOP/B,
        below both devices' ridge points."""
        intensity = stage_intensity(OPT_13B, 576)
        assert intensity < 2.0
        report = roofline_report(OPT_13B, [GpuPerfModel(A100_40G),
                                           PnmPerfModel(CXLPNMDevice())])
        assert all(row["gen_bound"] == "memory" for row in report)

    def test_sum_stage_compute_bound_on_pnm_only(self):
        """At L_in = 64, the sum stage exceeds CXL-PNM's ridge but not
        the A100's — why the GPU keeps a small edge on Fig. 10."""
        report = roofline_report(OPT_13B, [GpuPerfModel(A100_40G),
                                           PnmPerfModel(CXLPNMDevice())])
        by_device = {row["device"]: row for row in report}
        assert by_device["CXL-PNM"]["sum_bound"] == "compute"
        assert by_device["A100-40G"]["sum_bound"] == "memory"

    def test_gen_attainable_tracks_bandwidth_ratio(self):
        report = roofline_report(OPT_13B, [GpuPerfModel(A100_40G),
                                           PnmPerfModel(CXLPNMDevice())])
        by_device = {row["device"]: row for row in report}
        ratio = by_device["A100-40G"]["gen_attainable_tflops"] \
            / by_device["CXL-PNM"]["gen_attainable_tflops"]
        assert ratio == pytest.approx(1.555 / 1.088, rel=0.02)

    def test_every_gen_matmul_is_memory_bound(self, pnm_roof):
        matmuls = [op for op in per_op(compact_gen_stage(OPT_13B, 576),
                                       lambda op: op)
                   if op.kind.is_matmul]
        assert matmuls
        assert all(pnm_roof.bound_of(op.arithmetic_intensity) == "memory"
                   for op in matmuls)
