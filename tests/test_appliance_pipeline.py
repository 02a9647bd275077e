"""Pipeline-parallel plans: latency, throughput, bubbles."""

import pytest

from repro.appliance.pipeline import PipelinePlan
from repro.errors import ParallelismError
from repro.gpu import A100_40G
from repro.llm import OPT_66B
from repro.perf.analytical import GpuPerfModel


def _nvlink_hop(payload_bytes: float) -> float:
    # One p2p send: half an all-reduce's latency plus wire time.
    return 10e-6 + payload_bytes / (600e9 * 0.75)


@pytest.fixture(scope="module")
def pp8():
    return PipelinePlan(config=OPT_66B, num_stages=8,
                        model=GpuPerfModel(A100_40G), hop=_nvlink_hop)


class TestPlan:
    def test_layers_split_evenly(self, pp8):
        assert pp8.layers_per_stage == 8
        assert pp8.params_per_device == pytest.approx(
            OPT_66B.num_layers * OPT_66B.layer_param_bytes / 8)

    def test_indivisible_layers_rejected(self):
        with pytest.raises(ParallelismError):
            PipelinePlan(config=OPT_66B, num_stages=7,
                         model=GpuPerfModel(A100_40G), hop=_nvlink_hop)

    def test_zero_stages_rejected(self):
        with pytest.raises(ParallelismError):
            PipelinePlan(config=OPT_66B, num_stages=0,
                         model=GpuPerfModel(A100_40G), hop=_nvlink_hop)


class TestTiming:
    def test_token_latency_near_full_model_time(self, pp8):
        """Pipelining does not cut single-token latency: the token still
        visits every layer."""
        single = PipelinePlan(config=OPT_66B, num_stages=1,
                              model=GpuPerfModel(A100_40G),
                              hop=_nvlink_hop)
        assert pp8.token_latency(576) >= single.token_latency(576) * 0.95

    def test_steady_throughput_scales_with_stages(self, pp8):
        """A full pipeline serves ~num_stages tokens concurrently."""
        single = PipelinePlan(config=OPT_66B, num_stages=1,
                              model=GpuPerfModel(A100_40G),
                              hop=_nvlink_hop)
        speedup = pp8.steady_throughput(576) / single.steady_throughput(576)
        assert speedup == pytest.approx(8.0, rel=0.1)

    def test_bubble_fraction(self, pp8):
        assert pp8.pipeline_bubble_fraction(1) == pytest.approx(7 / 8)
        assert pp8.pipeline_bubble_fraction(8) == 0.0
        assert pp8.pipeline_bubble_fraction(20) == 0.0
        with pytest.raises(ParallelismError):
            pp8.pipeline_bubble_fraction(0)

    def test_hop_cost_included(self):
        slow_hop = PipelinePlan(config=OPT_66B, num_stages=8,
                                model=GpuPerfModel(A100_40G),
                                hop=lambda b: 1e-3)
        fast_hop = PipelinePlan(config=OPT_66B, num_stages=8,
                                model=GpuPerfModel(A100_40G),
                                hop=lambda b: 0.0)
        assert slow_hop.token_latency(576) \
            == pytest.approx(fast_hop.token_latency(576) + 7e-3, rel=0.01)
