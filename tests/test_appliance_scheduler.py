"""FCFS-exclusive baseline: the serving engine at ``max_batch=1``.

Each device serves one request at a time, in arrival order — the
paper's single-stream (batch 1) operating point.  Covers dispatch,
queueing, statistics and admission on a constant step model, the
Poisson arrival stream the baseline is offered, and a differential
check that a request's service time equals the analytical
``InferenceTimer`` latency of the same request.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerator import CXLPNMDevice
from repro.appliance import ContinuousBatchScheduler
from repro.errors import ConfigurationError
from repro.gpu import A100_40G
from repro.llm import (
    InferenceRequest,
    OPT_1_3B,
    peak_kv_bytes,
    sampled_workload,
    steady_arrivals,
    tiny_config,
)
from repro.obs import MetricsRegistry
from repro.perf.analytical import (
    BatchStepTimer,
    GpuPerfModel,
    InferenceTimer,
    PnmPerfModel,
)

CFG = tiny_config()
#: Device bytes for the parameters plus eight peak KVs of a 1+1 request.
MEMORY = CFG.param_bytes + 8 * peak_kv_bytes(CFG, 1, 1)


class ConstStep:
    """A one-token request takes exactly its prefill: ``latency``."""

    def __init__(self, latency):
        self.latency = latency

    def prefill_s(self, input_len):
        return self.latency

    def decode_step_s(self, batch, context_len):
        return self.latency


def _fcfs(latency, num_devices=1, memory=MEMORY, **kwargs):
    return ContinuousBatchScheduler(ConstStep(latency), CFG, memory,
                                    max_batch=1, num_devices=num_devices,
                                    **kwargs)


def _requests(n):
    return [InferenceRequest(1, 1, request_id=i) for i in range(n)]


class TestScheduler:
    def test_single_instance_serializes(self):
        stats = _fcfs(1.0).run(_requests(4))
        assert stats.makespan_s == pytest.approx(4.0)
        finishes = sorted(c.finish_s for c in stats.completed)
        assert finishes == pytest.approx([1.0, 2.0, 3.0, 4.0])

    def test_instances_parallelize(self):
        stats = _fcfs(1.0, num_devices=4).run(_requests(4))
        assert stats.makespan_s == pytest.approx(1.0)

    def test_queue_wait_accumulates(self):
        stats = _fcfs(2.0).run(_requests(3))
        waits = sorted(c.queue_wait_s for c in stats.completed)
        assert waits == pytest.approx([0.0, 2.0, 4.0])

    def test_arrivals_respected(self):
        stats = _fcfs(1.0).run(_requests(2), arrival_times=[0.0, 10.0])
        assert stats.completed[-1].start_s == pytest.approx(10.0)
        assert stats.completed[-1].queue_wait_s == 0.0

    def test_utilization_bounds(self):
        stats = _fcfs(1.0, num_devices=2).run(_requests(5))
        assert 0.0 < stats.instance_utilization <= 1.0

    def test_percentiles_ordered(self):
        stats = _fcfs(0.5).run(_requests(20))
        assert stats.p50_latency_s <= stats.p95_latency_s
        assert stats.mean_latency_s > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            _fcfs(1.0, num_devices=0)
        scheduler = _fcfs(1.0)
        with pytest.raises(ConfigurationError):
            scheduler.run([])
        with pytest.raises(ConfigurationError):
            scheduler.run([InferenceRequest(1, 1)], arrival_times=[0, 1])

    def test_fcfs_stable_under_tied_arrivals(self):
        """Equal arrival times must not reorder requests: completion
        order on one instance follows submission order."""
        stats = _fcfs(1.0).run(_requests(8), arrival_times=[0.0] * 8)
        order = [c.request.request_id
                 for c in sorted(stats.completed,
                                 key=lambda c: c.finish_s)]
        assert order == list(range(8))


class TestAdmission:
    """Infeasible requests are rejected, never served with fake latency."""

    def test_oversize_request_rejected(self):
        # input + output exceed the tiny config's max_seq_len of 64.
        good = InferenceRequest(4, 4, request_id=0)
        bad = InferenceRequest(60, 10, request_id=1)
        stats = _fcfs(1.0).run([good, bad])
        assert [c.request.request_id for c in stats.completed] == [0]
        (rej,) = stats.rejected
        assert rej.request.request_id == 1
        assert "max_seq_len" in rej.reason
        assert stats.as_dict()["rejected"] == 1.0

    def test_kv_overflow_rejected(self):
        memory = CFG.param_bytes + CFG.kv_bytes_per_token()
        stats = _fcfs(1.0, memory=memory).run(
            [InferenceRequest(4, 4, request_id=0)])
        assert not stats.completed
        assert "memory" in stats.rejected[0].reason

    def test_all_rejected_reports_zeros(self):
        stats = _fcfs(1.0).run([InferenceRequest(60, 10, request_id=i)
                                for i in range(3)])
        assert stats.makespan_s == 0.0
        assert stats.mean_latency_s == 0.0
        assert stats.p95_latency_s == 0.0
        assert stats.mean_queue_wait_s == 0.0
        assert stats.throughput_tokens_per_s == 0.0
        assert stats.instance_utilization == 0.0
        for value in stats.as_dict().values():
            assert value == value  # no NaNs

    def test_rejection_counter(self):
        metrics = MetricsRegistry()
        _fcfs(1.0, metrics=metrics).run(
            [InferenceRequest(60, 10), InferenceRequest(4, 4)])
        assert metrics.counter("scheduler.rejected").value == 1


class TestQueueDepthGauge:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 20),
           rate=st.floats(0.5, 50.0),
           latency=st.floats(0.01, 2.0),
           instances=st.integers(1, 4),
           seed=st.integers(0, 100))
    def test_never_negative(self, n, rate, latency, instances, seed):
        metrics = MetricsRegistry()
        _fcfs(latency, num_devices=instances, metrics=metrics).run(
            _requests(n), steady_arrivals(n, rate, seed=seed))
        gauge = metrics.gauge("scheduler.queue_depth")
        assert gauge.min >= 0
        assert gauge.max <= n

    def test_tied_arrivals_stay_non_negative(self):
        metrics = MetricsRegistry()
        _fcfs(1.0, num_devices=2, metrics=metrics).run(
            _requests(6), arrival_times=[0.0] * 6)
        assert metrics.gauge("scheduler.queue_depth").min >= 0


class TestTimerService:
    """The baseline's service time is the analytical request latency."""

    @staticmethod
    def _baseline(perf, num_devices=1):
        return ContinuousBatchScheduler(
            BatchStepTimer(OPT_1_3B, perf, context_quantum=1), OPT_1_3B,
            CXLPNMDevice().memory_capacity, max_batch=1,
            num_devices=num_devices)

    def test_longer_requests_take_longer(self):
        baseline = self._baseline(PnmPerfModel(CXLPNMDevice()))
        short, long = (baseline.run([InferenceRequest(16, out)])
                       .completed[0] for out in (8, 64))
        assert long.finish_s - long.start_s > short.finish_s - short.start_s

    def test_end_to_end_with_sampled_workload(self):
        requests = sampled_workload(12, seed=5, mean_output=32,
                                    max_total=512)
        stats = self._baseline(PnmPerfModel(CXLPNMDevice()),
                               num_devices=4).run(
            requests, steady_arrivals(len(requests), 50.0))
        assert len(stats.completed) == 12
        assert stats.throughput_tokens_per_s > 0

    @pytest.mark.parametrize("perf", [PnmPerfModel(CXLPNMDevice()),
                                      GpuPerfModel(A100_40G)],
                             ids=["pnm", "gpu"])
    def test_service_time_is_inference_timer_latency(self, perf):
        # Arrivals spaced past each request's latency, so nothing
        # queues: every request is one exclusive batch-1 run, which must
        # cost what InferenceTimer's exact per-context sum says.
        timer = InferenceTimer(OPT_1_3B, perf)
        requests = sampled_workload(10, seed=3, mean_output=48,
                                    max_total=512)
        exact = [timer.run(r.input_len, r.output_len, exact=True).latency_s
                 for r in requests]
        arrivals, t = [], 0.0
        for latency in exact:
            arrivals.append(t)
            t += 2.0 * latency
        stats = self._baseline(perf).run(requests, arrivals)
        assert [c.request.request_id for c in stats.completed] \
            == [r.request_id for r in requests]
        for c, latency in zip(stats.completed, exact):
            assert c.queue_wait_s == 0.0
            assert c.finish_s - c.start_s == pytest.approx(latency,
                                                           rel=1e-9)


class TestPoissonArrivals:
    """``steady_arrivals``: the homogeneous Poisson stream."""

    def test_monotone_and_deterministic(self):
        a = steady_arrivals(50, 10.0, seed=1)
        b = steady_arrivals(50, 10.0, seed=1)
        assert a == b
        assert all(x < y for x, y in zip(a, a[1:]))

    def test_rate_roughly_respected(self):
        arrivals = steady_arrivals(2000, 100.0, seed=2)
        assert arrivals[-1] == pytest.approx(20.0, rel=0.2)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            steady_arrivals(0, 1.0)
        with pytest.raises(ConfigurationError):
            steady_arrivals(5, 0.0)
