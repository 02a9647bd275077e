"""Continuous-batching engine: admission control, timelines, obs."""

import pytest

from repro.accelerator import CXLPNMDevice
from repro.appliance import ContinuousBatchScheduler
from repro.errors import ConfigurationError
from repro.llm import (
    OPT_1_3B,
    InferenceRequest,
    max_batch_for_memory,
    peak_kv_bytes,
    steady_arrivals,
    tiny_config,
)
from repro.obs import MetricsRegistry, Tracer, observe
from repro.perf.analytical import (
    BatchStepTimer,
    InferenceTimer,
    PnmPerfModel,
)


class ConstStep:
    """Hand-computable step model: fixed prefill and decode costs."""

    def __init__(self, prefill=1.0, decode=0.5):
        self.prefill = prefill
        self.decode = decode
        self.decode_calls = []

    def prefill_s(self, input_len):
        return self.prefill

    def decode_step_s(self, batch, context_len):
        self.decode_calls.append((batch, context_len))
        return self.decode


CFG = tiny_config()


def _memory_for(batch, input_len=4, output_len=3):
    """Device bytes fitting params plus exactly ``batch`` peak KVs."""
    return CFG.param_bytes + batch * peak_kv_bytes(CFG, input_len,
                                                   output_len)


def _requests(n, input_len=4, output_len=3):
    return [InferenceRequest(input_len, output_len, request_id=i)
            for i in range(n)]


class TestTimeline:
    def test_closed_batch_hand_computed(self):
        """4 requests at t=0: one prefill iteration, then 2 decode steps."""
        step = ConstStep(prefill=1.0, decode=0.5)
        engine = ContinuousBatchScheduler(step, CFG, _memory_for(8))
        stats = engine.run(_requests(4))
        # Prefills run back-to-back in the first iteration (4s), then
        # output_len - 1 = 2 shared decode steps of 0.5s each.
        assert stats.makespan_s == pytest.approx(4.0 + 2 * 0.5)
        assert stats.num_iterations == 3
        assert stats.max_occupancy == 4
        # First tokens appear at the end of each request's own prefill.
        firsts = sorted(c.first_token_s for c in stats.completed)
        assert firsts == pytest.approx([1.0, 2.0, 3.0, 4.0])
        # Decode steps saw the whole batch at the tiny config's context.
        assert step.decode_calls == [(4, 5), (4, 6)]

    def test_single_request_tbt_is_decode_time(self):
        step = ConstStep(prefill=2.0, decode=0.25)
        engine = ContinuousBatchScheduler(step, CFG, _memory_for(8))
        stats = engine.run(_requests(1, output_len=5))
        (c,) = stats.completed
        assert c.ttft_s == pytest.approx(2.0)
        assert c.mean_tbt_s == pytest.approx(0.25)
        assert stats.mean_tbt_s == pytest.approx(0.25)

    def test_idle_gap_jumps_to_arrival(self):
        step = ConstStep(prefill=1.0, decode=0.5)
        engine = ContinuousBatchScheduler(step, CFG, _memory_for(8))
        stats = engine.run(_requests(2), arrival_times=[0.0, 100.0])
        late = max(stats.completed, key=lambda c: c.finish_s)
        assert late.start_s == pytest.approx(100.0)
        assert late.queue_wait_s == 0.0

    def test_deterministic(self):
        arrivals = steady_arrivals(6, 1.0, seed=4)
        runs = []
        for _ in range(2):
            engine = ContinuousBatchScheduler(ConstStep(), CFG,
                                              _memory_for(8))
            runs.append(engine.run(_requests(6), arrivals).as_dict())
        assert runs[0] == runs[1]


class TestAdmissionControl:
    def test_kv_budget_caps_occupancy(self):
        """Only 2 peak KVs fit: occupancy must never exceed 2."""
        memory = _memory_for(2)
        engine = ContinuousBatchScheduler(ConstStep(), CFG, memory)
        stats = engine.run(_requests(6))
        assert stats.max_occupancy == 2
        assert len(stats.completed) == 6
        # Homogeneous requests: the peak-reservation rule equals the
        # max_batch_for_memory capacity at the common total context.
        assert stats.max_occupancy == max_batch_for_memory(CFG, memory, 7)

    def test_max_batch_parameter(self):
        engine = ContinuousBatchScheduler(ConstStep(), CFG,
                                          _memory_for(8), max_batch=1)
        stats = engine.run(_requests(3))
        assert stats.max_occupancy == 1
        assert len(stats.completed) == 3

    def test_fcfs_order_preserved_under_pressure(self):
        engine = ContinuousBatchScheduler(ConstStep(), CFG,
                                          _memory_for(1))
        stats = engine.run(_requests(4))
        starts = [c.start_s for c in sorted(
            stats.completed, key=lambda c: c.request.request_id)]
        assert starts == sorted(starts)

    def test_oversize_request_rejected(self):
        # input + output exceed the tiny config's max_seq_len of 64.
        bad = InferenceRequest(60, 10, request_id=7)
        engine = ContinuousBatchScheduler(ConstStep(), CFG, _memory_for(4))
        stats = engine.run([bad] + _requests(2))
        assert len(stats.completed) == 2
        (rej,) = stats.rejected
        assert rej.request.request_id == 7
        assert "max_seq_len" in rej.reason

    def test_kv_never_fits_rejected(self):
        memory = CFG.param_bytes + peak_kv_bytes(CFG, 4, 3) // 2
        engine = ContinuousBatchScheduler(ConstStep(), CFG, memory)
        stats = engine.run(_requests(2))
        assert not stats.completed
        assert len(stats.rejected) == 2
        assert all("memory" in r.reason for r in stats.rejected)
        # An all-rejected run is still reportable: zeros, not NaNs.
        assert stats.makespan_s == 0.0
        assert stats.mean_latency_s == 0.0
        assert stats.as_dict()["rejected"] == 2.0

    def test_params_overflow_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            ContinuousBatchScheduler(ConstStep(), CFG,
                                     CFG.param_bytes // 2)

    def test_validation(self):
        engine = ContinuousBatchScheduler(ConstStep(), CFG, _memory_for(2))
        with pytest.raises(ConfigurationError):
            engine.run([])
        with pytest.raises(ConfigurationError):
            engine.run(_requests(2), arrival_times=[0.0])
        with pytest.raises(ConfigurationError):
            ContinuousBatchScheduler(ConstStep(), CFG, _memory_for(2),
                                     max_batch=0)


class TestAnalyticalService:
    """The acceptance comparison on the real perf models, scaled down."""

    def test_beats_fcfs_exclusive_at_same_arrival_rate(self):
        device = CXLPNMDevice()
        perf = PnmPerfModel(device)
        requests = [InferenceRequest(16, 16, request_id=i)
                    for i in range(8)]
        rate = 4.0 / InferenceTimer(OPT_1_3B, perf).run(16, 16).latency_s
        arrivals = steady_arrivals(len(requests), rate, seed=1)
        step = BatchStepTimer(OPT_1_3B, perf)
        fcfs = ContinuousBatchScheduler(
            step, OPT_1_3B, device.memory_capacity, max_batch=1
        ).run(requests, arrivals)
        cont = ContinuousBatchScheduler(
            step, OPT_1_3B, device.memory_capacity).run(requests, arrivals)
        assert cont.throughput_tokens_per_s \
            > fcfs.throughput_tokens_per_s
        assert len(cont.completed) == len(requests)

    def test_step_timer_quantization_is_conservative(self):
        perf = PnmPerfModel(CXLPNMDevice())
        exact = BatchStepTimer(OPT_1_3B, perf, context_quantum=1)
        coarse = BatchStepTimer(OPT_1_3B, perf, context_quantum=64)
        for ctx in (17, 33, 100):
            assert coarse.decode_step_s(4, ctx) \
                >= exact.decode_step_s(4, ctx) * 0.999

    def test_step_timer_validation(self):
        perf = PnmPerfModel(CXLPNMDevice())
        with pytest.raises(ConfigurationError):
            BatchStepTimer(OPT_1_3B, perf, context_quantum=0)
        timer = BatchStepTimer(OPT_1_3B, perf)
        with pytest.raises(ConfigurationError):
            timer.decode_step_s(0, 16)
        with pytest.raises(ConfigurationError):
            timer.prefill_s(0)


class TestObservability:
    def _run(self, tracer=None, metrics=None):
        engine = ContinuousBatchScheduler(
            ConstStep(), CFG, _memory_for(2), tracer=tracer,
            metrics=metrics)
        arrivals = steady_arrivals(6, 2.0, seed=2)
        return engine.run(_requests(6), arrivals)

    def test_bit_identical_with_obs_on(self):
        bare = self._run()
        with observe():
            traced = self._run()
        assert bare.as_dict() == traced.as_dict()
        assert [(c.start_s, c.finish_s, c.first_token_s)
                for c in bare.completed] \
            == [(c.start_s, c.finish_s, c.first_token_s)
                for c in traced.completed]

    def test_occupancy_gauge_bounded(self):
        metrics = MetricsRegistry()
        self._run(metrics=metrics)
        gauge = metrics.gauge("scheduler.batch_occupancy")
        assert gauge.min >= 0
        assert gauge.max <= 2  # the KV admission cap

    def test_counters_and_histograms(self):
        metrics = MetricsRegistry()
        stats = self._run(metrics=metrics)
        assert metrics.counter("scheduler.admitted").value == 6
        assert metrics.histogram("scheduler.ttft_s").count == 6
        assert metrics.histogram("scheduler.tbt_s").count == 6
        assert metrics.counter("scheduler.prefills").value == 6
        assert metrics.counter("scheduler.decode_steps").value \
            == sum(c.request.output_len - 1 for c in stats.completed)

    def test_spans_on_tracks(self):
        tracer = Tracer()
        stats = self._run(tracer=tracer)
        sims = [s for s in tracer.spans if s.clock == "sim"]
        steps = [s for s in sims if s.name == "batch_step"]
        # The event kernel emits one span per device unit; a unit
        # covers `steps` decode iterations (macro-steps bundle several).
        assert sum(s.args["steps"] for s in steps) == stats.num_iterations
        assert all(s.track.startswith("scheduler.dev") for s in steps)
        request_spans = [s for s in sims if s.name == "request"]
        assert len(request_spans) == len(stats.completed)
        assert all(s.track.startswith("scheduler.slot")
                   for s in request_spans)
