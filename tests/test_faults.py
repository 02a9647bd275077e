"""Fault injection and graceful degradation (repro.faults).

The two load-bearing guarantees:

* **off means off** — with no plan (or an explicit empty one) every
  hook short-circuits and results are bit-identical, asserted here for
  both the generation path and the continuous-batching trace;
* **deterministic chaos** — the same plan replayed over the same
  workload yields the same counts and the same failover timeline.
"""

import pytest

from repro.appliance import ContinuousBatchScheduler
from repro.appliance.continuous import FailoverEvent
from repro.appliance.scheduler import infeasible_error
from repro.errors import (
    AdmissionError,
    DeviceLostError,
    ExecutionError,
    FaultInjectionError,
    ReproError,
    TransientDeviceError,
    UncorrectableMemoryError,
)
from repro.faults import (
    DeviceFaultEvent,
    DeviceFaultKind,
    FaultPlan,
    FaultState,
    chaos,
    get_faults,
    paper_section_ix_plan,
)
from repro.llm import (
    InferenceRequest,
    peak_kv_bytes,
    random_weights,
    tiny_config,
)
from repro.obs import MetricsRegistry, SIM_CLOCK, Tracer, observe
from repro.runtime.session import InferenceSession

CFG = tiny_config()


class ConstStep:
    """Hand-computable step model for scheduler tests."""

    def prefill_s(self, input_len):
        return 1.0

    def decode_step_s(self, batch, context_len):
        return 0.5


def _memory_for(batch, input_len=4, output_len=3):
    return CFG.param_bytes + batch * peak_kv_bytes(CFG, input_len,
                                                   output_len)


def _requests(n, input_len=4, output_len=3):
    return [InferenceRequest(input_len, output_len, request_id=i)
            for i in range(n)]


class TestPlan:
    def test_default_plan_is_empty(self):
        assert FaultPlan().is_empty
        assert FaultPlan.empty(seed=9).is_empty

    def test_builders_compose_and_enable(self):
        plan = (FaultPlan(seed=2)
                .with_link_errors(1e-3)
                .with_memory_upsets(0.5, scrub_every_ticks=4)
                .with_launch_faults(transient_rate=0.1)
                .with_device_failure(at_s=5.0, device=1))
        assert not plan.is_empty
        assert plan.link.enabled and plan.memory.enabled
        assert plan.launch.enabled and plan.device_events
        assert plan.seed == 2

    def test_device_events_sorted_by_time(self):
        plan = (FaultPlan()
                .with_device_failure(at_s=9.0)
                .with_device_stall(at_s=1.0, duration_s=2.0))
        assert [e.at_s for e in plan.device_events] == [1.0, 9.0]

    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan().with_link_errors(crc_error_rate=1.5)
        with pytest.raises(FaultInjectionError):
            FaultPlan().with_memory_upsets(-0.1)
        with pytest.raises(FaultInjectionError):
            FaultPlan().with_device_stall(at_s=1.0, duration_s=0.0)
        with pytest.raises(FaultInjectionError):
            DeviceFaultEvent(DeviceFaultKind.FAIL, at_s=-1.0)

    def test_paper_plan_exercises_every_mechanism(self):
        plan = paper_section_ix_plan()
        assert plan.link.enabled and plan.memory.enabled
        assert plan.launch.enabled
        kinds = {e.kind for e in plan.device_events}
        assert kinds == {DeviceFaultKind.STALL, DeviceFaultKind.FAIL}


class TestContext:
    def test_no_ambient_state_by_default(self):
        assert get_faults() is None

    def test_chaos_installs_and_restores(self):
        plan = FaultPlan().with_link_errors(1e-3)
        with chaos(plan) as state:
            assert get_faults() is state
            assert state.plan is plan
        assert get_faults() is None

    def test_explicit_injection_wins(self):
        state = FaultState(FaultPlan())
        assert get_faults(state) is state


class TestLinkFaults:
    def test_empty_model_consumes_no_randomness(self):
        state = FaultState(FaultPlan())
        assert state.link_transfer(1000) == (0.0, 0, 0)
        assert state.counters.link_flits == 0

    def test_replay_penalty_and_counters(self):
        state = FaultState(FaultPlan(seed=0).with_link_errors(0.5))
        penalty_s, errors, replays = state.link_transfer(400)
        assert errors > 0 and replays >= errors
        assert penalty_s > 0
        assert state.counters.link_crc_errors == errors

    def test_transfer_time_grows_and_is_deterministic(self):
        from repro.cxl.link import GEN5_X16
        clean = GEN5_X16.transfer_time(1 << 20)
        plan = FaultPlan(seed=4).with_link_errors(0.01)
        with chaos(plan):
            faulted_a = GEN5_X16.transfer_time(1 << 20)
        with chaos(plan):
            faulted_b = GEN5_X16.transfer_time(1 << 20)
        assert faulted_a > clean
        assert faulted_a == faulted_b

    def test_link_counters_reach_metrics_registry(self):
        registry = MetricsRegistry()
        from repro.cxl.link import GEN5_X16
        with observe(metrics=registry):
            with chaos(FaultPlan(seed=0).with_link_errors(0.05)):
                GEN5_X16.transfer_time(1 << 20)
        names = registry.names()
        assert any(n.startswith("cxl.link.crc_errors") for n in names)
        assert any(n.startswith("cxl.link.replays") for n in names)


class TestLaunchFaults:
    def test_transient_launch_is_retried_and_result_unchanged(self):
        weights = random_weights(CFG, seed=3)
        baseline = InferenceSession(weights).generate([1, 2, 3], 4)
        plan = FaultPlan(seed=7).with_launch_faults(transient_rate=0.3,
                                                    max_retries=10)
        with chaos(plan) as state:
            trace = InferenceSession(weights).generate([1, 2, 3], 4)
        assert trace.tokens == baseline.tokens
        assert state.counters.launch_transients > 0
        assert state.counters.launch_retries \
            == state.counters.launch_transients

    def test_retry_budget_escalates_to_device_lost(self):
        plan = FaultPlan(seed=7).with_launch_faults(transient_rate=0.99,
                                                    max_retries=2)
        with chaos(plan) as state:
            session = InferenceSession(random_weights(CFG, seed=3))
            with pytest.raises(DeviceLostError):
                session.generate([1, 2, 3], 4)
        assert state.counters.launch_retries == 2

    def test_permanent_failure_at_scheduled_launch(self):
        plan = FaultPlan().with_launch_faults(fail_at_launch=2)
        with chaos(plan):
            session = InferenceSession(random_weights(CFG, seed=3))
            with pytest.raises(DeviceLostError):
                session.generate([1, 2, 3], 4)


class TestMemoryFaults:
    def test_single_bit_upsets_corrected_transparently(self):
        weights = random_weights(CFG, seed=3)
        baseline = InferenceSession(weights).generate([1, 2, 3], 4)
        plan = FaultPlan(seed=5).with_memory_upsets(0.5,
                                                    scrub_every_ticks=2)
        with chaos(plan) as state:
            trace = InferenceSession(weights).generate([1, 2, 3], 4)
        assert trace.tokens == baseline.tokens
        assert state.counters.mem_ticks == 4  # one per executed stage
        assert state.counters.mem_scrubs == 2

    def test_double_bit_upset_aborts_generation(self):
        plan = FaultPlan().with_memory_upsets(0.0, double_bit_at_tick=2)
        with chaos(plan) as state:
            session = InferenceSession(random_weights(CFG, seed=3))
            with pytest.raises(UncorrectableMemoryError):
                session.generate([1, 2, 3], 6)
        assert state.counters.mem_uncorrectable == 1

    def test_uncorrectable_is_an_execution_error(self):
        # Back-compat: callers catching ExecutionError keep working.
        assert issubclass(UncorrectableMemoryError, ExecutionError)


class TestFailover:
    def test_failed_device_requeues_and_everything_completes(self):
        plan = FaultPlan(seed=1).with_device_failure(at_s=2.0, device=1)
        with chaos(plan) as state:
            engine = ContinuousBatchScheduler(
                ConstStep(), CFG, _memory_for(8), num_devices=2)
            stats = engine.run(_requests(8))
        assert len(stats.completed) == 8
        assert stats.devices_failed == 1
        assert stats.failovers > 0
        assert state.counters.requests_requeued == stats.failovers
        assert len(stats.failover_latencies_s) == stats.failovers
        assert max(c.failovers for c in stats.completed) == 1

    def test_failover_timeline_is_recorded(self):
        plan = FaultPlan().with_device_failure(at_s=2.0, device=1)
        with chaos(plan):
            stats = ContinuousBatchScheduler(
                ConstStep(), CFG, _memory_for(8),
                num_devices=2).run(_requests(8))
        assert len(stats.failover_events) == 1
        event = stats.failover_events[0]
        assert isinstance(event, FailoverEvent)
        assert event.device == 1 and event.at_s >= 2.0

    def test_stall_extends_makespan_by_its_duration(self):
        base = ContinuousBatchScheduler(
            ConstStep(), CFG, _memory_for(8)).run(_requests(4))
        plan = FaultPlan().with_device_stall(at_s=1.0, duration_s=3.0)
        with chaos(plan) as state:
            stalled = ContinuousBatchScheduler(
                ConstStep(), CFG, _memory_for(8)).run(_requests(4))
        assert stalled.stall_s == 3.0
        assert stalled.makespan_s == pytest.approx(base.makespan_s + 3.0)
        assert state.counters.device_stall_s == 3.0

    def test_all_devices_dead_rejects_with_typed_error(self):
        plan = FaultPlan().with_device_failure(at_s=2.0, device=0)
        with chaos(plan):
            stats = ContinuousBatchScheduler(
                ConstStep(), CFG, _memory_for(8)).run(_requests(6))
        assert not stats.completed
        assert len(stats.rejected) == 6
        assert all(isinstance(r.error, DeviceLostError)
                   for r in stats.rejected)

    def test_event_on_unmapped_device_is_ignored(self):
        plan = FaultPlan().with_device_failure(at_s=1.0, device=7)
        with chaos(plan):
            stats = ContinuousBatchScheduler(
                ConstStep(), CFG, _memory_for(8)).run(_requests(4))
        assert len(stats.completed) == 4
        assert stats.devices_failed == 0

    def test_two_devices_halve_the_closed_batch_makespan(self):
        # Sanity on the multi-device timing: devices run concurrently,
        # so 8 prefill-only requests on 2 devices end at 4, not 8.
        one = ContinuousBatchScheduler(
            ConstStep(), CFG, _memory_for(8)).run(_requests(8, output_len=1))
        two = ContinuousBatchScheduler(
            ConstStep(), CFG, _memory_for(8),
            num_devices=2).run(_requests(8, output_len=1))
        assert one.makespan_s == 8.0
        assert two.makespan_s == 4.0


class TestOffMeansOff:
    def test_generation_bit_identical_without_plan(self):
        weights = random_weights(CFG, seed=3)
        bare = InferenceSession(weights).generate([1, 2, 3], 4)
        with chaos(FaultPlan.empty()):
            empty = InferenceSession(weights).generate([1, 2, 3], 4)
        assert empty.tokens == bare.tokens
        assert empty.stage_times_s == bare.stage_times_s  # bit-identical
        assert empty.instructions == bare.instructions

    def test_continuous_trace_bit_identical_without_plan(self):
        def traced_run():
            tracer = Tracer()
            with observe(tracer=tracer):
                stats = ContinuousBatchScheduler(
                    ConstStep(), CFG, _memory_for(4)).run(_requests(6))
            sim_spans = [(s.name, s.track, s.start_ns, s.dur_ns)
                         for s in tracer.spans if s.clock is SIM_CLOCK]
            return stats.as_dict(), sim_spans

        bare_stats, bare_spans = traced_run()
        with chaos(FaultPlan.empty()):
            empty_stats, empty_spans = traced_run()
        assert empty_stats == bare_stats
        assert empty_spans == bare_spans

    def test_empty_plan_state_consumes_no_randomness(self):
        state = FaultState(FaultPlan.empty())
        assert state.link_transfer(10_000) == (0.0, 0, 0)
        assert state.launch_fault() is None
        assert state.counters.as_dict() \
            == FaultState(FaultPlan.empty()).counters.as_dict()


class TestChaosHarness:
    @pytest.fixture(scope="class")
    def reports(self):
        from repro.faults.chaos_harness import ChaosConfig, run_chaos
        plan = (paper_section_ix_plan(seed=3)
                .with_device_failure(at_s=6.0, device=1))
        config = ChaosConfig(num_requests=6, readback_reads=32)
        return run_chaos(plan, config), run_chaos(plan, config)

    def test_deterministic_across_invocations(self, reports):
        first, second = reports
        assert first.as_dict() == second.as_dict()

    def test_failover_timeline_and_counts_reported(self, reports):
        report, _ = reports
        assert report.generation_outcome == "completed"
        assert report.failover_timeline
        assert report.counters["device_failures"] >= 1
        assert report.serving["requests"] > 0

    def test_fault_counters_land_in_metrics(self, reports):
        report, _ = reports
        assert any(key.startswith("faults.") for key in report.metrics)

    def test_render_mentions_every_layer(self, reports):
        text = reports[0].render()
        for word in ("generation", "memory", "cxl link", "devices",
                     "serving", "failover"):
            assert word in text


class TestTypedErrors:
    def test_hierarchy_exported_from_package_root(self):
        import repro
        for name in ("UncorrectableMemoryError", "TransientDeviceError",
                     "DeviceLostError", "AdmissionError",
                     "FaultInjectionError"):
            assert name in repro.__all__
            assert issubclass(getattr(repro, name), ReproError)

    def test_infeasible_error_is_typed(self):
        oversized = InferenceRequest(CFG.max_seq_len, 8, request_id=0)
        error = infeasible_error(CFG, None, oversized)
        assert isinstance(error, AdmissionError)
        assert infeasible_error(CFG, None, _requests(1)[0]) is None

    def test_schedulers_record_typed_rejections(self):
        oversized = InferenceRequest(CFG.max_seq_len, 8, request_id=0)
        continuous = ContinuousBatchScheduler(
            ConstStep(), CFG, _memory_for(4)).run(
                [oversized] + _requests(2))
        assert isinstance(continuous.rejected[0].error, AdmissionError)
        fcfs = ContinuousBatchScheduler(
            ConstStep(), CFG, _memory_for(4), max_batch=1).run(
                [oversized] + _requests(2))
        assert isinstance(fcfs.rejected[0].error, AdmissionError)
        import dataclasses
        with pytest.raises(dataclasses.FrozenInstanceError):
            # Frozen: a rejection record cannot be edited after the fact.
            fcfs.rejected[0].reason = "other"
