"""Multi-tenant SLO serving front end: arrivals, fair share, preemption.

Covers the production-traffic layer over the event kernel: arrival
process generators and replayable traces (bit-identical replay under a
seed), weighted fair-share tie-breaking across tenant classes, strict
priority tiers with preemption under KV pressure (including mid-macro
truncation and re-admission ordering), SLO-aware admission through the
typed ``AdmissionError`` path, and goodput-under-SLO accounting.

Timelines use ``ConstStep`` (prefill 1 s, decode 0.5 s) so every
expected number is hand-computable; one class serves a flash crowd on
the real analytical step costs.
"""

import hashlib
import sys

import pytest

from repro.accelerator import CXLPNMDevice
from repro.appliance import (
    ContinuousBatchScheduler,
    TenantClass,
    admission,
)
from repro.errors import AdmissionError, ConfigurationError
from repro.faults import FaultPlan, chaos
from repro.llm import (
    OPT_13B,
    InferenceRequest,
    arrivals_for_shape,
    diurnal_arrivals,
    flash_crowd_arrivals,
    multi_tenant_workload,
    peak_kv_bytes,
    read_trace,
    steady_arrivals,
    tiny_config,
    write_trace,
    zipf_tenants,
)
from repro.perf.analytical import (
    BatchStepTimer,
    InferenceTimer,
    PnmPerfModel,
)

CFG = tiny_config()


class ConstStep:
    """Hand-computable step model: fixed prefill and decode costs."""

    def __init__(self, prefill=1.0, decode=0.5):
        self.prefill = prefill
        self.decode = decode

    def prefill_s(self, input_len):
        return self.prefill

    def decode_step_s(self, batch, context_len):
        return self.decode


def _memory_for(batch, input_len=4, output_len=6):
    return CFG.param_bytes + batch * peak_kv_bytes(CFG, input_len,
                                                   output_len)


def _req(i, cls="default", input_len=4, output_len=6, tenant=0):
    return InferenceRequest(input_len, output_len, request_id=i,
                            tenant=tenant, tenant_class=cls)


def _run(requests, arrivals=None, memory=None, classes=None, **kwargs):
    scheduler = ContinuousBatchScheduler(
        ConstStep(), CFG, memory or _memory_for(8), classes=classes,
        **kwargs)
    return scheduler.run(requests, arrivals)


# -- arrival processes ----------------------------------------------------


class TestArrivalGenerators:
    def test_steady_matches_poisson(self):
        # The stream the retired FCFS module's Poisson generator drew
        # for the same arguments, pinned as float.hex: every serving
        # stream that moved to steady_arrivals is unchanged.
        arrivals = steady_arrivals(32, 5.0, seed=3)
        assert all(type(t) is float for t in arrivals)
        assert arrivals[0].hex() == "0x1.687f1d205aec2p-6"
        assert arrivals[-1].hex() == "0x1.52378a09f8d66p+2"
        digest = hashlib.sha256(
            " ".join(t.hex() for t in arrivals).encode()).hexdigest()
        assert digest == ("2460d5876d826bc20c706923c698c91d"
                          "2594c501e2a22600bdd540f90d367e2e")

    @pytest.mark.parametrize("shape", ["steady", "diurnal", "flash-crowd"])
    def test_shapes_deterministic_and_sorted(self, shape):
        a = arrivals_for_shape(shape, 64, 8.0, seed=11)
        b = arrivals_for_shape(shape, 64, 8.0, seed=11)
        assert a == b
        assert len(a) == 64
        assert a == sorted(a)
        assert all(t > 0 for t in a)
        assert a != arrivals_for_shape(shape, 64, 8.0, seed=12)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ConfigurationError, match="arrival shape"):
            arrivals_for_shape("bursty", 8, 1.0)

    def test_diurnal_validation(self):
        with pytest.raises(ConfigurationError, match="swing"):
            diurnal_arrivals(8, 1.0, period_s=10.0, swing=1.0)
        with pytest.raises(ConfigurationError, match="period_s"):
            diurnal_arrivals(8, 1.0, period_s=0.0)

    def test_flash_crowd_is_denser_in_burst(self):
        # Base 10 req/s, +30 req/s for t in [5, 10): the burst window
        # should hold arrivals at several times the base density.
        arrivals = flash_crowd_arrivals(400, 10.0, burst_at_s=5.0,
                                        burst_rate_per_s=30.0,
                                        burst_len_s=5.0, seed=0)
        in_burst = sum(1 for t in arrivals if 5.0 <= t < 10.0)
        before = sum(1 for t in arrivals if t < 5.0)
        assert in_burst / 5.0 > 2.0 * (before / 5.0)

    def test_flash_crowd_validation(self):
        with pytest.raises(ConfigurationError, match="burst_rate"):
            flash_crowd_arrivals(8, 1.0, 1.0, -1.0, 1.0)


class TestZipfTenants:
    def test_deterministic_and_skewed(self):
        tenants = zipf_tenants(500, 8, skew=1.5, seed=2)
        assert tenants == zipf_tenants(500, 8, skew=1.5, seed=2)
        assert set(tenants) <= set(range(8))
        counts = [tenants.count(k) for k in range(8)]
        assert counts[0] == max(counts)
        assert counts[0] > counts[-1]

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="num_tenants"):
            zipf_tenants(8, 0)
        with pytest.raises(ConfigurationError, match="skew"):
            zipf_tenants(8, 4, skew=-0.5)

    def test_multi_tenant_workload_classes(self):
        requests = multi_tenant_workload(
            40, num_tenants=4, class_names=("premium", "standard"),
            seed=9)
        assert requests == multi_tenant_workload(
            40, num_tenants=4, class_names=("premium", "standard"),
            seed=9)
        for r in requests:
            expected = ("premium", "standard")[r.tenant % 2]
            assert r.tenant_class == expected
        assert {r.tenant_class for r in requests} \
            == {"premium", "standard"}


class TestRequestFields:
    def test_tenant_validation(self):
        with pytest.raises(ConfigurationError, match="tenant"):
            InferenceRequest(4, 4, tenant=-1)
        with pytest.raises(ConfigurationError, match="tenant_class"):
            InferenceRequest(4, 4, tenant_class="")

    def test_defaults_keep_equality(self):
        assert InferenceRequest(4, 4) == InferenceRequest(4, 4)


# -- replayable traces ----------------------------------------------------


class TestTraceReplay:
    def _workload(self):
        requests = multi_tenant_workload(
            24, num_tenants=4, class_names=("premium", "standard"),
            seed=5)
        arrivals = arrivals_for_shape("flash-crowd", 24, 6.0, seed=5)
        return requests, arrivals

    def test_round_trip_exact(self, tmp_path):
        requests, arrivals = self._workload()
        path = str(tmp_path / "trace.jsonl")
        assert write_trace(path, requests, arrivals) == 24
        replayed, replayed_arrivals = read_trace(path)
        assert replayed == requests
        assert replayed_arrivals == arrivals

    def test_replay_bit_identical_stats(self, tmp_path):
        requests, arrivals = self._workload()
        classes = [TenantClass("premium", weight=4.0, priority=1),
                   TenantClass("standard")]
        stats = _run(requests, arrivals, memory=_memory_for(3),
                     classes=classes)
        path = str(tmp_path / "trace.jsonl")
        write_trace(path, requests, arrivals)
        replayed, replayed_arrivals = read_trace(path)
        again = _run(replayed, replayed_arrivals,
                     memory=_memory_for(3), classes=classes)
        assert stats.as_dict() == again.as_dict()
        assert stats.class_breakdown() == again.class_breakdown()
        assert [(c.request.request_id, c.finish_s, c.first_token_s)
                for c in stats.completed] \
            == [(c.request.request_id, c.finish_s, c.first_token_s)
                for c in again.completed]

    def test_read_errors(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            read_trace(str(tmp_path / "missing.jsonl"))
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            read_trace(str(bad))
        partial = tmp_path / "partial.jsonl"
        partial.write_text('{"request_id": 0, "arrival_s": 0.0}\n')
        with pytest.raises(ConfigurationError, match="missing trace keys"):
            read_trace(str(partial))

    def test_write_length_mismatch(self, tmp_path):
        with pytest.raises(ConfigurationError, match="arrival times"):
            write_trace(str(tmp_path / "t.jsonl"), [_req(0)], [0.0, 1.0])


# -- tenant classes and fair share ----------------------------------------


class TestTenantClassConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="weight"):
            TenantClass("a", weight=0.0)
        with pytest.raises(ConfigurationError, match="ttft_target_s"):
            TenantClass("a", ttft_target_s=-1.0)
        with pytest.raises(ConfigurationError, match="non-empty"):
            TenantClass("")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            ContinuousBatchScheduler(
                ConstStep(), CFG, _memory_for(4),
                classes=[TenantClass("a"), TenantClass("a")])


class TestFairShare:
    """KV room for one request serializes admissions: the completion
    order *is* the admission order the share policy produced."""

    def _order(self, classes, reqs):
        stats = _run(reqs, memory=_memory_for(1), classes=classes)
        assert not stats.rejected
        order = sorted(stats.completed, key=lambda c: c.finish_s)
        return [c.request.request_id for c in order]

    def test_equal_weights_alternate_name_tiebreak(self):
        # Equal weight, equal priority: exact service ties break by
        # class name, so "a" starts and the classes then alternate.
        reqs = [_req(0, "a"), _req(1, "a"), _req(2, "a"),
                _req(10, "b"), _req(11, "b"), _req(12, "b")]
        classes = [TenantClass("a"), TenantClass("b")]
        assert self._order(classes, reqs) == [0, 10, 1, 11, 2, 12]

    def test_weighted_share_two_to_one(self):
        # weight(a)=2 halves a's virtual-time increments: after the
        # opening a/b exchange, a admits twice per b admission.
        reqs = [_req(0, "a"), _req(1, "a"), _req(2, "a"),
                _req(10, "b"), _req(11, "b"), _req(12, "b")]
        classes = [TenantClass("a", weight=2.0), TenantClass("b")]
        assert self._order(classes, reqs) == [0, 10, 1, 2, 11, 12]

    def test_single_class_stays_fcfs(self):
        reqs = [_req(i) for i in range(4)]
        assert self._order(None, reqs) == [0, 1, 2, 3]


class TestPriorityTiers:
    def test_higher_tier_admits_first(self):
        reqs = [_req(0, "low"), _req(1, "low"),
                _req(10, "high"), _req(11, "high")]
        classes = [TenantClass("low"), TenantClass("high", priority=1)]
        stats = _run(reqs, memory=_memory_for(1), classes=classes)
        order = [c.request.request_id
                 for c in sorted(stats.completed,
                                 key=lambda c: c.finish_s)]
        assert order == [10, 11, 0, 1]

    def test_blocked_tier_blocks_lower_tiers(self):
        # Budget: one small peak + one big peak - 1 byte.  The small
        # high request admits; the big high request then blocks (no
        # KV room, nothing lower-priority to preempt), and the strict
        # tier rule keeps the small low request out even though its
        # peak would fit — no low-priority sneak-past.
        p_small = peak_kv_bytes(CFG, 4, 6)
        p_big = peak_kv_bytes(CFG, 8, 12)
        memory = CFG.param_bytes + p_small + p_big - 1
        reqs = [_req(0, "high"),
                _req(1, "high", input_len=8, output_len=12),
                _req(2, "low")]
        classes = [TenantClass("low"), TenantClass("high", priority=1)]
        stats = _run(reqs, memory=memory, classes=classes)
        by_id = {c.request.request_id: c for c in stats.completed}
        assert set(by_id) == {0, 1, 2}
        assert by_id[2].start_s >= by_id[1].start_s


class TestPreemption:
    """Two residents fill the KV budget; a priority-1 arrival at
    t=2.5 lands mid macro-step.

    Timeline: L0/L1 prefill back-to-back in [0, 2] (first tokens at 1
    and 2), then start a 5-step decode macro with boundaries at 2.5,
    3, ... 4.5.  H0's arrival at 2.5 finds the budget full, preempts
    the most recently admitted victim (L1, batch-position tie-break),
    truncates the macro at the 2.5 boundary, and prefills in
    [2.5, 3.5] — so H0's first token lands at exactly 3.5.  Without
    mid-macro truncation it could not land before 5.5.
    """

    def _scenario(self):
        classes = [TenantClass("low"), TenantClass("high", priority=1)]
        reqs = [_req(0, "low"), _req(1, "low"),
                _req(10, "high"), _req(2, "low")]
        arrivals = [0.0, 0.0, 2.5, 2.6]
        return _run(reqs, arrivals, memory=_memory_for(2),
                    classes=classes)

    def test_mid_macro_preemption_timeline(self):
        stats = self._scenario()
        by_id = {c.request.request_id: c for c in stats.completed}
        assert set(by_id) == {0, 1, 10, 2}
        assert by_id[10].first_token_s == pytest.approx(3.5)
        assert stats.preemptions == 1
        assert by_id[1].preemptions == 1
        assert by_id[0].preemptions == 0

    def test_victim_is_most_recently_admitted(self):
        stats = self._scenario()
        by_id = {c.request.request_id: c for c in stats.completed}
        # L0 keeps its seat and its original first token.
        assert by_id[0].first_token_s == pytest.approx(1.0)
        # L1 restarts from prefill after capacity frees.
        assert by_id[1].first_token_s > 3.5

    def test_preempted_readmitted_before_waiting_class_mates(self):
        stats = self._scenario()
        by_id = {c.request.request_id: c for c in stats.completed}
        # L1 went back to the *front* of the low queue, so it restarts
        # before L2 even though L2 was never evicted.
        assert by_id[1].start_s < by_id[2].start_s

    def test_preemption_does_not_pollute_failover_stats(self):
        stats = self._scenario()
        assert stats.failover_latencies_s == []
        assert stats.failover_events == []
        assert all(c.failovers == 0 for c in stats.completed)

    def test_failed_over_then_preempted_keeps_one_record(self):
        # L0 prefills on device 0 in [0, 1]; device 0 dies at 1.2 and
        # L0 is readmitted at once on device 1.  H0 arrives at 3.0,
        # finds device 1's one slot taken and evicts L0, which restarts
        # after H0.  The one record carries both requeues, and only the
        # failover readmission counts a failover latency.
        classes = [TenantClass("low"), TenantClass("high", priority=1)]
        with chaos(FaultPlan().with_device_failure(1.2, 0)):
            stats = _run([_req(0, "low"), _req(10, "high")], [0.0, 3.0],
                         classes=classes, num_devices=2, max_batch=1)
        by_id = {c.request.request_id: c for c in stats.completed}
        assert set(by_id) == {0, 10}
        assert (by_id[0].failovers, by_id[0].preemptions) == (1, 1)
        assert stats.failovers == 1 and stats.preemptions == 1
        assert stats.failover_latencies_s == [0.0]

    @staticmethod
    def _spy_plans(monkeypatch):
        """Count preemption-plan calls and the batch sorts they make."""
        counts = {"calls": 0, "sorts": 0}
        plan = admission.AdmissionPolicy._plan_preemption

        def counting_plan(policy, priority, peak):
            counts["calls"] += 1
            return plan(policy, priority, peak)

        def counting_sorted(*args, **kwargs):
            if sys._getframe(1).f_code.co_name == "_plan_preemption":
                counts["sorts"] += 1
            return sorted(*args, **kwargs)

        monkeypatch.setattr(admission.AdmissionPolicy, "_plan_preemption",
                            counting_plan)
        monkeypatch.setattr(admission, "sorted", counting_sorted,
                            raising=False)
        return counts

    def test_two_tier_table_builds_plans(self, monkeypatch):
        counts = self._spy_plans(monkeypatch)
        stats = self._scenario()
        assert stats.preemptions == 1
        assert counts["calls"] >= 1 and counts["sorts"] >= 1

    @pytest.mark.parametrize("classes", [
        None, [TenantClass("low")], [TenantClass("a"), TenantClass("b")]])
    def test_single_tier_never_builds_a_plan(self, monkeypatch, classes):
        counts = self._spy_plans(monkeypatch)
        names = [tc.name for tc in classes] if classes else ["default"]
        reqs = [_req(i, names[i % len(names)]) for i in range(4)]
        stats = _run(reqs, [0.0, 0.0, 2.5, 2.6], memory=_memory_for(2),
                     classes=classes)
        assert len(stats.completed) == 4 and stats.preemptions == 0
        # Admission blocked on a full budget, so planning was asked for,
        # but with no lower tier it returned before sorting any batch.
        assert counts["calls"] >= 1
        assert counts["sorts"] == 0

    def test_equal_priority_never_preempts(self):
        classes = [TenantClass("a"), TenantClass("b")]
        reqs = [_req(0, "a"), _req(1, "a"), _req(10, "b")]
        stats = _run(reqs, [0.0, 0.0, 2.5], memory=_memory_for(2),
                     classes=classes)
        assert stats.preemptions == 0
        assert all(c.preemptions == 0 for c in stats.completed)


# -- SLO admission and goodput --------------------------------------------


class TestSloAdmission:
    def test_ttft_shed_is_typed(self):
        # Prefill alone takes 1 s; a 0.5 s TTFT target can never be
        # met, so every gold request is shed via AdmissionError.
        classes = [TenantClass("gold", ttft_target_s=0.5)]
        reqs = [_req(0, "gold"), _req(1, "gold"), _req(2, "std")]
        stats = _run(reqs, memory=_memory_for(4), classes=classes,
                     slo_admission=True)
        assert len(stats.rejected) == 2
        for r in stats.rejected:
            assert isinstance(r.error, AdmissionError)
            assert "TTFT" in r.reason and "gold" in r.reason
        assert {c.request.request_id for c in stats.completed} == {2}

    def test_tbt_shed_is_typed(self):
        classes = [TenantClass("gold", tbt_target_s=0.4)]
        reqs = [_req(0, "gold")]
        stats = _run(reqs, memory=_memory_for(4), classes=classes,
                     slo_admission=True)
        assert len(stats.rejected) == 1
        assert "TBT" in stats.rejected[0].reason

    def test_no_shedding_without_flag(self):
        classes = [TenantClass("gold", ttft_target_s=0.5)]
        stats = _run([_req(0, "gold")], memory=_memory_for(4),
                     classes=classes)
        assert not stats.rejected
        assert stats.slo_attainment == 0.0
        assert stats.goodput_tokens_per_s == 0.0
        assert stats.throughput_tokens_per_s > 0.0

    def test_met_targets_count_as_goodput(self):
        # Single request: prefill [0,1], 5 decodes -> finish 3.5;
        # TTFT 1 s, mean TBT 0.5 s, both within targets.
        classes = [TenantClass("gold", ttft_target_s=1.5,
                               tbt_target_s=0.6)]
        stats = _run([_req(0, "gold")], memory=_memory_for(4),
                     classes=classes)
        assert stats.slo_attainment == 1.0
        assert stats.goodput_tokens_per_s \
            == stats.throughput_tokens_per_s

    def test_untargeted_class_always_meets(self):
        stats = _run([_req(0), _req(1)], memory=_memory_for(4))
        assert stats.slo_attainment == 1.0
        assert stats.goodput_tokens_per_s \
            == stats.throughput_tokens_per_s

    def test_class_breakdown_rows(self):
        classes = [TenantClass("gold", ttft_target_s=0.5),
                   TenantClass("std")]
        reqs = [_req(0, "gold"), _req(1, "std"), _req(2, "std")]
        stats = _run(reqs, memory=_memory_for(4), classes=classes,
                     slo_admission=True)
        rows = stats.class_breakdown()
        assert set(rows) == {"gold", "std"}
        assert rows["gold"]["rejected"] == 1.0
        assert rows["gold"]["completed"] == 0.0
        assert rows["std"]["completed"] == 2.0
        assert rows["std"]["slo_attainment"] == 1.0
        assert rows["gold"]["slo_attainment"] == 0.0
        assert rows["std"]["goodput_tokens_per_s"] \
            == rows["std"]["throughput_tokens_per_s"]

    def test_attainment_counts_offered_requests(self):
        # gold is shed at admission; both std requests meet their
        # (absent) targets: 2 of 3 offered, not 2 of 2 completed.
        classes = [TenantClass("gold", ttft_target_s=0.5),
                   TenantClass("std")]
        reqs = [_req(0, "gold"), _req(1, "std"), _req(2, "std")]
        stats = _run(reqs, memory=_memory_for(4), classes=classes,
                     slo_admission=True)
        assert len(stats.rejected) == 1 and len(stats.completed) == 2
        assert stats.slo_attainment == pytest.approx(2 / 3)
        assert stats.as_dict()["slo_attainment"] == stats.slo_attainment

    def test_shed_ratio_counts_offered_requests(self):
        # Two gold requests are shed at admission, one std completes:
        # 2 shed of 3 offered.
        classes = [TenantClass("gold", ttft_target_s=0.5)]
        reqs = [_req(0, "gold"), _req(1, "gold"), _req(2, "std")]
        stats = _run(reqs, memory=_memory_for(4), classes=classes,
                     slo_admission=True)
        assert stats.shed_ratio == 2 / 3
        assert stats.as_dict()["shed_ratio"] == stats.shed_ratio
        assert _run([_req(0)], memory=_memory_for(4)).shed_ratio == 0.0

    def test_readmitted_victims_never_shed(self):
        # The preemption victim (L1) re-runs admission with a blown
        # queue wait; the SLO gate must not discard its partial work.
        classes = [TenantClass("low", ttft_target_s=4.0),
                   TenantClass("high", priority=1)]
        reqs = [_req(0, "low"), _req(1, "low"), _req(10, "high")]
        stats = _run(reqs, [0.0, 0.0, 2.5], memory=_memory_for(2),
                     classes=classes, slo_admission=True)
        by_id = {c.request.request_id: c for c in stats.completed}
        assert 1 in by_id and by_id[1].preemptions == 1


class TestAnalyticalMultiTenantStream:
    """The front end on the real perf model: a flash crowd of Zipf
    tenants in two classes, served by OPT-13B step costs on 2 devices."""

    def _serve(self, multi_tenant):
        device = CXLPNMDevice()
        perf = PnmPerfModel(device)
        step = BatchStepTimer(OPT_13B, perf)
        requests = multi_tenant_workload(
            64, num_tenants=8, class_names=("interactive", "batch"),
            seed=11, mean_input=64, mean_output=64,
            max_total=OPT_13B.max_seq_len)
        rate = 6.0 / InferenceTimer(OPT_13B, perf).run(64, 64).latency_s
        arrivals = arrivals_for_shape("flash-crowd", 64, rate, seed=11)
        classes = None
        if multi_tenant:
            classes = (TenantClass("interactive", weight=3.0, priority=1,
                                   ttft_target_s=4.0 * step.prefill_s(64),
                                   tbt_target_s=8.0 * step.decode_step_s(
                                       1, 65)),
                       TenantClass("batch", weight=1.0))
        return ContinuousBatchScheduler(
            step, OPT_13B, device.memory_capacity, num_devices=2,
            classes=classes, slo_admission=multi_tenant
        ).run(requests, arrivals)

    def test_single_class_stream_sheds_nothing(self):
        stats = self._serve(multi_tenant=False)
        assert not stats.rejected
        assert len(stats.completed) == 64

    def test_both_classes_served_with_goodput(self):
        stats = self._serve(multi_tenant=True)
        cells = stats.class_breakdown()
        assert set(cells) == {"interactive", "batch"}
        assert all("goodput_tokens_per_s" in c for c in cells.values())
        assert stats.goodput_tokens_per_s > 0
        assert 0.0 <= stats.slo_attainment <= 1.0
