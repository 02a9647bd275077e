"""Property test: each device's step clock and aggregates stay exact.

The event kernel advances a device's decoders with one step clock and
keeps integer aggregates over its batch (decoder count, summed
``input_len`` and ``origin``, the pending-prefill list, the finish
heap) instead of walking the batch.  Over random workloads x fault
plans x tenant mixes, every aggregate is recomputed from scratch over
the device's batch at every event and must match.  The run must also
conserve requests: each offered request ends exactly once, completed
or rejected, and a completed one has arrival <= first token <= finish.

The check is hooked into the kernel's event handlers with
``monkeypatch``; the kernel itself has no checking mode.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.appliance import ContinuousBatchScheduler, TenantClass
from repro.appliance import continuous
from repro.faults import FaultPlan, chaos
from repro.llm import InferenceRequest, peak_kv_bytes, tiny_config

CFG = tiny_config()  # max_seq_len 64


class AffineStep:
    """Deterministic step costs that depend on every argument."""

    def prefill_s(self, input_len):
        return 0.02 + 0.001 * input_len

    def decode_step_s(self, batch, context_len):
        return 0.01 + 0.0005 * batch + 0.0001 * context_len


def check_device(dev) -> None:
    """Recompute a device's aggregates over its batch and compare."""
    entries = list(dev.batch.values())
    assert list(dev.batch) == sorted(dev.batch)  # admission order
    assert all(order == e.order for order, e in dev.batch.items())
    decoders = [e for e in entries if e.origin is not None]
    pending = [e for e in entries if e.origin is None]
    assert dev.n_dec == len(decoders)
    assert dev.sum_in == sum(e.item.request.input_len for e in decoders)
    assert dev.sum_origin == sum(e.origin for e in decoders)
    assert dev.context_sum() == sum(e.context_len for e in decoders)
    assert [e.order for e in dev.pending] == [e.order for e in pending]
    assert all(p is e for p, e in zip(dev.pending, pending))
    want = sorted((e.origin + e.item.request.output_len, e.order)
                  for e in decoders)
    assert sorted(dev.finish) == want
    if want:
        assert dev.finish[0] == want[0]
    # Finished requests leave at the step that finishes them.
    assert all(0 < e.generated < e.item.request.output_len
               for e in decoders)
    assert dev.kv_reserved == sum(e.item.peak for e in entries)
    if dev.busy:
        # One unit shape: ascending step boundaries after the unit's
        # start, exactly one when the unit carries prefills.
        bounds = [dev.unit_start, *dev.unit_ends]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert len(dev.unit_ends) >= 1
        if dev.unit_prefills:
            assert len(dev.unit_ends) == 1


def _checked(monkeypatch, counter: list) -> None:
    kernel = continuous._EventKernel

    def after(method):
        def wrapped(self, *args):
            out = method(self, *args)
            for dev in self.devs:
                check_device(dev)
            counter[0] += 1
            return out
        return wrapped

    for name in ("_admit_and_start", "_on_fault", "_complete_done",
                 "_preempt"):
        monkeypatch.setattr(kernel, name, after(getattr(kernel, name)))


request_st = st.tuples(
    st.integers(1, 40),                 # input_len
    st.integers(1, 30),                 # output_len
    st.floats(0.0, 3.0),                # arrival
    st.sampled_from(["lo", "hi"]),      # tenant class
)
fault_st = st.tuples(
    st.sampled_from(["stall", "fail"]),
    st.floats(0.0, 4.0),                # at
    st.integers(0, 2),                  # device
    st.floats(0.01, 0.5),               # stall duration
)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(requests=st.lists(request_st, min_size=1, max_size=30),
       faults=st.lists(fault_st, max_size=3),
       num_devices=st.integers(1, 3),
       max_batch=st.one_of(st.none(), st.integers(1, 6)),
       kv_requests=st.integers(1, 8),
       tenants=st.sampled_from(["one", "two", "slo"]))
def test_aggregates_match_recomputation(requests, faults, num_devices,
                                        max_batch, kv_requests, tenants):
    reqs = [InferenceRequest(i_len, o_len, request_id=i,
                             tenant_class=cls if tenants != "one"
                             else "default")
            for i, (i_len, o_len, _a, cls) in enumerate(requests)]
    arrivals = [a for _i, _o, a, _c in requests]
    classes = None
    if tenants != "one":
        slo = tenants == "slo"
        classes = (TenantClass("hi", priority=1, weight=2.0,
                               ttft_target_s=0.3 if slo else None),
                   TenantClass("lo", tbt_target_s=0.02 if slo else None))
    plan = FaultPlan()
    for kind, at, device, duration in faults:
        plan = plan.with_device_stall(at, duration, device) \
            if kind == "stall" else plan.with_device_failure(at, device)
    memory = CFG.param_bytes + kv_requests * peak_kv_bytes(CFG, 20, 12)
    engine = ContinuousBatchScheduler(
        AffineStep(), CFG, memory, max_batch=max_batch,
        num_devices=num_devices, classes=classes,
        slo_admission=tenants == "slo")
    checks = [0]
    with pytest.MonkeyPatch.context() as mp:
        _checked(mp, checks)
        with chaos(plan):
            stats = engine.run(reqs, arrivals)
    assert checks[0] > 0
    ends = sorted([c.request.request_id for c in stats.completed]
                  + [r.request.request_id for r in stats.rejected])
    assert ends == list(range(len(reqs)))
    for c in stats.completed:
        assert c.first_token_s is not None
        assert c.arrival_s <= c.first_token_s <= c.finish_s
