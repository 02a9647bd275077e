"""Event-kernel parity: serving results pinned to recorded digests.

Each case of a small grid (single class; two priority classes with
preemption; SLO admission; a fault plan with stalls and a failure in
the middle of a decode macro-step; requests that finish at their
prefill) is served by :class:`ContinuousBatchScheduler` on the real
analytical step costs.  Two sha256 digests per case are pinned:

* every :class:`ContinuousBatchStats` field, floats as ``float.hex``:
  the completed list in list order, the rejected entries with their
  error text, ``busy_s``, ``occupancy_time_s``, ``num_iterations``,
  the failover timeline and so on;
* the step model's call log: every ``prefill_s``, ``decode_step_s``
  and ``decode_steps_s`` call with its arguments and results, in call
  order.

Any change to the kernel's bookkeeping that moves a single float, a
completion's position or a pricing call changes a digest.  The grid
is also checked to reach the kernel's rarer paths: preemption of a
request whose prefill is in flight, an admission that truncates a
decode macro-step, and a device failure mid macro-step.
"""

import dataclasses
import enum
import hashlib

import numpy as np
import pytest

from repro.accelerator import CXLPNMDevice
from repro.appliance import ContinuousBatchScheduler, TenantClass
from repro.appliance import continuous
from repro.faults import FaultPlan, chaos
from repro.llm import (OPT_1_3B, InferenceRequest, multi_tenant_workload,
                       arrivals_for_shape, peak_kv_bytes, steady_arrivals)
from repro.perf.analytical import BatchStepTimer, PnmPerfModel

CFG = OPT_1_3B


def canon(value) -> str:
    """Canonical text of a result value; floats exactly, as hex."""
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, np.integer):
        return repr(int(value))
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, type):
        return value.__name__
    if dataclasses.is_dataclass(value):
        inner = ",".join(f"{f.name}={canon(getattr(value, f.name))}"
                         for f in dataclasses.fields(value))
        return f"{type(value).__name__}({inner})"
    if isinstance(value, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v)}"
                              for k, v in sorted(value.items())) + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(canon(v) for v in value) + "]"
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class RecordingStep:
    """A step model that logs every call, arguments and result."""

    def __init__(self, inner):
        self.inner = inner
        self.log = []

    def prefill_s(self, input_len):
        out = self.inner.prefill_s(input_len)
        self.log.append(f"P {input_len} {canon(out)}")
        return out

    def decode_step_s(self, batch, context_len):
        out = self.inner.decode_step_s(batch, context_len)
        self.log.append(f"D {batch} {context_len} {canon(out)}")
        return out

    def decode_steps_s(self, batch, context_lens):
        out = self.inner.decode_steps_s(batch, context_lens)
        self.log.append(f"V {batch} {canon(context_lens)} {canon(out)}")
        return out


TWO_CLASSES = (TenantClass("interactive", weight=3.0, priority=1),
               TenantClass("batch", weight=1.0))
SLO_CLASSES = (TenantClass("interactive", weight=3.0, priority=1,
                           ttft_target_s=0.5, tbt_target_s=0.02),
               TenantClass("batch", weight=1.0, ttft_target_s=4.0))
# Device 0 stalls, device 1 fails inside a decode macro-step, device 0
# stalls again; times sit inside the runs' busy stretches.
FAULTS = (FaultPlan()
          .with_device_stall(at_s=2.0, duration_s=0.75, device=0)
          .with_device_failure(at_s=3.7, device=1)
          .with_device_stall(at_s=5.0, duration_s=0.5, device=0))


def _kv_room(requests: int) -> int:
    """Device memory leaving KV room for ``requests`` typical requests."""
    return CFG.param_bytes + requests * peak_kv_bytes(CFG, 128, 64)


def _single(n=160, seed=3):
    requests = [InferenceRequest(r.input_len, r.output_len, request_id=i)
                for i, r in enumerate(multi_tenant_workload(
                    n, seed=seed, mean_input=128, mean_output=48,
                    max_total=CFG.max_seq_len))]
    # One request past the position budget: rejected as infeasible.
    requests.append(InferenceRequest(CFG.max_seq_len, 8, request_id=n))
    return requests, steady_arrivals(n + 1, 60.0, seed=seed)


def _tenants(n=160, seed=5):
    requests = multi_tenant_workload(
        n, num_tenants=4, class_names=("interactive", "batch"), seed=seed,
        mean_input=128, mean_output=48, max_total=CFG.max_seq_len)
    return requests, arrivals_for_shape("flash-crowd", n, 50.0, seed=seed)


def _short_outputs(n=120, seed=9):
    requests, arrivals = _single(n, seed)
    # Every third request finishes at its prefill (output_len == 1).
    return [InferenceRequest(r.input_len, 1 if i % 3 == 0 else
                             r.output_len, request_id=r.request_id)
            for i, r in enumerate(requests)], arrivals


#: name -> (stream, engine options, fault plan)
CASES = {
    "single": (_single, dict(num_devices=2), None),
    "single-kv": (_single, dict(num_devices=2,
                                memory_bytes=_kv_room(12)), None),
    "priority-mb16": (_tenants, dict(num_devices=2, max_batch=16,
                                     classes=TWO_CLASSES), None),
    "priority-kv": (_tenants, dict(num_devices=2, classes=TWO_CLASSES,
                                   memory_bytes=_kv_room(10)), None),
    "slo-mb16": (_tenants, dict(num_devices=2, max_batch=16,
                                classes=SLO_CLASSES,
                                slo_admission=True), None),
    "slo-uncapped": (_tenants, dict(num_devices=2, classes=SLO_CLASSES,
                                    slo_admission=True), None),
    "faults-single": (_single, dict(num_devices=3), FAULTS),
    "faults-priority-mb16": (_tenants, dict(num_devices=3, max_batch=16,
                                            classes=TWO_CLASSES), FAULTS),
    "faults-slo-kv": (_tenants, dict(num_devices=3, classes=SLO_CLASSES,
                                     slo_admission=True,
                                     memory_bytes=_kv_room(10)), FAULTS),
    "output-len-1": (_short_outputs, dict(num_devices=2, max_batch=16),
                     FAULTS),
}

#: Digests recorded from the per-request kernel this grid was built
#: against: (stats digest, step-model call-log digest).
PINNED = {
    "single": (
        "06307e47a0092b3d9534bcabb424e7dabf5e18e8f9ee27ba6c8ffc82acc4621f",
        "d1b641b3e43d66203929eb639c9ae2c58ed945c0bf172f1240f2ab7e940ac8b3"),
    "single-kv": (
        "fb52c387f7d42c9c5a31ad89430adca02a062959c338a6f5db2c7490e00e9e15",
        "cb30162d86598892980a0ec824cbcc196e6cd393608a308629676986c0b0e77c"),
    "priority-mb16": (
        "85a8fb67c53c1524c4bfa7ca6b48f572ec71a3e8e3d1540187962ab287e99d5c",
        "4ee4d758dc90c38836b8bc69f32b91931a75f914e60e580cb218dd07d14c5e05"),
    "priority-kv": (
        "85e115c3de0efc01aaa9c72d141feb2dab03ab7434d0ab00c5352189dfe95de8",
        "9945f40e9d89478a67fb57cf2621521e7ce664e2d5e887757cacb2ae3d7e5937"),
    "slo-mb16": (
        "1fc409df4c91104e17d76a0e8bbbda095ae1b2dccd63c197188272828bff3f50",
        "e413fa1c5440a31c9a22a4895929fe004188a3d0e8e1c33d8956bfb3a23f7091"),
    "slo-uncapped": (
        "fe3b2a8ae496b0b78070bf846d79f63801a1cb35a1abc4339ac1b7819cc31b23",
        "98e522b43485967f80b9229c17cd064d5be6645d7a0b7e3bc0af54f4711c39e4"),
    "faults-single": (
        "34e70a0e4a048afc81a45225424898f244e3289ae673963855bccb09e695fc68",
        "b3c6a269d8ef7917a48acd83ff252355d94bc101ae59b72d9049318fd6b863b2"),
    "faults-priority-mb16": (
        "b2e5f2fe5be6cad328e154c9da1d43497c2d89de548592302ad3934fef60b8bc",
        "56545702de02381a65ffeb8dcdcdc4efba260f504d85c61ba342c9455c83e158"),
    "faults-slo-kv": (
        "617a326a331f4a801d31e1089ea1fa7089a8c9dae2a6a3eadbf3eefd8e302ac5",
        "e1bd8e0b861e68d1a2dd08db73f292d5f1bc864df63a76d5665c31fcd813b74e"),
    "output-len-1": (
        "6d1ec9c3959c352d167b57b49ef3d5d68301f7e63842fcbae4e0aa547d046fea",
        "c27d3f5ef964a55c882a47501b91f0953d30dee4cc3a9ca9855d2f154c0516fd"),
}


class Coverage:
    """Counts of the kernel's rarer paths, observed without changing
    what the kernel does."""

    def __init__(self):
        self.inflight_prefill_preemptions = 0
        self.truncating_admissions = 0
        self.mid_macro_failures = 0


def _observe(monkeypatch, coverage: Coverage) -> None:
    kernel = continuous._EventKernel
    preempt = kernel._preempt
    truncate = kernel._truncate_unit
    on_fault = kernel._on_fault

    def observed_preempt(self, dev, victims, now):
        if dev.busy and dev.unit_prefills and any(
                v is p for v in victims for p in dev.unit_prefills):
            coverage.inflight_prefill_preemptions += 1
        return preempt(self, dev, victims, now)

    def observed_truncate(self, dev, now):
        before = dev.unit_ends[-1]
        truncate(self, dev, now)
        if dev.unit_ends[-1] < before:
            coverage.truncating_admissions += 1

    def observed_fault(self, now, idx):
        event = self.events[idx]
        if event.kind.name == "FAIL" and event.device < len(self.devs):
            dev = self.devs[event.device]
            if dev.alive and dev.busy and not dev.unit_prefills:
                coverage.mid_macro_failures += 1
        return on_fault(self, now, idx)

    monkeypatch.setattr(kernel, "_preempt", observed_preempt)
    monkeypatch.setattr(kernel, "_truncate_unit", observed_truncate)
    monkeypatch.setattr(kernel, "_on_fault", observed_fault)


def serve(name: str):
    """Run one grid case; returns (stats, recording step model)."""
    stream, options, plan = CASES[name]
    requests, arrivals = stream()
    options = dict(options)
    memory = options.pop("memory_bytes", CXLPNMDevice().memory_capacity)
    step = RecordingStep(BatchStepTimer(CFG, PnmPerfModel(CXLPNMDevice())))
    engine = ContinuousBatchScheduler(step, CFG, memory, **options)
    if plan is None:
        return engine.run(requests, arrivals), step
    with chaos(plan):
        return engine.run(requests, arrivals), step


@pytest.fixture(scope="module")
def grid():
    """Every case served once, with the rare-path coverage counted."""
    coverage = Coverage()
    with pytest.MonkeyPatch.context() as monkeypatch:
        _observe(monkeypatch, coverage)
        runs = {name: serve(name) for name in CASES}
    return runs, coverage


@pytest.mark.parametrize("name", sorted(CASES))
def test_stats_match_pinned_digest(grid, name):
    stats, _ = grid[0][name]
    assert digest(canon(stats)) == PINNED[name][0]


@pytest.mark.parametrize("name", sorted(CASES))
def test_step_calls_match_pinned_digest(grid, name):
    _, step = grid[0][name]
    assert digest("\n".join(step.log)) == PINNED[name][1]


def test_grid_reaches_the_rare_paths(grid):
    runs, coverage = grid
    assert coverage.inflight_prefill_preemptions >= 1
    assert coverage.truncating_admissions >= 1
    assert coverage.mid_macro_failures >= 1
    assert sum(stats.devices_failed for stats, _ in runs.values()) >= 1
    assert sum(stats.preemptions for stats, _ in runs.values()) >= 1
    assert any(stats.rejected for stats, _ in runs.values())
    assert any(c.request.output_len == 1
               for c in runs["output-len-1"][0].completed)


def test_canonical_form_is_exact():
    # Two floats one ulp apart canonicalize differently.
    assert canon(0.1) != canon(np.nextafter(0.1, 1.0))
    assert canon([1, 2.5, None]) == "[1,0x1.4000000000000p+1,None]"
