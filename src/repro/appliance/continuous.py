"""Continuous batching over model replicas: event-driven serving kernel.

The FCFS scheduler in :mod:`repro.appliance.scheduler` gives each
request an exclusive instance for its whole lifetime, so every gen
token re-streams all parameters for a single row of activations — the
bandwidth-bound GEMV regime of paper §VII.  Serving systems instead
re-form the batch *every iteration*: requests join the running batch as
soon as their KV cache fits (admission control), each decode step
processes one token from every running request against once-streamed
weights (small-batch GEMM, the lever of the paper's ref [10]), and
requests leave the moment their last token is produced.

:class:`ContinuousBatchScheduler` simulates that regime at decode-step
granularity with a **global event heap** of request-arrival,
device-step-complete, and device-fault events.  Each device's timeline
advances independently: admission, prefill, decode, stall, and failover
all fire at their true simulated times instead of at a global iteration
boundary.  Quiet decode stretches (no pending admissions, no scheduled
fault before the next completion) are planned as a single *macro-step*:
the whole cohort of decode steps is priced in one vectorized call
(``step.decode_steps_s`` when the model provides it), which is what
makes cluster-scale runs (10^5–10^6 requests) tractable.  (The legacy
lock-step "barrier" kernel the event heap replaced was retired after
an A/B deprecation window; DESIGN.md records the semantic deltas.)

Scheduling semantics:

* **Admission** — FCFS from the waiting queue; a request is admitted
  when the target device has a slot (``max_batch``) and its *peak* KV
  footprint fits in the reserved-KV budget (``kv_spare_bytes``;
  reserving peak up-front guarantees no mid-flight eviction).
  Requests that can never be served — position budget or device
  memory exceeded — are rejected with a reason instead of being
  served with a fabricated latency.
* **Iteration** — newly admitted requests run their prefill (sum
  stage, emitting their first token); everyone else advances one
  decode step, costed by the step model at the batch's mean context.
* **Completion** — a request reaching ``output_len`` leaves and frees
  its KV reservation at its own device's step boundary.

Multi-tenant serving layers three policies over the same kernel, all
inert unless configured (the default single-class path is bit-identical
to plain FCFS):

* **Tenant classes** (:class:`TenantClass`) — requests carry a
  ``tenant_class`` name resolved against the scheduler's class table.
  Classes admit in strict priority tiers; within a tier, weighted fair
  queuing picks the class with the least weighted service (virtual
  time = admitted tokens / weight), so a weight-4 class gets 4x the
  admissions of a weight-1 sibling under contention.
* **Preemption** — when a class head cannot fit and strictly
  lower-priority requests are running, the cheapest eviction set
  (fewest victims, least KV freed, lowest device index) is preempted:
  victims lose their KV reservation, return to the *front* of their
  class queue, and restart from prefill on re-admission (the same
  restart semantics as failover requeue).
* **SLO admission** (``slo_admission=True``) — per-class TTFT/TBT
  targets shed requests whose projected service level cannot be met,
  via the typed :class:`~repro.errors.AdmissionError` path.  Goodput
  (tokens of requests that met their class targets) is reported next
  to raw throughput in :class:`ContinuousBatchStats`.

Per-request time-to-first-token and time-between-tokens come out of the
same timeline, alongside the familiar :class:`ServiceStats` aggregates.
Observability (per-device-step sim spans on ``scheduler.dev<i>``
tracks, a batch-occupancy gauge, admission/rejection counters) only
records — results are bit-identical with tracing on or off.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Deque, Dict, List, Optional, Protocol, Sequence, Tuple,
)

import numpy as np

from repro.appliance.scheduler import (
    CompletedRequest,
    RejectedRequest,
    ServiceStats,
    infeasible_error,
)
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    DeviceLostError,
    SimulationError,
)
from repro.faults.context import get_faults
from repro.faults.plan import DeviceFaultEvent, DeviceFaultKind
from repro.llm.config import LLMConfig
from repro.llm.kvcache import kv_spare_bytes, peak_kv_bytes
from repro.llm.workload import DEFAULT_TENANT_CLASS, InferenceRequest
from repro.obs.context import get_metrics, get_tracer
from repro.units import GB

#: Device-step sim-spans traced per run; long runs have tens of
#: thousands of near-identical steps, so the trace keeps the first ones
#: and notes the truncation in the span args.
MAX_TRACED_ITERATIONS = 4096


class BatchStepModel(Protocol):
    """What the engine needs from a cost model: per-iteration seconds.

    A step model *may* additionally provide
    ``decode_steps_s(batch, context_lens) -> ndarray`` — a vectorized
    cohort evaluation used by the event kernel's macro-steps (see
    :class:`repro.perf.analytical.BatchStepTimer`).  Models without it
    fall back to one ``decode_step_s`` call per step.
    """

    def prefill_s(self, input_len: int) -> float:
        """One request's sum stage (produces its first token)."""
        ...

    def decode_step_s(self, batch: int, context_len: int) -> float:
        """One batched gen step at the given mean attention span."""
        ...


def simulated_step_model(config: LLMConfig, device=None,
                         context_quantum: int = 32,
                         quantize: Optional[str] = None) -> BatchStepModel:
    """A :class:`BatchStepModel` priced by the instruction-level simulator.

    Alternative to :class:`repro.perf.analytical.BatchStepTimer`: steps
    are costed by scheduling real instruction streams (with unit overlap
    and shared memory bandwidth) instead of summing per-op analytical
    times.  Results are memoized per quantized context, and the
    simulator's own program/duration caches make repeated geometries
    cheap, so long serving runs stay tractable.

    Args:
        config: The model.
        device: A :class:`~repro.accelerator.device.CXLPNMDevice`
            (default: the paper's).
        context_quantum: Context quantization step for memoization.
        quantize: ``"int8"`` prices the quantized weight path (halved
            weight-stream bytes on the bandwidth-bound decode steps).
    """
    from repro.perf.simulator import AcceleratorSimulator, SimulatedStepTimer
    simulator = AcceleratorSimulator(device) if device is not None \
        else AcceleratorSimulator()
    return SimulatedStepTimer(config, simulator=simulator,
                              context_quantum=context_quantum,
                              quantize=quantize)


@dataclass(frozen=True)
class FailoverEvent:
    """One device failure the engine survived, for the failover timeline.

    Attributes:
        at_s: Simulated time at which the failure took effect (the
            fault event's true simulated time).
        device: Index of the lost device.
        requeued: In-flight requests returned to the waiting queue.
    """

    at_s: float
    device: int
    requeued: int


@dataclass(frozen=True)
class TenantClass:
    """One tenant priority class: scheduling share and SLO targets.

    Attributes:
        name: Class name; requests select it via
            ``InferenceRequest.tenant_class``.  Unknown names resolve
            to a default-parameter class, so a class table is never
            required to be exhaustive.
        weight: Fair-share weight within a priority tier.  Admission
            picks the eligible class with the least weighted service
            (admitted tokens / weight), so a weight-4 class receives
            4x the admitted tokens of a weight-1 sibling under
            sustained contention.
        priority: Strict tier; higher admits first, and may preempt
            strictly lower tiers under KV pressure.  Equal-priority
            classes never preempt each other.
        ttft_target_s: Optional time-to-first-token SLO target.  With
            ``slo_admission=True``, requests whose projected TTFT
            exceeds it are shed with a typed
            :class:`~repro.errors.AdmissionError`; completed requests
            beating it count toward goodput.
        tbt_target_s: Optional mean time-between-tokens SLO target,
            handled the same way.
    """

    name: str
    weight: float = 1.0
    priority: int = 0
    ttft_target_s: Optional[float] = None
    tbt_target_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant class name must be non-empty")
        if self.weight <= 0:
            raise ConfigurationError(
                f"class {self.name}: weight={self.weight} must be > 0")
        for label, value in (("ttft_target_s", self.ttft_target_s),
                             ("tbt_target_s", self.tbt_target_s)):
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"class {self.name}: {label}={value} must be > 0")

    def met_by(self, completed: CompletedRequest) -> bool:
        """Did a completed request meet this class's SLO targets?

        Targets that were never set are trivially met; a missing TTFT
        measurement fails a TTFT target (the request never produced a
        tracked first token within the run).
        """
        if self.ttft_target_s is not None:
            ttft = completed.ttft_s
            if ttft is None or ttft > self.ttft_target_s:
                return False
        if self.tbt_target_s is not None:
            tbt = completed.mean_tbt_s
            if tbt is not None and tbt > self.tbt_target_s:
                return False
        return True


@dataclass(eq=False, slots=True)
class _Running:
    """In-flight request state inside a device's batch (identity
    semantics).

    ``failovers``/``requeued_at`` travel with the *queue entry* (set at
    admission from the waiting-queue tuple), never through a table
    keyed by ``id(request)`` — duplicate request objects in the input
    or recycled object ids therefore cannot mis-attribute failover
    counts.
    """

    request: InferenceRequest
    arrival_s: float
    admitted_s: float
    kv_reserved: int
    slot: int
    device: int = 0
    generated: int = 0
    failovers: int = 0
    first_token_s: Optional[float] = None
    requeued_at: Optional[float] = None
    seq: int = 0
    preempted: int = 0
    cls_name: str = DEFAULT_TENANT_CLASS
    prio: int = 0

    @property
    def context_len(self) -> int:
        """Attention span of this request's next decode step."""
        return self.request.input_len + self.generated

    @property
    def done(self) -> bool:
        return self.generated >= self.request.output_len


@dataclass(slots=True)
class _QueueItem:
    """One waiting request with its attribution state.

    ``seq`` is the request's stable position in the arrival-sorted
    input (used for deterministic tie-breaks and wake-up dedup);
    ``requeued_at`` is set only by device-failure requeue and drives
    failover-latency accounting at re-admission — preemption requeue
    deliberately leaves it ``None`` so preemptions never pollute the
    failover latency distribution.
    """

    request: InferenceRequest
    arrival_s: float
    seq: int
    failovers: int = 0
    preemptions: int = 0
    requeued_at: Optional[float] = None


class _WaitQueue:
    """Per-class FIFO queues with weighted-fair virtual time.

    Each tenant class keeps its own FIFO (arrival order, with
    failover/preemption victims pushed back to the front) and a
    weighted service counter.  With a single class this degenerates to
    the plain FCFS waiting list: selection always returns the one
    class, in arrival order.
    """

    def __init__(self, items: Sequence[_QueueItem],
                 classes: Dict[str, TenantClass]) -> None:
        self.classes: Dict[str, TenantClass] = dict(classes)
        self.queues: Dict[str, Deque[_QueueItem]] = {}
        self.service: Dict[str, float] = {}
        for item in items:
            self.push_back(item)

    def cls(self, name: str) -> TenantClass:
        """The class record for ``name``, creating a default lazily."""
        tc = self.classes.get(name)
        if tc is None:
            tc = TenantClass(name=name)
            self.classes[name] = tc
        return tc

    def _queue_for(self, name: str) -> Deque[_QueueItem]:
        dq = self.queues.get(name)
        if dq is None:
            self.cls(name)
            dq = self.queues[name] = deque()
            self.service.setdefault(name, 0.0)
        return dq

    def push_back(self, item: _QueueItem) -> None:
        self._queue_for(item.request.tenant_class).append(item)

    def push_front(self, items: Sequence[_QueueItem]) -> None:
        """Requeue victims at their class front, preserving their order."""
        for item in reversed(items):
            self._queue_for(item.request.tenant_class).appendleft(item)

    def __len__(self) -> int:
        return sum(len(dq) for dq in self.queues.values())

    def peek(self, name: str) -> _QueueItem:
        return self.queues[name][0]

    def pop(self, name: str) -> _QueueItem:
        return self.queues[name].popleft()

    def charge(self, name: str, tokens: int) -> None:
        self.service[name] += tokens / self.cls(name).weight

    def refund(self, name: str, tokens: int) -> None:
        self.service[name] -= tokens / self.cls(name).weight

    def select(self, now: float, blocked: set,
               prio_floor: Optional[int]) -> Optional[str]:
        """Next class to try: highest tier, then least weighted service.

        Skips empty queues, classes already blocked this admission
        pass, classes below the blocking tier's priority floor (a
        blocked class stalls every strictly lower tier, never its
        equal-priority siblings), and classes whose head has not
        arrived yet.  Name breaks exact service ties deterministically.
        """
        best: Optional[str] = None
        best_key: Optional[Tuple[int, float, str]] = None
        for name, dq in self.queues.items():
            if not dq or name in blocked:
                continue
            tc = self.cls(name)
            if prio_floor is not None and tc.priority < prio_floor:
                continue
            if dq[0].arrival_s > now:
                continue
            key = (-tc.priority, self.service[name], name)
            if best_key is None or key < best_key:
                best, best_key = name, key
        return best

    def earliest_head_arrival(self) -> Optional[float]:
        heads = [dq[0].arrival_s for dq in self.queues.values() if dq]
        return min(heads) if heads else None

    def next_wakeup(self, now: float) -> Optional[Tuple[float, int]]:
        """``(arrival, seq)`` of the earliest future class head."""
        best: Optional[Tuple[float, int]] = None
        for dq in self.queues.values():
            if dq and dq[0].arrival_s > now:
                key = (dq[0].arrival_s, dq[0].seq)
                if best is None or key < best:
                    best = key
        return best

    def drain(self) -> List[_QueueItem]:
        """Remove and return everything, per-class FIFO order."""
        items = [item for dq in self.queues.values() for item in dq]
        for dq in self.queues.values():
            dq.clear()
        return items


@dataclass
class ContinuousBatchStats(ServiceStats):
    """Service statistics plus the batching-specific aggregates.

    ``num_instances`` mirrors the engine's ``num_devices`` (1 unless
    the run models a multi-device appliance) — each device serves many
    requests concurrently.  The failover fields are only non-trivial
    when a fault plan scheduled device events (``repro.faults``):
    ``failover_events`` is the survived-failure timeline,
    ``failover_latencies_s`` holds the queue-to-readmission delay of
    every requeued request, ``stall_s`` totals the transient device
    stalls that elapsed in simulated time (a stall overlapping idle
    time still counts here but delays nobody), and ``lost_device_s``
    is the serving capacity destroyed by permanent failures — for each
    dead device, the span from its failure to the end of the run.
    """

    num_iterations: int = 0
    max_occupancy: int = 0
    busy_s: float = 0.0
    occupancy_time_s: float = 0.0
    stall_s: float = 0.0
    devices_failed: int = 0
    lost_device_s: float = 0.0
    failover_events: List[FailoverEvent] = field(default_factory=list)
    failover_latencies_s: List[float] = field(default_factory=list)
    preemptions: int = 0
    tenant_classes: Dict[str, TenantClass] = field(default_factory=dict)

    def request_class(self, request: InferenceRequest) -> TenantClass:
        """The class a request resolved to (default-parameter if unknown)."""
        tc = self.tenant_classes.get(request.tenant_class)
        return tc if tc is not None else TenantClass(
            name=request.tenant_class)

    def met_slo(self, completed: CompletedRequest) -> bool:
        """Did this completed request meet its class's SLO targets?"""
        return self.request_class(completed.request).met_by(completed)

    @property
    def goodput_tokens_per_s(self) -> float:
        """Output tokens of SLO-meeting requests per makespan second.

        With no SLO targets configured every completed request counts,
        so goodput equals :attr:`throughput_tokens_per_s`; targets pull
        it down by exactly the tokens of the requests that missed.
        """
        if not self.makespan_s:
            return 0.0
        good = sum(c.request.output_len for c in self.completed
                   if self.met_slo(c))
        return good / self.makespan_s

    @property
    def slo_attainment(self) -> float:
        """Fraction of completed requests meeting their class targets."""
        if not self.completed:
            return 0.0
        met = sum(1 for c in self.completed if self.met_slo(c))
        return met / len(self.completed)

    def class_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant-class service report, sorted by class name.

        Covers every class that appears in the class table, the
        completed list, or the rejected list — so a class that was
        entirely shed still shows up with its rejection count.
        """
        names = sorted(set(self.tenant_classes)
                       | {c.request.tenant_class for c in self.completed}
                       | {r.request.tenant_class for r in self.rejected})
        span = self.makespan_s
        out: Dict[str, Dict[str, float]] = {}
        for name in names:
            done = [c for c in self.completed
                    if c.request.tenant_class == name]
            met = [c for c in done if self.met_slo(c)]
            ttfts = [c.ttft_s for c in done if c.ttft_s is not None]
            tbts = [c.mean_tbt_s for c in done
                    if c.mean_tbt_s is not None]
            out[name] = {
                "completed": float(len(done)),
                "rejected": float(sum(
                    1 for r in self.rejected
                    if r.request.tenant_class == name)),
                "preempted_requests": float(sum(
                    1 for c in done if c.preemptions)),
                "slo_attainment":
                    len(met) / len(done) if done else 0.0,
                "throughput_tokens_per_s":
                    sum(c.request.output_len for c in done) / span
                    if span else 0.0,
                "goodput_tokens_per_s":
                    sum(c.request.output_len for c in met) / span
                    if span else 0.0,
                "mean_ttft_s":
                    float(np.mean(ttfts)) if ttfts else 0.0,
                "p95_ttft_s":
                    float(np.percentile(ttfts, 95)) if ttfts else 0.0,
                "mean_tbt_s": float(np.mean(tbts)) if tbts else 0.0,
            }
        return out

    @property
    def failovers(self) -> int:
        """Total in-flight requests requeued by device failures."""
        return sum(e.requeued for e in self.failover_events)

    @property
    def mean_failover_latency_s(self) -> float:
        """Mean failure-to-readmission delay; 0.0 with no failovers."""
        if not self.failover_latencies_s:
            return 0.0
        return float(np.mean(self.failover_latencies_s))

    @property
    def mean_occupancy(self) -> float:
        """Time-weighted mean batch size per busy device-second."""
        return self.occupancy_time_s / self.busy_s if self.busy_s else 0.0

    @property
    def available_device_s(self) -> float:
        """Device-seconds of serving capacity actually available.

        ``num_instances * makespan_s`` minus the capacity destroyed by
        permanent device failures (``lost_device_s``): a dead device
        stops accruing capacity at its failure time instead of being
        charged as idle for the rest of the run.
        """
        return max(0.0,
                   self.makespan_s * self.num_instances
                   - self.lost_device_s)

    @property
    def instance_utilization(self) -> float:
        """Busy device-seconds over *available* device-seconds.

        Overrides the FCFS definition (per-request busy time summed
        over instances), which would double-count overlapping
        residents.  The denominator excludes capacity lost to
        permanent device failures.
        """
        capacity = self.available_device_s
        return self.busy_s / capacity if capacity else 0.0

    def _ttfts(self) -> np.ndarray:
        return np.array([c.ttft_s for c in self.completed
                         if c.ttft_s is not None])

    @property
    def mean_ttft_s(self) -> float:
        ttfts = self._ttfts()
        return float(ttfts.mean()) if len(ttfts) else 0.0

    @property
    def p95_ttft_s(self) -> float:
        ttfts = self._ttfts()
        return float(np.percentile(ttfts, 95)) if len(ttfts) else 0.0

    @property
    def mean_tbt_s(self) -> float:
        tbts = [c.mean_tbt_s for c in self.completed
                if c.mean_tbt_s is not None]
        return float(np.mean(tbts)) if tbts else 0.0

    def as_dict(self) -> Dict[str, float]:
        out = super().as_dict()
        out.update({
            "num_iterations": float(self.num_iterations),
            "max_occupancy": float(self.max_occupancy),
            "mean_occupancy": self.mean_occupancy,
            "mean_ttft_s": self.mean_ttft_s,
            "p95_ttft_s": self.p95_ttft_s,
            "mean_tbt_s": self.mean_tbt_s,
            "stall_s": self.stall_s,
            "devices_failed": float(self.devices_failed),
            "lost_device_s": self.lost_device_s,
            "failovers": float(self.failovers),
            "mean_failover_latency_s": self.mean_failover_latency_s,
            "preemptions": float(self.preemptions),
            "goodput_tokens_per_s": self.goodput_tokens_per_s,
            "slo_attainment": self.slo_attainment,
        })
        return out


@dataclass
class ContinuousBatchScheduler:
    """Continuous-batching scheduler forming each device's batch anew
    every decode step.

    Attributes:
        step: Per-iteration cost model (prefill and batched decode);
            :class:`repro.perf.analytical.BatchStepTimer` for the
            analytical devices, or any object with the same two
            methods (an optional vectorized ``decode_steps_s``
            accelerates the event kernel's macro-steps).
        config: The model being served (drives KV/position budgets).
        memory_bytes: Per-device memory; parameters are resident, the
            rest is each device's KV admission budget.
        max_batch: Optional hard cap on concurrent requests per device
            (defaults to whatever the KV budget allows).
        num_devices: Model replicas served in parallel (appliance DP).
            Each device runs its own batch and its own timeline.
            Scheduled device faults from an ambient
            :class:`~repro.faults.FaultPlan` stall or permanently fail
            individual devices — the engine requeues the victims and
            re-admits them against surviving capacity.
        classes: Optional tenant class table (a sequence of
            :class:`TenantClass`).  Requests resolve their
            ``tenant_class`` name against it; unknown names get
            default-parameter classes.  With no table (or one class)
            scheduling is plain FCFS.
        slo_admission: When true, classes with TTFT/TBT targets shed
            requests whose projected service level cannot be met, via
            the typed :class:`~repro.errors.AdmissionError` path.
            Requests already admitted once (failover or preemption
            victims) are never shed — their work is preserved.
        tracer: Optional span tracer; defaults to the ambient/no-op one.
        metrics: Optional metrics registry, resolved the same way.
    """

    step: BatchStepModel
    config: LLMConfig
    memory_bytes: int
    max_batch: Optional[int] = None
    num_devices: int = 1
    classes: Optional[Sequence[TenantClass]] = None
    slo_admission: bool = False
    tracer: Optional[object] = None
    metrics: Optional[object] = None

    def __post_init__(self) -> None:
        if self.max_batch is not None and self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if self.num_devices < 1:
            raise ConfigurationError("need at least one device")
        if self.classes is not None:
            names = [tc.name for tc in self.classes]
            if len(set(names)) != len(names):
                raise ConfigurationError(
                    f"duplicate tenant class names: {sorted(names)}")
        if kv_spare_bytes(self.config, self.memory_bytes) <= 0:
            raise ConfigurationError(
                f"{self.config.name} parameters leave no KV room in "
                f"{self.memory_bytes} bytes")

    def class_table(self) -> Dict[str, TenantClass]:
        """The configured classes as a name-keyed table (may be empty)."""
        if not self.classes:
            return {}
        return {tc.name: tc for tc in self.classes}

    def run(self, requests: Sequence[InferenceRequest],
            arrival_times: Optional[Sequence[float]] = None
            ) -> ContinuousBatchStats:
        """Serve ``requests`` with continuous batching; returns stats.

        ``arrival_times`` defaults to all-at-once; pass
        :func:`~repro.appliance.scheduler.poisson_arrivals` for
        open-loop load.  FCFS is preserved: admission considers only the
        head of the waiting queue (head-of-line blocking included).
        """
        if not requests:
            raise ConfigurationError("no requests to schedule")
        if arrival_times is None:
            arrival_times = [0.0] * len(requests)
        if len(arrival_times) != len(requests):
            raise ConfigurationError(
                "arrival_times must match requests in length")
        tracer = get_tracer(self.tracer)
        metrics = get_metrics(self.metrics)
        faults = get_faults()
        events: Sequence[DeviceFaultEvent] = \
            faults.device_events if faults is not None else ()
        waiting = [
            _QueueItem(request=r, arrival_s=a, seq=i)
            for i, (r, a) in enumerate(
                sorted(zip(requests, arrival_times),
                       key=lambda p: p[1]))]
        with tracer.span("scheduler.continuous", category="scheduler",
                         requests=len(requests),
                         memory_gb=self.memory_bytes / GB):
            stats = _EventKernel(self, waiting, tracer, metrics,
                                 faults, events).run()
        if metrics.enabled:
            for c in stats.completed:
                if c.ttft_s is not None:
                    metrics.histogram("scheduler.ttft_s").observe(c.ttft_s)
                if c.mean_tbt_s is not None:
                    metrics.histogram("scheduler.tbt_s").observe(
                        c.mean_tbt_s)
                metrics.histogram("scheduler.latency_s").observe(
                    c.total_latency_s)
        return stats


# -- event-driven kernel ----------------------------------------------

#: Heap-entry priorities: at equal timestamps a device's step completes
#: (and its requests finish) before a fault at that instant strikes,
#: and plain arrival wake-ups come last.
_PRIO_STEP, _PRIO_FAULT, _PRIO_ARRIVAL = 0, 1, 2


class _Device:
    """One device's independent timeline inside the event kernel."""

    __slots__ = ("index", "alive", "busy", "epoch", "batch", "kv_reserved",
                 "stall_until", "failed_at", "unit_kind", "unit_start",
                 "unit_end", "unit_steps", "unit_ends", "unit_prefills",
                 "unit_decoders")

    def __init__(self, index: int) -> None:
        self.index = index
        self.alive = True
        self.busy = False
        self.epoch = 0           # invalidates stale step-complete events
        self.batch: List[_Running] = []
        self.kv_reserved = 0
        self.stall_until = 0.0   # stalls elapse in simulated time
        self.failed_at: Optional[float] = None
        self.unit_kind = ""      # "iter" (prefills + 1 decode) | "decode"
        self.unit_start = 0.0
        self.unit_end = 0.0
        self.unit_steps = 0
        self.unit_ends: Optional[np.ndarray] = None
        self.unit_prefills: Sequence[_Running] = ()
        self.unit_decoders: Sequence[_Running] = ()


class _EventKernel:
    """Global event heap advancing every device at its own pace.

    Three event kinds drive the simulation: request arrivals,
    device-step completions, and scheduled device faults.  A device
    with pending prefills runs one barrier-style iteration (prefill
    block plus one decode step of the previous residents — the atomic
    unit both kernels share); a device with only decoders runs a
    *macro-step*: the whole cohort of decode steps up to its next
    completion, priced in one vectorized call and truncated early only
    if an admission lands on the device mid-flight or a fault is due.
    """

    def __init__(self, sched: ContinuousBatchScheduler,
                 waiting: List[_QueueItem], tracer, metrics, faults,
                 events: Sequence[DeviceFaultEvent]) -> None:
        self.sched = sched
        self.step = sched.step
        self.queue = _WaitQueue(waiting, sched.class_table())
        # Lowest tier any request can run at; classes missing from the
        # table default to priority 0.
        self.lowest_prio = min(
            [0, *(tc.priority for tc in self.queue.classes.values())])
        self.tracer = tracer
        self.metrics = metrics
        self.faults = faults
        self.events = tuple(events)
        self.kv_budget = kv_spare_bytes(sched.config, sched.memory_bytes)
        self.devs = [_Device(d) for d in range(sched.num_devices)]
        self.heap: List[tuple] = []
        self.seq = itertools.count()
        self.fault_idx = 0
        self.free_slots: List[int] = []
        self.next_slot = 0
        self.in_flight = 0
        self.completed: List[CompletedRequest] = []
        self.rejected: List[RejectedRequest] = []
        self.failover_events: List[FailoverEvent] = []
        self.failover_latencies: List[float] = []
        self.iterations = 0
        self.max_occupancy = 0
        self.busy_s = 0.0
        self.occupancy_time_s = 0.0
        self.stall_total_s = 0.0
        self.devices_failed = 0
        self.preempted = 0
        self.units_traced = 0
        self._arrival_key: Optional[Tuple[int, float]] = None

    # -- event loop ----------------------------------------------------

    def run(self) -> ContinuousBatchStats:
        for idx, event in enumerate(self.events):
            heapq.heappush(self.heap, (event.at_s, _PRIO_FAULT,
                                       next(self.seq), idx, 0))
        self._admit_and_start(0.0)
        while self.heap or len(self.queue):
            if not self.heap:
                # Only future arrivals remain; jump to the earliest
                # class head.
                arrival = self.queue.earliest_head_arrival()
                if arrival is None:  # pragma: no cover - invariant
                    break
                if not any(dev.busy for dev in self.devs):
                    self._admit_and_start(arrival)
                    nxt = self.queue.earliest_head_arrival()
                    if not self.heap and nxt is not None \
                            and nxt <= arrival:
                        raise SimulationError(
                            "admission deadlock: waiting head can "
                            "never be admitted")
                    continue
                raise SimulationError(  # pragma: no cover - invariant
                    "busy device without a pending step event")
            now, prio, _seq, a, b = heapq.heappop(self.heap)
            if prio == _PRIO_STEP:
                self._on_step_done(now, self.devs[a], b)
            elif prio == _PRIO_FAULT:
                self._on_fault(now, a)
            else:
                self._admit_and_start(now)  # arrival wake-up
        makespan = max(c.finish_s for c in self.completed) \
            if self.completed else 0.0
        lost = sum(max(0.0, makespan - dev.failed_at)
                   for dev in self.devs if dev.failed_at is not None)
        return ContinuousBatchStats(
            completed=self.completed, makespan_s=makespan,
            num_instances=self.sched.num_devices,
            rejected=self.rejected, num_iterations=self.iterations,
            max_occupancy=self.max_occupancy, busy_s=self.busy_s,
            occupancy_time_s=self.occupancy_time_s,
            stall_s=self.stall_total_s,
            devices_failed=self.devices_failed,
            lost_device_s=lost,
            failover_events=self.failover_events,
            failover_latencies_s=self.failover_latencies,
            preemptions=self.preempted,
            tenant_classes=dict(self.queue.classes))

    # -- step planning -------------------------------------------------

    def _next_fault_time(self) -> Optional[float]:
        if self.fault_idx < len(self.events):
            return self.events[self.fault_idx].at_s
        return None

    def _decode_run(self, batch: int, ctx0: int, k: int) -> np.ndarray:
        """Durations of ``k`` consecutive decode steps, vectorized.

        The mean context of an unchanged batch grows by exactly one
        token per step, so the cohort is ``ctx0 .. ctx0+k-1``; step
        models exposing ``decode_steps_s`` price it in one call.
        """
        steps = getattr(self.step, "decode_steps_s", None)
        if steps is not None:
            return np.asarray(
                steps(batch, ctx0 + np.arange(k)), dtype=float)
        return np.array([self.step.decode_step_s(batch, ctx0 + i)
                         for i in range(k)], dtype=float)

    def _start_unit(self, dev: _Device, now: float) -> None:
        """Plan the device's next unit and schedule its completion."""
        prefills = [e for e in dev.batch if e.generated == 0]
        decoders = [e for e in dev.batch
                    if e.generated > 0 and not e.done]
        if not prefills and not decoders:
            return
        start = max(now, dev.stall_until)
        if prefills:
            # Barrier-style iteration: prefill block plus one decode
            # step of the previous residents (atomic, like one
            # iteration of the legacy kernel).
            cursor = start
            for e in prefills:
                cursor += self.step.prefill_s(e.request.input_len)
                e.admitted_s = start  # service begins at unit start
                e.first_token_s = cursor
            decode_s = 0.0
            if decoders:
                mean_ctx = int(math.ceil(
                    sum(e.context_len for e in decoders)
                    / len(decoders)))
                decode_s = self.step.decode_step_s(len(decoders),
                                                   mean_ctx)
            dev.unit_kind = "iter"
            dev.unit_steps = 1
            dev.unit_ends = None
            dev.unit_end = cursor + decode_s
        else:
            # Macro-step: the whole cohort of decode steps up to the
            # batch's next completion, bounded by the next scheduled
            # fault so stalls/failures strike at a step boundary.
            n = len(decoders)
            k = min(e.request.output_len - e.generated
                    for e in decoders)
            ctx0 = int(math.ceil(
                sum(e.context_len for e in decoders) / n))
            if k == 1:
                dev.unit_ends = None
                dev.unit_end = start + self.step.decode_step_s(n, ctx0)
            else:
                durs = self._decode_run(n, ctx0, k)
                # Sequential cumulative sum from `start`, so step
                # boundaries are bit-identical to the one-step-at-a-
                # time barrier arithmetic.
                ends = np.cumsum(
                    np.concatenate(((start,), durs)))[1:]
                next_fault = self._next_fault_time()
                if next_fault is not None \
                        and next_fault < float(ends[-1]):
                    j = int(np.searchsorted(ends, next_fault,
                                            side="left"))
                    k = min(k, j + 1)
                    ends = ends[:k]
                dev.unit_ends = ends
                dev.unit_end = float(ends[-1])
            dev.unit_kind = "decode"
            dev.unit_steps = k
        dev.unit_start = start
        dev.unit_prefills = prefills
        dev.unit_decoders = decoders
        dev.busy = True
        dev.epoch += 1
        heapq.heappush(self.heap, (dev.unit_end, _PRIO_STEP,
                                   next(self.seq), dev.index, dev.epoch))

    def _truncate_unit(self, dev: _Device, now: float) -> None:
        """Cut an in-flight macro-step at its next boundary >= now.

        Called when an admission lands on a busy device: the new
        request's prefill can begin at the device's next decode-step
        boundary instead of waiting out the whole macro-step.
        Prefill-bearing units are atomic (as in the barrier kernel).
        """
        if not dev.busy or dev.unit_kind != "decode" \
                or dev.unit_ends is None:
            return
        ends = dev.unit_ends
        j = int(np.searchsorted(ends, now, side="left"))
        if j + 1 >= len(ends):
            return  # already ends at the next boundary
        dev.unit_steps = j + 1
        dev.unit_ends = ends[:j + 1]
        dev.unit_end = float(ends[j])
        dev.epoch += 1
        heapq.heappush(self.heap, (dev.unit_end, _PRIO_STEP,
                                   next(self.seq), dev.index, dev.epoch))

    # -- event handlers ------------------------------------------------

    def _on_step_done(self, now: float, dev: _Device, epoch: int) -> None:
        if epoch != dev.epoch or not dev.busy:
            return  # stale event: unit was truncated or cancelled
        dev.busy = False
        # Occupancy is charged for the unit's members (the batch as of
        # unit start); requests admitted mid-unit hold KV but only
        # occupy a batch slot from their own first unit on.
        occupancy = len(dev.unit_prefills) + len(dev.unit_decoders)
        k = dev.unit_steps
        decoders = dev.unit_decoders
        if dev.unit_kind == "iter":
            for e in dev.unit_prefills:
                e.generated = 1
            for e in decoders:
                e.generated += 1
            self.busy_s += now - dev.unit_start
            self.occupancy_time_s += (now - dev.unit_start) * occupancy
            total_decodes = len(decoders)
        else:
            for e in decoders:
                e.generated += k
            # Per-boundary accumulation matches the barrier kernel's
            # iteration-by-iteration float arithmetic exactly.
            prev = dev.unit_start
            ends = dev.unit_ends if dev.unit_ends is not None \
                else (dev.unit_end,)
            for boundary in ends:
                boundary = float(boundary)
                self.busy_s += boundary - prev
                self.occupancy_time_s += (boundary - prev) * occupancy
                prev = boundary
            total_decodes = len(decoders) * k
        self.iterations += k
        if self.max_occupancy < self.in_flight:
            self.max_occupancy = self.in_flight
        self._complete_done(dev, now)
        if self.tracer.enabled \
                and self.units_traced < MAX_TRACED_ITERATIONS:
            self.units_traced += 1
            self.tracer.sim_span(
                "batch_step", start_s=dev.unit_start,
                dur_s=now - dev.unit_start,
                track=f"scheduler.dev{dev.index}", category="scheduler",
                args={"device": dev.index, "steps": k,
                      "prefills": len(dev.unit_prefills),
                      "decodes": total_decodes,
                      "occupancy": occupancy,
                      "kv_reserved_gb": dev.kv_reserved / GB})
        if self.metrics.enabled:
            self.metrics.gauge("scheduler.batch_occupancy").set(
                occupancy)
            self.metrics.counter("scheduler.decode_steps").inc(
                total_decodes)
            self.metrics.counter("scheduler.prefills").inc(
                len(dev.unit_prefills))
        dev.unit_prefills = ()
        dev.unit_decoders = ()
        dev.unit_ends = None
        self._admit_and_start(now)

    def _complete_done(self, dev: _Device, now: float) -> None:
        done = [e for e in dev.batch if e.done]
        if not done:
            return
        dev.batch = [e for e in dev.batch if not e.done]
        for entry in done:
            dev.kv_reserved -= entry.kv_reserved
            heapq.heappush(self.free_slots, entry.slot)
            self.in_flight -= 1
            self.completed.append(CompletedRequest(
                request=entry.request,
                arrival_s=entry.arrival_s,
                start_s=entry.admitted_s,
                finish_s=now,
                first_token_s=entry.first_token_s,
                failovers=entry.failovers,
                preemptions=entry.preempted))
            if self.tracer.enabled:
                self.tracer.sim_span(
                    "request", start_s=entry.admitted_s,
                    dur_s=now - entry.admitted_s,
                    track=f"scheduler.slot{entry.slot}",
                    category="scheduler",
                    args={"request_id": entry.request.request_id,
                          "queue_wait_s":
                              entry.admitted_s - entry.arrival_s,
                          "ttft_s": entry.first_token_s
                          - entry.arrival_s,
                          "output_tokens": entry.request.output_len})

    def _on_fault(self, now: float, idx: int) -> None:
        event = self.events[idx]
        self.fault_idx = idx + 1
        if event.device >= len(self.devs):
            self._admit_and_start(now)
            return  # unmapped device
        dev = self.devs[event.device]
        if not dev.alive:
            self._admit_and_start(now)
            return
        if event.kind is DeviceFaultKind.STALL:
            # The stall elapses in simulated time starting now (or at
            # the end of the step in flight); a stall fully absorbed by
            # idle time delays nobody.
            base = dev.unit_end if dev.busy \
                else max(now, dev.stall_until)
            dev.stall_until = base + event.duration_s
            self.stall_total_s += event.duration_s
            if self.faults is not None:
                self.faults.note_stall(event.duration_s)
            if self.metrics.enabled:
                self.metrics.counter("scheduler.device_stalls").inc()
            if self.tracer.enabled:
                self.tracer.sim_span(
                    "device_stall", start_s=base,
                    dur_s=event.duration_s,
                    track="scheduler.faults", category="faults",
                    args={"device": event.device})
            self._admit_and_start(now)
            return
        # Permanent failure at its true time: the step in flight is
        # cancelled, in-flight requests lose their KV caches and return
        # to the queue head (original order) to re-run admission
        # against the surviving capacity.
        dev.alive = False
        dev.failed_at = now
        self.devices_failed += 1
        if dev.busy:
            dev.busy = False
            dev.epoch += 1  # invalidate the pending step event
            dev.unit_prefills = ()
            dev.unit_decoders = ()
            dev.unit_ends = None
        victims = dev.batch
        dev.batch = []
        for victim in victims:
            dev.kv_reserved -= victim.kv_reserved
            heapq.heappush(self.free_slots, victim.slot)
            self.in_flight -= 1
        self.queue.push_front([
            _QueueItem(request=v.request, arrival_s=v.arrival_s,
                       seq=v.seq, failovers=v.failovers + 1,
                       preemptions=v.preempted, requeued_at=now)
            for v in victims])
        for v in victims:
            self.queue.refund(v.cls_name, v.request.total_tokens)
        self.failover_events.append(FailoverEvent(
            at_s=now, device=event.device, requeued=len(victims)))
        if self.faults is not None:
            self.faults.note_device_failure(requeued=len(victims))
        if self.metrics.enabled:
            self.metrics.counter("scheduler.device_failures").inc()
            self.metrics.counter("scheduler.requeued").inc(len(victims))
        if self.tracer.enabled:
            self.tracer.sim_span(
                "device_fail", start_s=now, dur_s=0.0,
                track="scheduler.faults", category="faults",
                args={"device": event.device,
                      "requeued": len(victims)})
        if not any(d.alive for d in self.devs):
            for item in self.queue.drain():
                error = DeviceLostError(
                    "all devices failed; serving capacity lost")
                self.rejected.append(RejectedRequest.of(
                    item.request, item.arrival_s, error))
                if self.metrics.enabled:
                    self.metrics.counter("scheduler.rejected").inc()
            self.heap.clear()
            return
        self._admit_and_start(now)

    # -- admission -----------------------------------------------------

    def _pick_device(self) -> Optional[_Device]:
        """Least-reserved surviving device with a batch slot, or None."""
        max_batch = self.sched.max_batch
        best: Optional[_Device] = None
        for dev in self.devs:
            if not dev.alive:
                continue
            if max_batch is not None and len(dev.batch) >= max_batch:
                continue
            if best is None or dev.kv_reserved < best.kv_reserved:
                best = dev
        return best

    def _reject(self, item: _QueueItem, error, slo: bool = False) -> None:
        self.rejected.append(RejectedRequest.of(
            item.request, item.arrival_s, error))
        if self.metrics.enabled:
            self.metrics.counter("scheduler.rejected").inc()
            if slo:
                self.metrics.counter("scheduler.slo_rejected").inc()

    def _plan_preemption(self, priority: int, peak: int
                         ) -> Tuple[Optional[_Device], List[_Running]]:
        """Cheapest strictly-lower-priority eviction set fitting ``peak``.

        Per device, victims are taken lowest-priority-first, then
        most-recently-admitted (LIFO preserves the oldest work), then
        latest batch position, until the device has both KV room and a
        batch slot.  Among viable devices the plan with the fewest
        victims wins, then the least KV freed (least over-eviction),
        then the lowest device index.
        """
        if priority <= self.lowest_prio:
            return None, []  # no running request can sit in a lower tier
        max_batch = self.sched.max_batch
        best_key: Optional[Tuple[int, int, int]] = None
        best: Tuple[Optional[_Device], List[_Running]] = (None, [])
        for dev in self.devs:
            if not dev.alive:
                continue
            order = sorted(
                ((e.prio, -e.admitted_s, -i, e)
                 for i, e in enumerate(dev.batch) if e.prio < priority),
                key=lambda t: t[:3])
            victims: List[_Running] = []
            freed = 0
            for _p, _a, _i, e in order:
                kv_ok = dev.kv_reserved - freed + peak <= self.kv_budget
                slot_ok = max_batch is None \
                    or len(dev.batch) - len(victims) < max_batch
                if kv_ok and slot_ok:
                    break
                victims.append(e)
                freed += e.kv_reserved
            kv_ok = dev.kv_reserved - freed + peak <= self.kv_budget
            slot_ok = max_batch is None \
                or len(dev.batch) - len(victims) < max_batch
            if not victims or not kv_ok or not slot_ok:
                continue
            key = (len(victims), freed, dev.index)
            if best_key is None or key < best_key:
                best_key, best = key, (dev, victims)
        return best

    def _preempt(self, dev: _Device, victims: List[_Running],
                 now: float) -> None:
        """Evict ``victims`` from ``dev`` back to their class fronts.

        Victims lose their KV reservation and batch slot and restart
        from prefill at re-admission — the same restart semantics as
        failover requeue, but attributed to ``preemptions`` and kept
        out of the failover-latency distribution.  A victim inside the
        device's in-flight unit keeps its already-planned step work
        (charged as occupancy) but its stale running state is simply
        abandoned; decode macro-steps are truncated at the next
        boundary so the freed capacity is usable immediately after.
        """
        if dev.busy:
            self._truncate_unit(dev, now)
        items: List[_QueueItem] = []
        for v in victims:
            dev.batch.remove(v)  # identity comparison (eq=False)
            dev.kv_reserved -= v.kv_reserved
            heapq.heappush(self.free_slots, v.slot)
            self.in_flight -= 1
            self.queue.refund(v.cls_name, v.request.total_tokens)
            self.preempted += 1
            items.append(_QueueItem(
                request=v.request, arrival_s=v.arrival_s, seq=v.seq,
                failovers=v.failovers, preemptions=v.preempted + 1))
        self.queue.push_front(items)
        if self.metrics.enabled:
            self.metrics.counter("scheduler.preempted").inc(len(victims))
        if self.tracer.enabled:
            self.tracer.sim_span(
                "preempt", start_s=now, dur_s=0.0,
                track="scheduler.preempt", category="scheduler",
                args={"device": dev.index, "victims": len(victims)})

    def _projected_ttft(self, item: _QueueItem, dev: _Device,
                        victims: List[_Running], now: float) -> float:
        """Projected TTFT if admitted to ``dev`` now (victims evicted).

        The prefill starts at the later of now, the stall horizon, and
        the device's next step boundary (a decode macro-step truncates
        there; a prefill-bearing unit is atomic), behind the prefills
        of already-admitted requests that have not run yet.
        """
        if dev.busy and dev.unit_kind == "decode" \
                and dev.unit_ends is not None:
            ends = dev.unit_ends
            j = int(np.searchsorted(ends, now, side="left"))
            busy_until = float(ends[min(j, len(ends) - 1)])
        elif dev.busy:
            busy_until = dev.unit_end
        else:
            busy_until = now
        start = max(now, dev.stall_until, busy_until)
        queued = sum(
            self.step.prefill_s(e.request.input_len)
            for e in dev.batch
            if e.generated == 0
            and not any(e is p for p in dev.unit_prefills)
            and not any(e is v for v in victims))
        own = self.step.prefill_s(item.request.input_len)
        return start + queued + own - item.arrival_s

    def _projected_tbt(self, item: _QueueItem, dev: _Device,
                       victims: List[_Running]) -> float:
        """Projected decode step time at the post-admission occupancy."""
        survivors = [e for e in dev.batch
                     if not any(e is v for v in victims)]
        batch = len(survivors) + 1
        ctx = int(math.ceil(
            (sum(e.context_len for e in survivors)
             + item.request.input_len + 1) / batch))
        return self.step.decode_step_s(batch, ctx)

    def _slo_error(self, tc: TenantClass, item: _QueueItem,
                   dev: _Device, victims: List[_Running],
                   now: float) -> Optional[AdmissionError]:
        """Typed rejection when the projected service level misses SLO."""
        if tc.ttft_target_s is not None:
            ttft = self._projected_ttft(item, dev, victims, now)
            if ttft > tc.ttft_target_s:
                return AdmissionError(
                    f"class {tc.name}: projected TTFT {ttft:.3f}s "
                    f"exceeds target {tc.ttft_target_s:.3f}s")
        if tc.tbt_target_s is not None:
            tbt = self._projected_tbt(item, dev, victims)
            if tbt > tc.tbt_target_s:
                return AdmissionError(
                    f"class {tc.name}: projected TBT {tbt:.4f}s "
                    f"exceeds target {tc.tbt_target_s:.4f}s")
        return None

    def _admit_and_start(self, now: float) -> None:
        """Admit from the class heads, then kick every idle device.

        Each pass selects the eligible class by strict priority then
        weighted fair share (see :meth:`_WaitQueue.select`) and tries
        its head.  A head that cannot fit blocks its class and every
        strictly lower tier for the rest of the pass — unless evicting
        strictly lower-priority work makes room (preemption).  With a
        single class this is exactly FCFS head-of-line admission.

        Admission happens at the event's true time: the KV reservation
        is taken immediately, and if the target device is mid
        macro-step the step is truncated so the prefill begins at the
        next decode boundary.
        """
        sched = self.sched
        metrics = self.metrics
        queue = self.queue
        blocked: set = set()
        prio_floor: Optional[int] = None
        while True:
            name = queue.select(now, blocked, prio_floor)
            if name is None:
                break
            tc = queue.cls(name)
            item = queue.peek(name)
            request = item.request
            error = infeasible_error(sched.config, sched.memory_bytes,
                                     request)
            if error is not None:
                queue.pop(name)
                self._reject(item, error)
                continue
            peak = peak_kv_bytes(sched.config, request.input_len,
                                 request.output_len)
            dev = self._pick_device()
            if dev is not None \
                    and dev.kv_reserved + peak > self.kv_budget:
                dev = None  # no KV room on the least-reserved device
            victims: List[_Running] = []
            if dev is None:
                dev, victims = self._plan_preemption(tc.priority, peak)
            if dev is None:
                # Head-of-line blocking: this class waits, and so does
                # every strictly lower tier.
                blocked.add(name)
                prio_floor = tc.priority if prio_floor is None \
                    else max(prio_floor, tc.priority)
                continue
            if sched.slo_admission and not item.failovers \
                    and not item.preemptions:
                error = self._slo_error(tc, item, dev, victims, now)
                if error is not None:
                    queue.pop(name)
                    self._reject(item, error, slo=True)
                    continue
            if victims:
                self._preempt(dev, victims, now)
            queue.pop(name)
            queue.charge(name, request.total_tokens)
            if self.free_slots:
                slot = heapq.heappop(self.free_slots)
            else:
                slot = self.next_slot
                self.next_slot += 1
            entry = _Running(request=request, arrival_s=item.arrival_s,
                             admitted_s=now, kv_reserved=peak,
                             slot=slot, device=dev.index,
                             failovers=item.failovers,
                             requeued_at=item.requeued_at,
                             seq=item.seq, preempted=item.preemptions,
                             cls_name=name, prio=tc.priority)
            if item.requeued_at is not None:
                latency = now - item.requeued_at
                self.failover_latencies.append(latency)
                if self.faults is not None:
                    self.faults.note_failover_latency(latency)
                if metrics.enabled:
                    metrics.counter("scheduler.failover_readmits").inc()
            dev.kv_reserved += peak
            dev.batch.append(entry)
            self.in_flight += 1
            if self.max_occupancy < self.in_flight:
                self.max_occupancy = self.in_flight
            if metrics.enabled:
                metrics.counter("scheduler.admitted").inc()
            if dev.busy:
                self._truncate_unit(dev, now)
        for dev in self.devs:
            if dev.alive and not dev.busy and dev.batch:
                self._start_unit(dev, now)
        # Wake up when the earliest future class head arrives, if any.
        nxt = queue.next_wakeup(now)
        if nxt is not None:
            arrival, item_seq = nxt
            key = (item_seq, arrival)
            if key != self._arrival_key:
                self._arrival_key = key
                heapq.heappush(self.heap, (arrival, _PRIO_ARRIVAL,
                                           next(self.seq), -1, 0))
