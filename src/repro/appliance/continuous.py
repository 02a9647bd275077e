"""Continuous batching over model replicas: event-driven serving kernel.

The paper measures single-stream execution: a request owns a device
for its whole lifetime, so every gen token re-streams all parameters
for a single row of activations — the bandwidth-bound GEMV regime of
paper §VII.  Serving systems instead re-form the batch *every
iteration*: requests join the running batch as soon as their KV cache
fits (admission control), each decode step processes one token from
every running request against once-streamed weights (small-batch GEMM,
the lever of the paper's ref [10]), and requests leave the moment their
last token is produced.  Both regimes are one engine:
:class:`ContinuousBatchScheduler` at ``max_batch=1`` is the
FCFS-exclusive baseline (``repro serve --compare-fcfs``), and without
the cap it batches.

:class:`ContinuousBatchScheduler` simulates that regime at decode-step
granularity with a **global event heap** of request-arrival,
device-step-complete, and device-fault events; each device's timeline
advances independently.  Quiet decode stretches (no pending admission,
no fault before the next completion) run as one *macro-step* whose
cohort of decode steps is priced in one call
(``step.decode_steps_s`` when the model provides it), which consults
the cost model once per run of equal quantized context.

Every decoder on a device advances one token per decode step, so a
device keeps a **step clock** (decode steps completed) and a decoding
request stores only its ``origin``, the clock value at which it had
generated 0 tokens.  The device keeps integer aggregates — decoder
count, Σ``input_len``, Σ``origin``, the pending-prefill list and a
finish heap of ``(origin + output_len, order)`` — so planning a unit
(mean context, steps to the next completion) and advancing it are
O(1) in the batch size; completing one costs O(log n) per finished
request, and only preemption and failover touch the heap's middle.

Scheduling semantics (admission, eviction and shedding are decided by
:class:`~repro.appliance.admission.AdmissionPolicy`; this kernel
carries the decisions out):

* **Admission** — FCFS from the waiting queue; a request is admitted
  when the target device has a slot (``max_batch``) and its *peak* KV
  footprint fits in the reserved-KV budget (``kv_spare_bytes``), so no
  request is evicted mid-flight for memory.  Requests that can never
  be served (position budget or device memory) are rejected with a
  typed reason.
* **Iteration** — newly admitted requests run their prefill (emitting
  their first token); everyone else advances one decode step, costed
  at the batch's mean context.
* **Completion** — a request reaching ``output_len`` leaves and frees
  its KV reservation at its own device's step boundary.
* **Tenant classes** (:class:`TenantClass`, inert unless configured) —
  strict priority tiers, weighted fair queuing within a tier,
  preemption of strictly lower tiers under KV or slot pressure
  (victims restart from prefill), and SLO admission
  (``slo_admission=True``) shedding requests whose projected TTFT/TBT
  misses their class target, with goodput reported beside throughput.

Observability (per-device-step sim spans on ``scheduler.dev<i>``
tracks, batch-occupancy and queue-depth gauges, admission/rejection
counters) only records — results are bit-identical with tracing on or
off.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.appliance.admission import (
    AdmissionPolicy,
    QueueItem,
    TenantClass,
    resolve_class,
)
from repro.appliance.scheduler import CompletedRequest, RejectedRequest
from repro.errors import ConfigurationError, DeviceLostError, SimulationError
from repro.faults.context import get_faults
from repro.faults.plan import DeviceFaultEvent, DeviceFaultKind
from repro.llm.config import LLMConfig
from repro.llm.kvcache import kv_spare_bytes
from repro.llm.workload import InferenceRequest
from repro.obs.context import get_metrics, get_tracer
from repro.perf.analytical import left_sum
from repro.units import GB

#: Device-step sim-spans traced per run; long runs have tens of
#: thousands of near-identical steps, so the trace keeps the first ones
#: and notes the truncation in the span args.
MAX_TRACED_ITERATIONS = 4096


class BatchStepModel(Protocol):
    """What the engine needs from a cost model: per-iteration seconds.

    A step model *may* additionally provide
    ``decode_steps_s(batch, context_lens) -> List[float]`` — a cohort
    evaluation used by the event kernel's macro-steps, which receives
    the cohort's contexts as a list of ints and whose list is used as
    is (see :meth:`repro.perf.analytical.StepTimer.decode_steps_s`).  Models
    without it fall back to one ``decode_step_s`` call per step.
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
    return SimulatedStepTimer(config, simulator=AcceleratorSimulator(device),
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


@dataclass(eq=False, slots=True)
class _Running:
    """A request admitted to a device's batch (identity semantics).

    ``item`` is the request's one record, kept from arrival to
    completion, so a requeue puts the same record back on the queue.
    ``order`` is the request's admission number on its device (the key
    of ``dev.batch``).  A decoding request stores ``origin``, the
    device's step clock at which it had generated 0 tokens, so
    ``generated`` is derived from the clock rather than counted; a
    request waiting for its prefill has no origin.
    """

    item: QueueItem
    admitted_s: float
    slot: int
    dev: "_Device"
    order: int
    origin: Optional[int] = None
    first_token_s: Optional[float] = None

    @property
    def generated(self) -> int:
        """Tokens produced so far (0 while the prefill is pending)."""
        if self.origin is None:
            return 0
        return self.dev.clock - self.origin

    @property
    def context_len(self) -> int:
        """Attention span of this request's next decode step."""
        return self.item.request.input_len + self.generated


@dataclass
class ContinuousBatchStats:
    """Aggregate statistics of one serving run.

    All latency aggregates report 0.0 when nothing completed — an
    admission-controlled run that rejects everything is still a valid,
    reportable outcome (the ``rejected`` list says why).

    ``num_instances`` mirrors the engine's ``num_devices`` (1 unless
    the run models a multi-device appliance).  The failover fields are
    only non-trivial when a fault plan scheduled device events
    (``repro.faults``): ``failover_events`` is the survived-failure
    timeline, ``failover_latencies_s`` holds the queue-to-readmission
    delay of every requeued request, ``stall_s`` totals the transient
    device stalls that elapsed in simulated time (a stall overlapping
    idle time still counts here but delays nobody), and
    ``lost_device_s`` is the serving capacity destroyed by permanent
    failures — for each dead device, the span from its failure to the
    end of the run.
    """

    completed: List[CompletedRequest]
    makespan_s: float
    num_instances: int
    rejected: List[RejectedRequest] = field(default_factory=list)
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

    def met_slo(self, completed: CompletedRequest) -> bool:
        """Did this completed request meet its class's SLO targets?"""
        return resolve_class(self.tenant_classes,
                             completed.request.tenant_class).met_by(completed)

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
        """Fraction of *offered* requests (completed + rejected) that
        completed and met their class targets; a shed request misses."""
        offered = len(self.completed) + len(self.rejected)
        met = sum(1 for c in self.completed if self.met_slo(c))
        return met / offered if offered else 0.0

    @property
    def shed_ratio(self) -> float:
        """Fraction of *offered* requests that were shed: rejected over
        offered, where offered = completed + rejected (0 when nothing
        was offered)."""
        offered = len(self.completed) + len(self.rejected)
        return len(self.rejected) / offered if offered else 0.0

    def class_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant-class service report, sorted by class name.

        Covers every class that appears in the class table, the
        completed list, or the rejected list — so a class that was
        entirely shed still shows up with its rejection count.
        """
        names = sorted(set(self.tenant_classes)
                       | {c.request.tenant_class for c in self.completed}
                       | {r.request.tenant_class for r in self.rejected})
        out: Dict[str, Dict[str, float]] = {}
        for name in names:
            # The class's own requests, summarized by the run-level
            # formulas over the same makespan.
            part = replace(
                self,
                completed=[c for c in self.completed
                           if c.request.tenant_class == name],
                rejected=[r for r in self.rejected
                          if r.request.tenant_class == name])
            out[name] = {
                "completed": float(len(part.completed)),
                "rejected": float(len(part.rejected)),
                "preempted_requests": float(sum(
                    1 for c in part.completed if c.preemptions)),
                "slo_attainment": part.slo_attainment,
                "throughput_tokens_per_s": part.throughput_tokens_per_s,
                "goodput_tokens_per_s": part.goodput_tokens_per_s,
                "mean_ttft_s": part.mean_ttft_s,
                "p95_ttft_s": part.p95_ttft_s,
                "mean_tbt_s": part.mean_tbt_s,
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

    def _latencies(self) -> np.ndarray:
        return np.array([c.total_latency_s for c in self.completed])

    @property
    def mean_latency_s(self) -> float:
        if not self.completed:
            return 0.0
        return float(self._latencies().mean())

    @property
    def p50_latency_s(self) -> float:
        if not self.completed:
            return 0.0
        return float(np.percentile(self._latencies(), 50))

    @property
    def p95_latency_s(self) -> float:
        if not self.completed:
            return 0.0
        return float(np.percentile(self._latencies(), 95))

    @property
    def mean_queue_wait_s(self) -> float:
        if not self.completed:
            return 0.0
        return float(np.mean([c.queue_wait_s for c in self.completed]))

    @property
    def throughput_tokens_per_s(self) -> float:
        tokens = sum(c.request.output_len for c in self.completed)
        return tokens / self.makespan_s if self.makespan_s else 0.0

    @property
    def instance_utilization(self) -> float:
        """Busy device-seconds over *available* device-seconds.

        A device's busy time counts once however many requests share
        its batch; the denominator excludes capacity lost to permanent
        device failures.
        """
        capacity = self.available_device_s
        return self.busy_s / capacity if capacity else 0.0

    def _ttfts(self) -> np.ndarray:
        return np.array([c.ttft_s for c in self.completed])

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
        """JSON-ready flat view, for exporters and benchmarks.

        Counts, with no denominator: ``requests`` (completed),
        ``rejected``, ``num_instances``, ``num_iterations`` (device
        steps, summed over devices), ``max_occupancy`` (peak requests
        admitted at once, appliance-wide), ``devices_failed``,
        ``failovers`` (requests requeued by device failures) and
        ``preemptions`` (evictions).  Totals in seconds: ``makespan_s``,
        ``stall_s`` and ``lost_device_s``.  Every other field is a mean,
        percentile or ratio over:

        * offered requests (completed + rejected): ``shed_ratio``,
          ``slo_attainment``;
        * completed requests: ``mean_latency_s``, ``p50_latency_s``,
          ``p95_latency_s``, ``mean_queue_wait_s``, ``mean_ttft_s``,
          ``p95_ttft_s``;
        * completed requests with two or more output tokens, each
          averaging its own ``output_len - 1`` gaps: ``mean_tbt_s``;
        * makespan seconds: ``throughput_tokens_per_s``,
          ``goodput_tokens_per_s``;
        * available device-seconds (:attr:`available_device_s`):
          ``instance_utilization``;
        * busy device-seconds: ``mean_occupancy``;
        * failover readmissions: ``mean_failover_latency_s``.
        """
        return {
            "requests": float(len(self.completed)),
            "rejected": float(len(self.rejected)),
            "shed_ratio": self.shed_ratio,
            "num_instances": float(self.num_instances),
            "makespan_s": self.makespan_s,
            "mean_latency_s": self.mean_latency_s,
            "p50_latency_s": self.p50_latency_s,
            "p95_latency_s": self.p95_latency_s,
            "mean_queue_wait_s": self.mean_queue_wait_s,
            "throughput_tokens_per_s": self.throughput_tokens_per_s,
            "instance_utilization": self.instance_utilization,
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
        }


@dataclass
class ContinuousBatchScheduler:
    """Continuous-batching scheduler forming each device's batch anew
    every decode step.

    Attributes:
        step: Per-iteration cost model (prefill and batched decode);
            :class:`repro.perf.analytical.BatchStepTimer` for the
            analytical devices, or any object with the same two
            methods (an optional cohort ``decode_steps_s`` prices the
            event kernel's macro-steps in one call).
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

    def run(self, requests: Sequence[InferenceRequest],
            arrival_times: Optional[Sequence[float]] = None
            ) -> ContinuousBatchStats:
        """Serve ``requests`` with continuous batching; returns stats.

        ``arrival_times`` defaults to all-at-once; pass
        :func:`~repro.llm.workload.steady_arrivals` (or another shape of
        :func:`~repro.llm.workload.arrivals_for_shape`) for open-loop
        load.  FCFS is preserved: admission considers only the head of
        the waiting queue (head-of-line blocking included).
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
            QueueItem(request=r, arrival_s=a, seq=i)
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
                metrics.histogram("scheduler.ttft_s").observe(c.ttft_s)
                if c.mean_tbt_s is not None:
                    metrics.histogram("scheduler.tbt_s").observe(
                        c.mean_tbt_s)
                metrics.histogram("scheduler.queue_wait_s").observe(
                    c.queue_wait_s)
                metrics.histogram("scheduler.latency_s").observe(
                    c.total_latency_s)
            _observe_queue_depth(metrics, stats.completed)
        return stats


def _observe_queue_depth(metrics, completed: Sequence[CompletedRequest]
                         ) -> None:
    """Sweep arrival/start events and gauge the waiting-queue depth.

    The gauge's min/max envelope captures the deepest backlog of the
    run — an open-loop overload shows up here before it shows up in
    p95 latency.
    """
    gauge = metrics.gauge("scheduler.queue_depth")
    # Arrivals before starts at equal timestamps, so an immediately-
    # admitted request never drives the gauge negative.
    events = sorted([(c.arrival_s, 1) for c in completed]
                    + [(c.start_s, -1) for c in completed],
                    key=lambda e: (e[0], -e[1]))
    depth = 0
    for _t, delta in events:
        depth += delta
        gauge.set(depth)


# -- event-driven kernel ----------------------------------------------

#: Heap-entry priorities: at equal timestamps a device's step completes
#: (and its requests finish) before a fault at that instant strikes,
#: and plain arrival wake-ups come last.
_PRIO_STEP, _PRIO_FAULT, _PRIO_ARRIVAL = 0, 1, 2


class _Device:
    """One device's independent timeline inside the event kernel.

    ``batch`` maps admission ``order`` to request, in admission order.
    ``clock`` counts completed decode steps; ``n_dec``, ``sum_in``,
    ``sum_origin`` and the ``finish`` heap aggregate the decoders, and
    ``pending`` lists the requests waiting for prefill, in batch order.
    ``unit_ends`` holds the ascending step boundaries of the unit in
    flight; a unit with prefills is one atomic iteration, so it has
    exactly one.
    """

    __slots__ = ("index", "alive", "busy", "epoch", "batch", "next_order",
                 "clock", "n_dec", "sum_in", "sum_origin", "pending",
                 "finish", "kv_reserved", "stall_until", "failed_at",
                 "unit_start", "unit_ends", "unit_prefills", "unit_n_dec")

    def __init__(self, index: int) -> None:
        self.index = index
        self.alive = True
        self.busy = False
        self.epoch = 0           # invalidates stale step-complete events
        self.batch: Dict[int, _Running] = {}  # admission order -> entry
        self.next_order = 0
        self.clock = 0           # decode steps completed
        self.n_dec = self.sum_in = self.sum_origin = 0
        self.pending: List[_Running] = []
        self.finish: List[Tuple[int, int]] = []
        self.kv_reserved = 0
        self.stall_until = 0.0   # stalls elapse in simulated time
        self.failed_at: Optional[float] = None
        self.unit_start = 0.0
        self.unit_ends: List[float] = []
        self.unit_prefills: Sequence[_Running] = ()
        self.unit_n_dec = 0

    def context_sum(self) -> int:
        """Σ ``context_len`` over the decoders, exactly."""
        return self.sum_in + self.n_dec * self.clock - self.sum_origin

    def next_boundary(self, now: float) -> int:
        """Index of the unit's first step boundary at or after ``now``
        (its last boundary when all lie before ``now``)."""
        return min(bisect.bisect_left(self.unit_ends, now),
                   len(self.unit_ends) - 1)

    def start_decoding(self, entry: _Running) -> None:
        """Count a request whose prefill just ran as one step old."""
        request = entry.item.request
        entry.origin = self.clock - 1
        self.n_dec += 1
        self.sum_in += request.input_len
        self.sum_origin += entry.origin
        heapq.heappush(self.finish, (entry.origin + request.output_len,
                                     entry.order))

    def pop_done(self) -> List[_Running]:
        """Remove the finished decoders, in batch order."""
        orders = []
        while self.finish and self.finish[0][0] <= self.clock:
            orders.append(heapq.heappop(self.finish)[1])
        done = [self.batch[order] for order in sorted(orders)]
        for entry in done:
            self.remove(entry, finished=True)
        return done

    def remove(self, entry: _Running, finished: bool = False) -> None:
        """Take one request out of the batch and the aggregates."""
        request = entry.item.request
        del self.batch[entry.order]
        self.kv_reserved -= entry.item.peak
        if entry.origin is None:
            self.pending.remove(entry)  # identity comparison (eq=False)
            return
        self.n_dec -= 1
        self.sum_in -= request.input_len
        self.sum_origin -= entry.origin
        if not finished:  # pop_done already took it off the heap
            self.finish.remove((entry.origin + request.output_len,
                                entry.order))
            heapq.heapify(self.finish)


class _EventKernel:
    """Global event heap advancing every device at its own pace.

    Three event kinds drive the simulation: request arrivals,
    device-step completions, and scheduled device faults.  A device
    with pending prefills runs one atomic iteration (prefill block plus
    one decode step of the previous residents); a device with only
    decoders runs a *macro-step*: every decode step up to its next
    completion, priced in one cohort call and cut short only by an
    admission landing on the device or a fault falling due.  Whom to
    admit, evict or shed is the :class:`AdmissionPolicy`'s decision.
    """

    def __init__(self, sched: ContinuousBatchScheduler,
                 waiting: List[QueueItem], tracer, metrics, faults,
                 events: Sequence[DeviceFaultEvent]) -> None:
        self.sched = sched
        self.step = sched.step
        self.tracer = tracer
        self.metrics = metrics
        self.faults = faults
        self.events = tuple(events)
        self.devs = [_Device(d) for d in range(sched.num_devices)]
        self.policy = AdmissionPolicy(sched, waiting, self.devs)
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
        while self.heap or len(self.policy):
            if not self.heap:
                # Only future arrivals remain; jump to the earliest
                # class head.
                head = self.policy.next_wakeup(-math.inf)
                if head is None:  # pragma: no cover - invariant
                    break
                if not any(dev.busy for dev in self.devs):
                    self._admit_and_start(head[0])
                    nxt = self.policy.next_wakeup(-math.inf)
                    if not self.heap and nxt is not None \
                            and nxt[0] <= head[0]:
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
        lost = left_sum(max(0.0, makespan - dev.failed_at)
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
            tenant_classes=dict(self.policy.classes))

    # -- step planning -------------------------------------------------

    def _decode_run(self, batch: int, ctx0: int, k: int) -> List[float]:
        """Durations of ``k`` consecutive decode steps.

        The mean context of an unchanged batch grows by exactly one
        token per step, so the cohort is ``ctx0 .. ctx0+k-1``; for
        ``k > 1``, step models exposing ``decode_steps_s`` price it in
        one call, and the returned list is used as is.
        """
        contexts = list(range(ctx0, ctx0 + k))
        steps = getattr(self.step, "decode_steps_s", None)
        if k > 1 and steps is not None:
            return steps(batch, contexts)
        return [float(self.step.decode_step_s(batch, c)) for c in contexts]

    def _start_unit(self, dev: _Device, now: float) -> None:
        """Plan the device's next unit from its clock and aggregates."""
        prefills = list(dev.pending)
        n = dev.n_dec
        if not prefills and not n:
            return
        start = max(now, dev.stall_until)
        if n:
            ctx0 = int(math.ceil(dev.context_sum() / n))
        if prefills:
            # Barrier-style iteration: prefill block plus one decode
            # step of the previous residents (atomic, like one
            # iteration of the legacy kernel).
            cursor = start
            for e in prefills:
                cursor += self.step.prefill_s(e.item.request.input_len)
                e.admitted_s = start  # service begins at unit start
                e.first_token_s = cursor
            decode_s = self.step.decode_step_s(n, ctx0) if n else 0.0
            ends = [cursor + decode_s]
        else:
            # Macro-step: the whole cohort of decode steps up to the
            # batch's next completion, bounded by the next scheduled
            # fault so stalls/failures strike at a step boundary.  A
            # sequential running sum from `start` keeps the boundaries
            # bit-identical to one-step-at-a-time arithmetic.
            k = dev.finish[0][0] - dev.clock
            ends = list(itertools.accumulate(
                self._decode_run(n, ctx0, k), initial=start))[1:]
            fault = self.events[self.fault_idx].at_s \
                if self.fault_idx < len(self.events) else math.inf
            if fault < ends[-1]:
                del ends[bisect.bisect_left(ends, fault) + 1:]
        dev.unit_start = start
        dev.unit_ends = ends
        dev.unit_prefills = prefills
        dev.unit_n_dec = n
        dev.busy = True
        dev.epoch += 1
        heapq.heappush(self.heap, (ends[-1], _PRIO_STEP,
                                   next(self.seq), dev.index, dev.epoch))

    def _truncate_unit(self, dev: _Device, now: float) -> None:
        """Cut an in-flight macro-step at its next boundary >= now.

        Called when an admission lands on a busy device, so the new
        request's prefill begins at the next decode-step boundary.
        Prefill-bearing units are atomic.
        """
        if not dev.busy or dev.unit_prefills:
            return
        j = dev.next_boundary(now)
        if j + 1 == len(dev.unit_ends):
            return  # already ends at the next boundary
        del dev.unit_ends[j + 1:]
        dev.epoch += 1
        heapq.heappush(self.heap, (dev.unit_ends[j], _PRIO_STEP,
                                   next(self.seq), dev.index, dev.epoch))

    # -- event handlers ------------------------------------------------

    def _on_step_done(self, now: float, dev: _Device, epoch: int) -> None:
        if epoch != dev.epoch or not dev.busy:
            return  # stale event: unit was truncated or cancelled
        dev.busy = False
        # Occupancy is charged for the unit's members (the batch as of
        # unit start); requests admitted mid-unit hold KV but only
        # occupy a batch slot from their own first unit on.
        occupancy = len(dev.unit_prefills) + dev.unit_n_dec
        k = len(dev.unit_ends)
        dev.clock += k  # every surviving decoder advances k tokens
        if dev.unit_prefills:
            # The unit's surviving prefills lead the pending list (later
            # admissions were appended behind them).
            survivors = [e for e in dev.unit_prefills
                         if e.order in dev.batch]
            del dev.pending[:len(survivors)]
            for e in survivors:
                dev.start_decoding(e)
        # Per-boundary accumulation matches the barrier kernel's
        # iteration-by-iteration float arithmetic exactly.
        prev = dev.unit_start
        busy, occupied = self.busy_s, self.occupancy_time_s
        for boundary in dev.unit_ends:
            span = boundary - prev
            busy += span
            occupied += span * occupancy
            prev = boundary
        self.busy_s, self.occupancy_time_s = busy, occupied
        total_decodes = dev.unit_n_dec * k
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
        self._admit_and_start(now)

    def _complete_done(self, dev: _Device, now: float) -> None:
        for entry in dev.pop_done():
            item = entry.item
            heapq.heappush(self.free_slots, entry.slot)
            self.in_flight -= 1
            self.completed.append(CompletedRequest(
                request=item.request,
                arrival_s=item.arrival_s,
                start_s=entry.admitted_s,
                finish_s=now,
                first_token_s=entry.first_token_s,
                failovers=item.failovers,
                preemptions=item.preemptions))
            if self.tracer.enabled:
                self.tracer.sim_span(
                    "request", start_s=entry.admitted_s,
                    dur_s=now - entry.admitted_s,
                    track=f"scheduler.slot{entry.slot}",
                    category="scheduler",
                    args={"request_id": item.request.request_id,
                          "queue_wait_s":
                              entry.admitted_s - item.arrival_s,
                          "ttft_s": entry.first_token_s
                          - item.arrival_s,
                          "output_tokens": item.request.output_len})

    def _on_fault(self, now: float, idx: int) -> None:
        event = self.events[idx]
        self.fault_idx = idx + 1
        if event.device >= len(self.devs) \
                or not self.devs[event.device].alive:
            self._admit_and_start(now)
            return  # unmapped or already dead device
        dev = self.devs[event.device]
        if event.kind is DeviceFaultKind.STALL:
            # The stall elapses in simulated time starting now (or at
            # the end of the step in flight); a stall fully absorbed by
            # idle time delays nobody.
            base = dev.unit_ends[-1] if dev.busy \
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
        victims = list(dev.batch.values())
        self._requeue(dev, victims, failed_at=now)
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
            for item in self.policy.drain():
                self._reject(item, DeviceLostError(
                    "all devices failed; serving capacity lost"))
            self.heap.clear()
            return
        self._admit_and_start(now)

    # -- admission -----------------------------------------------------

    def _reject(self, item: QueueItem, error, slo: bool = False) -> None:
        self.rejected.append(RejectedRequest.of(
            item.request, item.arrival_s, error))
        if self.metrics.enabled:
            self.metrics.counter("scheduler.rejected").inc()
            if slo:
                self.metrics.counter("scheduler.slo_rejected").inc()

    def _requeue(self, dev: _Device, victims: List[_Running],
                 failed_at: Optional[float] = None) -> None:
        """Return ``victims`` from ``dev`` to their class queue fronts.

        Victims lose their KV reservation and batch slot and restart
        from prefill at re-admission.  ``failed_at`` marks a failover
        requeue, kept on the record to time the failover latency at
        re-admission; otherwise each victim counts one preemption and
        its record's ``requeued_at`` is cleared.
        """
        for v in victims:
            dev.remove(v)
            heapq.heappush(self.free_slots, v.slot)
            self.in_flight -= 1
            if failed_at is None:
                v.item.preemptions += 1
            else:
                v.item.failovers += 1
            v.item.requeued_at = failed_at
        self.policy.requeue([v.item for v in victims])

    def _preempt(self, dev: _Device, victims: Sequence[_Running],
                 now: float) -> None:
        """Evict ``victims`` from ``dev`` back to their class fronts.

        The same restart semantics as failover requeue, but attributed
        to ``preemptions`` and kept out of the failover-latency
        distribution.  A victim inside the device's in-flight unit
        keeps its already-planned step work (charged as occupancy) but
        leaves the batch and the aggregates; decode macro-steps are
        truncated at the next boundary so the freed capacity is usable
        immediately after.
        """
        if dev.busy:
            self._truncate_unit(dev, now)
        self._requeue(dev, victims)
        self.preempted += len(victims)
        if self.metrics.enabled:
            self.metrics.counter("scheduler.preempted").inc(len(victims))
        if self.tracer.enabled:
            self.tracer.sim_span(
                "preempt", start_s=now, dur_s=0.0,
                track="scheduler.preempt", category="scheduler",
                args={"device": dev.index, "victims": len(victims)})

    def _admit_and_start(self, now: float) -> None:
        """Carry out the policy's admission decisions, then kick every
        idle device.

        Admission happens at the event's true time: the KV reservation
        is taken immediately, and if the target device is mid
        macro-step the step is truncated so the prefill begins at the
        next decode boundary.
        """
        metrics = self.metrics
        for item, dev, victims, error, shed in self.policy.admissions(now):
            if error is not None:
                self._reject(item, error, slo=shed)
                continue
            if victims:
                self._preempt(dev, victims, now)
            if self.free_slots:
                slot = heapq.heappop(self.free_slots)
            else:
                slot = self.next_slot
                self.next_slot += 1
            entry = _Running(item=item, admitted_s=now, slot=slot, dev=dev,
                             order=dev.next_order)
            if item.requeued_at is not None:
                latency = now - item.requeued_at
                self.failover_latencies.append(latency)
                if self.faults is not None:
                    self.faults.note_failover_latency(latency)
                if metrics.enabled:
                    metrics.counter("scheduler.failover_readmits").inc()
            dev.kv_reserved += item.peak
            dev.next_order += 1
            dev.batch[entry.order] = entry
            dev.pending.append(entry)
            self.in_flight += 1
            if self.max_occupancy < self.in_flight:
                self.max_occupancy = self.in_flight
            if metrics.enabled:
                metrics.counter("scheduler.admitted").inc()
            if dev.busy:
                self._truncate_unit(dev, now)
        for dev in self.devs:
            if not dev.busy and dev.batch and dev.alive:
                self._start_unit(dev, now)
        # Wake up when the earliest future class head arrives, if any.
        nxt = self.policy.next_wakeup(now)
        if nxt is not None:
            arrival, item_seq = nxt
            key = (item_seq, arrival)
            if key != self._arrival_key:
                self._arrival_key = key
                heapq.heappush(self.heap, (arrival, _PRIO_ARRIVAL,
                                           next(self.seq), -1, 0))
