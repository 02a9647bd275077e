"""Request-level service scheduler over an appliance.

Turns the per-request performance models into service-level numbers: a
discrete-event simulation of a request queue feeding the appliance's
model instances, with optional batched generation.  Reports the latency
distribution (mean/p50/p95), sustained throughput, and instance
utilization — the quantities a capacity planner would actually read off
a CXL-PNM vs GPU decision.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Type

import numpy as np

from repro.errors import AdmissionError, ConfigurationError, ReproError
from repro.llm.config import LLMConfig
from repro.llm.kvcache import request_fits
from repro.llm.workload import InferenceRequest
from repro.obs.context import get_metrics, get_tracer
from repro.perf.analytical import DevicePerfModel, InferenceTimer

#: Seconds to serve one request: (request) -> latency.
ServiceModel = Callable[[InferenceRequest], float]


def timer_service(config: LLMConfig, model: DevicePerfModel,
                  tensor_parallel: int = 1) -> ServiceModel:
    """Service model backed by the analytical inference timer."""
    timer = InferenceTimer(config, model, tensor_parallel=tensor_parallel)

    def _serve(request: InferenceRequest) -> float:
        return timer.run(request.input_len, request.output_len).latency_s

    return _serve


@dataclass(slots=True)
class CompletedRequest:
    """One served request with its timeline.

    ``first_token_s`` is recorded by schedulers that track tokens at
    iteration granularity (the continuous-batching engine); the
    request-exclusive FCFS path leaves it ``None``.  ``failovers``
    counts how many times the request was requeued because its device
    failed mid-flight (continuous engine under a fault plan; always 0
    otherwise).  ``preemptions`` counts evictions by a higher-priority
    tenant class under KV pressure (continuous engine with tenant
    classes; always 0 otherwise).
    """

    request: InferenceRequest
    arrival_s: float
    start_s: float
    finish_s: float
    first_token_s: Optional[float] = None
    failovers: int = 0
    preemptions: int = 0

    @property
    def queue_wait_s(self) -> float:
        return self.start_s - self.arrival_s

    @property
    def total_latency_s(self) -> float:
        return self.finish_s - self.arrival_s

    @property
    def ttft_s(self) -> Optional[float]:
        """Time to first token, when the scheduler tracked it."""
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    @property
    def mean_tbt_s(self) -> Optional[float]:
        """Mean time between tokens after the first, when tracked."""
        if self.first_token_s is None or self.request.output_len < 2:
            return None
        return (self.finish_s - self.first_token_s) \
            / (self.request.output_len - 1)


@dataclass(frozen=True, slots=True)
class RejectedRequest:
    """One request turned away at admission, with the reason.

    ``error`` is the typed exception
    (:class:`~repro.errors.AdmissionError` for infeasible requests,
    :class:`~repro.errors.DeviceLostError` when serving capacity died
    mid-run); ``reason`` is its human-readable string.  Schedulers
    record the rejection rather than raising — an admission-controlled
    run that turns work away is a valid, reportable outcome.  An
    overloaded run sheds most of its requests, so the record keeps the
    error's type and message and builds the exception on access rather
    than holding one per request.
    """

    request: InferenceRequest
    arrival_s: float
    reason: str
    error_type: Type[ReproError]

    @classmethod
    def of(cls, request: InferenceRequest, arrival_s: float,
           error: ReproError) -> "RejectedRequest":
        """The record of ``request`` turned away with ``error``."""
        return cls(request=request, arrival_s=arrival_s, reason=str(error),
                   error_type=type(error))

    @property
    def error(self) -> ReproError:
        """The typed rejection: ``error_type`` raised with ``reason``."""
        return self.error_type(self.reason)


@dataclass
class ServiceStats:
    """Aggregate statistics of one scheduler run.

    All latency aggregates report 0.0 when nothing completed — an
    admission-controlled run that rejects everything is still a valid,
    reportable outcome (the ``rejected`` list says why).
    """

    completed: List[CompletedRequest]
    makespan_s: float
    num_instances: int
    rejected: List[RejectedRequest] = field(default_factory=list)

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
        busy = sum(c.finish_s - c.start_s for c in self.completed)
        return busy / (self.makespan_s * self.num_instances) \
            if self.makespan_s else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready flat view, for exporters and benchmarks."""
        return {
            "requests": float(len(self.completed)),
            "rejected": float(len(self.rejected)),
            "num_instances": float(self.num_instances),
            "makespan_s": self.makespan_s,
            "mean_latency_s": self.mean_latency_s,
            "p50_latency_s": self.p50_latency_s,
            "p95_latency_s": self.p95_latency_s,
            "mean_queue_wait_s": self.mean_queue_wait_s,
            "throughput_tokens_per_s": self.throughput_tokens_per_s,
            "instance_utilization": self.instance_utilization,
        }


def infeasible_error(config: Optional[LLMConfig],
                     memory_bytes: Optional[int],
                     request: InferenceRequest
                     ) -> Optional[AdmissionError]:
    """Why a request can *never* be served on the device, as a typed
    :class:`~repro.errors.AdmissionError` — or ``None`` when feasible.

    Checks the two hard limits: the model's position budget and the
    device memory (parameters plus the request's peak KV footprint).
    Used by both the FCFS and continuous-batching schedulers so the two
    serving paths reject identically.
    """
    if config is None:
        return None
    if request.total_tokens > config.max_seq_len:
        return AdmissionError(
            f"input+output={request.total_tokens} tokens exceed "
            f"max_seq_len={config.max_seq_len}")
    if memory_bytes is not None and not request_fits(
            config, memory_bytes, request.input_len, request.output_len):
        return AdmissionError("params + peak KV exceed device memory")
    return None


def infeasible_reason(config: Optional[LLMConfig],
                      memory_bytes: Optional[int],
                      request: InferenceRequest) -> Optional[str]:
    """String form of :func:`infeasible_error`, for reason-only callers."""
    error = infeasible_error(config, memory_bytes, request)
    return None if error is None else str(error)


@dataclass
class RequestScheduler:
    """FCFS scheduler dispatching requests onto N model instances.

    Attributes:
        service: Per-request latency model (one instance, exclusive).
        num_instances: Concurrent model instances (the appliance's DP).
        config: Optional model config; when given, requests that exceed
            ``max_seq_len`` (or, with ``memory_bytes``, whose KV can
            never fit) are rejected instead of served with a fabricated
            latency.
        memory_bytes: Optional per-instance device memory for the KV
            feasibility check.
        tracer: Optional span tracer; defaults to the ambient/no-op one.
        metrics: Optional metrics registry, resolved the same way.
    """

    service: ServiceModel
    num_instances: int
    config: Optional[LLMConfig] = None
    memory_bytes: Optional[int] = None
    tracer: Optional[object] = None
    metrics: Optional[object] = None

    def __post_init__(self) -> None:
        if self.num_instances < 1:
            raise ConfigurationError("need at least one instance")

    def run(self, requests: Sequence[InferenceRequest],
            arrival_times: Optional[Sequence[float]] = None) -> ServiceStats:
        """Serve ``requests`` in arrival order; returns the statistics.

        ``arrival_times`` defaults to all-at-once (a closed batch); pass
        Poisson arrivals from :func:`poisson_arrivals` for open-loop load.
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
        # Instance availability as a min-heap of (free time, instance).
        free_at = [(0.0, i) for i in range(self.num_instances)]
        heapq.heapify(free_at)
        completed: List[CompletedRequest] = []
        rejected: List[RejectedRequest] = []
        with tracer.span("scheduler.run", category="scheduler",
                         requests=len(requests),
                         instances=self.num_instances):
            for request, arrival in sorted(zip(requests, arrival_times),
                                           key=lambda p: p[1]):
                error = infeasible_error(self.config, self.memory_bytes,
                                         request)
                if error is not None:
                    rejected.append(RejectedRequest.of(request, arrival,
                                                       error))
                    if metrics.enabled:
                        metrics.counter("scheduler.rejected").inc()
                    continue
                instance_free, instance = heapq.heappop(free_at)
                start = max(arrival, instance_free)
                finish = start + self.service(request)
                heapq.heappush(free_at, (finish, instance))
                completed.append(CompletedRequest(
                    request=request, arrival_s=arrival, start_s=start,
                    finish_s=finish))
                if tracer.enabled:
                    tracer.sim_span(
                        "request", start_s=start,
                        dur_s=finish - start,
                        track=f"scheduler.instance{instance}",
                        category="scheduler",
                        args={"request_id": request.request_id,
                              "queue_wait_s": start - arrival,
                              "output_tokens": request.output_len})
                if metrics.enabled:
                    metrics.counter("scheduler.requests").inc()
                    metrics.counter("scheduler.tokens").inc(
                        request.output_len)
                    metrics.histogram("scheduler.queue_wait_s").observe(
                        start - arrival)
                    metrics.histogram("scheduler.latency_s").observe(
                        finish - arrival)
        if metrics.enabled:
            self._observe_queue_depth(metrics, completed)
        makespan = max(c.finish_s for c in completed) if completed else 0.0
        return ServiceStats(completed=completed, makespan_s=makespan,
                            num_instances=self.num_instances,
                            rejected=rejected)

    @staticmethod
    def _observe_queue_depth(metrics, completed: List[CompletedRequest]
                             ) -> None:
        """Sweep arrival/start events and gauge the waiting-queue depth.

        The gauge's min/max envelope captures the deepest backlog of the
        run — an open-loop overload shows up here before it shows up in
        p95 latency.
        """
        gauge = metrics.gauge("scheduler.queue_depth")
        # Arrivals before starts at equal timestamps, so an immediately-
        # dispatched request never drives the gauge negative.
        events = sorted([(c.arrival_s, 1) for c in completed]
                        + [(c.start_s, -1) for c in completed],
                        key=lambda e: (e[0], -e[1]))
        depth = 0
        for _t, delta in events:
            depth += delta
            gauge.set(depth)


def poisson_arrivals(num_requests: int, rate_per_s: float,
                     seed: int = 0) -> List[float]:
    """Cumulative Poisson arrival times at ``rate_per_s``."""
    if num_requests <= 0 or rate_per_s <= 0:
        raise ConfigurationError("need positive request count and rate")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_per_s, size=num_requests)
    return list(np.cumsum(gaps))
