"""Inference-request workloads and arrival processes.

The paper evaluates "representative text generation workloads in
datacenters": 64 input tokens and up to 1024 output tokens per request
(§VII, citing the GPT-3 paper's service statistics).  This module provides
the request record, deterministic generators for single-point and
distribution-sampled workloads, arrival-process generators for production
traffic shapes (steady Poisson, diurnal waves, flash crowds), Zipf-skewed
tenant assignment, and replayable JSONL trace files.  Everything is
deterministic under a seed so serving experiments replay bit-identically.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: The paper's evaluation point (§VII).
PAPER_INPUT_TOKENS = 64
PAPER_MAX_OUTPUT_TOKENS = 1024

#: Tenant class used when a request does not name one.
DEFAULT_TENANT_CLASS = "default"

#: Arrival shapes understood by :func:`arrivals_for_shape`.
ARRIVAL_SHAPES = ("steady", "diurnal", "flash-crowd")


@dataclass(frozen=True, slots=True)
class InferenceRequest:
    """One text-generation request.

    Attributes:
        input_len: Number of prompt tokens (``L_in``).
        output_len: Number of tokens to generate.
        request_id: Stable identifier for scheduling traces.
        tenant: Integer tenant identifier (0 for single-tenant workloads).
        tenant_class: Name of the priority class the tenant belongs to;
            resolved against the scheduler's ``TenantClass`` table.
    """

    input_len: int
    output_len: int
    request_id: int = 0
    tenant: int = 0
    tenant_class: str = DEFAULT_TENANT_CLASS

    def __post_init__(self) -> None:
        if self.input_len <= 0:
            raise ConfigurationError(f"input_len={self.input_len} must be > 0")
        if self.output_len <= 0:
            raise ConfigurationError(
                f"output_len={self.output_len} must be > 0"
            )
        if self.tenant < 0:
            raise ConfigurationError(f"tenant={self.tenant} must be >= 0")
        if not self.tenant_class:
            raise ConfigurationError("tenant_class must be non-empty")

    @property
    def total_tokens(self) -> int:
        return self.input_len + self.output_len


def paper_request(output_len: int = PAPER_MAX_OUTPUT_TOKENS
                  ) -> InferenceRequest:
    """The paper's canonical request: 64 input tokens, ``output_len`` out."""
    return InferenceRequest(input_len=PAPER_INPUT_TOKENS,
                            output_len=output_len)


def output_sweep(points: Sequence[int] = (1, 4, 16, 64, 128, 256, 512, 1024),
                 input_len: int = PAPER_INPUT_TOKENS
                 ) -> List[InferenceRequest]:
    """The Fig. 10 sweep: fixed input length, growing output length."""
    return [InferenceRequest(input_len=input_len, output_len=n,
                             request_id=i)
            for i, n in enumerate(points)]


def sampled_workload(num_requests: int, seed: int = 7,
                     mean_input: int = PAPER_INPUT_TOKENS,
                     mean_output: int = 256,
                     max_total: int = 2048) -> List[InferenceRequest]:
    """Sample a request mix with log-normal-ish length spread.

    Datacenter token-length distributions are heavy-tailed; a clipped
    lognormal around the paper's means gives a realistic mix for the
    scheduler benchmarks without requiring proprietary traces.
    """
    if num_requests <= 0:
        raise ConfigurationError("num_requests must be positive")
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(num_requests):
        inp = int(np.clip(rng.lognormal(np.log(mean_input), 0.5), 1,
                          max_total // 2))
        out = int(np.clip(rng.lognormal(np.log(mean_output), 0.7), 1,
                          max_total - inp))
        requests.append(InferenceRequest(input_len=inp, output_len=out,
                                         request_id=i))
    return requests


def token_stream(request: InferenceRequest) -> Iterator[int]:
    """Yield the context length ``L`` seen by each gen stage of a request.

    The first generated token comes from the sum stage; each subsequent
    token ``t`` runs a gen stage with context ``input_len + t``.
    """
    for t in range(1, request.output_len):
        yield request.input_len + t


# -- arrival processes ----------------------------------------------------
#
# All generators return absolute arrival times in seconds, non-decreasing,
# one per request, and are deterministic under ``seed``.  The
# nonhomogeneous processes use Lewis-Shedler thinning: draw candidate
# points from a homogeneous Poisson process at the peak rate, then accept
# each with probability rate(t)/peak.


def _check_arrival_args(num_requests: int, rate_per_s: float) -> None:
    if num_requests <= 0:
        raise ConfigurationError("num_requests must be positive")
    if rate_per_s <= 0:
        raise ConfigurationError(f"rate_per_s={rate_per_s} must be > 0")


def steady_arrivals(num_requests: int, rate_per_s: float,
                    seed: int = 0) -> List[float]:
    """Homogeneous Poisson arrivals at ``rate_per_s`` (exponential gaps)."""
    _check_arrival_args(num_requests, rate_per_s)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_per_s, size=num_requests)
    return [float(t) for t in np.cumsum(gaps)]


def _thinned_arrivals(num_requests: int, peak_rate: float, rate_fn,
                      seed: int) -> List[float]:
    """Nonhomogeneous Poisson arrivals by thinning a peak-rate process."""
    rng = np.random.default_rng(seed)
    out: List[float] = []
    t = 0.0
    while len(out) < num_requests:
        t += float(rng.exponential(1.0 / peak_rate))
        if rng.random() * peak_rate <= rate_fn(t):
            out.append(t)
    return out


def diurnal_arrivals(num_requests: int, mean_rate_per_s: float,
                     period_s: float, swing: float = 0.8,
                     seed: int = 0) -> List[float]:
    """Sinusoidal day/night wave around ``mean_rate_per_s``.

    The instantaneous rate is ``mean * (1 + swing * sin(2*pi*t/period))``:
    it starts at the mean, peaks a quarter-period in, and bottoms out at
    ``mean * (1 - swing)`` three quarters in.  ``swing`` must be in
    ``[0, 1)`` so the rate stays positive.
    """
    _check_arrival_args(num_requests, mean_rate_per_s)
    if period_s <= 0:
        raise ConfigurationError(f"period_s={period_s} must be > 0")
    if not 0.0 <= swing < 1.0:
        raise ConfigurationError(f"swing={swing} must be in [0, 1)")
    peak = mean_rate_per_s * (1.0 + swing)

    def rate(t: float) -> float:
        return mean_rate_per_s * (
            1.0 + swing * float(np.sin(2.0 * np.pi * t / period_s)))

    return _thinned_arrivals(num_requests, peak, rate, seed)


def flash_crowd_arrivals(num_requests: int, base_rate_per_s: float,
                         burst_at_s: float, burst_rate_per_s: float,
                         burst_len_s: float, seed: int = 0) -> List[float]:
    """Steady base load with a rectangular burst (a flash crowd).

    The rate is ``base_rate_per_s`` everywhere except the window
    ``[burst_at_s, burst_at_s + burst_len_s)``, where it jumps to
    ``base_rate_per_s + burst_rate_per_s``.
    """
    _check_arrival_args(num_requests, base_rate_per_s)
    if burst_rate_per_s < 0:
        raise ConfigurationError(
            f"burst_rate_per_s={burst_rate_per_s} must be >= 0")
    if burst_at_s < 0 or burst_len_s < 0:
        raise ConfigurationError("burst_at_s/burst_len_s must be >= 0")
    peak = base_rate_per_s + burst_rate_per_s

    def rate(t: float) -> float:
        if burst_at_s <= t < burst_at_s + burst_len_s:
            return peak
        return base_rate_per_s

    return _thinned_arrivals(num_requests, peak, rate, seed)


def arrivals_for_shape(shape: str, num_requests: int, rate_per_s: float,
                       seed: int = 0) -> List[float]:
    """Dispatch to an arrival generator with shape-relative defaults.

    ``rate_per_s`` is the mean offered load for every shape.  The diurnal
    wave completes two periods over the expected span; the flash crowd
    quadruples the rate for 10% of the span, a quarter of the way in.
    """
    span = num_requests / rate_per_s
    if shape == "steady":
        return steady_arrivals(num_requests, rate_per_s, seed=seed)
    if shape == "diurnal":
        return diurnal_arrivals(num_requests, rate_per_s,
                                period_s=span / 2.0, seed=seed)
    if shape == "flash-crowd":
        return flash_crowd_arrivals(
            num_requests, rate_per_s, burst_at_s=span / 4.0,
            burst_rate_per_s=3.0 * rate_per_s,
            burst_len_s=span / 10.0, seed=seed)
    raise ConfigurationError(
        f"unknown arrival shape {shape!r}; expected one of {ARRIVAL_SHAPES}")


# -- tenants --------------------------------------------------------------


def zipf_tenants(num_requests: int, num_tenants: int, skew: float = 1.1,
                 seed: int = 0) -> List[int]:
    """Assign each request a tenant id, Zipf-skewed toward low ranks.

    Tenant ``k`` receives traffic proportional to ``(k+1)**-skew`` —
    tenant 0 is the heavy hitter.  ``skew=0`` degenerates to uniform.
    """
    if num_requests <= 0:
        raise ConfigurationError("num_requests must be positive")
    if num_tenants <= 0:
        raise ConfigurationError(f"num_tenants={num_tenants} must be > 0")
    if skew < 0:
        raise ConfigurationError(f"skew={skew} must be >= 0")
    ranks = np.arange(1, num_tenants + 1, dtype=np.float64)
    pmf = ranks ** -skew
    pmf /= pmf.sum()
    rng = np.random.default_rng(seed)
    return [int(t) for t in rng.choice(num_tenants, size=num_requests, p=pmf)]


def multi_tenant_workload(num_requests: int, num_tenants: int = 8,
                          skew: float = 1.1,
                          class_names: Sequence[str] = (DEFAULT_TENANT_CLASS,),
                          seed: int = 7,
                          mean_input: int = PAPER_INPUT_TOKENS,
                          mean_output: int = 256,
                          max_total: int = 2048) -> List[InferenceRequest]:
    """Sampled-length workload with Zipf-skewed tenants and classes.

    Lengths follow the same clipped lognormal as :func:`sampled_workload`;
    tenants follow :func:`zipf_tenants`; each tenant maps to a class by
    ``class_names[tenant % len(class_names)]``, so with two classes the
    heavy hitter (tenant 0) lands in the first one.
    """
    if not class_names:
        raise ConfigurationError("class_names must be non-empty")
    lengths = sampled_workload(num_requests, seed=seed,
                               mean_input=mean_input,
                               mean_output=mean_output, max_total=max_total)
    tenants = zipf_tenants(num_requests, num_tenants, skew=skew, seed=seed)
    return [InferenceRequest(
        input_len=r.input_len, output_len=r.output_len, request_id=i,
        tenant=t, tenant_class=class_names[t % len(class_names)])
        for i, (r, t) in enumerate(zip(lengths, tenants))]


# -- replayable traces ----------------------------------------------------
#
# One JSON object per line, keys sorted.  Arrival times round-trip through
# ``repr``-exact JSON floats, so a replayed trace reproduces the original
# run bit-identically.

_TRACE_KEYS = ("request_id", "arrival_s", "input_len", "output_len",
               "tenant", "tenant_class")


def write_trace(path: str, requests: Sequence[InferenceRequest],
                arrivals: Sequence[float]) -> int:
    """Write a replayable JSONL trace; returns the number of records."""
    if len(requests) != len(arrivals):
        raise ConfigurationError(
            f"{len(requests)} requests but {len(arrivals)} arrival times")
    with open(path, "w", encoding="utf-8") as fh:
        for request, arrival in zip(requests, arrivals):
            record = {
                "request_id": request.request_id,
                "arrival_s": float(arrival),
                "input_len": request.input_len,
                "output_len": request.output_len,
                "tenant": request.tenant,
                "tenant_class": request.tenant_class,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return len(requests)


def read_trace(path: str
               ) -> Tuple[List[InferenceRequest], List[float]]:
    """Read a JSONL trace written by :func:`write_trace`."""
    if not os.path.exists(path):
        raise ConfigurationError(f"trace file not found: {path}")
    requests: List[InferenceRequest] = []
    arrivals: List[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: invalid JSON: {exc}") from exc
            missing = [k for k in _TRACE_KEYS if k not in record]
            if missing:
                raise ConfigurationError(
                    f"{path}:{lineno}: missing trace keys {missing}")
            requests.append(InferenceRequest(
                input_len=int(record["input_len"]),
                output_len=int(record["output_len"]),
                request_id=int(record["request_id"]),
                tenant=int(record["tenant"]),
                tenant_class=str(record["tenant_class"])))
            arrivals.append(float(record["arrival_s"]))
    return requests, arrivals
