"""Per-request records of a serving run and the admission feasibility check.

:class:`CompletedRequest` is one served request's timeline and
:class:`RejectedRequest` one request turned away with its typed error;
:class:`~repro.appliance.continuous.ContinuousBatchScheduler` produces
both.  :func:`infeasible_error` is the hard admission check (position
budget and device memory) the engine applies to every request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Type

from repro.errors import AdmissionError, ReproError
from repro.llm.config import LLMConfig
from repro.llm.kvcache import request_fits
from repro.llm.workload import InferenceRequest


@dataclass(slots=True)
class CompletedRequest:
    """One served request with its timeline.

    ``first_token_s`` is when the request's prefill emitted its first
    token.  ``failovers`` counts how many times the request was
    requeued because its device failed mid-flight (only under a fault
    plan).  ``preemptions`` counts evictions by a higher-priority
    tenant class under KV pressure (only with tenant classes).
    """

    request: InferenceRequest
    arrival_s: float
    start_s: float
    finish_s: float
    first_token_s: float
    failovers: int = 0
    preemptions: int = 0

    @property
    def queue_wait_s(self) -> float:
        return self.start_s - self.arrival_s

    @property
    def total_latency_s(self) -> float:
        return self.finish_s - self.arrival_s

    @property
    def ttft_s(self) -> float:
        """Time to first token."""
        return self.first_token_s - self.arrival_s

    @property
    def mean_tbt_s(self) -> Optional[float]:
        """Mean time between tokens after the first; ``None`` for a
        one-token request."""
        if self.request.output_len < 2:
            return None
        return (self.finish_s - self.first_token_s) \
            / (self.request.output_len - 1)


@dataclass(frozen=True, slots=True)
class RejectedRequest:
    """One request turned away at admission, with the reason.

    ``error`` is the typed exception
    (:class:`~repro.errors.AdmissionError` for infeasible requests,
    :class:`~repro.errors.DeviceLostError` when serving capacity died
    mid-run); ``reason`` is its human-readable string.  The engine
    records the rejection rather than raising — an admission-controlled
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


def infeasible_error(config: LLMConfig, memory_bytes: Optional[int],
                     request: InferenceRequest
                     ) -> Optional[AdmissionError]:
    """Why a request can *never* be served on the device, as a typed
    :class:`~repro.errors.AdmissionError` — or ``None`` when feasible.

    Checks the two hard limits: the model's position budget and the
    device memory (parameters plus the request's peak KV footprint);
    ``memory_bytes=None`` checks the position budget only.
    """
    if request.total_tokens > config.max_seq_len:
        return AdmissionError(
            f"input+output={request.total_tokens} tokens exceed "
            f"max_seq_len={config.max_seq_len}")
    if memory_bytes is not None and not request_fits(
            config, memory_bytes, request.input_len, request.output_len):
        return AdmissionError("params + peak KV exceed device memory")
    return None
