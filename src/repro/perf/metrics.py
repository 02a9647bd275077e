"""Result records for performance and energy evaluations.

Everything the experiment harnesses report reduces to these records:
per-stage timing/energy, whole-inference latency, and service-level
throughput/efficiency.  Keeping them as dataclasses (instead of ad-hoc
dicts) lets tests assert on named fields and benchmarks print uniform
tables.  Reported times add up with :func:`left_sum`, which rounds the
same way on every interpreter version; arrays of them, a compact stage's
per-op values at many contexts included, add up with :func:`left_fold`,
the same additions in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.units import s_to_ms


def left_sum(values: Iterable[float]) -> float:
    """Plain left-to-right float sum (0 when ``values`` is empty).

    Python 3.12 made ``sum()`` over floats compensated (Neumaier), so
    its result can differ in the last bit between interpreter versions;
    simulated times summed here round the same way on every version.
    """
    total = 0
    for value in values:
        total += value
    return total


#: Most float64 values one block of :func:`flat_blocks` holds (128 KiB):
#: a block, and its accumulation in :func:`left_fold`, stays under
#: glibc's default 128 KiB ``mmap`` threshold, so blocks are reused from
#: the heap instead of being mapped and faulted in afresh.
FOLD_BLOCK_VALUES = 1 << 14


def left_fold(values: np.ndarray) -> np.ndarray:
    """:func:`left_sum` along axis 0, for every index of the other axes.

    One sequential ``np.add.accumulate`` (never the pairwise summation
    of ``np.sum``), so each result is the same float as ``left_sum`` of
    its column, given non-negative values: the fold starts at the first
    value where ``left_sum`` adds it to 0.
    """
    if not len(values):
        return np.zeros(values.shape[1:])
    # A copy, so the result does not keep the whole accumulation alive.
    return np.add.accumulate(values, axis=0)[-1].copy()


def flat_blocks(head: np.ndarray, layer: np.ndarray, num_layers: int,
                tail: np.ndarray) -> Iterator[np.ndarray]:
    """A compact stage's per-op values at many contexts, in flat order.

    ``head``, ``layer`` and ``tail`` are ``(ops, contexts, q)`` arrays
    of ``q`` quantities per op, where a contexts axis of 1 holds a value
    every context shares.  Yields ``head + layer * num_layers + tail``
    along axis 0, as ``(flat ops, contexts, q)`` blocks of consecutive
    contexts of at most :data:`FOLD_BLOCK_VALUES` values (one context at
    least), so a long sweep never holds its whole flat matrix.
    """
    contexts = max(head.shape[1], layer.shape[1], tail.shape[1])
    q = max(head.shape[2], layer.shape[2], tail.shape[2])
    h, n = len(head), len(layer)
    body = h + n * num_layers
    ops = body + len(tail)
    step = max(1, FOLD_BLOCK_VALUES // max(1, ops * q))
    for start in range(0, contexts, step):
        stop = min(start + step, contexts)
        flat = np.empty((ops, stop - start, q))
        for part, values in ((flat[:h], head), (flat[body:], tail),
                             (flat[h:body].reshape(num_layers, n,
                                                   stop - start, q),
                              layer)):
            # Assignment broadcasts a shared (size-1) contexts axis.
            part[...] = values if values.shape[1] == 1 \
                else values[:, start:stop]
        yield flat


def fold_stages(head: np.ndarray, layer: np.ndarray, num_layers: int,
                tail: np.ndarray) -> np.ndarray:
    """:func:`left_sum` of ``head + layer * num_layers + tail`` per
    context and quantity, as a ``(contexts, q)`` array: every context of
    a :func:`flat_blocks` sweep folded at once, in flat-list order."""
    sums = [left_fold(flat)
            for flat in flat_blocks(head, layer, num_layers, tail)]
    return sums[0] if len(sums) == 1 else np.concatenate(sums)


@dataclass(frozen=True)
class StageResult:
    """Timing/energy of one sum or gen stage on one device (or group)."""

    name: str
    time_s: float
    flops: float
    mem_bytes: float
    comm_s: float = 0.0
    energy_j: float = 0.0

    def __post_init__(self) -> None:
        if self.time_s < 0 or self.energy_j < 0:
            raise ConfigurationError("stage time/energy cannot be negative")


@dataclass(frozen=True)
class InferenceResult:
    """End-to-end result of one inference request.

    Attributes:
        device_name: e.g. ``"A100-40G"`` or ``"CXL-PNM"``.
        input_len / output_len: Request geometry.
        sum_time_s: Summarization-stage latency.
        gen_time_s: Total generation latency across all gen stages.
        energy_j: Device energy for the request (per model instance).
        mean_power_w: Average device power over the request.
    """

    device_name: str
    input_len: int
    output_len: int
    sum_time_s: float
    gen_time_s: float
    energy_j: float

    @property
    def latency_s(self) -> float:
        return self.sum_time_s + self.gen_time_s

    @property
    def tokens_per_s(self) -> float:
        """Single-stream generation throughput."""
        return self.output_len / self.latency_s

    @property
    def tokens_per_joule(self) -> float:
        return self.output_len / self.energy_j if self.energy_j else 0.0

    @property
    def mean_power_w(self) -> float:
        return self.energy_j / self.latency_s if self.latency_s else 0.0

    @property
    def ms_per_token(self) -> float:
        return s_to_ms(self.latency_s) / self.output_len


@dataclass(frozen=True)
class ApplianceResult:
    """Aggregate behaviour of a multi-device appliance configuration.

    Attributes:
        name: Configuration label, e.g. ``"CXL-PNM DP=4 x MP=2"``.
        num_devices: Devices in the appliance.
        instances: Concurrent model instances (data-parallel streams).
        per_request: The per-instance inference result.
    """

    name: str
    num_devices: int
    instances: int
    per_request: InferenceResult

    @property
    def latency_s(self) -> float:
        """Latency experienced by one request."""
        return self.per_request.latency_s

    @property
    def throughput_tokens_per_s(self) -> float:
        """Appliance-level throughput across all concurrent instances."""
        return self.instances * self.per_request.tokens_per_s

    @property
    def appliance_energy_j(self) -> float:
        """Energy of all devices over one request's duration.

        ``per_request.energy_j`` already covers every device serving one
        instance (its whole model-parallel group).
        """
        return self.per_request.energy_j * self.instances

    @property
    def tokens_per_joule(self) -> float:
        total_tokens = self.instances * self.per_request.output_len
        return total_tokens / self.appliance_energy_j

    @property
    def appliance_power_w(self) -> float:
        return self.appliance_energy_j / self.latency_s


def relative_delta(value: float, baseline: float) -> float:
    """Signed relative difference ``(value - baseline) / baseline``."""
    if baseline == 0:
        raise ConfigurationError("baseline must be non-zero")
    return (value - baseline) / baseline
