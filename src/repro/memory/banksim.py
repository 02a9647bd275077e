"""Trace-driven DRAM bank simulator.

The channel-timing model (:mod:`repro.memory.timing`) derates bandwidth
from an *assumed* access pattern; this module computes those pattern
parameters from first principles: feed it an address trace, and it plays
the trace against per-bank row buffers (open-page policy) to measure the
actual row-hit rate and a cycle-accounted efficiency.

It is how we validate that the accelerator's sequential weight reads
really produce the row-hit rate ``SEQUENTIAL_STREAM`` assumes, the rate
behind every modelled PNM bandwidth — closing the loop on the (D4)
interleaving claims: module-local interleaving keeps streams
page-friendly in every bank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.memory.interleave import InterleaveScheme


@dataclass(frozen=True)
class BankGeometry:
    """Per-channel bank organization.

    Attributes:
        num_banks: Banks per channel (LPDDR5X: 16).
        row_bytes: Row (page) size per bank (LPDDR5X: 2 KiB typical).
        t_rc_cycles: Row cycle cost of a conflict (activate+precharge).
        t_cl_cycles: Column access cost of a hit.
    """

    num_banks: int = 16
    row_bytes: int = 2048
    t_rc_cycles: int = 40
    t_cl_cycles: int = 4

    def __post_init__(self) -> None:
        if self.num_banks <= 0 or self.row_bytes <= 0:
            raise ConfigurationError("invalid bank geometry")
        if self.t_rc_cycles <= 0 or self.t_cl_cycles <= 0:
            raise ConfigurationError("timing cycles must be positive")

    def decode(self, channel_offset: int) -> Tuple[int, int]:
        """(bank, row) of an offset within one channel's linear space.

        Banks interleave at row granularity so sequential streams rotate
        across banks (bank-level parallelism for free).
        """
        row_global = channel_offset // self.row_bytes
        return row_global % self.num_banks, row_global // self.num_banks


@dataclass
class BankState:
    """Open row per bank (open-page policy)."""

    open_row: int = -1
    hits: int = 0
    misses: int = 0

    def access(self, row: int) -> bool:
        """Access a row; returns True on a row-buffer hit."""
        if row == self.open_row:
            self.hits += 1
            return True
        self.open_row = row
        self.misses += 1
        return False


@dataclass
class TraceResult:
    """Measured behaviour of one trace on one channel set."""

    accesses: int
    hits: int
    misses: int
    cycles: int
    per_channel_accesses: List[int]

    @property
    def row_hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def cycles_per_access(self) -> float:
        return self.cycles / self.accesses if self.accesses else 0.0

    def channel_balance(self) -> float:
        """1.0 = perfectly balanced load across channels."""
        counts = np.array(self.per_channel_accesses, dtype=float)
        if counts.sum() == 0:
            return 0.0
        return float(counts.mean() / counts.max())


class BankSimulator:
    """Plays address traces against banks behind an interleave scheme."""

    def __init__(self, scheme: InterleaveScheme,
                 geometry: BankGeometry = BankGeometry()):
        self.scheme = scheme
        self.geometry = geometry

    def run(self, addresses: Iterable[int]) -> TraceResult:
        """Simulate a trace of byte addresses (each one access)."""
        banks: Dict[Tuple[int, int], BankState] = {}
        hits = misses = cycles = accesses = 0
        per_channel = [0] * self.scheme.num_channels
        for addr in addresses:
            channel = self.scheme.channel_of(addr)
            offset = self.scheme.local_offset(addr)
            bank_idx, row = self.geometry.decode(offset)
            state = banks.setdefault((channel, bank_idx), BankState())
            if state.access(row):
                hits += 1
                cycles += self.geometry.t_cl_cycles
            else:
                misses += 1
                cycles += self.geometry.t_rc_cycles \
                    + self.geometry.t_cl_cycles
            accesses += 1
            per_channel[channel] += 1
        return TraceResult(accesses=accesses, hits=hits, misses=misses,
                           cycles=cycles, per_channel_accesses=per_channel)


def sequential_trace(base: int, length: int, step: int = 64) -> List[int]:
    """A streaming read trace (weight fetch)."""
    if length <= 0 or step <= 0:
        raise ConfigurationError("trace needs positive length and step")
    return list(range(base, base + length, step))


def strided_trace(base: int, num_accesses: int, stride: int) -> List[int]:
    """A strided trace (e.g. column walks, KV-row gathers)."""
    if num_accesses <= 0 or stride <= 0:
        raise ConfigurationError("trace needs positive count and stride")
    return [base + i * stride for i in range(num_accesses)]


def random_trace(span: int, num_accesses: int, seed: int = 0,
                 align: int = 64) -> List[int]:
    """Uniform random cacheline accesses (host-CPU-style traffic)."""
    if span <= align or num_accesses <= 0:
        raise ConfigurationError("trace needs positive span and count")
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, span // align, size=num_accesses)
    return [int(line) * align for line in lines]
