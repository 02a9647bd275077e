"""Effective-bandwidth timing model for DRAM channels.

Peak (pin) bandwidth is never fully achieved: refresh, read/write turn-
around, row activate/precharge on row-buffer misses, and request-size
granularity all cost cycles.  The performance models need *effective*
bandwidth as a function of access pattern; this module provides a
channel-level model that is deliberately simple but captures the levers
the paper's workloads exercise (large sequential weight streams achieve
near-peak efficiency; small scattered KV accesses achieve less).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.memory.module import MemoryModule

#: Fraction of time lost to refresh on modern DRAM (tREFI/tRFC ratio).
REFRESH_OVERHEAD = 0.03


@dataclass(frozen=True)
class AccessPattern:
    """Characterization of a memory access stream.

    Attributes:
        avg_burst_bytes: Mean contiguous run length of the stream.
        row_hit_rate: Fraction of column accesses hitting an open row.
        read_fraction: Reads / (reads + writes); turnaround costs peak
            near a 50/50 mix.
    """

    avg_burst_bytes: float
    row_hit_rate: float = 0.9
    read_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.avg_burst_bytes <= 0:
            raise ConfigurationError("burst size must be positive")
        if not 0.0 <= self.row_hit_rate <= 1.0:
            raise ConfigurationError("row_hit_rate outside [0, 1]")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("read_fraction outside [0, 1]")


#: Streaming weight reads: long bursts, almost all row hits.  The bank
#: simulator measures 31 hits per 32 accesses (0.96875) for sequential
#: streams over the module-local interleave (2 KiB rows inside 4 KiB
#: granules); ``test_sequential_stream_is_page_friendly`` in
#: ``tests/test_memory_banksim.py`` pins this constant to that
#: measurement within 0.005.
SEQUENTIAL_STREAM = AccessPattern(avg_burst_bytes=4096, row_hit_rate=0.97,
                                  read_fraction=1.0)

@dataclass(frozen=True)
class ChannelTimingModel:
    """Derates a module's peak bandwidth for a given access pattern.

    The derating multiplies three independent efficiency terms:

    * refresh: fixed ``1 - REFRESH_OVERHEAD``;
    * row-buffer: misses stall the channel for an activate+precharge
      window amortized over the burst (``miss_penalty_bytes`` expresses
      the stall as equivalent transfer bytes);
    * turnaround: bus direction switches cost bubbles proportional to the
      write mix.
    """

    module: MemoryModule
    miss_penalty_bytes: float = 256.0
    turnaround_penalty: float = 0.08

    def efficiency(self, pattern: AccessPattern) -> float:
        """Achievable fraction of peak bandwidth in (0, 1]."""
        refresh_eff = 1.0 - REFRESH_OVERHEAD
        miss_rate = 1.0 - pattern.row_hit_rate
        row_eff = pattern.avg_burst_bytes / (
            pattern.avg_burst_bytes + miss_rate * self.miss_penalty_bytes)
        write_mix = 1.0 - pattern.read_fraction
        # Turnaround bubbles peak when the mix is even (2 * p * (1-p)).
        turnaround_eff = 1.0 - self.turnaround_penalty * (
            4.0 * pattern.read_fraction * write_mix)
        return refresh_eff * row_eff * turnaround_eff

    def effective_bandwidth(self, pattern: AccessPattern) -> float:
        """Achievable bandwidth in bytes/s for the pattern."""
        return self.module.peak_bandwidth * self.efficiency(pattern)

    def transfer_time(self, num_bytes: float, pattern: AccessPattern
                      ) -> float:
        """Seconds to move ``num_bytes`` under the pattern."""
        if num_bytes < 0:
            raise ConfigurationError("cannot transfer negative bytes")
        return num_bytes / self.effective_bandwidth(pattern)
