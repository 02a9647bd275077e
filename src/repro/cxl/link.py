"""CXL link model: PCIe Gen5 PHY, 68-byte flits, bandwidth and latency.

CXL 2.0 runs over the PCIe 5.0 electrical layer (32 GT/s per lane) and
packs protocol messages into 68-byte flits: 64 bytes of slots plus a
4-byte CRC/header.  A 64-byte data transfer additionally spends slot space
on the request/response headers, so the achievable payload efficiency for
streaming CXL.mem traffic lands near 80-90% of the raw link rate.

The latency model follows published CXL memory measurements (§II-A [47]):
a loaded CXL.mem read round-trip costs ~200-250 ns beyond local DRAM, from
PHY serialization, link-layer retry buffers, and the transaction layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, ProtocolError
from repro.faults.context import get_faults
from repro.obs.context import get_metrics
from repro.units import Gbps, NANOSECOND

FLIT_BYTES = 68
FLIT_PAYLOAD_BYTES = 64

#: PCIe encoding overhead at Gen5 (128b/130b).
PCIE_ENCODING_EFFICIENCY = 128.0 / 130.0

#: Device-side DRAM access latency of one loaded read, in ns.
DRAM_ACCESS_NS = 90.0

#: Fraction of flit slots carrying data payload for streaming CXL.mem
#: (the remainder carries request/response headers and credits).
SLOT_PAYLOAD_EFFICIENCY = 0.85


@dataclass(frozen=True)
class CXLLink:
    """A CXL port: lane count, rate, and latency parameters.

    Attributes:
        lanes: PCIe lane count (x16 for the FHHL card).
        gt_per_s: Transfer rate per lane in GT/s (32 for Gen5).
        port_latency_ns: One-way port+retimer latency added per traversal.
        dram_access_ns: Device-side memory access latency for loaded reads.
    """

    lanes: int = 16
    gt_per_s: float = 32.0
    port_latency_ns: float = 35.0
    dram_access_ns: float = DRAM_ACCESS_NS

    def __post_init__(self) -> None:
        if self.lanes not in (1, 2, 4, 8, 16):
            raise ConfigurationError(f"invalid lane count {self.lanes}")
        if self.gt_per_s <= 0:
            raise ConfigurationError("link rate must be positive")

    @property
    def raw_bandwidth(self) -> float:
        """Raw unidirectional link bandwidth in bytes/s."""
        return (self.lanes * self.gt_per_s * Gbps / 8.0
                * PCIE_ENCODING_EFFICIENCY)

    @property
    def effective_bandwidth(self) -> float:
        """Payload bandwidth after flit framing and slot headers."""
        flit_eff = FLIT_PAYLOAD_BYTES / FLIT_BYTES
        return self.raw_bandwidth * flit_eff * SLOT_PAYLOAD_EFFICIENCY

    @property
    def read_latency_s(self) -> float:
        """Loaded round-trip latency of one CXL.mem read (seconds)."""
        round_trip_ports = 2 * 2 * self.port_latency_ns  # req + resp
        return (round_trip_ports + self.dram_access_ns) * NANOSECOND

    def num_flits(self, payload_bytes: int) -> int:
        """Flits needed to carry ``payload_bytes`` of data."""
        if payload_bytes < 0:
            raise ProtocolError("negative payload")
        full, rem = divmod(payload_bytes, FLIT_PAYLOAD_BYTES)
        return full + (1 if rem else 0)

    def transfer_time(self, num_bytes: float, pipelined: bool = True
                      ) -> float:
        """Seconds to move ``num_bytes`` across the link.

        Pipelined transfers (DMA bursts) pay one round-trip of latency and
        stream at effective bandwidth; non-pipelined (dependent loads) pay
        the round-trip per cacheline, which is why host software avoids
        pointer-chasing into CXL memory.

        When a fault plan with link errors is active (``repro.faults``),
        each flit may suffer a CRC error and pay link-layer replay
        latency with exponential backoff; the penalty is added to the
        returned time and counted in the metrics registry.  With no
        plan (or an empty one) this path is untouched.
        """
        if num_bytes < 0:
            raise ConfigurationError("cannot transfer negative bytes")
        if num_bytes == 0:
            return 0.0
        if pipelined:
            time_s = self.read_latency_s \
                + num_bytes / self.effective_bandwidth
        else:
            lines = (int(num_bytes) + FLIT_PAYLOAD_BYTES - 1) \
                // FLIT_PAYLOAD_BYTES
            time_s = lines * (self.read_latency_s
                              + FLIT_PAYLOAD_BYTES
                              / self.effective_bandwidth)
        metrics = get_metrics()
        faults = get_faults()
        crc_errors = replays = 0
        replay_s = 0.0
        if faults is not None:
            replay_s, crc_errors, replays = faults.link_transfer(
                self.num_flits(int(num_bytes)))
            time_s += replay_s
        if metrics.enabled:
            mode = "pipelined" if pipelined else "per-line"
            metrics.histogram("cxl.link.transfer_s",
                              mode=mode).observe(time_s)
            metrics.counter("cxl.link.bytes", mode=mode).inc(num_bytes)
            metrics.counter("cxl.link.transfers", mode=mode).inc()
            if crc_errors:
                metrics.counter("cxl.link.crc_errors").inc(crc_errors)
                metrics.counter("cxl.link.replays").inc(replays)
                metrics.histogram("cxl.link.replay_s").observe(replay_s)
        return time_s


#: The CXL-PNM card's port (Gen5 x16).
GEN5_X16 = CXLLink()
