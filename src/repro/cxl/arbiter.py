"""Host/PNM memory-request arbitration (paper §V-A D3, §V-B).

A PNM device's memory is shared between the host CPU (over CXL.mem) and
the on-device accelerator.  DIMM-based PNM cannot arbitrate in hardware —
the JEDEC DDR interface leaves no timing slack and no interrupt pin — so
AxDIMM-style devices must *block* host traffic for the whole acceleration
task while the host polls a mailbox address (D3).  CXL tolerates variable
device-side latency, so the CXL-PNM controller inserts a hardware arbiter
between the CXL.mem IP and the memory controllers (Fig. 6) and interleaves
both streams cycle by cycle.

:func:`simulate` plays both policies over synthetic request streams and
reports per-source service statistics; the D3 benchmark uses it to show
the host-visible stall difference quantitatively.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cxl.link import DRAM_ACCESS_NS
from repro.cxl.protocol import CACHELINE_BYTES, Source
from repro.errors import ConfigurationError
from repro.obs.context import get_metrics, get_tracer
from repro.units import NANOSECOND, bytes_to_gb, s_to_us

#: Blocking-poll task windows traced per ``simulate`` call; long
#: intervals contain thousands of identical windows, so the trace keeps
#: the first few and notes the truncation in the span args.
MAX_TRACED_TASK_WINDOWS = 128

#: DRAM access every host request pays once it is served, under both
#: policies: the device-side access of ``CXLLink.read_latency_s``.
HOST_ACCESS_S = DRAM_ACCESS_NS * NANOSECOND


class ArbitrationPolicy(enum.Enum):
    """How concurrent host and PNM request streams share the memory."""

    #: CXL-PNM: hardware weighted round-robin between the two streams.
    HARDWARE_WRR = "hardware-wrr"
    #: DIMM-PNM: the PNM task owns the channel; host requests stall until
    #: task completion and a polled mailbox flips.
    BLOCKING_POLL = "blocking-poll"


@dataclass(frozen=True)
class RequestStream:
    """A constant-rate stream of cacheline requests from one source."""

    source: Source
    requests_per_s: float

    def __post_init__(self) -> None:
        if self.requests_per_s < 0:
            raise ConfigurationError("negative request rate")

    @property
    def bandwidth(self) -> float:
        return self.requests_per_s * CACHELINE_BYTES


@dataclass
class ArbiterStats:
    """Service statistics for one simulated interval."""

    served_bytes: Dict[Source, float] = field(default_factory=dict)
    mean_wait_s: Dict[Source, float] = field(default_factory=dict)
    host_blocked_s: float = 0.0

    def bandwidth(self, source: Source, interval_s: float) -> float:
        return self.served_bytes.get(source, 0.0) / interval_s

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready flat view, for exporters and benchmarks."""
        out: Dict[str, float] = {"host_blocked_s": self.host_blocked_s}
        for source, nbytes in self.served_bytes.items():
            out[f"served_bytes.{source.name}"] = nbytes
        for source, wait in self.mean_wait_s.items():
            out[f"mean_wait_s.{source.name}"] = wait
        return out


@dataclass(frozen=True)
class Arbiter:
    """Fluid-model arbiter over a memory system of fixed bandwidth.

    Attributes:
        memory_bandwidth: Device memory bandwidth in bytes/s.
        pnm_weight: WRR weight for the accelerator (host gets
            ``1 - pnm_weight``) when both streams are backlogged.
        poll_interval_s: Host mailbox polling period for the blocking
            policy (the host learns of completion only at the next poll).
    """

    memory_bandwidth: float
    pnm_weight: float = 0.5
    poll_interval_s: float = 5e-6

    def __post_init__(self) -> None:
        if self.memory_bandwidth <= 0:
            raise ConfigurationError("memory bandwidth must be positive")
        if not 0.0 < self.pnm_weight < 1.0:
            raise ConfigurationError("pnm_weight must be in (0, 1)")

    def _blocking_windows(self, pnm_task_s: float, interval_s: float
                          ) -> Tuple[int, float, float, float]:
        """Blocking-poll task accounting over one interval.

        Returns ``(full_tasks, tail_task_s, pnm_time, blocked)`` where
        ``tail_task_s`` is the trailing *partial* task truncated by the
        end of the interval.  Tasks are back-to-back (each poll that
        observes completion immediately launches the next task), so the
        tail window is still blocked for the host: either its task runs
        to the interval end, or it completes with less than one poll
        residue remaining.  Flooring the task count — the old behaviour —
        under-counted both PNM served bytes and ``host_blocked_s`` for
        intervals that are not near-multiples of the cycle.
        """
        cycle = pnm_task_s + self.poll_interval_s / 2.0
        full_tasks = int(interval_s // cycle)
        tail_s = interval_s - full_tasks * cycle
        tail_task_s = min(tail_s, pnm_task_s)
        pnm_time = full_tasks * pnm_task_s + tail_task_s
        blocked = min(interval_s, full_tasks * cycle + tail_s)
        return full_tasks, tail_task_s, pnm_time, blocked

    def _wrr_share(self, demand: Dict[Source, float]
                   ) -> Dict[Source, float]:
        """Allocate bandwidth: weights bind only under contention."""
        total = sum(demand.values())
        if total <= self.memory_bandwidth:
            return dict(demand)
        weights = {Source.PNM: self.pnm_weight,
                   Source.HOST: 1.0 - self.pnm_weight}
        grant = {s: self.memory_bandwidth * weights[s] for s in demand}
        # Redistribute slack from under-demanding sources.
        for s in demand:
            if demand[s] < grant[s]:
                slack = grant[s] - demand[s]
                grant[s] = demand[s]
                other = (Source.HOST if s is Source.PNM else Source.PNM)
                if other in grant:
                    grant[other] = min(demand[other], grant[other] + slack)
        return grant

    def _observe(self, policy: ArbitrationPolicy, stats: ArbiterStats,
                 pnm_task_s: float, interval_s: float) -> None:
        """Record queue waits, served bytes, and service-window spans.

        Observability only — called after ``stats`` is final, so results
        are identical whether or not a tracer/registry is installed.
        """
        metrics = get_metrics()
        if metrics.enabled:
            for source, nbytes in stats.served_bytes.items():
                metrics.counter("cxl.arbiter.served_bytes",
                                source=source.name,
                                policy=policy.value).inc(nbytes)
            for source, wait in stats.mean_wait_s.items():
                metrics.histogram("cxl.arbiter.wait_s",
                                  source=source.name,
                                  policy=policy.value).observe(wait)
            metrics.counter("cxl.arbiter.host_blocked_s",
                            policy=policy.value).inc(stats.host_blocked_s)
        tracer = get_tracer()
        if not tracer.enabled:
            return
        if policy is ArbitrationPolicy.HARDWARE_WRR:
            for source, nbytes in stats.served_bytes.items():
                tracer.sim_span(
                    f"wrr.{source.name.lower()}", start_s=0.0,
                    dur_s=interval_s, track="cxl.arbiter",
                    category="cxl",
                    args={"served_GB": bytes_to_gb(nbytes),
                          "mean_wait_us":
                              s_to_us(stats.mean_wait_s[source])})
            return
        cycle = pnm_task_s + self.poll_interval_s / 2.0
        full_tasks, tail_task_s, _pnm_time, _blocked = \
            self._blocking_windows(pnm_task_s, interval_s)
        tasks = full_tasks + (1 if tail_task_s > 0.0 else 0)
        traced = min(tasks, MAX_TRACED_TASK_WINDOWS)
        for i in range(traced):
            # The last task window may be the partial one truncated by
            # the end of the interval.
            dur = pnm_task_s if i < full_tasks else tail_task_s
            tracer.sim_span(
                "pnm_task(host blocked)", start_s=i * cycle,
                dur_s=dur, track="cxl.arbiter", category="cxl",
                args=({"tasks_total": tasks, "tasks_traced": traced}
                      if i == 0 else None))

    def simulate(self, policy: ArbitrationPolicy,
                 host: RequestStream, pnm: RequestStream,
                 pnm_task_s: float, interval_s: float) -> ArbiterStats:
        """Serve both streams for ``interval_s`` seconds.

        ``pnm_task_s`` is the duration of one acceleration task; under the
        blocking policy the PNM owns the memory for each task and the host
        resumes only at the next poll boundary after completion.
        """
        if interval_s <= 0 or pnm_task_s <= 0:
            raise ConfigurationError("durations must be positive")
        stats = ArbiterStats()
        if policy is ArbitrationPolicy.HARDWARE_WRR:
            demand = {Source.HOST: host.bandwidth, Source.PNM: pnm.bandwidth}
            grant = self._wrr_share(demand)
            for source, bw in grant.items():
                stats.served_bytes[source] = bw * interval_s
                # M/D/1-flavoured wait estimate under utilization rho.
                rho = min(0.999, sum(grant.values())
                          / self.memory_bandwidth)
                service = CACHELINE_BYTES / self.memory_bandwidth
                stats.mean_wait_s[source] = service * (
                    1.0 + rho / (2.0 * (1.0 - rho)))
            stats.mean_wait_s[Source.HOST] += HOST_ACCESS_S
            stats.host_blocked_s = 0.0
            self._observe(policy, stats, pnm_task_s, interval_s)
            return stats

        # Blocking-poll: back-to-back tasks with poll-delayed handovers,
        # including the trailing partial task window (see
        # :meth:`_blocking_windows` for why the tail counts as blocked).
        _full, _tail, pnm_time, blocked = self._blocking_windows(
            pnm_task_s, interval_s)
        host_time = max(0.0, interval_s - blocked)
        stats.served_bytes[Source.PNM] = min(
            pnm.bandwidth * interval_s, self.memory_bandwidth * pnm_time)
        stats.served_bytes[Source.HOST] = min(
            host.bandwidth * interval_s, self.memory_bandwidth * host_time)
        stats.host_blocked_s = min(blocked, interval_s)
        # Host requests arriving during a task wait half a task on average
        # plus half a poll interval before service resumes, then pay
        # their DRAM access.
        frac_blocked = stats.host_blocked_s / interval_s
        stats.mean_wait_s[Source.HOST] = frac_blocked * (
            pnm_task_s / 2.0 + self.poll_interval_s / 2.0) + HOST_ACCESS_S
        stats.mean_wait_s[Source.PNM] = (
            CACHELINE_BYTES / self.memory_bandwidth)
        self._observe(policy, stats, pnm_task_s, interval_s)
        return stats


def compare_policies(memory_bandwidth: float, host_rate: float,
                     pnm_rate: float, pnm_task_s: float,
                     interval_s: float = 1.0
                     ) -> Dict[str, ArbiterStats]:
    """Run both policies on identical streams — the D3 demonstration."""
    arbiter = Arbiter(memory_bandwidth=memory_bandwidth)
    host = RequestStream(Source.HOST, host_rate)
    pnm = RequestStream(Source.PNM, pnm_rate)
    return {
        policy.value: arbiter.simulate(policy, host, pnm, pnm_task_s,
                                       interval_s)
        for policy in ArbitrationPolicy
    }
