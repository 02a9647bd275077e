"""End-to-end chaos runs: one fault plan, every layer, one report.

``run_chaos`` drives a representative slice of the stack under a
:class:`~repro.faults.plan.FaultPlan` and reports what §IX's RAS
machinery did about it:

1. **Functional generation** — a tiny model runs through the real
   runtime (driver, guard ECC region, launch retry).  Single-bit guard
   upsets correct transparently; a double-bit upset or an exhausted
   retry budget aborts the generation, and the report records which.
2. **Host readback** — a burst of CXL.mem reads through
   :meth:`~repro.cxl.link.CXLLink.transfer_time`, where flit CRC
   errors pay link-layer replay latency.
3. **Serving** — a continuous-batching run (Poisson arrivals, multiple
   devices) that survives the plan's scheduled device stalls and
   permanent failures by requeue-and-failover.

The harness installs its *own* observability context
(:func:`repro.obs.observe`), for two reasons: the fault counters land
in a real metrics registry (reported back in
:attr:`ChaosReport.metrics`), and — more subtly — some hooks only run
when observability is on (the session's host-readback tracing), so
pinning it on keeps the fault-RNG draw sequence identical no matter
what tracing flags the caller set.  Two ``run_chaos`` calls with the
same plan and config produce identical reports (asserted by
``tests/test_faults.py``).

This module intentionally does **not** ship in ``repro.faults``'s
``__init__`` exports: the low-level layers (``repro.cxl.link``) import
``repro.faults.context``, and pulling the harness (and its runtime /
appliance imports) into the package root would create a cycle.  Import
it directly::

    from repro.faults.chaos_harness import ChaosConfig, run_chaos
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.faults.context import chaos
from repro.faults.plan import FaultPlan
from repro.units import GB


@dataclass(frozen=True)
class ChaosConfig:
    """Workload knobs for one chaos run (the plan says what breaks).

    Attributes:
        model: Served model name for the serving phase (§VIII zoo).
        num_requests: Serving-phase request count.
        num_devices: Serving-phase model replicas (failover capacity).
        memory_gb: Per-device memory; kept tight by default so a
            failed device's requeued requests must *wait* for KV room —
            that wait is the failover latency the report shows.
        arrival_rate_per_s: Poisson arrival rate for the open queue.
        readback_reads: CXL.mem reads in the link phase.
        readback_bytes: Size of each read.
        gen_prompt_len: Functional-generation prompt length.
        gen_tokens: Functional-generation output tokens.
    """

    model: str = "OPT-13B"
    num_requests: int = 12
    num_devices: int = 2
    memory_gb: float = 27.0
    arrival_rate_per_s: float = 2.0
    readback_reads: int = 256
    readback_bytes: int = 64
    gen_prompt_len: int = 4
    gen_tokens: int = 8


@dataclass
class ChaosReport:
    """What one chaos run injected, corrected, retried, and survived."""

    seed: int
    generation_outcome: str
    generation_tokens: int
    readback_reads: int
    readback_s: float
    serving: Dict[str, float]
    failover_timeline: List[Dict[str, float]]
    counters: Dict[str, float]
    metrics: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (used by the CLI and determinism tests)."""
        return asdict(self)

    def render(self) -> str:
        """Human-readable summary for the CLI."""
        c = self.counters
        lines = [
            f"chaos run (seed {self.seed})",
            "",
            "generation   outcome={} tokens={} launch retries={}".format(
                self.generation_outcome, self.generation_tokens,
                int(c["launch_retries"])),
            "memory       injected={} corrected={} uncorrectable={} "
            "scrubs={}".format(
                int(c["mem_injected"]), int(c["mem_corrected"]),
                int(c["mem_uncorrectable"]), int(c["mem_scrubs"])),
            "cxl link     flits={} crc errors={} replays={} "
            "replay_s={:.3e}".format(
                int(c["link_flits"]), int(c["link_crc_errors"]),
                int(c["link_replays"]), c["link_replay_s"]),
            "devices      stalls={} stall_s={:.3f} failures={} "
            "requeued={}".format(
                int(c["device_stalls"]), c["device_stall_s"],
                int(c["device_failures"]), int(c["requests_requeued"])),
            "serving      completed={} rejected={} makespan_s={:.2f} "
            "p95_latency_s={:.2f}".format(
                int(self.serving["requests"]),
                int(self.serving["rejected"]),
                self.serving["makespan_s"],
                self.serving["p95_latency_s"]),
            "failover     events={} requeued={} "
            "mean_latency_s={:.3f}".format(
                len(self.failover_timeline),
                int(self.serving["failovers"]),
                self.serving["mean_failover_latency_s"]),
        ]
        for event in self.failover_timeline:
            lines.append(
                "             t={:.2f}s device {} failed, {} requests "
                "requeued".format(event["at_s"], int(event["device"]),
                                  int(event["requeued"])))
        return "\n".join(lines)


def run_chaos(plan: FaultPlan,
              config: Optional[ChaosConfig] = None) -> ChaosReport:
    """Run the three-phase chaos workload under ``plan``.

    Deterministic: the plan's seed drives the fault substreams *and*
    the workload (weights, arrivals), so the same (plan, config) pair
    always yields the same report.
    """
    # Imports live here, not at module top: see the module docstring.
    from repro.accelerator.device import CXLPNMDevice
    from repro.appliance.continuous import ContinuousBatchScheduler
    from repro.errors import DeviceLostError, UncorrectableMemoryError
    from repro.llm import get_model, random_weights, sampled_workload, \
        steady_arrivals, tiny_config
    from repro.obs import observe
    from repro.perf.analytical import BatchStepTimer, PnmPerfModel
    from repro.runtime.session import InferenceSession

    config = config or ChaosConfig()
    with chaos(plan) as state:
        with observe() as (_tracer, registry):
            # -- phase 1: functional generation through the runtime ----
            outcome = "completed"
            tokens = 0
            try:
                session = InferenceSession(
                    random_weights(tiny_config(), seed=plan.seed))
                prompt = list(range(1, config.gen_prompt_len + 1))
                trace = session.generate(prompt, config.gen_tokens)
                tokens = len(trace.tokens)
            except UncorrectableMemoryError:
                outcome = "uncorrectable_memory_error"
            except DeviceLostError:
                outcome = "device_lost"

            # -- phase 2: host CXL.mem readback burst ------------------
            link = CXLPNMDevice().link
            readback_s = 0.0
            for _ in range(config.readback_reads):
                readback_s += link.transfer_time(config.readback_bytes)

            # -- phase 3: serving under device stalls/failures ---------
            model = get_model(config.model)
            engine = ContinuousBatchScheduler(
                BatchStepTimer(model, PnmPerfModel(CXLPNMDevice())),
                model, int(config.memory_gb * GB),
                num_devices=config.num_devices)
            requests = sampled_workload(config.num_requests,
                                        seed=plan.seed)
            arrivals = steady_arrivals(len(requests),
                                       config.arrival_rate_per_s,
                                       seed=plan.seed)
            stats = engine.run(requests, arrivals)

        serving = stats.as_dict()
        timeline = [{"at_s": e.at_s, "device": float(e.device),
                     "requeued": float(e.requeued)}
                    for e in stats.failover_events]
        snapshot = registry.as_dict()
        fault_metrics = {
            key: value
            for family in ("counters", "histograms")
            for key, value in snapshot.get(family, {}).items()
            if key.startswith("faults.") or key.startswith("cxl.link.")}
        return ChaosReport(
            seed=plan.seed,
            generation_outcome=outcome,
            generation_tokens=tokens,
            readback_reads=config.readback_reads,
            readback_s=readback_s,
            serving=serving,
            failover_timeline=timeline,
            counters=state.counters.as_dict(),
            metrics=fault_metrics)
