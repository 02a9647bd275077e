"""Service-level view of one CXL-PNM appliance under open-loop load.

The paper's figures are per-request; a capacity planner also needs the
*service* numbers: what latency distribution and sustained throughput a
CXL-PNM appliance delivers under Poisson arrivals, how much host
CXL.mem bandwidth survives while the accelerators are busy (the §V-A D3
arbiter at work), and whether the per-stage times feeding the queueing
model agree with the instruction-level simulator.  This experiment
stitches those three layers together:

* **scheduler** — FCFS over ``DP`` model instances, each serving one
  request at a time (the serving engine at ``max_batch=1``), on
  OPT-13B requests (64 in / 256 out) at ~70% offered utilization;
* **cxl** — the hardware-WRR vs blocking-poll arbiter serving host
  traffic concurrently with PNM tasks of the measured gen-stage length;
* **accelerator** — the list scheduler run over a compiled OPT-13B gen
  stage, cross-checked against the analytical stage time.

On top of those, the **SLO sweep** drives the continuous-batching
engine's multi-tenant front end (see ``docs/SERVING.md``): Zipf-skewed
tenants split across an ``interactive`` class (higher priority and
weight, TTFT/TBT targets, SLO admission shedding) and a best-effort
``batch`` class, offered under each arrival shape in
:data:`~repro.llm.workload.ARRIVAL_SHAPES` at two device counts plus a
batch-heavy tenant mix.  Each cell reports goodput under SLO —
throughput counting only requests whose class targets were met — per
tenant class.  A final row replays the flash-crowd cell from a JSONL
trace file and checks the stats reproduce bit-identically.

Run with ``repro run service --trace-out trace.json`` to get all three
layers' spans on one simulated timeline.
"""

from __future__ import annotations

import os
import tempfile
from typing import List, Sequence, Tuple

from repro.accelerator.compiler import timing_program
from repro.accelerator.device import CXLPNMDevice
from repro.appliance.continuous import (
    ContinuousBatchScheduler,
    ContinuousBatchStats,
    TenantClass,
)
from repro.cxl.arbiter import ArbitrationPolicy, compare_policies
from repro.cxl.protocol import CACHELINE_BYTES, Source
from repro.experiments.report import ExperimentResult
from repro.llm.config import OPT_13B
from repro.llm.workload import (
    ARRIVAL_SHAPES,
    PAPER_INPUT_TOKENS,
    InferenceRequest,
    arrivals_for_shape,
    multi_tenant_workload,
    read_trace,
    steady_arrivals,
    write_trace,
)
from repro.obs.metrics import NULL_REGISTRY
from repro.perf.analytical import (
    BatchStepTimer,
    InferenceTimer,
    PnmPerfModel,
)
from repro.perf.simulator import AcceleratorSimulator
from repro.units import GB

OUTPUT_TOKENS = 256
NUM_INSTANCES = 4
NUM_REQUESTS = 48
OFFERED_UTILIZATION = 0.7
#: Mid-generation context for the arbiter's task length and the
#: simulator cross-check (same representative point as Fig. 3).
CONTEXT_FOR_GEN = 576
#: Concurrent host CXL.mem demand while the appliance serves (bytes/s).
HOST_DEMAND_BYTES_S = 100e9

# -- SLO sweep configuration ----------------------------------------------
SLO_NUM_REQUESTS = 32
SLO_OUTPUT_TOKENS = 64
SLO_NUM_TENANTS = 6
SLO_ZIPF_SKEW = 1.1
SLO_SEED = 11
#: Offered rate relative to one exclusive instance's capacity per device;
#: past 1.0 so that fair-share, preemption, and SLO shedding all engage.
SLO_OVERLOAD = 3.0
SLO_DEVICE_COUNTS = (2, 4)
#: Tenant mixes: round-robin class assignment over ``tenant % len(mix)``.
SLO_MIXES = {
    "even": ("interactive", "batch"),
    "batch-heavy": ("interactive", "batch", "batch", "batch"),
}


def slo_classes(step: BatchStepTimer) -> Tuple[TenantClass, ...]:
    """Tenant classes with targets derived from the device's step costs.

    ``interactive`` outranks ``batch`` (strict priority tier) and gets
    3x its fair-share weight, a TTFT target of a few queued prefills,
    and a TBT target of several single-row decode steps; ``batch`` is
    best-effort with no targets, so its attainment is trivially 1.0.
    """
    prefill = step.prefill_s(PAPER_INPUT_TOKENS)
    decode = step.decode_step_s(1, PAPER_INPUT_TOKENS + 1)
    return (
        TenantClass("interactive", weight=3.0, priority=1,
                    ttft_target_s=4.0 * prefill,
                    tbt_target_s=8.0 * decode),
        TenantClass("batch", weight=1.0),
    )


def _slo_cell(step: BatchStepTimer, memory_bytes: int, mix: Sequence[str],
              shape: str, num_devices: int, rate: float
              ) -> "Tuple[ContinuousBatchStats, list, list]":
    """One sweep cell; returns (stats, requests, arrivals) for replay."""
    requests = multi_tenant_workload(
        SLO_NUM_REQUESTS, num_tenants=SLO_NUM_TENANTS, skew=SLO_ZIPF_SKEW,
        class_names=mix, seed=SLO_SEED,
        mean_input=PAPER_INPUT_TOKENS, mean_output=SLO_OUTPUT_TOKENS)
    arrivals = arrivals_for_shape(shape, SLO_NUM_REQUESTS,
                                  rate * num_devices, seed=SLO_SEED)
    # The DP scheduler layer owns the ambient scheduler.* metrics
    # contract (exactly NUM_REQUESTS requests); the sweep keeps its
    # counters out of that registry but still traces spans onto the
    # shared timeline.
    scheduler = ContinuousBatchScheduler(
        step, OPT_13B, memory_bytes, num_devices=num_devices,
        classes=slo_classes(step), slo_admission=True,
        metrics=NULL_REGISTRY)
    return scheduler.run(requests, arrivals), requests, arrivals


def _slo_rows(step: BatchStepTimer, memory_bytes: int,
              rows: List[dict]) -> None:
    """Append the SLO sweep and the trace-replay check to ``rows``."""
    single = InferenceTimer(OPT_13B, step.model).run(
        PAPER_INPUT_TOKENS, SLO_OUTPUT_TOKENS).latency_s
    rate = SLO_OVERLOAD / single

    cells = [("even", shape, devices)
             for shape in ARRIVAL_SHAPES
             for devices in SLO_DEVICE_COUNTS]
    cells.append(("batch-heavy", "flash-crowd", max(SLO_DEVICE_COUNTS)))
    replay_source = None
    for mix_name, shape, devices in cells:
        stats, requests, arrivals = _slo_cell(
            step, memory_bytes, SLO_MIXES[mix_name], shape, devices, rate)
        label = f"slo {shape}/{mix_name} DP={devices}"
        rows.append({
            "metric": f"{label}: goodput / throughput (tok/s)",
            "value": stats.goodput_tokens_per_s,
            "extra": stats.throughput_tokens_per_s,
        })
        for cls, cell in sorted(stats.class_breakdown().items()):
            rows.append({
                "metric": f"{label} [{cls}]: goodput (tok/s) / attainment",
                "value": cell["goodput_tokens_per_s"],
                "extra": cell["slo_attainment"],
            })
        if (mix_name, shape, devices) == \
                ("even", "flash-crowd", max(SLO_DEVICE_COUNTS)):
            replay_source = (stats, requests, arrivals, devices)

    # Trace-replay check: round-trip the flash-crowd cell through a
    # JSONL trace file and re-run; the stats must be bit-identical.
    stats, requests, arrivals, devices = replay_source
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "slo_trace.jsonl")
        write_trace(path, requests, arrivals)
        replayed_requests, replayed_arrivals = read_trace(path)
    replayed = ContinuousBatchScheduler(
        step, OPT_13B, memory_bytes, num_devices=devices,
        classes=slo_classes(step), slo_admission=True,
        metrics=NULL_REGISTRY,
    ).run(replayed_requests, replayed_arrivals)
    rows.append({
        "metric": "slo trace replay bit-identical (1=yes) / requests",
        "value": float(replayed.as_dict() == stats.as_dict()
                       and replayed.class_breakdown()
                       == stats.class_breakdown()),
        "extra": float(len(replayed_requests)),
    })


def run(num_requests: int = NUM_REQUESTS,
        num_instances: int = NUM_INSTANCES) -> ExperimentResult:
    device = CXLPNMDevice()
    pnm = PnmPerfModel(device)
    timer = InferenceTimer(OPT_13B, pnm)

    # Scheduler layer: Poisson arrivals at 70% of appliance capacity.
    request_latency = timer.run(PAPER_INPUT_TOKENS,
                                OUTPUT_TOKENS).latency_s
    rate = OFFERED_UTILIZATION * num_instances / request_latency
    requests = [InferenceRequest(PAPER_INPUT_TOKENS, OUTPUT_TOKENS,
                                 request_id=i)
                for i in range(num_requests)]
    step = BatchStepTimer(OPT_13B, pnm)
    scheduler = ContinuousBatchScheduler(
        step, OPT_13B, device.memory_capacity, max_batch=1,
        num_devices=num_instances)
    stats = scheduler.run(requests,
                          steady_arrivals(num_requests, rate, seed=0))

    # CXL layer: host bandwidth while PNM tasks of one gen-stage length
    # hammer the same memory.
    gen_stage_s = timer.gen_stage(CONTEXT_FOR_GEN + 1).time_s
    policies = compare_policies(
        memory_bandwidth=device.peak_memory_bandwidth,
        host_rate=HOST_DEMAND_BYTES_S / CACHELINE_BYTES,
        pnm_rate=HOST_DEMAND_BYTES_S / CACHELINE_BYTES,
        pnm_task_s=gen_stage_s)

    # Accelerator layer: instruction-level simulation of the same gen
    # stage, cross-checked against the analytical time above.
    program = timing_program(OPT_13B, batch_tokens=1,
                             ctx_prev=CONTEXT_FOR_GEN)
    sim = AcceleratorSimulator(device).run(program)

    rows: List[dict] = [{
        "metric": f"service p50 / p95 latency (s), DP={num_instances}",
        "value": stats.p50_latency_s,
        "extra": stats.p95_latency_s,
    }, {
        "metric": "service throughput (tok/s) / instance utilization",
        "value": stats.throughput_tokens_per_s,
        "extra": stats.instance_utilization,
    }, {
        "metric": "mean queue wait (s) / offered rate (req/s)",
        "value": stats.mean_queue_wait_s,
        "extra": rate,
    }]
    for policy in ArbitrationPolicy:
        pstats = policies[policy.value]
        rows.append({
            "metric": f"host bandwidth under load, {policy.value} (GB/s)",
            "value": pstats.bandwidth(Source.HOST, 1.0) / GB,
            "extra": pstats.host_blocked_s,
        })
    rows.append({
        "metric": "gen@577 stage time: simulator vs analytical (ms)",
        "value": sim.total_time_s * 1e3,
        "extra": gen_stage_s * 1e3,
    })

    # SLO sweep: multi-tenant continuous batching under each arrival
    # shape, with goodput-under-SLO per tenant class and a trace-replay
    # bit-identity check.
    _slo_rows(step, device.memory_capacity, rows)
    return ExperimentResult(
        experiment_id="service",
        title=f"OPT-13B service level: {num_requests} Poisson requests "
              f"on a DP={num_instances} CXL-PNM appliance",
        rows=rows,
        columns=["metric", "value", "extra"],
        notes=[
            "Open-loop Poisson arrivals at 70% of appliance capacity; "
            "seed fixed, so results are deterministic.",
            "The blocking-poll row is the DIMM-PNM (D3) counterfactual: "
            "host traffic stalls for every PNM task.",
            "Run with --trace-out to see all three layers (scheduler, "
            "cxl, accelerator) on one simulated timeline.",
            "SLO rows: Zipf-skewed tenants split into 'interactive' "
            "(priority tier 1, weight 3, TTFT/TBT targets, admission "
            "shedding) and best-effort 'batch'; goodput counts only "
            "output tokens of requests that met their class targets.",
            "The trace-replay row re-runs the flash-crowd cell from a "
            "JSONL trace round-trip; 1.0 means the stats (including "
            "the per-class breakdown) reproduced bit-identically.",
        ],
    )
