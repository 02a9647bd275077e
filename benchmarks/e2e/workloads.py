"""The five end-to-end benchmark workloads.

Each workload is an object with the same small interface, used by
``run.py`` (timing), ``recorder.py`` (tracing) and the tests:

* ``build(seed, size=None)`` makes the inputs (request stream, weights,
  model) from the seed; this is the workload's set-up.  ``size``
  overrides the benchmark's fixed input size (tests pass small ones).
* ``run(inputs)`` is the timed operation; it returns the outputs.  It
  builds whatever keeps a memo (step model, inference session) itself,
  so every run starts cold, as one ``repro`` invocation does, and no
  untimed run fills a cache the timed runs then use.
* ``ops(inputs)`` is the number of operations one ``run`` attempts.
* ``failures(inputs, out)`` returns one message per failed operation.
* ``fingerprint(out)`` is the canonical text that ``outputs_sha256``
  hashes: simulated per-request timelines, generated tokens, or
  experiment rows.
* ``sim_metrics(inputs, out)`` returns the modelled metrics (simulated
  time, so they repeat exactly for a seed) as
  ``{name: (value, unit, "higher" | "lower" is better)}``.
* ``layer_counts(out)`` returns the simulated per-layer quantities the
  outputs carry (batch occupancy, preemptions, shed requests).

Offered rates and SLO targets are literal constants, never derived
from the perf models under test, so a model change cannot change the
offered load.  Serving metrics are computed here from the per-request
``completed``/``rejected`` lists, not from the engine's own summaries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerator import CXLPNMDevice
from repro.appliance import ContinuousBatchScheduler, TenantClass
from repro.appliance.continuous import simulated_step_model
from repro.experiments import registry
from repro.llm import (OPT_1_3B, OPT_13B, OPT_125M, InferenceRequest,
                       LLMConfig, ReferenceModel, random_weights)
from repro.llm import workload as request_gen
from repro.perf.analytical import BatchStepTimer, PnmPerfModel
from repro.runtime.session import InferenceSession

Metrics = Dict[str, Tuple[float, str, str]]


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


# -- serving -------------------------------------------------------------


@dataclass
class ServeInputs:
    streams: List[Tuple[List[InferenceRequest], List[float]]]
    device: CXLPNMDevice
    perf: PnmPerfModel


class ServeWorkload:
    """Open-loop serving of seeded request streams on the continuous engine.

    Time is simulated, so the simulator can never fall behind the
    arrival schedule; the host side is one caller running one stream
    at a time.  A run serves ``streams`` independent streams (sub-seeds
    of the seed), each on its own engine, so a workload whose cost
    hinges on one rare episode, such as a flash crowd, averages several.

    Every run prices its steps with a fresh step model, as one
    ``repro serve`` does, so filling the step model's memo is part of
    what is timed.  With ``simulated_pricing`` that model is the
    instruction-level one, and the record adds ``xmodel_err`` against
    the analytical model; otherwise it is ``BatchStepTimer``.
    """

    op_unit = "request"

    def __init__(self, name: str, config: LLMConfig, requests: int,
                 devices: int,
                 stream: Callable[[int, int, LLMConfig], Tuple[list, list]],
                 streams: int = 1,
                 simulated_pricing: bool = False,
                 max_batch: Optional[int] = None,
                 classes: Sequence[TenantClass] = (),
                 slo_admission: bool = False):
        self.name = name
        self.config = config
        self.size = {"requests": requests, "streams": streams}
        self.devices = devices
        self.stream = stream
        self.simulated_pricing = simulated_pricing
        self.max_batch = max_batch
        self.classes = tuple(classes)
        self.slo_admission = slo_admission

    def build(self, seed: int, size: Optional[dict] = None) -> ServeInputs:
        size = size or self.size
        k = size["streams"]
        # Sub-seeds seed*1000 + i are distinct across seeds for k <= 1000.
        streams = [self.stream(size["requests"] // k, seed * 1000 + i,
                               self.config) for i in range(k)]
        device = CXLPNMDevice()
        return ServeInputs(streams, device, PnmPerfModel(device))

    def _serve(self, inputs: ServeInputs, step) -> list:
        engine = ContinuousBatchScheduler(
            step, self.config, inputs.device.memory_capacity,
            max_batch=self.max_batch, num_devices=self.devices,
            classes=self.classes or None, slo_admission=self.slo_admission)
        return [engine.run(requests, arrivals)
                for requests, arrivals in inputs.streams]

    def run(self, inputs: ServeInputs) -> list:
        if self.simulated_pricing:
            return self._serve(inputs, simulated_step_model(self.config))
        return self._serve(inputs, BatchStepTimer(self.config, inputs.perf))

    def ops(self, inputs: ServeInputs) -> int:
        return sum(len(requests) for requests, _ in inputs.streams)

    def failures(self, inputs: ServeInputs, runs: list) -> List[str]:
        """Conservation and monotone timelines, one message per request.

        Every offered request must end exactly once, completed or
        rejected (a shed request is a policy outcome, not a failure),
        and a completed one must satisfy arrival <= first token <=
        finish.
        """
        out = []
        for k, ((requests, _), stats) in enumerate(zip(inputs.streams, runs)):
            seen: Dict[int, int] = {}
            for entry in list(stats.completed) + list(stats.rejected):
                rid = entry.request.request_id
                seen[rid] = seen.get(rid, 0) + 1
            for r in requests:
                count = seen.pop(r.request_id, 0)
                if count != 1:
                    out.append(f"stream {k} request {r.request_id} ended "
                               f"{count} times")
            out.extend(f"stream {k}: unknown request {rid}" for rid in seen)
            for c in stats.completed:
                first = c.first_token_s
                if first is None or not c.arrival_s <= first <= c.finish_s:
                    out.append(f"stream {k} request {c.request.request_id}: "
                               f"timeline {c.arrival_s!r} / {first!r} / "
                               f"{c.finish_s!r} is not monotone")
        return out

    def fingerprint(self, runs: list) -> str:
        lines = []
        for k, stats in enumerate(runs):
            lines += [f"C {k} {c.request.request_id} {c.arrival_s!r} "
                      f"{c.start_s!r} {c.first_token_s!r} {c.finish_s!r} "
                      f"{c.preemptions} {c.failovers}"
                      for c in sorted(stats.completed,
                                      key=lambda c: c.request.request_id)]
            lines += [f"R {k} {r.request.request_id} {r.arrival_s!r} "
                      f"{type(r.error).__name__}"
                      for r in sorted(stats.rejected,
                                      key=lambda r: r.request.request_id)]
        return "\n".join(lines)

    def _met(self, c) -> bool:
        tc = next((t for t in self.classes
                   if t.name == c.request.tenant_class), None)
        if tc is None:
            return True
        ttft = c.first_token_s - c.arrival_s
        if tc.ttft_target_s is not None and ttft > tc.ttft_target_s:
            return False
        out_len = c.request.output_len
        if tc.tbt_target_s is not None and out_len > 1:
            tbt = (c.finish_s - c.first_token_s) / (out_len - 1)
            if tbt > tc.tbt_target_s:
                return False
        return True

    def _goodput(self, runs: list) -> float:
        """SLO-meeting output tokens per simulated second, the streams
        taken back to back."""
        makespan = sum(max((c.finish_s for c in stats.completed),
                           default=0.0) for stats in runs)
        good = sum(c.request.output_len for stats in runs
                   for c in stats.completed if self._met(c))
        return good / makespan if makespan else 0.0

    def sim_metrics(self, inputs: ServeInputs, runs: list) -> Metrics:
        done = [c for stats in runs for c in stats.completed]
        ttfts = [c.first_token_s - c.arrival_s for c in done]
        tbts = [(c.finish_s - c.first_token_s) / (c.request.output_len - 1)
                for c in done if c.request.output_len > 1]
        met = sum(1 for c in done if self._met(c))
        out: Metrics = {
            "sim_goodput_tok_s": (self._goodput(runs), "tok/s", "higher"),
            "sim_ttft_p50_s": (_percentile(ttfts, 50), "s", "lower"),
            "sim_ttft_p99_s": (_percentile(ttfts, 99), "s", "lower"),
            "sim_tbt_p50_s": (_percentile(tbts, 50), "s", "lower"),
            "sim_tbt_p99_s": (_percentile(tbts, 99), "s", "lower"),
            "slo_attainment": (met / self.ops(inputs), "ratio", "higher"),
            "sim_completed": (float(len(done)), "count", "higher"),
        }
        if self.simulated_pricing:
            # The same streams priced analytically, untimed: how far the
            # instruction-level and analytical step models disagree on
            # the headline serving number.
            reference = self._goodput(self._serve(
                inputs, BatchStepTimer(self.config, inputs.perf)))
            out["xmodel_err"] = (
                abs(out["sim_goodput_tok_s"][0] - reference) / reference,
                "ratio", "lower")
        return out

    def layer_counts(self, runs: list) -> Dict[str, float]:
        busy = sum(stats.busy_s for stats in runs)
        offered = sum(len(stats.completed) + len(stats.rejected)
                      for stats in runs)
        return {
            "appliance.iterations": float(sum(stats.num_iterations
                                              for stats in runs)),
            "appliance.mean_batch": sum(stats.occupancy_time_s
                                        for stats in runs) / busy,
            "appliance.utilization": busy / sum(stats.available_device_s
                                                for stats in runs),
            "appliance.preemptions": float(sum(stats.preemptions
                                               for stats in runs)),
            "appliance.shed_ratio": sum(len(stats.rejected)
                                        for stats in runs) / offered,
        }


def _sampled_poisson(rate_per_s: float, mean_output: int = 256,
                     max_total: Optional[int] = None):
    def stream(n: int, seed: int, config: LLMConfig):
        requests = request_gen.sampled_workload(
            n, seed=seed, mean_output=mean_output,
            max_total=max_total or config.max_seq_len)
        return requests, request_gen.steady_arrivals(n, rate_per_s,
                                                     seed=seed)
    return stream


def _tenants_flash_crowd(base_rate_per_s: float):
    def stream(n: int, seed: int, config: LLMConfig):
        requests = request_gen.multi_tenant_workload(
            n, num_tenants=8, class_names=("interactive", "batch"),
            seed=seed, mean_input=64, mean_output=64,
            max_total=config.max_seq_len)
        return requests, request_gen.arrivals_for_shape(
            "flash-crowd", n, base_rate_per_s, seed=seed)
    return stream


# -- functional decode ---------------------------------------------------


@dataclass
class DecodeInputs:
    weights: object
    prompts: List[List[int]]
    tokens: int
    reference: Optional[List[List[int]]] = None


class DecodeWorkload:
    """Greedy generation through compiler, driver and executor.

    Every run opens a fresh session on the loaded weights, as one
    ``repro generate`` does, so filling the session's program and
    timing caches is part of what is timed.
    """

    op_unit = "sequence"
    name = "decode-opt125m"

    def __init__(self, prompts: int, tokens: int):
        self.size = {"prompts": prompts, "tokens": tokens}

    def build(self, seed: int, size: Optional[dict] = None) -> DecodeInputs:
        size = size or self.size
        rng = np.random.default_rng(seed)
        n = size["prompts"]
        # One length from each of n equal slices of 8..64, in random
        # order: every seed prefills about the same number of tokens.
        edges = np.linspace(8, 65, n + 1).astype(int)
        lengths = rng.permutation([int(rng.integers(lo, hi))
                                   for lo, hi in zip(edges, edges[1:])])
        prompts = [[int(t) for t in rng.integers(0, OPT_125M.vocab_size,
                                                 int(length))]
                   for length in lengths]
        return DecodeInputs(random_weights(OPT_125M, seed=0), prompts,
                            size["tokens"])

    def run(self, inputs: DecodeInputs) -> list:
        session = InferenceSession(inputs.weights)
        out = []
        for prompt in inputs.prompts:
            try:
                out.append(session.generate(prompt, inputs.tokens))
            except Exception as exc:  # a failed op, counted by failures()
                out.append(exc)
        return out

    def ops(self, inputs: DecodeInputs) -> int:
        return len(inputs.prompts)

    def failures(self, inputs: DecodeInputs, traces: list) -> List[str]:
        if inputs.reference is None:
            model = ReferenceModel(inputs.weights)
            inputs.reference = [list(model.generate(p, inputs.tokens))
                                for p in inputs.prompts]
        out = []
        for i, (trace, want) in enumerate(zip(traces, inputs.reference)):
            if isinstance(trace, Exception):
                out.append(f"sequence {i} raised {trace!r}")
            elif list(trace.tokens) != want:
                out.append(f"sequence {i}: tokens differ from the "
                           "reference model")
        return out

    def fingerprint(self, traces: list) -> str:
        return "\n".join(
            f"E {i} {type(t).__name__}" if isinstance(t, Exception) else
            f"S {i} {t.tokens} {[repr(s) for s in t.stage_times_s]}"
            for i, t in enumerate(traces))

    def sim_metrics(self, inputs: DecodeInputs, traces: list) -> Metrics:
        ok = [t for t in traces if not isinstance(t, Exception)]
        tokens = sum(len(t.tokens) for t in ok)
        sim_s = sum(t.total_time_s for t in ok)
        return {"sim_ms_per_token": (1e3 * sim_s / tokens if tokens
                                     else 0.0, "ms", "lower")}

    def layer_counts(self, traces: list) -> Dict[str, float]:
        return {}


# -- paper artifacts -----------------------------------------------------

#: The paper harnesses, in paper order (``repro run`` ids).
PAPER_IDS = ("fig2", "fig3", "fig4", "table1", "table2", "fig10", "fig11",
             "table3", "scalability", "validation", "ablations",
             "disadvantages", "sensitivity")


def _cell(rows: List[dict], key: str, label, column: str) -> float:
    for row in rows:
        if row.get(key) == label:
            return float(row[column])
    raise KeyError(f"no row {key}={label!r}")


def _fig10(label, column):
    return lambda rows: _cell(rows, "output_tokens", label, column)


def _fig11(label, column):
    return lambda rows: _cell(rows, "config", label, column)


def _table3(label, column, scale=1.0):
    return lambda rows: scale * _cell(rows, "appliance", label, column)


_DP8, _DP4, _MP8 = ("CXL-PNM DP=8 x MP=1", "CXL-PNM DP=4 x MP=2",
                    "CXL-PNM DP=1 x MP=8")
_GPU, _RATIO = "GPU DP=1 x MP=8", "ratio (GPU / CXL-PNM)"

#: (experiment, anchor key, sub-key or None, repro value from rows): the
#: 24 paper anchors that fig10, fig11 and table3 publish.  They are
#: calibration targets, not held-out data.
ANCHORS = (
    ("fig10", "throughput_delta@1024", None,
     _fig10(1024, "throughput_delta")),
    ("fig10", "energy_eff_ratio@1024", None,
     _fig10(1024, "energy_eff_ratio")),
    ("fig10", "gpu_power_w", None, _fig10(1024, "gpu_power_w")),
    ("fig10", "pnm_power_w", None, _fig10(1024, "pnm_power_w")),
    *(("fig10", "small_model_latency_delta", m,
       _fig10(f"{m} latency_delta", "throughput_delta"))
      for m in ("OPT-1.3B", "OPT-2.7B", "OPT-6.7B")),
    ("fig10", "opt30b_latency_ratio", None,
     _fig10("OPT-30B (GPU offloaded)", "throughput_delta")),
    ("fig10", "opt30b_energy_ratio", None,
     _fig10("OPT-30B (GPU offloaded)", "energy_eff_ratio")),
    ("fig11", "dp8_throughput_delta", None, _fig11(_DP8, "throughput_delta")),
    ("fig11", "dp8_energy_ratio", None, _fig11(_DP8, "energy_eff_ratio")),
    ("fig11", "dp4mp2_latency_vs_dp8", None,
     lambda rows: _cell(rows, "config", _DP4, "latency_s")
     / _cell(rows, "config", _DP8, "latency_s") - 1.0),
    ("fig11", "dp4mp2_throughput_delta", None,
     _fig11(_DP4, "throughput_delta")),
    ("fig11", "mp8_latency_delta", None, _fig11(_MP8, "latency_delta")),
    ("fig11", "mp8_throughput_delta", None, _fig11(_MP8, "throughput_delta")),
    ("fig11", "mp8_energy_ratio", None, _fig11(_MP8, "energy_eff_ratio")),
    ("table3", "gpu_tokens_per_day", None,
     _table3(_GPU, "Mtokens_per_day", 1e6)),
    ("table3", "pnm_tokens_per_day", None,
     _table3(_DP8, "Mtokens_per_day", 1e6)),
    ("table3", "gpu_kwh_per_day", None, _table3(_GPU, "kwh_per_day")),
    ("table3", "pnm_kwh_per_day", None, _table3(_DP8, "kwh_per_day")),
    ("table3", "gpu_cost_per_day", None, _table3(_GPU, "usd_per_day")),
    ("table3", "pnm_cost_per_day", None, _table3(_DP8, "usd_per_day")),
    ("table3", "hardware_ratio", None, _table3(_RATIO, "hardware_usd")),
    ("table3", "energy_ratio", None, _table3(_RATIO, "kwh_per_day")),
)


def _is_bad_number(value) -> bool:
    return isinstance(value, (float, np.floating)) and not math.isfinite(value)


class PaperWorkload:
    """Regenerate every paper figure and table, in paper order."""

    op_unit = "experiment"
    name = "paper-artifacts"

    def __init__(self, ids: Sequence[str] = PAPER_IDS):
        self.size = {"ids": list(ids)}

    def build(self, seed: int, size: Optional[dict] = None) -> List[str]:
        # Deterministic: the seed has nothing to vary.
        return list((size or self.size)["ids"])

    def run(self, ids: List[str]) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for eid in ids:
            try:
                out[eid] = registry.EXPERIMENTS[eid]()
            except Exception as exc:  # a failed op, counted by failures()
                out[eid] = exc
        return out

    def ops(self, ids: List[str]) -> int:
        return len(ids)

    def failures(self, ids: List[str], results: Dict[str, object]
                 ) -> List[str]:
        out = []
        for eid in ids:
            result = results.get(eid)
            if isinstance(result, Exception) or result is None:
                out.append(f"{eid} raised {result!r}")
            elif not result.rows:
                out.append(f"{eid} produced no rows")
            elif any(_is_bad_number(v) for row in result.rows
                     for v in row.values()):
                out.append(f"{eid} produced a non-finite number")
        return out

    def fingerprint(self, results: Dict[str, object]) -> str:
        return json.dumps(
            {eid: (r.rows if not isinstance(r, Exception)
                   else type(r).__name__) for eid, r in results.items()},
            sort_keys=True, default=repr)

    def anchor_errors(self, results: Dict[str, object]) -> Dict[str, float]:
        """|repro - paper| / |paper| for each published anchor present."""
        out = {}
        for eid, key, sub, repro_value in ANCHORS:
            result = results.get(eid)
            if result is None or isinstance(result, Exception):
                continue
            paper = result.anchors[key]
            if sub is not None:
                paper = paper[sub]
            name = f"{eid}.{key}" + (f".{sub}" if sub else "")
            out[name] = abs(repro_value(result.rows) - paper) / abs(paper)
        return out

    def sim_metrics(self, ids: List[str], results: Dict[str, object]
                    ) -> Metrics:
        errors = list(self.anchor_errors(results).values())
        return {"paper_err": (float(np.median(errors)) if errors else 0.0,
                              "ratio", "lower"),
                "paper_anchors": (float(len(errors)), "count", "higher")}

    def layer_counts(self, results) -> Dict[str, float]:
        return {}


# -- the benchmark's workloads -------------------------------------------

INTERACTIVE = TenantClass("interactive", weight=3.0, priority=1,
                          ttft_target_s=1.58, tbt_target_s=0.20)
BATCH = TenantClass("batch", weight=1.0)

WORKLOADS = {w.name: w for w in (
    ServeWorkload(
        "serve-steady", OPT_13B, requests=8000, devices=8, max_batch=64,
        stream=_sampled_poisson(4.75)),
    ServeWorkload(
        "serve-slo", OPT_13B, requests=20000, streams=16, devices=8,
        stream=_tenants_flash_crowd(12.25),
        classes=(INTERACTIVE, BATCH), slo_admission=True),
    ServeWorkload(
        "serve-sim", OPT_1_3B, requests=300, devices=2, max_batch=8,
        stream=_sampled_poisson(8.0, mean_output=64, max_total=256),
        simulated_pricing=True),
    DecodeWorkload(prompts=4, tokens=12),
    PaperWorkload(),
)}
