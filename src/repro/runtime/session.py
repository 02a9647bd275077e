"""End-to-end inference sessions on the simulated CXL-PNM device.

An :class:`InferenceSession` is the user experience the paper's software
stack promises: load a Python-defined model into CXL memory once, then
call ``generate`` — each stage compiles to acceleration code, runs
through the driver (instruction buffer, launch, interrupt/poll, output
buffer), and optionally accumulates *simulated device time* from the
timing simulator, so a session reports both the generated tokens and the
latency the real card would have taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.accelerator.compiler import (ModelLayout, ProgramCache,
                                        StageCompiler, load_model)
from repro.accelerator.device import CXLPNMDevice
from repro.accelerator.memory import DeviceMemory
from repro.errors import (CapacityError, ConfigurationError,
                          DeviceLostError, TransientDeviceError)
from repro.faults.context import get_faults
from repro.llm.reference import ModelWeights
from repro.memory.reliable import ReliableRegion
from repro.obs.context import get_metrics, get_tracer
from repro.perf.metrics import left_sum
from repro.perf.simulator import AcceleratorSimulator
from repro.runtime.driver import CompletionMode, CxlPnmDriver
from repro.units import MiB, s_to_us


@dataclass
class GenerationTrace:
    """What one ``generate`` call did and how long the device would take.

    Timing convention: ``stage_times_s`` holds one entry per executed
    stage (the sum stage first, then each gen stage) **only when the
    session simulates timing**.  A session constructed with
    ``simulate_timing=False`` leaves it empty, and every derived time
    (``sum_time_s``, ``gen_time_s``, ``total_time_s``) reports ``0.0``
    rather than raising — check :attr:`has_timing` to distinguish "took
    no time" from "timing was disabled".
    """

    tokens: List[int] = field(default_factory=list)
    stage_times_s: List[float] = field(default_factory=list)
    instructions: int = 0

    @property
    def has_timing(self) -> bool:
        """True when the session recorded simulated stage times."""
        return bool(self.stage_times_s)

    @property
    def sum_time_s(self) -> float:
        """Simulated sum-stage time; 0.0 when timing was disabled."""
        return self.stage_times_s[0] if self.stage_times_s else 0.0

    @property
    def gen_time_s(self) -> float:
        """Simulated total gen-stage time; 0.0 when timing was disabled."""
        return left_sum(self.stage_times_s[1:]) if self.stage_times_s else 0.0

    @property
    def total_time_s(self) -> float:
        """Simulated end-to-end time; 0.0 when timing was disabled."""
        return left_sum(self.stage_times_s) if self.stage_times_s else 0.0


class InferenceSession:
    """Generate text with a model resident in CXL-PNM device memory."""

    def __init__(self, weights: ModelWeights,
                 memory_bytes: Optional[int] = None,
                 completion_mode: CompletionMode = CompletionMode.INTERRUPT,
                 simulate_timing: bool = True,
                 device: Optional[CXLPNMDevice] = None,
                 tracer=None, metrics=None, fast_path: bool = True,
                 verify_static: bool = False,
                 quantize: Optional[str] = None):
        config = weights.config
        if memory_bytes is None:
            # Parameters + caches + buffers, with fp32 functional storage
            # and allocator slack.
            need = (config.param_bytes * 2
                    + 2 * config.num_layers * config.max_seq_len
                    * config.d_model * 4
                    + config.max_seq_len * config.d_model * 4)
            memory_bytes = int(need * 1.25) + 4 * MiB
        self.config = config
        self.memory = DeviceMemory(memory_bytes)
        self._tracer = tracer
        self._metrics = metrics
        self.fast_path = fast_path
        self.driver = CxlPnmDriver(self.memory,
                                   completion_mode=completion_mode,
                                   tracer=tracer, metrics=metrics,
                                   fast_path=fast_path)
        self.layout: ModelLayout = load_model(self.memory, weights,
                                              quantize=quantize)
        self.compiler = StageCompiler(self.layout)
        self.program_cache = ProgramCache(
            self.compiler, verify_static=verify_static) \
            if fast_path else None
        self._device = device or CXLPNMDevice()
        self.simulator = AcceleratorSimulator(
            self._device, tracer=tracer, metrics=metrics,
            memoize=fast_path) \
            if simulate_timing else None
        self._sim_clock_s = 0.0
        self._context_len = 0
        # Fault-injection hookup (repro.faults): when an ambient plan
        # with memory faults is active at construction time, a small
        # SECDED guard region is carved out of device memory and ticked
        # after every stage — single-bit upsets correct transparently,
        # double-bit upsets abort the generation.  With no plan, the
        # session carries a None and pays nothing.
        self._faults = get_faults()
        self._guard = None
        if self._faults is not None and self._faults.plan.memory.enabled:
            words = self._faults.plan.memory.guard_words
            self._guard = ReliableRegion(self.memory, "ras.guard", words)
            self._guard.write_array(
                np.arange(words, dtype=np.uint64) * 0x9E37_79B9)

    @property
    def context_len(self) -> int:
        """Tokens currently held in the device-side KV cache.

        Counts every token *processed* by a stage; the final token of a
        generation is emitted but not fed back, so it is not cached.
        """
        return self._context_len

    @property
    def interrupts_seen(self) -> int:
        """Completion interrupts this session's driver has delivered."""
        return self.driver.interrupts.delivered

    def reset(self) -> None:
        """Forget the conversation (KV cache is overwritten next time)."""
        self._context_len = 0

    def _run_stage(self, code, trace: GenerationTrace,
                   stage: str = "stage") -> int:
        tracer = get_tracer(self._tracer)
        metrics = get_metrics(self._metrics)
        with tracer.span(f"session.{stage}", category="runtime",
                         instructions=len(code)) as span:
            self.driver.program(code)
            self._launch_with_retry(metrics)
            if self.driver.completion_mode is CompletionMode.POLLING:
                self.driver.wait()
            self.driver.acknowledge()
            if self._guard is not None:
                self._faults.memory_tick(self._guard)
            trace.instructions += len(code)
            if self.simulator is not None:
                stage_time = self.simulator.run(
                    code, trace_offset_s=self._sim_clock_s).total_time_s
                trace.stage_times_s.append(stage_time)
                if tracer.enabled:
                    tracer.sim_span(
                        f"session.{stage}", start_s=self._sim_clock_s,
                        dur_s=stage_time, track="session",
                        category="runtime",
                        args={"instructions": len(code)})
                    span.set(device_time_us=s_to_us(stage_time))
                self._sim_clock_s += stage_time
                self._trace_host_readback(tracer, metrics)
            token = int(self.memory.read_tensor(
                self.layout.output_region.addr, (1,))[0])
        if metrics.enabled:
            metrics.counter("session.stages", stage=stage).inc()
            metrics.counter("session.tokens").inc()
        return token

    def _launch_with_retry(self, metrics) -> None:
        """Launch, retrying recoverable device faults (paper §IX).

        A :class:`~repro.errors.TransientDeviceError` from the driver is
        retried up to the plan's ``max_retries`` with exponential
        backoff charged to the simulated clock; exhausting the budget
        escalates to :class:`~repro.errors.DeviceLostError`.  Permanent
        failures propagate immediately.  With no fault plan active the
        driver cannot raise either error, so this is a plain launch.
        """
        if self._faults is None:
            self.driver.launch()
            return
        launch = self._faults.plan.launch
        attempts = 0
        while True:
            try:
                self.driver.launch()
                return
            except TransientDeviceError:
                attempts += 1
                if attempts > launch.max_retries:
                    raise DeviceLostError(
                        f"device unresponsive after {attempts} transient "
                        f"launch failures") from None
                self._faults.note_launch_retry()
                if metrics.enabled:
                    metrics.counter("session.launch_retries").inc()
                self._sim_clock_s += (launch.retry_backoff_s
                                      * 2 ** (attempts - 1))

    def _trace_host_readback(self, tracer, metrics) -> None:
        """Account the host's CXL.mem read of the output token.

        The modelled link time advances the trace-placement clock
        unconditionally — ``_sim_clock_s`` must not depend on whether
        observability is on (the purity lint's PUR303 guarantee) — but
        it is never added to the stage times a trace reports.  Only the
        span emission and the byte counter sit behind the guards.
        """
        nbytes = 4  # one fp32 token slot in the output buffer
        link_s = self._device.link.transfer_time(nbytes)
        if metrics.enabled:
            metrics.counter("session.host_readback_bytes").inc(nbytes)
        if tracer.enabled:
            tracer.sim_span("host_token_read", start_s=self._sim_clock_s,
                            dur_s=link_s, track="cxl.link",
                            category="cxl",
                            args={"bytes": nbytes})
        self._sim_clock_s += link_s

    def generate(self, prompt: Sequence[int], num_tokens: int
                 ) -> GenerationTrace:
        """Greedy-decode ``num_tokens`` tokens after ``prompt``.

        Runs one sum stage over the prompt and ``num_tokens - 1`` gen
        stages, mirroring :meth:`repro.llm.reference.ReferenceModel.
        generate` exactly (tests assert token equality).
        """
        self.reset()
        return self.extend(prompt, num_tokens)

    def extend(self, prompt: Sequence[int], num_tokens: int
               ) -> GenerationTrace:
        """Continue the conversation: append ``prompt`` to the live KV
        context (a multi-token stage) and greedy-decode ``num_tokens``.

        This is the multi-turn chat path: the device-side KV cache from
        earlier turns stays resident in CXL memory, so each turn only
        processes its new tokens — the capacity advantage §II-A promises.
        """
        if num_tokens <= 0:
            raise ConfigurationError("num_tokens must be positive")
        if not prompt:
            raise ConfigurationError("prompt must be non-empty")
        total = self._context_len + len(prompt) + num_tokens
        if total > self.config.max_seq_len:
            raise CapacityError(
                f"{self._context_len} cached + {len(prompt)} prompt + "
                f"{num_tokens} generated tokens exceed max_seq_len="
                f"{self.config.max_seq_len}")
        trace = GenerationTrace()
        cache = self.program_cache
        if cache is not None:
            code = cache.stage(prompt, ctx_prev=self._context_len)
        else:
            code = self.compiler.compile_stage(list(prompt),
                                               ctx_prev=self._context_len)
        token = self._run_stage(code, trace, stage="sum_stage")
        trace.tokens.append(token)
        self._context_len += len(prompt)
        for _ in range(num_tokens - 1):
            self._context_len += 1
            if cache is not None:
                code = cache.gen_stage(trace.tokens[-1],
                                       context_len=self._context_len)
            else:
                code = self.compiler.compile_gen_stage(
                    trace.tokens[-1], context_len=self._context_len)
            token = self._run_stage(code, trace, stage="gen_stage")
            trace.tokens.append(token)
        # context_len counts KV-cache rows: every processed token.  The
        # final generated token was never fed back, so it is not cached;
        # include it in the next turn's prompt if it belongs to the
        # conversation.
        return trace
