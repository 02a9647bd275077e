"""Simulated CXL-PNM device driver (paper §VI, Fig. 9).

Reproduces the driver's observable behaviour:

* registers the device's CXL.mem region (model parameters, I/O buffers)
  and CXL.io register region, like the DAX/``/dev/mem`` mappings;
* lets user space configure the ten control registers and program the
  instruction buffer over CXL.io;
* launches acceleration code and delivers completion either through an
  MSI-X-style interrupt callback (ISR) or a polling loop on the STATUS
  register — both mechanisms the paper implements.

The "hardware" behind the driver is the functional executor: launching a
program really runs it against device memory, so everything above the
driver (the Python library, sessions) observes real results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.accelerator import isa
from repro.accelerator.control import ControlRegister, ControlUnit, Status
from repro.accelerator.engine import ExecutionStats, Executor
from repro.accelerator.memory import DeviceMemory
from repro.errors import DriverError
from repro.faults.context import get_faults
from repro.obs.context import get_metrics, get_tracer


class CompletionMode(enum.Enum):
    """How the host learns that acceleration code finished (§VI)."""

    INTERRUPT = "msi-x"
    POLLING = "polling"


@dataclass
class InterruptController:
    """MSI-X-style interrupt delivery to registered service routines."""

    _isrs: List[Callable[[], None]] = field(default_factory=list)
    delivered: int = 0

    def register_isr(self, isr: Callable[[], None]) -> None:
        self._isrs.append(isr)

    def assert_interrupt(self) -> None:
        self.delivered += 1
        for isr in self._isrs:
            isr()


class CxlPnmDriver:
    """User-space-facing driver API for one CXL-PNM device.

    Attributes:
        memory: The device's CXL.mem-visible memory (host load/store
            reachable — the key CXL-PNM property, §VI).
        control: The accelerator's CXL.io register file.
        interrupts: The MSI-X delivery path.
    """

    def __init__(self, memory: DeviceMemory,
                 completion_mode: CompletionMode = CompletionMode.INTERRUPT,
                 tracer=None, metrics=None, fast_path: bool = True):
        self.memory = memory
        self.control = ControlUnit()
        self.interrupts = InterruptController()
        self.completion_mode = completion_mode
        self._tracer = tracer
        self._metrics = metrics
        self._executor = Executor(memory, tracer=tracer, metrics=metrics,
                                  vectorized=fast_path)
        self._launches = 0
        self._poll_count = 0
        self.control.write_register(
            ControlRegister.INTERRUPT_ENABLE,
            1 if completion_mode is CompletionMode.INTERRUPT else 0)

    # -- configuration (CXL.io side-band, §V-B) ---------------------------

    def configure(self, reg: ControlRegister, value: int) -> None:
        """Write one control register."""
        self.control.write_register(reg, value)

    def read_register(self, reg: ControlRegister) -> int:
        return self.control.read_register(reg)

    def program(self, code: Tuple[isa.Instruction, ...]) -> None:
        """Write acceleration code into the instruction buffer (step 1)."""
        self.control.program(code)

    # -- execution ----------------------------------------------------------

    def launch(self) -> ExecutionStats:
        """Kick the accelerator (step 2) and run to completion (step 3).

        The functional model executes synchronously; completion is then
        signalled by interrupt or left for :meth:`poll` depending on the
        configured mode.

        When a fault plan with launch faults is active, a launch may
        fail *before* executing anything: transiently (a
        :class:`~repro.errors.TransientDeviceError` the session retries
        with bounded backoff) or permanently
        (:class:`~repro.errors.DeviceLostError`).  Either way the
        STATUS register reads ERROR, exactly as the except path below
        leaves it, so a retry is a plain re-launch.
        """
        if self.control.status is Status.RUNNING:
            raise DriverError("accelerator already running")
        code = self.control.instruction_buffer
        tracer = get_tracer(self._tracer)
        metrics = get_metrics(self._metrics)
        faults = get_faults()
        if faults is not None:
            fault = faults.launch_fault()
            if fault is not None:
                self.control.set_status(Status.ERROR)
                metrics.counter("driver.errors").inc()
                raise fault
        self.control.set_status(Status.RUNNING)
        with tracer.span("driver.launch", category="runtime",
                         instructions=len(code),
                         mode=self.completion_mode.value):
            try:
                stats = self._executor.execute(code)
            except Exception:
                self.control.set_status(Status.ERROR)
                metrics.counter("driver.errors").inc()
                raise
        self.control.set_status(Status.DONE)
        self._launches += 1
        metrics.counter("driver.launches").inc()
        if self.completion_mode is CompletionMode.INTERRUPT:
            self.interrupts.assert_interrupt()
            metrics.counter("driver.interrupts").inc()
        return stats

    def poll(self) -> bool:
        """One polling-mode status check; True when the code completed."""
        if self.completion_mode is not CompletionMode.POLLING:
            raise DriverError("device is configured for interrupts")
        self._poll_count += 1
        get_metrics(self._metrics).counter("driver.polls").inc()
        return self.control.status is Status.DONE

    def wait(self, max_polls: int = 1_000_000) -> None:
        """Poll until completion (bounded, to fail loudly on bugs)."""
        for _ in range(max_polls):
            if self.poll():
                return
        raise DriverError("acceleration code did not complete")

    def acknowledge(self) -> None:
        """Clear DONE back to IDLE after the host consumed the result."""
        if self.control.status is not Status.DONE:
            raise DriverError(
                f"acknowledge in state {self.control.status.name}")
        self.control.set_status(Status.IDLE)

    # -- introspection ------------------------------------------------------

    @property
    def launches(self) -> int:
        return self._launches

    @property
    def poll_count(self) -> int:
        return self._poll_count

    @property
    def executor_stats(self) -> ExecutionStats:
        return self._executor.stats
