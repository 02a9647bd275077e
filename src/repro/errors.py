"""Exception hierarchy for the CXL-PNM reproduction library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Subclasses are grouped by
subsystem and carry enough context in the message to be actionable.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A model, device, or appliance was configured with invalid parameters."""


class CapacityError(ReproError):
    """A model or buffer does not fit in the targeted memory or register file."""


class FormFactorError(ReproError):
    """A memory-module composition violates a form-factor constraint."""


class AddressError(ReproError):
    """An address is outside a device's mapped range or is misaligned."""


class AllocationError(ReproError):
    """A device-memory or register-file allocation could not be satisfied."""


class ProtocolError(ReproError):
    """A CXL transaction violates the protocol model (bad opcode, size, tag)."""


class IsaError(ReproError):
    """An instruction is malformed or uses operands inconsistently."""


class ExecutionError(ReproError):
    """The functional executor hit an invalid runtime state."""


class UncorrectableMemoryError(ExecutionError):
    """An ECC-protected read hit a double-bit (uncorrectable) error.

    The machine-check the host would see: SECDED detects the corruption
    but cannot repair it, so the read — and the generation in flight —
    fails rather than returning silently wrong data.
    """


class DriverError(ReproError):
    """The simulated device driver was used incorrectly (bad register,
    unprogrammed instruction buffer, completion queried before launch)."""


class TransientDeviceError(ReproError):
    """A device launch failed recoverably (modeled stall or timeout).

    The runtime retries these with bounded backoff; repeated transients
    escalate to :class:`DeviceLostError`.
    """


class DeviceLostError(ReproError):
    """A device failed permanently (or exhausted its transient retries).

    The serving layer responds by failing the device over: its in-flight
    requests are requeued onto the surviving capacity.
    """


class AdmissionError(ReproError):
    """A request was turned away at admission control.

    Carries the reason a request can never be served (position budget,
    KV footprint, or capacity lost to a device failure); the serving
    engine records these on
    :class:`~repro.appliance.scheduler.RejectedRequest` instead of
    fabricating a service latency.
    """


class ParallelismError(ReproError):
    """A parallelism plan is inconsistent with the model or appliance."""


class SimulationError(ReproError):
    """The timing simulator reached an inconsistent schedule."""


class FaultInjectionError(ReproError):
    """A fault plan or injector was configured inconsistently."""


class StaticAnalysisError(ReproError):
    """Base class for errors raised by the :mod:`repro.analysis` layer."""


class ProgramVerificationError(StaticAnalysisError):
    """A compiled program failed static verification (has ERROR
    diagnostics).

    Raised by the ``verify_static=True`` hook on ``ProgramCache`` and by
    ``verify_program`` callers that demand a clean report; the message
    carries the rendered diagnostics.
    """


class PurityError(StaticAnalysisError):
    """The simulation-purity lint found a violated source invariant."""


__all__ = [
    "ReproError",
    "ConfigurationError",
    "CapacityError",
    "FormFactorError",
    "AddressError",
    "AllocationError",
    "ProtocolError",
    "IsaError",
    "ExecutionError",
    "UncorrectableMemoryError",
    "DriverError",
    "TransientDeviceError",
    "DeviceLostError",
    "AdmissionError",
    "ParallelismError",
    "SimulationError",
    "FaultInjectionError",
    "StaticAnalysisError",
    "ProgramVerificationError",
    "PurityError",
]
