"""CXL-PNM: an LPDDR-based processing-near-memory platform for
TCO-efficient inference of Transformer-based LLMs.

Reproduction of the HPCA 2024 paper by Park et al. (Samsung Electronics,
SNU, UIUC) as a modelling, simulation, and functional-execution library.

Quick start::

    from repro.core import CxlPnmPlatform
    from repro.llm import tiny_config, OPT_13B

    platform = CxlPnmPlatform()
    session = platform.session(config=tiny_config())
    print(session.generate([1, 2, 3], num_tokens=8).tokens)
    print(platform.estimate(OPT_13B, input_len=64, output_len=1024))

Subpackages:

* :mod:`repro.core` -- the platform facade (the paper's contribution).
* :mod:`repro.llm` -- transformer configs, op graphs, golden model.
* :mod:`repro.memory` -- DRAM technologies and CXL module composition.
* :mod:`repro.cxl` -- CXL protocol, links, arbitration, memory devices.
* :mod:`repro.accelerator` -- the LLM accelerator: ISA, executor, compiler.
* :mod:`repro.gpu` -- the GPU baseline models.
* :mod:`repro.perf` -- analytical and instruction-level timing engines.
* :mod:`repro.appliance` -- multi-device parallelism and clusters.
* :mod:`repro.runtime` -- the software stack: driver, library, sessions.
* :mod:`repro.obs` -- span tracing, metrics, Chrome-trace export.
* :mod:`repro.faults` -- fault injection and graceful degradation (§IX).
* :mod:`repro.tco` -- energy, cost, and CO2 accounting.
* :mod:`repro.experiments` -- one harness per paper table/figure.
"""

from repro.errors import (
    AddressError,
    AdmissionError,
    AllocationError,
    CapacityError,
    ConfigurationError,
    DeviceLostError,
    DriverError,
    ExecutionError,
    FaultInjectionError,
    FormFactorError,
    IsaError,
    ParallelismError,
    ProtocolError,
    ReproError,
    SimulationError,
    TransientDeviceError,
    UncorrectableMemoryError,
)

__version__ = "1.0.0"

__all__ = [
    "AddressError",
    "AdmissionError",
    "AllocationError",
    "CapacityError",
    "ConfigurationError",
    "DeviceLostError",
    "DriverError",
    "ExecutionError",
    "FaultInjectionError",
    "FormFactorError",
    "IsaError",
    "ParallelismError",
    "ProtocolError",
    "ReproError",
    "SimulationError",
    "TransientDeviceError",
    "UncorrectableMemoryError",
    "__version__",
]
