"""Multi-device appliances: parallelism plans, comm models, clusters."""

from repro.appliance.admission import TenantClass
from repro.appliance.cluster import (
    GpuAppliance,
    PnmAppliance,
    devices_required,
)
from repro.appliance.continuous import (
    ContinuousBatchScheduler,
    ContinuousBatchStats,
    FailoverEvent,
    simulated_step_model,
)
from repro.appliance.pipeline import PipelinePlan
from repro.appliance.scheduler import RejectedRequest
from repro.appliance.comm import CxlCommModel, GpuCommModel
from repro.appliance.parallelism import (
    ParallelismPlan,
    feasible_plans,
    params_per_device,
)

__all__ = [
    "ContinuousBatchScheduler",
    "ContinuousBatchStats",
    "FailoverEvent",
    "PipelinePlan",
    "RejectedRequest",
    "TenantClass",
    "simulated_step_model",
    "CxlCommModel",
    "GpuAppliance",
    "GpuCommModel",
    "ParallelismPlan",
    "PnmAppliance",
    "devices_required",
    "feasible_plans",
    "params_per_device",
]
