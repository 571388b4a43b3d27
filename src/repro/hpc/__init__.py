"""HPC substrate: communicator, executors, schedulers, cluster model.

Substitutes the paper's HPC stack (see DESIGN.md): an mpi4py-style SPMD
communicator, a persistent thread/process execution runtime, scheduling
policies with analytic makespans and a deterministic simulated-cluster
timing model for reproducible scaling studies.
"""

from repro.hpc.comm import Communicator, Request, SpmdError, run_spmd
from repro.hpc.runtime import (
    DispatchReport,
    ExecutionRuntime,
    ExecutorConfig,
    TaskCompletion,
    resolve_max_workers,
)
from repro.hpc.partition import (
    balanced_cost_partition,
    block_partition,
    chunk_ranges,
    cyclic_partition,
)
from repro.hpc.scheduler import (
    SCHEDULING_POLICIES,
    Assignment,
    schedule,
    submission_order,
    work_stealing_schedule,
)
from repro.hpc.cluster import (
    CircuitTask,
    ClusterModel,
    NodeSpec,
    ScalingPoint,
    strong_scaling,
    task_costs,
    weak_scaling,
)
from repro.hpc.shotalloc import allocate_shots
from repro.hpc.profiling import Counter, StageTimer, dispatch_summary, scaling_report
from repro.hpc.tracing import Trace, TraceEvent

__all__ = [
    "Communicator",
    "Request",
    "SpmdError",
    "run_spmd",
    "ExecutorConfig",
    "ExecutionRuntime",
    "DispatchReport",
    "TaskCompletion",
    "resolve_max_workers",
    "balanced_cost_partition",
    "block_partition",
    "chunk_ranges",
    "cyclic_partition",
    "SCHEDULING_POLICIES",
    "Assignment",
    "schedule",
    "submission_order",
    "work_stealing_schedule",
    "CircuitTask",
    "ClusterModel",
    "NodeSpec",
    "ScalingPoint",
    "strong_scaling",
    "weak_scaling",
    "task_costs",
    "allocate_shots",
    "Counter",
    "StageTimer",
    "scaling_report",
    "dispatch_summary",
    "Trace",
    "TraceEvent",
]
