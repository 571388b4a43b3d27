"""The hybrid HPC-QC pipeline: parallel dispatch, profiling, scaling model.

Shows the SC-track system layer end to end:

1. fit the post-variational model through the instrumented
   :class:`HybridPipeline` on a thread-pool device session;
2. read the stage timers and dispatch counters;
3. project the same circuit workload onto a simulated 16-node QPU cluster
   and print the strong-scaling curve and an ASCII Gantt chart of the LPT
   schedule.

Run:  python examples/hpc_pipeline.py
"""

import numpy as np

from repro.api import ExecutionConfig, QuantumDevice
from repro.core import HybridStrategy
from repro.core.pipeline import HybridPipeline
from repro.data import binary_coat_vs_shirt
from repro.hpc import (
    ClusterModel,
    NodeSpec,
    Trace,
    scaling_report,
    strong_scaling,
)


def main() -> None:
    split = binary_coat_vs_shirt(train_per_class=60, test_per_class=15)

    # --- real parallel execution with instrumentation -------------------
    # One device session (config + persistent thread pool) serves fit and
    # both score sweeps; its context manager releases the pool at the end.
    # The report's dispatch line reconciles the LPT projection against
    # measured per-task wall-clock.
    cfg = ExecutionConfig(dispatch_policy="lpt", chunk_size=30, compile="auto")
    with QuantumDevice(cfg, pool="thread", max_workers=4) as device:
        pipeline = HybridPipeline(
            strategy=HybridStrategy(order=1, locality=1),
            cluster=ClusterModel(node=NodeSpec(shot_rate=1e5), num_nodes=16),
            device=device,
        )
        pipeline.fit(split.x_train, split.y_train)
        print(pipeline.report_.summary())
        print(f"train acc: {pipeline.score(split.x_train, split.y_train):.3f}")
        print(f"test  acc: {pipeline.score(split.x_test, split.y_test):.3f}")

    # --- simulated-cluster scaling study ---------------------------------
    tasks = pipeline.circuit_tasks(split.num_train)
    print(f"\ndispatch grid: {len(tasks)} circuit tasks")
    points = strong_scaling(tasks, NodeSpec(shot_rate=1e5), [1, 2, 4, 8, 16, 32])
    print(scaling_report(points))

    # --- schedule visualisation ------------------------------------------
    model = ClusterModel(node=NodeSpec(shot_rate=1e5), num_nodes=8)
    costs = [model.task_compute_time(t) for t in tasks]
    from repro.hpc import schedule

    assignment = schedule(np.array(costs), 8, "lpt")
    trace = Trace.from_assignment(assignment, costs)
    print("\nLPT schedule (8 nodes):")
    print(trace.ascii_gantt(8, width=56))
    print(f"utilisation: {trace.utilization(8):.2%}")


if __name__ == "__main__":
    main()
