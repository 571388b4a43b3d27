"""E7 -- hybrid HPC-QC scaling: the SC-track headline experiment.

Three panels:

1. *Strong scaling* (simulated cluster): the Table III hybrid workload's
   dispatch grid over 1..64 nodes; near-linear until per-node work
   approaches the per-circuit overhead.
2. *Weak scaling*: per-node workload held constant; efficiency ~ 1.
3. *Scheduling policies*: LPT / work-stealing vs naive block/cyclic on the
   heterogeneous post-transpilation cost profile (shift circuits of higher
   derivative order are deeper).

Also times the *real* thread-parallel feature generation as a smoke check
that the executor path works outside simulation (no speedup assertion --
host-dependent).
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import QuantumDevice
from repro.core.pipeline import PIPELINE_DEFAULT_CONFIG, HybridPipeline
from repro.core.strategies import HybridStrategy
from repro.hpc.cluster import ClusterModel, NodeSpec, strong_scaling, weak_scaling
from repro.hpc.runtime import ExecutionRuntime
from repro.hpc.profiling import scaling_report
from repro.hpc.scheduler import SCHEDULING_POLICIES, schedule


def build_workload(split):
    """The E1 hybrid ensemble as cluster dispatch units."""
    pipe = HybridPipeline(
        strategy=HybridStrategy(order=1, locality=1),
        config=PIPELINE_DEFAULT_CONFIG.merged(estimator="shots", shots=1024, chunk_size=25),
    )
    return pipe, pipe.circuit_tasks(split.num_train)


def run_scaling(split):
    pipe, tasks = build_workload(split)
    node = NodeSpec(shot_rate=1e5, circuit_overhead=1e-3)
    node_counts = [1, 2, 4, 8, 16, 32, 64]
    strong = strong_scaling(tasks, node, node_counts)
    weak = weak_scaling(tasks[: max(1, len(tasks) // 8)], node, [1, 2, 4, 8])

    # Heterogeneous per-task costs: deeper shift circuits cost more.
    model = ClusterModel(node=node, num_nodes=8)
    rng = np.random.default_rng(0)
    costs = np.array(
        [model.task_compute_time(t) * rng.uniform(0.5, 2.0) for t in tasks]
    )
    policies = {p: schedule(costs, 8, p) for p in SCHEDULING_POLICIES}
    return strong, weak, policies


def test_hpc_scaling(benchmark, small_split):
    strong, weak, policies = benchmark.pedantic(
        run_scaling, args=(small_split,), rounds=1, iterations=1
    )

    print("\n=== E7a: strong scaling (simulated cluster, hybrid 1+1 ensemble) ===")
    print(scaling_report(strong))
    print("=== E7b: weak scaling ===")
    print(scaling_report(weak))
    print("=== E7c: scheduling policies (8 nodes, heterogeneous costs) ===")
    for name, a in policies.items():
        print(
            f"{name:<15} makespan={a.makespan:.4f}s  imbalance={a.imbalance:.3f}  "
            f"efficiency={a.efficiency():.3f}"
        )

    # Near-linear strong scaling in the QPU-bound region.
    by_nodes = {p.num_nodes: p for p in strong}
    assert by_nodes[2].efficiency > 0.9
    assert by_nodes[8].efficiency > 0.85
    # Speedup is monotone in node count.
    speedups = [p.speedup for p in strong]
    assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:], strict=False))
    # But efficiency decays once nodes outnumber work granularity.
    assert by_nodes[64].efficiency <= by_nodes[2].efficiency + 1e-9

    # Weak scaling stays efficient.
    assert all(p.efficiency > 0.85 for p in weak)

    # LPT and work stealing beat static block on heterogeneous costs.
    assert policies["lpt"].makespan <= policies["block"].makespan + 1e-12
    assert policies["work_stealing"].makespan <= policies["block"].makespan * 1.05


def test_real_executor_smoke(benchmark, small_split):
    """Wall-clock sanity of the real thread backend on the same ensemble
    (results equality is asserted in the unit suite; here we just measure)."""

    def run():
        with ExecutionRuntime("thread", 4) as runtime:
            pipe = HybridPipeline(
                strategy=HybridStrategy(order=1, locality=1),
                device=QuantumDevice(
                    PIPELINE_DEFAULT_CONFIG.merged(chunk_size=25), runtime=runtime
                ),
            )
            start = time.perf_counter()
            pipe.fit(small_split.x_train, small_split.y_train)
            return time.perf_counter() - start

    elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nreal thread-pool fit (m=221, d={small_split.num_train}): {elapsed:.2f}s")
    assert elapsed < 120.0
