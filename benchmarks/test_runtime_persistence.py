"""E13 -- persistent execution runtime: pool reuse across repeated sweeps.

The hybrid pipeline calls ``evaluate_features`` many times per experiment
(fit, predict on train, predict on test, cross-validation folds...).  The
pre-runtime executor rebuilt its worker pool on every call; the persistent
:class:`~repro.hpc.runtime.ExecutionRuntime` builds it once and reuses it.
This benchmark measures exactly that delta on the reference 8-qubit
workload with the portable ``spawn``-based process backend (what a
production deployment uses -- fork is unsafe with threaded parents), where
per-call pool construction pays interpreter start + numpy import every
sweep.

Acceptance bar: >= 1.5x wall-clock improvement over ``SWEEPS``
consecutive sweeps.  Results land in ``BENCH_runtime.json`` at the repo
root so the perf trajectory is tracked across PRs -- written only under
``BENCH_WRITE=1`` (opt-in: a plain local benchmark run must never dirty
the working tree).

Smoke mode (``RUNTIME_BENCH_SMOKE=1``, used by the CI runtime-smoke job)
shrinks the workload and asserts completion only, not timing.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import env_flag, write_bench_record
from repro.api import ExecutionConfig, QuantumDevice
from repro.core.ansatz import hardware_efficient_ansatz
from repro.core.features import evaluate_features
from repro.core.strategies import AnsatzExpansion
from repro.data.encoding import encode_batch
from repro.hpc.runtime import ExecutionRuntime

SMOKE = env_flag("RUNTIME_BENCH_SMOKE")

NUM_QUBITS = 8
LAYERS = 1
SAMPLES = 8 if SMOKE else 16
SWEEPS = 2 if SMOKE else 8
WORKERS = 2
CHUNK = 8


def build_workload():
    """8-qubit Ansatz-expansion strategy + encoded sample batch."""
    circuit = hardware_efficient_ansatz(NUM_QUBITS, LAYERS)
    strategy = AnsatzExpansion(circuit=circuit, order=1)
    rng = np.random.default_rng(0)
    angles = rng.uniform(0, 2 * np.pi, size=(SAMPLES, 4, NUM_QUBITS))
    return strategy, encode_batch(angles)


def sweep(strategy, states, runtime):
    cfg = ExecutionConfig(chunk_size=CHUNK, compile="auto", dispatch_policy="lpt")
    return evaluate_features(strategy, states, device=QuantumDevice(cfg, runtime=runtime))


def run_benchmark():
    strategy, states = build_workload()

    # Baseline: the pre-runtime pattern -- a fresh pool per sweep.
    start = time.perf_counter()
    per_call_results = []
    for _ in range(SWEEPS):
        with ExecutionRuntime("process", WORKERS, start_method="spawn") as runtime:
            per_call_results.append(sweep(strategy, states, runtime))
    t_per_call = time.perf_counter() - start

    # Persistent: one pool serves every sweep.
    start = time.perf_counter()
    with ExecutionRuntime("process", WORKERS, start_method="spawn") as runtime:
        persistent_results = [sweep(strategy, states, runtime) for _ in range(SWEEPS)]
        pools = runtime.pools_created
    t_persistent = time.perf_counter() - start

    max_err = max(
        float(np.abs(a - b).max())
        for a, b in zip(per_call_results, persistent_results, strict=True)
    )
    return {
        "benchmark": "runtime_persistence",
        "workload": {
            "num_qubits": NUM_QUBITS,
            "ansatz_layers": LAYERS,
            "ansatz_gates": strategy.ansatz.num_gates,
            "num_ansatze": strategy.num_ansatze,
            "samples": SAMPLES,
            "chunk_size": CHUNK,
            "sweeps": SWEEPS,
            "backend": "process",
            "start_method": "spawn",
            "max_workers": WORKERS,
            "dispatch_policy": "lpt",
            "smoke": SMOKE,
        },
        "per_call_pool_s": t_per_call,
        "persistent_pool_s": t_persistent,
        "speedup": t_per_call / t_persistent,
        "pools_created_persistent": pools,
        "max_abs_diff": max_err,
    }


def test_persistent_pool_beats_per_call_pools():
    result = run_benchmark()
    # Opt-in only (BENCH_WRITE=1): unsolicited local runs must not churn
    # the tracked cross-PR perf record.
    write_bench_record("BENCH_runtime.json", result)

    print("\n=== E13: persistent runtime vs per-call pools ===")
    w = result["workload"]
    print(
        f"workload: {w['num_qubits']} qubits, {w['num_ansatze']} Ansatz instances, "
        f"{w['samples']} samples, {w['sweeps']} sweeps, "
        f"{w['backend']}({w['start_method']}) x{w['max_workers']}"
    )
    print(
        f"per-call pools {result['per_call_pool_s']:.2f}s  "
        f"persistent pool {result['persistent_pool_s']:.2f}s  "
        f"speedup {result['speedup']:.2f}x  "
        f"(max |diff| {result['max_abs_diff']:.1e})"
    )

    # Correctness: pool lifetime must not change the numbers (exact
    # estimator => bit-for-bit).
    assert result["max_abs_diff"] == 0.0
    assert result["pools_created_persistent"] == 1
    if not SMOKE:
        # The tentpole acceptance bar: pool reuse is >= 1.5x over SWEEPS
        # consecutive sweeps.
        assert result["speedup"] >= 1.5
