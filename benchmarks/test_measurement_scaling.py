"""E6 -- Propositions 1/2: empirical estimation error vs measurement budget.

Direct measurement: max entry error of a shot-estimated Q matrix must decay
like 1/sqrt(shots) (Hoeffding regime).  Shadows: the error at fixed
snapshot count grows with observable locality (the 4^L shadow norm), while
the count of *jointly estimated* observables is free.
"""

from __future__ import annotations

import numpy as np

from repro.api import ExecutionConfig
from repro.core.features import generate_features
from repro.core.strategies import ObservableConstruction
from repro.quantum.observables import expectation, local_pauli_strings
from repro.quantum.shadows import collect_shadows, estimate_pauli
from repro.data.encoding import encode_batch


def run_direct_sweep(split):
    strategy = ObservableConstruction(qubits=4, locality=1)
    angles = split.x_train[:20]
    exact = generate_features(strategy, angles)
    shot_grid = [64, 256, 1024, 4096]
    errors = []
    for shots in shot_grid:
        est = generate_features(
            strategy, angles, config=ExecutionConfig(estimator="shots", shots=shots, seed=7)
        )
        errors.append(float(np.max(np.abs(est - exact))))
    return shot_grid, errors


def run_shadow_locality_sweep(split):
    angles = split.x_train[:6]
    states = encode_batch(angles)
    snapshots = 6000
    errors_by_locality = {}
    for locality in (1, 2, 3):
        paulis = [
            p
            for p in local_pauli_strings(4, locality)
            if p.locality == locality
        ][:12]
        errs = []
        for i in range(states.shape[0]):
            shadow = collect_shadows(states[i], snapshots, seed=100 + i)
            for p in paulis:
                errs.append(
                    abs(estimate_pauli(shadow, p) - expectation(states[i], p))
                )
        errors_by_locality[locality] = float(np.mean(errs))
    return errors_by_locality


def test_measurement_scaling(benchmark, small_split):
    (shot_grid, direct_errors), shadow_errors = benchmark.pedantic(
        lambda s: (run_direct_sweep(s), run_shadow_locality_sweep(s)),
        args=(small_split,),
        rounds=1,
        iterations=1,
    )

    print("\n=== Proposition 1: direct-measurement error vs shots ===")
    for shots, err in zip(shot_grid, direct_errors, strict=True):
        print(f"shots={shots:>6}  max|Qhat - Q| = {err:.4f}  (1/sqrt = {1/np.sqrt(shots):.4f})")
    print("=== Proposition 2: shadow error vs observable locality (6000 snapshots) ===")
    for loc, err in shadow_errors.items():
        print(f"L={loc}  mean abs error = {err:.4f}  (shadow norm 4^L = {4**loc})")

    # Hoeffding decay: 64 -> 4096 shots is an 8x error reduction in theory;
    # demand at least 3x empirically.
    assert direct_errors[-1] < direct_errors[0] / 3
    # Error monotone (weakly) in the shot budget at the endpoints.
    assert direct_errors[-1] <= direct_errors[0]

    # Shadow-norm effect: higher locality, larger error at equal snapshots.
    assert shadow_errors[1] < shadow_errors[2] < shadow_errors[3]
    # And the L=1 error is in the expected Hoeffding-like ballpark.
    assert shadow_errors[1] < 0.2
