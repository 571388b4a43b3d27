"""Algorithm 1 under sharded distributed statevector execution.

Pins ``backend=DistributedStatevectorBackend(shards=k)`` to the
single-process oracle: the job grid, encoding and per-task seed derivation
are all shared, so exact sweeps agree to 1e-10 and shot-based sweeps are
seed-for-seed identical.  This is also the CI ``distributed-smoke`` job's
workload -- a real 4-rank feature sweep end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExecutionConfig, QuantumDevice
from repro.core.ansatz import fig8_ansatz
from repro.core.features import feature_circuit_tasks, feature_jobs, generate_features
from repro.core.strategies import (
    AnsatzExpansion,
    HybridStrategy,
    ObservableConstruction,
)
from repro.quantum.backends import DistributedStatevectorBackend, MitigatedBackend

STRATEGIES = [
    pytest.param(AnsatzExpansion(circuit=fig8_ansatz(4, 2), order=1), id="expansion"),
    pytest.param(ObservableConstruction(qubits=4, locality=2), id="observable"),
    pytest.param(HybridStrategy(circuit=fig8_ansatz(4, 1), order=1, locality=1), id="hybrid"),
]


@pytest.fixture(scope="module")
def angles():
    rng = np.random.default_rng(42)
    return rng.uniform(0, 2 * np.pi, size=(11, 4, 4))


def _cfg(**kw):
    kw.setdefault("chunk_size", 4)
    return ExecutionConfig(**kw)


def _sharded(shards, **kw):
    return _cfg(backend=DistributedStatevectorBackend(shards=shards), **kw)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_sweep_matches_oracle(strategy, angles, shards):
    oracle = generate_features(strategy, angles, config=_cfg())
    sharded = generate_features(strategy, angles, config=_sharded(shards))
    assert np.abs(sharded - oracle).max() < 1e-10


@pytest.mark.parametrize("compile", ["off", "auto"])
def test_sharded_sweep_compile_knob(angles, compile):
    strategy = HybridStrategy(circuit=fig8_ansatz(4, 1), order=1, locality=1)
    oracle = generate_features(strategy, angles, config=_cfg(compile=compile))
    sharded = generate_features(strategy, angles, config=_sharded(4, compile=compile))
    assert np.abs(sharded - oracle).max() < 1e-10


def test_sharded_shots_seed_identical(angles):
    """Measurement happens on the gathered states with the same per-task
    seeds, so finite-shot sweeps are draw-for-draw identical."""
    strategy = ObservableConstruction(qubits=4, locality=1)
    oracle = generate_features(
        strategy, angles, config=_cfg(estimator="shots", shots=64, seed=11)
    )
    sharded = generate_features(
        strategy, angles,
        config=_sharded(2, estimator="shots", shots=64, seed=11),
    )
    assert np.array_equal(oracle, sharded)


def test_sharded_tasks_carry_num_shards(angles):
    """The scheduler's cost model sees the slab split."""
    strategy = ObservableConstruction(qubits=4, locality=1)
    backend = DistributedStatevectorBackend(shards=4)
    jobs = feature_jobs(strategy.num_ansatze, angles.shape[0], 4)
    tasks = feature_circuit_tasks(
        jobs, [None] * strategy.num_ansatze, strategy.num_qubits,
        strategy.num_observables, "exact", 0, 0, backend=backend,
    )
    assert tasks and all(t.num_shards == 4 for t in tasks)


def test_mitigated_tasks_carry_wrapped_num_shards(angles):
    """ZNE over a sharded backend runs every folded copy on its slabs."""
    strategy = ObservableConstruction(qubits=4, locality=1)
    backend = MitigatedBackend(DistributedStatevectorBackend(shards=2))
    assert backend.shards == 2
    jobs = feature_jobs(strategy.num_ansatze, angles.shape[0], 4)
    tasks = feature_circuit_tasks(
        jobs, [None] * strategy.num_ansatze, strategy.num_qubits,
        strategy.num_observables, "exact", 0, 0, backend=backend,
    )
    assert tasks and all(t.num_shards == 2 for t in tasks)


def test_device_session_carries_shards(angles):
    strategy = ObservableConstruction(qubits=4, locality=1)
    oracle = generate_features(strategy, angles, config=_cfg())
    with QuantumDevice(_sharded(4)) as dev:
        assert dev.config.backend.shards == 4
        q, _ = dev.run(strategy, angles)
        q_single, _ = dev.reconfigured(backend=None).run(strategy, angles)
    assert np.abs(q - oracle).max() < 1e-10
    assert np.array_equal(q_single, oracle)
