"""Tests: SPMD feature generation / data-parallel head, greedy selection."""

import numpy as np
import pytest

from repro.api import ExecutionConfig, QuantumDevice
from repro.core.distributed_pipeline import (
    fit_logistic_spmd,
    generate_features_spmd,
)
from repro.core.features import generate_features
from repro.core.selection import greedy_forward_selection
from repro.core.strategies import ObservableConstruction
from repro.hpc.comm import run_spmd
from repro.ml.logistic import LogisticRegression


@pytest.fixture(scope="module")
def task():
    rng = np.random.default_rng(0)
    angles = rng.uniform(0, 2 * np.pi, (36, 4, 4))
    y = (angles[:, 0, 0] > np.pi).astype(int)
    return angles, y


def test_spmd_features_match_serial(task):
    angles, _ = task
    strategy = ObservableConstruction(qubits=4, locality=1)
    serial = generate_features(strategy, angles)

    def prog(comm):
        _, full = generate_features_spmd(comm, strategy, angles, allgather=True)
        return full

    results = run_spmd(prog, 4)
    for full in results:
        assert np.allclose(full, serial)


def test_spmd_features_with_persistent_runtime(task):
    """Each rank may drive a node-local persistent pool; numbers unchanged."""
    from repro.hpc.runtime import ExecutionRuntime

    angles, _ = task
    strategy = ObservableConstruction(qubits=4, locality=1)
    serial = generate_features(strategy, angles)

    def prog(comm):
        with ExecutionRuntime("thread", 2) as ex:
            _, full = generate_features_spmd(
                comm,
                strategy,
                angles,
                allgather=True,
                device=QuantumDevice(ExecutionConfig(dispatch_policy="lpt"), runtime=ex),
            )
        return full

    for full in run_spmd(prog, 2):
        assert np.allclose(full, serial)


def test_spmd_device_seeds_ranks_like_config(task):
    """Under device=, each rank's seed rides on a reconfigured device that
    shares the session pool: the shot Q equals the config= run bit for bit."""
    angles, _ = task
    strategy = ObservableConstruction(qubits=4, locality=1)
    cfg = ExecutionConfig(estimator="shots", shots=64, seed=9)

    def prog(comm, via_device):
        if not via_device:
            return generate_features_spmd(comm, strategy, angles, allgather=True, config=cfg)[1]
        with QuantumDevice(cfg, pool="thread", max_workers=2) as device:
            full = generate_features_spmd(comm, strategy, angles, allgather=True, device=device)[1]
            assert device.runtime.pools_created == 1
        return full

    by_config = run_spmd(lambda comm: prog(comm, False), 3)[0]
    by_device = run_spmd(lambda comm: prog(comm, True), 3)[0]
    assert np.array_equal(by_config, by_device)


def test_spmd_features_deterministic_with_shots(task):
    """At a fixed rank count, stochastic SPMD feature generation is
    reproducible, and estimates stay within shot-noise of the exact Q."""
    angles, _ = task
    strategy = ObservableConstruction(qubits=4, locality=1)

    def make_prog():
        def prog(comm):
            _, full = generate_features_spmd(
                comm,
                strategy,
                angles,
                allgather=True,
                config=ExecutionConfig(estimator="shots", shots=512, seed=9),
            )
            return full
        return prog

    a = run_spmd(make_prog(), 4)[0]
    b = run_spmd(make_prog(), 4)[0]
    assert np.array_equal(a, b)
    exact = generate_features(strategy, angles)
    assert np.max(np.abs(a - exact)) < 0.25


def test_spmd_local_blocks_cover(task):
    angles, _ = task
    strategy = ObservableConstruction(qubits=4, locality=1)

    def prog(comm):
        rows, block = generate_features_spmd(comm, strategy, angles)
        return rows, block.shape

    results = run_spmd(prog, 3)
    covered = sorted(int(i) for rows, _ in results for i in rows)
    assert covered == list(range(36))


def test_data_parallel_logistic_matches_serial(task):
    angles, y = task
    strategy = ObservableConstruction(qubits=4, locality=1)
    q = generate_features(strategy, angles)
    serial = LogisticRegression(l2=1.0).fit(q, y)

    def prog(comm):
        rows, block = generate_features_spmd(comm, strategy, angles)
        return fit_logistic_spmd(comm, block, y[rows], l2=1.0, iterations=4000)

    results = run_spmd(prog, 4)
    # All ranks agree bit-for-bit.
    for r in results[1:]:
        assert np.array_equal(r.coef, results[0].coef)
    # And match the serial L-BFGS optimum closely.
    assert np.allclose(results[0].coef, serial.coef_, atol=5e-2)
    # Predictions agree on the training set.
    from repro.ml.losses import sigmoid

    spmd_pred = (sigmoid(q @ results[0].coef + results[0].intercept) >= 0.5).astype(int)
    assert np.mean(spmd_pred == serial.predict(q)) > 0.97


def test_fit_logistic_spmd_validation():
    def prog(comm):
        return fit_logistic_spmd(comm, np.empty((0, 3)), np.empty(0))

    from repro.hpc.comm import SpmdError

    with pytest.raises(SpmdError):
        run_spmd(prog, 2)


# ------------------------------------------------------------- selection
def test_greedy_recovers_planted_support():
    rng = np.random.default_rng(1)
    q = rng.normal(size=(200, 30))
    support = [3, 11, 27]
    y = q[:, support] @ np.array([2.0, -1.5, 1.0])
    result = greedy_forward_selection(q, y, max_features=3)
    assert sorted(result.selected) == support
    assert result.train_loss_path[-1] < 1e-8


def test_greedy_loss_monotone():
    rng = np.random.default_rng(2)
    q = rng.normal(size=(80, 20))
    y = rng.normal(size=80)
    result = greedy_forward_selection(q, y, max_features=10)
    path = result.train_loss_path
    assert all(b <= a + 1e-12 for a, b in zip(path, path[1:], strict=False))


def test_greedy_validation_path():
    rng = np.random.default_rng(3)
    q = rng.normal(size=(100, 15))
    y = q[:, 2] * 3 + rng.normal(0, 0.1, 100)
    qv = rng.normal(size=(40, 15))
    yv = qv[:, 2] * 3 + rng.normal(0, 0.1, 40)
    result = greedy_forward_selection(q, y, max_features=5, q_val=qv, y_val=yv)
    assert result.selected[0] == 2  # strongest column found first
    assert len(result.validation_loss_path) == result.num_selected


def test_greedy_stops_when_residual_exhausted():
    q = np.eye(4)
    y = np.array([1.0, 0.0, 0.0, 0.0])
    result = greedy_forward_selection(q, y, max_features=4)
    assert result.num_selected == 1  # residual hits zero after one column


def test_greedy_on_quantum_features():
    """End-to-end: select a compact sub-ensemble of the 2-local features
    that matches the full ensemble's train RMSE within 10%."""
    rng = np.random.default_rng(4)
    angles = rng.uniform(0, 2 * np.pi, (60, 4, 4))
    y = 2.0 * (angles[:, 0, 0] > np.pi).astype(float) - 1.0
    q = generate_features(ObservableConstruction(qubits=4, locality=2), angles)
    result = greedy_forward_selection(q, y, max_features=20)
    assert result.num_selected <= 20
    assert result.train_loss_path[-1] < 0.5  # far below label scale 1.0


def test_greedy_validation_errors():
    q = np.ones((4, 2))
    with pytest.raises(ValueError):
        greedy_forward_selection(q, np.ones(3), 2)
    with pytest.raises(ValueError):
        greedy_forward_selection(q, np.ones(4), 0)
    with pytest.raises(ValueError):
        greedy_forward_selection(q, np.ones(4), 2, q_val=np.ones((2, 2)))
