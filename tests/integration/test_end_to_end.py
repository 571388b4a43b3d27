"""Cross-module integration tests: the full paper workflow on small data."""

import numpy as np
import pytest

from repro.api import ExecutionConfig
from repro.core.features import generate_features
from repro.core.model import PostVariationalClassifier
from repro.core.strategies import HybridStrategy, ObservableConstruction
from repro.core.variational import VariationalClassifier
from repro.data.datasets import binary_coat_vs_shirt
from repro.hpc.comm import run_spmd
from repro.hpc.partition import block_partition


@pytest.fixture(scope="module")
def split():
    return binary_coat_vs_shirt(train_per_class=40, test_per_class=10, seed=7)


def test_post_variational_beats_variational(split):
    """The paper's headline Table III ordering on a reduced dataset."""
    pv = PostVariationalClassifier(
        strategy=ObservableConstruction(qubits=4, locality=2)
    ).fit(split.x_train, split.y_train)
    var = VariationalClassifier(epochs=10).fit(split.x_train, split.y_train)
    assert pv.score(split.x_train, split.y_train) > var.score(
        split.x_train, split.y_train
    )


def test_locality_monotone_train_accuracy(split):
    """More local observables => richer features => higher train accuracy."""
    scores = []
    for locality in (1, 2, 3):
        clf = PostVariationalClassifier(
            strategy=ObservableConstruction(qubits=4, locality=locality)
        ).fit(split.x_train, split.y_train)
        scores.append(clf.score(split.x_train, split.y_train))
    assert scores[0] <= scores[1] + 0.02
    assert scores[1] <= scores[2] + 0.02


def test_feature_nesting():
    """L-local feature sets are nested: the first Eq.-18 columns of L=2
    coincide with all of L=1's columns."""
    rng = np.random.default_rng(0)
    angles = rng.uniform(0, 2 * np.pi, size=(6, 4, 4))
    q1 = generate_features(ObservableConstruction(qubits=4, locality=1), angles)
    q2 = generate_features(ObservableConstruction(qubits=4, locality=2), angles)
    assert np.allclose(q2[:, : q1.shape[1]], q1)


def test_hybrid_order0_equals_observable_construction():
    """The base (unshifted) block of a hybrid Q matrix is exactly the
    observable-construction Q matrix (identity Ansatz)."""
    rng = np.random.default_rng(1)
    angles = rng.uniform(0, 2 * np.pi, size=(5, 4, 4))
    hybrid = HybridStrategy(order=1, locality=1)
    q_hybrid = generate_features(hybrid, angles)
    q_obs = generate_features(ObservableConstruction(qubits=4, locality=1), angles)
    q = hybrid.num_observables
    assert np.allclose(q_hybrid[:, :q], q_obs, atol=1e-10)


def test_spmd_feature_generation_matches_serial(split):
    """Rank-parallel Q-matrix assembly via the communicator reproduces the
    serial matrix exactly -- the pattern a real MPI deployment would use."""
    strategy = ObservableConstruction(qubits=4, locality=1)
    angles = split.x_train[:24]
    serial_q = generate_features(strategy, angles)

    def prog(comm):
        rows = block_partition(angles.shape[0], comm.size)[comm.rank]
        local = generate_features(strategy, angles[rows]) if rows.size else None
        gathered = comm.gather((rows, local), root=0)
        if comm.rank != 0:
            return None
        out = np.empty_like(serial_q)
        for idx, block in gathered:
            if block is not None:
                out[idx] = block
        return out

    results = run_spmd(prog, 4)
    assert np.allclose(results[0], serial_q)


def test_shot_noise_budget_controls_loss_shift(split):
    """Theorem 4 in action end to end: a finite-shot Q matrix within the
    eps_H budget keeps the constrained-head loss within epsilon."""
    from repro.core.measurement_budget import theorem4_required_entry_error
    from repro.ml.convex import ConstrainedLeastSquares
    from repro.ml.losses import rmse_loss

    strategy = ObservableConstruction(qubits=4, locality=1)
    angles = split.x_train[:30]
    y = 2.0 * split.y_train[:30].astype(float) - 1.0
    q_exact = generate_features(strategy, angles)
    m = q_exact.shape[1]
    epsilon = 0.5
    eps_h = theorem4_required_entry_error(m, epsilon)
    shots = int(np.ceil(2.0 / eps_h**2 * np.log(2 * m * 30 / 0.05)))
    q_noisy = generate_features(
        strategy, angles, config=ExecutionConfig(estimator="shots", shots=shots, seed=3)
    )
    assert np.max(np.abs(q_noisy - q_exact)) < eps_h * 1.5  # sanity on the budget

    alpha_star = ConstrainedLeastSquares().fit(q_exact, y).coef_
    alpha_hat = ConstrainedLeastSquares().fit(q_noisy, y).coef_
    delta = rmse_loss(y, q_exact @ alpha_hat) - rmse_loss(y, q_exact @ alpha_star)
    assert delta < epsilon


def test_noisy_simulation_degrades_gracefully(split):
    """Depolarizing noise shrinks feature magnitudes but the pipeline still
    trains above chance (NISQ robustness story)."""
    from repro.data.encoding import encoding_circuit
    from repro.quantum.density import expectation_density, run_circuit_density
    from repro.quantum.noise import NoiseModel
    from repro.quantum.observables import local_pauli_strings

    angles = split.x_train[:40]
    y = split.y_train[:40]
    noise = NoiseModel.depolarizing(0.02)
    paulis = local_pauli_strings(4, 1)
    q = np.empty((40, len(paulis)))
    for i in range(40):
        rho = run_circuit_density(encoding_circuit(angles[i]), noise_model=noise)
        for j, p in enumerate(paulis):
            q[i, j] = expectation_density(rho, p)
    # Noisy features are contractions of the ideal ones.
    q_ideal = generate_features(ObservableConstruction(qubits=4, locality=1), angles)
    assert np.mean(np.abs(q[:, 1:])) < np.mean(np.abs(q_ideal[:, 1:]))
    from repro.ml.logistic import LogisticRegression

    model = LogisticRegression().fit(q, y)
    assert np.mean(model.predict(q) == y) > 0.5
