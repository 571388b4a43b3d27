"""Cross-module invariants: optimisations must never change the physics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionConfig
from repro.core.features import generate_features
from repro.core.strategies import AnsatzExpansion, HybridStrategy
from repro.data.encoding import encode_batch
from repro.quantum.observables import PauliSum, expectation
from repro.quantum.statevector import run_circuit
from repro.quantum.transpile import optimize


@pytest.fixture(scope="module")
def angles():
    rng = np.random.default_rng(0)
    return rng.uniform(0, 2 * np.pi, size=(8, 4, 4))


def test_transpiled_ensemble_preserves_q_matrix(angles):
    """Sec. VIII: transpiling the fixed shift circuits must leave every
    feature bit-equal (global phases cannot leak into expectations)."""
    strategy = AnsatzExpansion(order=1)
    states = encode_batch(angles)
    q_raw = generate_features(strategy, angles)
    circuit = strategy.ansatz
    obs = strategy.observables()[0]
    for a, params in enumerate(strategy.parameter_sets()):
        optimized, _ = optimize(circuit.bind(params))
        evolved = run_circuit(optimized, state=states)
        column = expectation(evolved, obs)
        assert np.allclose(column, q_raw[:, a], atol=1e-10), a


def test_shift_configurations_reconstruct_gradient_on_data(angles):
    """The ensemble's raison d'etre: first-order features linearly combine
    into the exact data-gradient of the variational expectation."""
    strategy = AnsatzExpansion(order=1)
    q = generate_features(strategy, angles)
    configs = strategy.shift_configurations
    states = encode_batch(angles)
    from repro.quantum.parameter_shift import expectation_function, gradient

    for u in (0, 4, 7):
        plus = next(
            i for i, c in enumerate(configs) if c.subset == (u,) and c.signs == (1,)
        )
        minus = next(
            i for i, c in enumerate(configs) if c.subset == (u,) and c.signs == (-1,)
        )
        ensemble_grad = 0.5 * (q[:, plus] - q[:, minus])
        for row in (0, 3):
            f = expectation_function(
                strategy.ansatz, strategy.observables()[0], state=states[row]
            )
            assert ensemble_grad[row] == pytest.approx(
                gradient(f, np.zeros(8))[u], abs=1e-9
            )


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_pauli_sum_expectation_linearity(seed):
    """expectation is linear over PauliSum: random sums vs term-by-term."""
    rng = np.random.default_rng(seed)
    from tests.conftest import random_state

    psi = random_state(3, rng)
    from repro.quantum.observables import local_pauli_strings

    pool = local_pauli_strings(3, 2)
    picks = rng.choice(len(pool), size=4, replace=False)
    coeffs = rng.uniform(-2, 2, size=4)
    ps = PauliSum([(c, pool[i]) for c, i in zip(coeffs, picks, strict=True)])
    direct = expectation(psi, ps)
    termwise = sum(c * expectation(psi, pool[i]) for c, i in zip(coeffs, picks, strict=True))
    assert direct == pytest.approx(termwise, abs=1e-10)


def test_hybrid_feature_column_order(angles):
    """Definition 1 indexing: column a*q + b == (parameter set a,
    observable b), verified at a random interior column."""
    strategy = HybridStrategy(order=1, locality=1)
    q_matrix = generate_features(strategy, angles)
    a, b = 5, 7
    params = strategy.parameter_sets()[a]
    obs = strategy.observables()[b]
    states = encode_batch(angles)
    evolved = run_circuit(strategy.ansatz.bind(params), state=states)
    expected = expectation(evolved, obs)
    qcount = strategy.num_observables
    assert np.allclose(q_matrix[:, a * qcount + b], expected, atol=1e-12)


def test_noisy_features_bounded_by_ideal_identity(angles):
    """Trace preservation: noisy identity-observable features stay exactly 1
    and all features remain in [-1, 1]."""
    from repro.core.strategies import ObservableConstruction
    from repro.quantum.backends import DensityMatrixBackend
    from repro.quantum.noise import NoiseModel

    strategy = ObservableConstruction(qubits=4, locality=1)
    q = generate_features(
        strategy,
        angles[:3],
        config=ExecutionConfig(backend=DensityMatrixBackend(NoiseModel.depolarizing(0.03))),
    )
    assert np.allclose(q[:, 0], 1.0, atol=1e-10)
    assert np.all(q >= -1 - 1e-9) and np.all(q <= 1 + 1e-9)


def test_shadow_and_shot_estimators_agree_in_expectation(angles):
    """Both stochastic estimators are unbiased: averaged over seeds they
    converge to the same exact Q entries."""
    from repro.core.strategies import ObservableConstruction

    strategy = ObservableConstruction(qubits=4, locality=1)
    exact = generate_features(strategy, angles[:2])
    shot_runs = np.mean(
        [
            generate_features(
                strategy, angles[:2], config=ExecutionConfig(estimator="shots", shots=600, seed=s)
            )
            for s in range(6)
        ],
        axis=0,
    )
    shadow_runs = np.mean(
        [
            generate_features(
                strategy,
                angles[:2],
                config=ExecutionConfig(estimator="shadows", snapshots=1200, seed=s),
            )
            for s in range(6)
        ],
        axis=0,
    )
    assert np.max(np.abs(shot_runs - exact)) < 0.08
    assert np.max(np.abs(shadow_runs - exact)) < 0.15


def test_fig8_identity_feature_consistency(angles):
    """Order-0 hybrid features == raw encoded-state features: the mirrored
    Fig. 8 ring at theta=0 must be exactly transparent end to end."""
    strategy = HybridStrategy(order=0, locality=2)
    q_hybrid = generate_features(strategy, angles)
    from repro.core.strategies import ObservableConstruction

    q_plain = generate_features(ObservableConstruction(qubits=4, locality=2), angles)
    assert np.allclose(q_hybrid, q_plain, atol=1e-12)
