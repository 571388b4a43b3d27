"""Tests for the extension modules: Q diagnostics, noisy features,
data re-uploading."""

import numpy as np
import pytest

from repro.api import ExecutionConfig
from repro.core.analysis import diagnose_q_matrix, effective_rank
from repro.core.features import generate_features
from repro.core.reuploading import ReuploadingClassifier
from repro.core.strategies import ObservableConstruction
from repro.quantum.backends import DensityMatrixBackend
from repro.quantum.noise import NoiseModel


# ---------------------------------------------------------------- analysis
def test_effective_rank_bounds():
    assert effective_rank(np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert effective_rank(np.ones(5)) == pytest.approx(5.0)
    assert effective_rank(np.array([])) == 0.0
    mixed = effective_rank(np.array([10.0, 1.0, 1.0]))
    assert 1.0 < mixed < 3.0


def test_diagnose_identity_matrix():
    diag = diagnose_q_matrix(np.eye(4))
    assert diag.rank == 4
    assert diag.condition_number == pytest.approx(1.0)
    assert diag.sigma_min == pytest.approx(1.0)
    assert diag.coherence == 1.0


def test_diagnose_rank_deficient():
    q = np.ones((5, 3))
    diag = diagnose_q_matrix(q)
    assert diag.rank == 1
    assert diag.effective_rank == pytest.approx(1.0, abs=0.01)


def test_theorem3_regime_ratios():
    rng = np.random.default_rng(0)
    angles = rng.uniform(0, 2 * np.pi, (50, 4, 4))
    q = generate_features(ObservableConstruction(qubits=4, locality=1), angles)
    diag = diagnose_q_matrix(q)
    ratios = diag.theorem3_regime(np.ones(50))
    # Pauli features are bounded by 1, so ||Q|| <= sqrt(d * m).
    assert diag.coherence <= 1.0 + 1e-9
    assert ratios["norm_Y_over_sqrt_d"] == pytest.approx(1.0)
    assert ratios["norm_Q_over_sqrt_d"] > 0.5  # identity column alone gives 1
    assert np.isfinite(ratios["kappa_Q"])


def test_diagnose_validation():
    with pytest.raises(ValueError):
        diagnose_q_matrix(np.zeros(3))


# ------------------------------------------------------------------- noisy
def test_noisy_features_match_ideal_at_zero_noise():
    rng = np.random.default_rng(1)
    angles = rng.uniform(0, 2 * np.pi, (4, 4, 4))
    strategy = ObservableConstruction(qubits=4, locality=1)
    ideal = generate_features(strategy, angles)
    noisy = generate_features(
        strategy,
        angles,
        config=ExecutionConfig(backend=DensityMatrixBackend(NoiseModel.depolarizing(0.0))),
    )
    assert np.allclose(noisy, ideal, atol=1e-10)


def test_noisy_features_contract_toward_zero():
    """Depolarizing noise shrinks non-identity Pauli expectations."""
    rng = np.random.default_rng(2)
    angles = rng.uniform(0, 2 * np.pi, (4, 4, 4))
    strategy = ObservableConstruction(qubits=4, locality=1)
    ideal = generate_features(strategy, angles)
    noisy = generate_features(
        strategy,
        angles,
        config=ExecutionConfig(backend=DensityMatrixBackend(NoiseModel.depolarizing(0.05))),
    )
    # Identity column untouched.
    assert np.allclose(noisy[:, 0], 1.0, atol=1e-10)
    # Other columns contract on average.
    assert np.mean(np.abs(noisy[:, 1:])) < np.mean(np.abs(ideal[:, 1:]))
    # And shrink monotonically with the error rate.
    noisier = generate_features(
        strategy,
        angles,
        config=ExecutionConfig(backend=DensityMatrixBackend(NoiseModel.depolarizing(0.15))),
    )
    assert np.mean(np.abs(noisier[:, 1:])) < np.mean(np.abs(noisy[:, 1:]))


def test_noisy_features_validation():
    strategy = ObservableConstruction(qubits=4, locality=1)
    backend = DensityMatrixBackend(NoiseModel.depolarizing(0.01))
    with pytest.raises(ValueError):
        generate_features(strategy, np.zeros((4, 4)), config=ExecutionConfig(backend=backend))
    with pytest.raises(ValueError):
        generate_features(strategy, np.zeros((2, 4, 3)), config=ExecutionConfig(backend=backend))



# ------------------------------------------------------------- reuploading
def test_reuploading_loss_decreases():
    rng = np.random.default_rng(3)
    angles = rng.uniform(0, 2 * np.pi, (24, 4, 4))
    y = (angles[:, 0, 0] > np.pi).astype(int)
    model = ReuploadingClassifier(reuploads=1, epochs=6)
    model.fit(angles, y)
    assert model.history_[-1] <= model.history_[0] + 1e-9
    assert model.theta_.shape == (4,)


def test_reuploading_parameter_count():
    assert ReuploadingClassifier(num_qubits=4, reuploads=3).num_parameters == 12


def test_reuploading_predict_labels():
    rng = np.random.default_rng(4)
    angles = rng.uniform(0, 2 * np.pi, (10, 4, 4))
    y = rng.integers(0, 2, 10)
    model = ReuploadingClassifier(reuploads=1, epochs=2).fit(angles, y)
    assert set(np.unique(model.predict(angles))) <= {0, 1}


def test_reuploading_single_matches_variational_forward():
    """One re-upload with theta=0 reduces to the plain encoded state: the
    readout is the encoded <Z_0> (CNOT ring after RY(0) only entangles,
    but theta=0 keeps the ring active -- check against explicit circuit)."""
    rng = np.random.default_rng(5)
    angles = rng.uniform(0, 2 * np.pi, (3, 4, 4))
    model = ReuploadingClassifier(reuploads=1, epochs=1)
    out = model._forward(angles, np.zeros(4))
    # Reference: encode, then the bound single block.
    from repro.core.ansatz import hardware_efficient_ansatz
    from repro.data.encoding import encode_batch
    from repro.quantum.observables import PauliString, expectation
    from repro.quantum.statevector import run_circuit

    block = hardware_efficient_ansatz(4, 1, mirror=False).bind(np.zeros(4))
    ref = expectation(
        run_circuit(block, state=encode_batch(angles)), PauliString("ZIII")
    )
    assert np.allclose(out, ref, atol=1e-10)


def test_reuploading_validation():
    with pytest.raises(ValueError):
        ReuploadingClassifier(reuploads=0)
    with pytest.raises(ValueError):
        ReuploadingClassifier(epochs=0)
    with pytest.raises(RuntimeError):
        ReuploadingClassifier().predict(np.zeros((1, 4, 4)))
