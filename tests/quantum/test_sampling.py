"""Finite-shot estimator tests."""

import numpy as np
import pytest

from repro.quantum.backends import DensityMatrixBackend
from repro.quantum.circuit import Circuit
from repro.quantum.density import pure_density, run_circuit_density
from repro.quantum.gates import H, SDG
from repro.quantum.noise import NoiseModel
from repro.quantum.observables import PauliString, PauliSum, expectation
from repro.quantum.sampling import (
    hoeffding_shots,
    measure_pauli,
    measure_pauli_batch,
    measure_pauli_sum,
    sample_expectations,
)
from repro.quantum.statevector import apply_matrix_batch, run_circuit

from tests.conftest import random_state


def test_zero_shots_returns_exact():
    rng = np.random.default_rng(0)
    psi = random_state(3, rng)
    p = PauliString("XZY")
    assert measure_pauli(psi, p, shots=0) == pytest.approx(expectation(psi, p))


def test_identity_always_one():
    rng = np.random.default_rng(1)
    psi = random_state(2, rng)
    assert measure_pauli(psi, PauliString("II"), shots=7, seed=0) == 1.0


def test_estimates_converge():
    """Sample mean approaches the exact value as shots grow."""
    c = Circuit(2)
    c.append("h", 0).append("ry", 1, 0.8).append("cnot", (0, 1))
    psi = run_circuit(c)
    p = PauliString("ZX")
    exact = expectation(psi, p)
    errors = []
    for shots in (100, 10_000):
        est = measure_pauli(psi, p, shots, seed=42)
        errors.append(abs(est - exact))
    assert errors[1] < 0.05
    assert errors[1] <= errors[0] + 0.02


def test_eigenstate_is_deterministic():
    """|0> is a Z eigenstate: every shot gives +1."""
    psi = np.array([1, 0], dtype=complex)
    assert measure_pauli(psi, PauliString("Z"), shots=50, seed=3) == 1.0


def test_x_eigenstate():
    """|+> gives +1 for X deterministically."""
    psi = np.array([1, 1], dtype=complex) / np.sqrt(2)
    assert measure_pauli(psi, PauliString("X"), shots=50, seed=3) == pytest.approx(1.0)


def test_batch_shapes_and_seeding():
    rng = np.random.default_rng(2)
    batch = np.stack([random_state(2, rng) for _ in range(5)])
    p = PauliString("ZI")
    est1 = measure_pauli_batch(batch, p, shots=200, seed=7)
    est2 = measure_pauli_batch(batch, p, shots=200, seed=7)
    assert est1.shape == (5,)
    assert np.array_equal(est1, est2)  # deterministic under seed
    est3 = measure_pauli_batch(batch, p, shots=200, seed=8)
    assert not np.array_equal(est1, est3)


def test_batched_multinomial_matches_per_row_loop():
    """Seed-determinism contract of the vectorised estimator (the name
    predates the binomial sampler): one batched ``rng.binomial`` over the
    whole chunk draws in the same order as sequential per-row calls, so
    estimates are bit-identical to a per-row Python loop."""
    rng = np.random.default_rng(3)
    batch = np.stack([random_state(3, rng) for _ in range(6)])
    p = PauliString("XYZ")
    shots = 257
    est = measure_pauli_batch(batch, p, shots=shots, seed=99)

    # Reference: a per-row loop of binomial draws, same seed.
    ref_rng = np.random.default_rng(99)
    expected = np.empty(batch.shape[0])
    for b in range(batch.shape[0]):
        plus = ref_rng.binomial(shots, (1 + expectation(batch[b], p)) / 2)
        expected[b] = (2 * plus - shots) / shots
    assert np.array_equal(est, expected)


def _rotate_multinomial_signs(states, pauli, shots, rng):
    """The estimator the binomial draw replaced: rotate every state into the
    eigenbasis of ``pauli``, draw a ``2^n``-way multinomial of outcomes and
    average their +-1 eigenvalue signs."""
    n = pauli.num_qubits
    for qubit, letter in enumerate(pauli.string):
        if letter == "X":
            states = apply_matrix_batch(states, H, (qubit,))
        elif letter == "Y":
            states = apply_matrix_batch(states, H @ SDG, (qubit,))
    probs = np.abs(states) ** 2
    probs = probs / probs.sum(axis=1, keepdims=True)
    indices = np.arange(2**n)
    parity = np.zeros_like(indices)
    for q in pauli.support:
        parity ^= (indices >> (n - 1 - q)) & 1
    return (rng.multinomial(shots, probs) @ (1.0 - 2.0 * parity)) / shots


#: Draws per estimator in the distribution test, and the bound on the gap
#: between an empirical CDF of that many draws and the true one.  The
#: Dvoretzky-Kiefer-Wolfowitz inequality (Massart's constant, valid for
#: discrete laws) gives P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2) =
#: 1e-9 per CDF, so with two CDFs checked per case and four cases a
#: correct sampler fails this test with probability below 1e-8 over seeds.
DRAWS = 20_000
DKW_EPS = float(np.sqrt(np.log(2 / 1e-9) / (2 * DRAWS)))


@pytest.mark.parametrize("shots", [1, 5])
@pytest.mark.parametrize("pauli", ["XYZ", "ZIX"])
def test_binomial_estimator_matches_rotate_multinomial_signs_in_distribution(shots, pauli):
    """Same law as the old estimator: both empirical CDFs of the estimate
    over 20k seeded draws lie within ``DKW_EPS`` of Binomial(shots, p+)'s,
    hence within twice that of each other."""
    from math import comb

    psi = random_state(3, np.random.default_rng(17))
    p = PauliString(pauli)
    states = np.repeat(psi[None, :], DRAWS, axis=0)
    new = measure_pauli_batch(states, p, shots, seed=21)
    old = _rotate_multinomial_signs(states, p, shots, np.random.default_rng(22))
    plus = (1 + float(expectation(psi, p))) / 2
    support = (2 * np.arange(shots + 1) - shots) / shots
    pmf = [comb(shots, k) * plus**k * (1 - plus) ** (shots - k) for k in range(shots + 1)]
    law = np.cumsum(pmf)
    cdfs = [np.searchsorted(np.sort(est), support, side="right") / DRAWS for est in (new, old)]
    assert set(np.unique(new)) <= set(support)
    for cdf in cdfs:
        assert np.abs(cdf - law).max() <= DKW_EPS
    assert np.abs(cdfs[0] - cdfs[1]).max() <= 2 * DKW_EPS


def test_expectations_near_the_binomial_discontinuities_are_snapped():
    """Within 1e-12 of -1, 0 or +1 a value draws exactly as that point, so
    paths whose exact values differ by roundoff draw identically; +-1 are
    deterministic."""
    at = sample_expectations(np.array([-1.0, 0.0, 1.0, 0.3]), 64, seed=5)
    near = sample_expectations(np.array([-1 + 1e-13, -1e-13, 1 - 1e-13, 0.3]), 64, seed=5)
    assert np.array_equal(at, near)
    assert at[0] == -1.0 and at[2] == 1.0
    # Beyond the tolerance a value keeps its own probability, and just above
    # p = 0.5 NumPy draws on 1 - p: the discontinuity the snap absorbs.
    zero = sample_expectations(np.zeros(8), 64, seed=5)
    assert not np.array_equal(sample_expectations(np.full(8, 1e-9), 64, seed=5), zero)


def test_density_sampler_draws_from_its_own_expectation():
    """A noisy density batch samples one binomial per row from
    ``DensityMatrixBackend.expectation``, like a statevector."""
    circuit = Circuit(2).append("h", 0).append("cnot", (0, 1)).append("ry", 1, 0.7)
    backend = DensityMatrixBackend(NoiseModel.depolarizing(0.05))
    rhos = np.stack([run_circuit_density(circuit, noise_model=backend.noise_model)] * 4)
    p = PauliString("ZX")
    exact = backend.expectation(rhos, p)
    est = backend.sample(rhos, p, 128, np.random.default_rng(4))
    assert np.array_equal(est, sample_expectations(exact, 128, np.random.default_rng(4)))
    assert np.array_equal(backend.sample(rhos, p, 0, None), exact)
    pure = np.stack([pure_density(run_circuit(circuit))])
    assert DensityMatrixBackend().sample(pure, PauliString("II"), 9, None).tolist() == [1.0]


def test_estimates_bounded():
    rng = np.random.default_rng(5)
    batch = np.stack([random_state(3, rng) for _ in range(4)])
    vals = measure_pauli_batch(batch, PauliString("XYZ"), shots=64, seed=1)
    assert np.all(vals >= -1.0) and np.all(vals <= 1.0)


def test_pauli_sum_measurement():
    rng = np.random.default_rng(6)
    psi = random_state(2, rng)
    obs = PauliSum([(0.5, "ZI"), (-1.5, "XX")])
    exact = expectation(psi, obs)
    est = measure_pauli_sum(psi, obs, shots_per_term=40_000, seed=9)
    assert est == pytest.approx(exact, abs=0.05)


def test_hoeffding_shots_formula():
    assert hoeffding_shots(0.1, 0.05) == int(np.ceil(2 / 0.01 * np.log(2 / 0.05)))
    # Tighter epsilon => more shots; smaller delta => more shots.
    assert hoeffding_shots(0.05, 0.05) > hoeffding_shots(0.1, 0.05)
    assert hoeffding_shots(0.1, 0.01) > hoeffding_shots(0.1, 0.05)


def test_hoeffding_empirical_coverage():
    """The Hoeffding budget actually achieves the target error."""
    c = Circuit(1)
    c.append("ry", 0, 1.1)
    psi = run_circuit(c)
    p = PauliString("Z")
    exact = expectation(psi, p)
    shots = hoeffding_shots(0.1, 0.05)
    rng = np.random.default_rng(123)
    failures = sum(
        abs(measure_pauli(psi, p, shots, rng) - exact) > 0.1 for _ in range(40)
    )
    assert failures <= 4  # 5% nominal, generous slack


def test_validation_errors():
    psi = np.array([1, 0], dtype=complex)
    with pytest.raises(ValueError):
        measure_pauli(psi, PauliString("Z"), shots=-1)
    with pytest.raises(ValueError):
        measure_pauli_batch(psi, PauliString("Z"), shots=1)  # not 2-D
    with pytest.raises(ValueError):
        measure_pauli(psi, PauliString("ZZ"), shots=1)  # width mismatch
    with pytest.raises(ValueError):
        hoeffding_shots(-1.0, 0.05)
    with pytest.raises(ValueError):
        hoeffding_shots(0.1, 1.5)
