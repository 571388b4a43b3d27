"""Backend-equivalence property suite (unified QuantumBackend layer).

The contract: every backend is a drop-in execution substrate for the same
pipeline.  The density backend with no noise model must reproduce the
statevector backend's physics exactly; the mitigated backend must beat the
raw noisy values it extrapolates from; all three must pickle (they ship to
process workers once per sweep).
"""

import pickle

import numpy as np
import pytest

from repro.quantum.backends import (
    DensityMatrixBackend,
    DistributedStatevectorBackend,
    MitigatedBackend,
    QuantumBackend,
    StatevectorBackend,
    resolve_backend,
)
from repro.quantum.circuit import Circuit
from repro.quantum.compile import compile_circuit
from repro.quantum.noise import NoiseModel
from repro.quantum.observables import PauliString, local_pauli_strings

GATES_1Q = ("h", "x", "y", "z", "s", "t")
ROTATIONS = ("rx", "ry", "rz")
GATES_2Q = ("cnot", "cz")


def random_circuit(num_qubits: int, depth: int, rng: np.random.Generator) -> Circuit:
    c = Circuit(num_qubits)
    for _ in range(depth):
        kind = rng.integers(0, 3)
        if kind == 0:
            c.append(str(rng.choice(GATES_1Q)), int(rng.integers(num_qubits)))
        elif kind == 1:
            c.append(
                str(rng.choice(ROTATIONS)),
                int(rng.integers(num_qubits)),
                float(rng.uniform(0, 2 * np.pi)),
            )
        else:
            q1, q2 = rng.choice(num_qubits, size=2, replace=False)
            c.append(str(rng.choice(GATES_2Q)), (int(q1), int(q2)))
    return c


# ------------------------------------------------------- density == ideal
@pytest.mark.parametrize("num_qubits", [2, 3])
def test_noiseless_density_matches_statevector_on_random_circuits(num_qubits):
    """DensityMatrixBackend(noise_model=None) is the statevector oracle."""
    rng = np.random.default_rng(7)
    sv = StatevectorBackend()
    dm = DensityMatrixBackend(noise_model=None)
    observables = local_pauli_strings(num_qubits, num_qubits)
    for trial in range(25):
        circuit = random_circuit(num_qubits, depth=12, rng=rng)
        psi = sv.run_bound(circuit)[None, :]
        rho = dm.run_bound(circuit)[None, :, :]
        for obs in observables:
            assert dm.expectation(rho, obs)[0] == pytest.approx(
                sv.expectation(psi, obs)[0], abs=1e-10
            ), (trial, obs.string)


def test_noiseless_density_evolve_matches_statevector_batch():
    rng = np.random.default_rng(8)
    sv, dm = StatevectorBackend(), DensityMatrixBackend()
    angles = rng.uniform(0, 2 * np.pi, (5, 4, 3))
    states = sv.prepare(angles)
    program = random_circuit(3, depth=10, rng=rng)
    obs = PauliString("XZY")
    ideal = sv.expectation(sv.evolve(states, program), obs)
    noisefree = dm.expectation(dm.evolve(dm.coerce_states(states), program), obs)
    assert np.allclose(ideal, noisefree, atol=1e-10)


def test_density_sampling_converges_and_is_seed_deterministic():
    rng = np.random.default_rng(9)
    dm = DensityMatrixBackend(NoiseModel.depolarizing(0.01))
    circuit = random_circuit(2, depth=8, rng=rng)
    rho = dm.run_bound(circuit)[None, :, :]
    obs = PauliString("ZX")
    exact = dm.expectation(rho, obs)[0]
    est1 = dm.sample(rho, obs, 40_000, np.random.default_rng(5))[0]
    est2 = dm.sample(rho, obs, 40_000, np.random.default_rng(5))[0]
    assert est1 == est2  # deterministic under seed
    assert est1 == pytest.approx(exact, abs=0.02)
    # shots == 0 falls back to the exact expectation; identity is exactly 1.
    assert dm.sample(rho, obs, 0, None)[0] == pytest.approx(exact)
    assert dm.sample(rho, PauliString("II"), 64, np.random.default_rng(0))[0] == 1.0


# ------------------------------------------------------------- mitigation
def test_mitigated_backend_beats_raw_noisy_expectation():
    """The ZNE contract, folded into the backend API: mitigated values land
    closer to ideal than the scale-1 noisy values they extrapolate from."""
    noise = NoiseModel.depolarizing(0.01)
    sv = StatevectorBackend()
    noisy = DensityMatrixBackend(noise)
    mitigated = MitigatedBackend(noisy, scales=(1, 3, 5))
    circuit = Circuit(2)
    circuit.append("h", 0).append("cnot", (0, 1)).append("ry", 1, 0.9).append("rz", 0, 0.4)
    obs = PauliString("ZZ")
    ideal = sv.expectation(sv.run_bound(circuit)[None, :], obs)[0]
    raw = noisy.expectation(noisy.run_bound(circuit)[None, :, :], obs)[0]
    zne = mitigated.expectation(mitigated.run_bound(circuit)[None, :, :, :], obs)[0]
    assert abs(zne - ideal) < abs(raw - ideal)


def test_mitigated_backend_noiseless_is_exact():
    rng = np.random.default_rng(11)
    sv = StatevectorBackend()
    mitigated = MitigatedBackend(DensityMatrixBackend(None), scales=(1, 3))
    circuit = random_circuit(2, depth=6, rng=rng)
    obs = PauliString("XI")
    ideal = sv.expectation(sv.run_bound(circuit)[None, :], obs)[0]
    zne = mitigated.expectation(mitigated.run_bound(circuit)[None, :, :, :], obs)[0]
    assert zne == pytest.approx(ideal, abs=1e-10)


def test_mitigated_validation():
    inner = DensityMatrixBackend(NoiseModel.depolarizing(0.01))
    with pytest.raises(ValueError):
        MitigatedBackend(inner, scales=(1,))  # need >= 2
    with pytest.raises(ValueError):
        MitigatedBackend(inner, scales=(1, 1, 3))  # distinct
    with pytest.raises(ValueError):
        MitigatedBackend(inner, scales=(1, 2))  # odd only
    with pytest.raises(TypeError):
        MitigatedBackend(MitigatedBackend(inner))  # no nesting
    with pytest.raises(TypeError):
        MitigatedBackend("density")  # type: ignore[arg-type]


# --------------------------------------------------- representation rules
def test_density_backend_refuses_compiled_programs():
    rng = np.random.default_rng(12)
    circuit = random_circuit(2, depth=6, rng=rng)
    compiled = compile_circuit(circuit, max_width=2)
    dm = DensityMatrixBackend(NoiseModel.depolarizing(0.01))
    rho = dm.run_bound(circuit)[None, :, :]
    assert not dm.supports_compile
    with pytest.raises(TypeError):
        dm.evolve(rho, compiled)
    mit = MitigatedBackend(dm)
    with pytest.raises(TypeError):
        mit.evolve(mit.coerce_states(rho), compiled)


ONE_STEP_BACKENDS = [
    StatevectorBackend(),
    DistributedStatevectorBackend(shards=2),
    DensityMatrixBackend(NoiseModel.depolarizing(0.01)),
    MitigatedBackend(DensityMatrixBackend(NoiseModel.depolarizing(0.01))),
]


@pytest.mark.parametrize("backend", ONE_STEP_BACKENDS, ids=lambda b: b.name)
def test_evolve_runs_every_program_the_backend_builds(backend):
    """One program step: ``evolve`` runs the backend's own batched program
    on raw angles exactly like a bound circuit on prepared states."""
    from repro.data.encoding import encoding_template

    rng = np.random.default_rng(31)
    angles = rng.uniform(0, np.pi, size=(3, 2, 2))
    template = encoding_template(2, 2)
    bound = random_circuit(2, depth=8, rng=rng)
    batched = backend.evolve(angles, backend.batch_program(template, bound, "auto"))
    prepared = backend.evolve(backend.prepare(angles), bound)
    assert batched.shape == prepared.shape
    assert np.abs(batched - prepared).max() <= 1e-10
    states = backend.prepare(angles)
    assert backend.evolve(states, None) is states


def test_shadow_block_requires_pure_states():
    dm = DensityMatrixBackend()
    rho = dm.run_bound(Circuit(2).append("h", 0))[None, :, :]
    with pytest.raises(NotImplementedError):
        dm.shadow_block(rho, [PauliString("ZI")], 8, np.random.default_rng(0))
    assert StatevectorBackend().supports_shadows


def test_mitigated_coerce_survives_scale_dimension_collision():
    """Regression: a 1-qubit density batch (d, 2, 2) with two fold scales
    used to be misread as an already-lifted per-scale stack (shape[1] ==
    len(scales)); it must be replicated across scales instead."""
    mit = MitigatedBackend(DensityMatrixBackend(), scales=(1, 3))
    circuit = Circuit(1).append("ry", 0, 0.7)
    rho = DensityMatrixBackend().run_bound(circuit)[None, :, :]  # (1, 2, 2)
    stack = mit.coerce_states(rho)
    assert stack.shape == (1, 2, 2, 2)
    obs = PauliString("Z")
    ideal = DensityMatrixBackend().expectation(rho, obs)[0]
    assert mit.expectation(stack, obs)[0] == pytest.approx(ideal, abs=1e-10)
    # A genuine per-scale stack still passes through untouched.
    prepared = mit.run_bound(circuit)[None, :, :, :]
    assert mit.coerce_states(prepared) is prepared


def test_circuit_repetitions_accounting():
    assert StatevectorBackend().circuit_repetitions == 1
    assert DensityMatrixBackend().circuit_repetitions == 1
    assert MitigatedBackend(DensityMatrixBackend(), scales=(1, 3, 5)).circuit_repetitions == 3


def test_coerce_states_lifts_statevectors():
    rng = np.random.default_rng(13)
    sv = StatevectorBackend()
    angles = rng.uniform(0, 2 * np.pi, (3, 4, 2))
    psi = sv.prepare(angles)
    dm = DensityMatrixBackend()
    rho = dm.coerce_states(psi)
    assert rho.shape == (3, 4, 4)
    assert dm.coerce_states(rho) is rho  # already in representation
    mit = MitigatedBackend(dm, scales=(1, 3))
    stack = mit.coerce_states(psi)
    assert stack.shape == (3, 2, 4, 4)
    assert np.allclose(stack[:, 0], rho) and np.allclose(stack[:, 1], rho)
    with pytest.raises(ValueError):
        sv.coerce_states(psi[0])
    with pytest.raises(ValueError):
        dm.coerce_states(np.zeros((2, 3, 4)))


def test_backends_are_picklable():
    backends = [
        StatevectorBackend(),
        DensityMatrixBackend(NoiseModel.depolarizing(0.02)),
        MitigatedBackend(DensityMatrixBackend(NoiseModel.depolarizing(0.02))),
    ]
    rng = np.random.default_rng(14)
    circuit = random_circuit(2, depth=5, rng=rng)
    obs = PauliString("ZI")
    for backend in backends:
        clone = pickle.loads(pickle.dumps(backend))
        a = backend.expectation(
            np.asarray(backend.run_bound(circuit))[None, ...], obs
        )[0]
        b = clone.expectation(np.asarray(clone.run_bound(circuit))[None, ...], obs)[0]
        assert a == b


# ------------------------------------------------------------- cost model
def test_cost_weights_price_density_above_statevector():
    n = 4
    sv = StatevectorBackend().evolution_cost_weight(n)
    dm = DensityMatrixBackend().evolution_cost_weight(n)
    mit = MitigatedBackend(DensityMatrixBackend(), scales=(1, 3, 5)).evolution_cost_weight(n)
    assert sv == 2**n
    assert dm == 4**n
    assert mit == (1 + 3 + 5) * 4**n


def test_resolve_backend():
    assert isinstance(resolve_backend(None), StatevectorBackend)
    assert isinstance(resolve_backend("statevector"), StatevectorBackend)
    dm = DensityMatrixBackend()
    assert resolve_backend(dm) is dm
    assert isinstance(dm, QuantumBackend)
    with pytest.raises(ValueError):
        resolve_backend("density")


# --------------------------------------------------- distributed == ideal
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_distributed_backend_matches_statevector(shards):
    """Sharded evolution is a drop-in for the ideal backend, <=1e-10."""
    from repro.quantum.backends import DistributedStatevectorBackend

    rng = np.random.default_rng(31)
    sv = StatevectorBackend()
    dist = DistributedStatevectorBackend(shards=shards)
    for _ in range(4):
        circuit = random_circuit(4, depth=15, rng=rng)
        assert np.abs(dist.run_bound(circuit) - sv.run_bound(circuit)).max() <= 1e-10
        states = sv.prepare(rng.uniform(0, 2 * np.pi, size=(3, 4, 4)))
        program = compile_circuit(circuit, cache=None)
        got = dist.evolve(states, program)
        want = sv.evolve(states, program)
        assert np.abs(got - want).max() <= 1e-10
        obs = PauliString("ZZII")
        assert np.allclose(
            dist.expectation(got, obs), sv.expectation(want, obs), atol=1e-10
        )


def test_distributed_backend_contract():
    from repro.quantum.backends import DistributedStatevectorBackend

    backend = DistributedStatevectorBackend(shards=4)
    assert backend.name == "distributed"
    assert backend.supports_compile is True
    assert backend.supports_vectorize is False
    assert backend.shards == 4
    # evolve(None) is the identity, like the parent backend.
    states = np.eye(4, dtype=np.complex128)[:2]
    assert backend.evolve(states, None) is states
    clone = pickle.loads(pickle.dumps(backend))
    assert clone == backend and clone.shards == 4


def test_distributed_backend_validation():
    from repro.quantum.backends import DistributedStatevectorBackend

    with pytest.raises(ValueError, match="power of two"):
        DistributedStatevectorBackend(shards=3)
    with pytest.raises(ValueError, match="power of two"):
        DistributedStatevectorBackend(shards=0)
    with pytest.raises(ValueError, match="must be an int"):
        DistributedStatevectorBackend(shards=True)


def test_distributed_backend_serialization():
    from repro.quantum.backends import (
        DistributedStatevectorBackend,
        backend_from_dict,
        backend_to_dict,
    )

    backend = DistributedStatevectorBackend(shards=8)
    data = backend_to_dict(backend)
    assert data == {"kind": "distributed", "shards": 8}
    clone = backend_from_dict(data)
    assert isinstance(clone, DistributedStatevectorBackend)
    assert clone.shards == 8
