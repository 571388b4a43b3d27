"""Backend-unified feature pipeline: regression pins + acceptance criteria.

Pins the PR's contract:

* ``generate_features(..., config=ExecutionConfig(backend=
  DensityMatrixBackend(noise_model)))`` reproduces the retired noisy
  feature fork (re-implemented inline here as the oracle) while streaming
  through the
  :class:`~repro.hpc.runtime.ExecutionRuntime` under all four scheduler
  policies;
* a parameterless-but-non-empty Ansatz (fixed CZ ladder) is no longer
  silently dropped: its features differ from encoder-only features on
  every backend;
* the mitigated backend lands closer to ideal than raw noisy features.
"""

import numpy as np
import pytest

from repro.api import ExecutionConfig, QuantumDevice
from repro.core.features import evaluate_features, generate_features, iter_feature_blocks
from repro.core.pipeline import PIPELINE_DEFAULT_CONFIG, HybridPipeline
from repro.core.ansatz import fig8_ansatz, hardware_efficient_ansatz
from repro.core.strategies import AnsatzExpansion, HybridStrategy, ObservableConstruction
from repro.data.encoding import encoding_circuit
from repro.hpc.runtime import ExecutionRuntime
from repro.hpc.scheduler import SCHEDULING_POLICIES
from repro.quantum.backends import DensityMatrixBackend, MitigatedBackend
from repro.quantum.circuit import Circuit
from repro.quantum.density import expectation_density, run_circuit_density
from repro.quantum.noise import NoiseModel
from repro.quantum.observables import PauliString


@pytest.fixture(scope="module")
def angles():
    rng = np.random.default_rng(0)
    return rng.uniform(0, 2 * np.pi, size=(5, 4, 4))


@pytest.fixture(scope="module")
def noise():
    return NoiseModel.depolarizing(0.02)


def legacy_noisy_features(strategy, angles, noise_model):
    """The retired fork's algorithm, verbatim: per-sample full-circuit
    (encoder + bound Ansatz) Kraus evolution.  The regression oracle."""
    observables = strategy.observables()
    parameter_sets = strategy.parameter_sets()
    q = len(observables)
    out = np.empty((len(angles), len(parameter_sets) * q))
    for i, a in enumerate(angles):
        circuit = encoding_circuit(a)
        for j, params in enumerate(parameter_sets):
            full = circuit
            ansatz = strategy.ansatz
            if ansatz is not None and ansatz.num_gates:
                full = circuit.compose(ansatz.bind(params))
            rho = run_circuit_density(full, noise_model=noise_model)
            for b, obs in enumerate(observables):
                out[i, j * q + b] = expectation_density(rho, obs)
    return out


def cz_ladder_strategy():
    """Order-0 expansion over a gate-having, parameter-free Ansatz."""
    cz = Circuit(4, name="cz-ladder")
    cz.append("cz", (0, 1)).append("cz", (1, 2)).append("cz", (2, 3))
    return AnsatzExpansion(circuit=cz, order=0, observable=PauliString("XXII"))


def encoder_only_strategy():
    return AnsatzExpansion(circuit=Circuit(4), order=0, observable=PauliString("XXII"))


# ------------------------------------------------------- fork regression
def test_density_backend_reproduces_legacy_noisy_fork(angles, noise):
    strategy = ObservableConstruction(qubits=4, locality=1)
    expected = legacy_noisy_features(strategy, angles, noise)
    q = generate_features(
        strategy, angles, config=ExecutionConfig(backend=DensityMatrixBackend(noise))
    )
    assert np.allclose(q, expected, atol=1e-12)


@pytest.mark.parametrize("policy", SCHEDULING_POLICIES)
def test_noisy_sweep_streams_through_runtime_under_every_policy(angles, noise, policy):
    """Acceptance: the density backend runs the same FeatureJob grid through
    live policy-ordered dispatch and stays bit-identical to serial."""
    strategy = ObservableConstruction(qubits=4, locality=1)
    reference = generate_features(
        strategy, angles, config=ExecutionConfig(backend=DensityMatrixBackend(noise), chunk_size=2)
    )
    with ExecutionRuntime("thread", 2) as runtime:
        q = generate_features(
            strategy,
            angles,
            device=QuantumDevice(
                ExecutionConfig(
                    backend=DensityMatrixBackend(noise), dispatch_policy=policy, chunk_size=2
                ),
                runtime=runtime,
            ),
        )
    assert np.array_equal(q, reference)


def test_iter_feature_blocks_tiles_noisy_matrix(angles, noise):
    strategy = ObservableConstruction(qubits=4, locality=1)
    backend = DensityMatrixBackend(noise)
    full = generate_features(
        strategy, angles, config=ExecutionConfig(backend=backend, chunk_size=2)
    )
    states = backend.prepare(angles)
    assembled = np.full_like(full, np.nan)
    q = strategy.num_observables
    for job, block in iter_feature_blocks(
        strategy, states, config=ExecutionConfig(chunk_size=2, backend=backend)
    ):
        assembled[job.lo : job.hi, job.ansatz_index * q : (job.ansatz_index + 1) * q] = block
    assert np.array_equal(assembled, full)


# -------------------------------------------- parameterless-Ansatz bugfix
@pytest.mark.parametrize(
    "backend_factory",
    [
        lambda noise: None,  # ideal statevector
        lambda noise: DensityMatrixBackend(noise),
        lambda noise: MitigatedBackend(DensityMatrixBackend(noise), scales=(1, 3)),
    ],
    ids=["statevector", "density", "mitigated"],
)
def test_parameterless_ansatz_is_not_dropped(angles, noise, backend_factory):
    """Regression: a CZ-ladder Ansatz with gates but zero parameters used to
    be silently skipped, yielding encoder-only features on every path."""
    backend = backend_factory(noise)
    q_ladder = generate_features(
        cz_ladder_strategy(), angles, config=ExecutionConfig(backend=backend)
    )
    q_encoder = generate_features(
        encoder_only_strategy(), angles, config=ExecutionConfig(backend=backend)
    )
    assert not np.allclose(q_ladder, q_encoder)


def test_parameterless_ansatz_matches_explicit_composition(angles, noise):
    """The un-dropped Ansatz computes the right thing, not just a different
    thing: compare against explicit encoder+ladder density evolution."""
    strategy = cz_ladder_strategy()
    expected = legacy_noisy_features(strategy, angles, noise)
    q = generate_features(
        strategy, angles, config=ExecutionConfig(backend=DensityMatrixBackend(noise))
    )
    assert np.allclose(q, expected, atol=1e-12)


# --------------------------------------------------- estimators & errors
def test_noisy_shots_estimator_is_seed_deterministic(angles, noise):
    strategy = ObservableConstruction(qubits=4, locality=1)
    backend = DensityMatrixBackend(noise)
    cfg = ExecutionConfig(estimator="shots", shots=64, chunk_size=2, backend=backend)
    a = generate_features(strategy, angles, config=cfg.merged(seed=3))
    b = generate_features(strategy, angles, config=cfg.merged(seed=3))
    c = generate_features(strategy, angles, config=cfg.merged(seed=4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_shadows_estimator_rejected_on_density_backend(angles, noise):
    strategy = ObservableConstruction(qubits=4, locality=1)
    with pytest.raises(ValueError, match="pure-state"):
        generate_features(
            strategy,
            angles,
            config=ExecutionConfig(estimator="shadows", backend=DensityMatrixBackend(noise)),
        )


def test_compile_knob_validated_even_where_ignored(angles, noise):
    """Density backends never fuse, but a typo'd compile value must fail
    identically on every backend instead of passing silently."""
    strategy = ObservableConstruction(qubits=4, locality=1)
    with pytest.raises(ValueError, match="compile"):
        generate_features(
            strategy,
            angles,
            config=ExecutionConfig(compile="atuo", backend=DensityMatrixBackend(noise)),
        )


def test_evaluate_features_lifts_pre_encoded_statevectors(angles):
    """Pre-encoded statevectors enter a density sweep noiselessly, so with
    no noise model the result equals the ideal matrix."""
    from repro.data.encoding import encode_batch

    strategy = ObservableConstruction(qubits=4, locality=1)
    states = encode_batch(angles)
    ideal = evaluate_features(strategy, states)
    lifted = evaluate_features(
        strategy, states, config=ExecutionConfig(backend=DensityMatrixBackend(None))
    )
    assert np.allclose(lifted, ideal, atol=1e-10)


def test_mitigated_features_closer_to_ideal_than_noisy(angles):
    strategy = ObservableConstruction(qubits=4, locality=1)
    noise = NoiseModel.depolarizing(0.02)
    ideal = generate_features(strategy, angles)
    noisy = generate_features(
        strategy, angles, config=ExecutionConfig(backend=DensityMatrixBackend(noise))
    )
    mitigated = generate_features(
        strategy,
        angles,
        config=ExecutionConfig(backend=MitigatedBackend(DensityMatrixBackend(noise))),
    )
    assert np.abs(mitigated - ideal).max() < np.abs(noisy - ideal).max()


#: Exact ZNE on a noisy density engine: depolarizing 0.01, scales (1, 3, 5).
ZNE = ExecutionConfig(
    backend=MitigatedBackend(DensityMatrixBackend(NoiseModel.depolarizing(0.01)), scales=(1, 3, 5))
)


def _zne_cases():
    """Both strategy kinds at n = 2 and 3 on the vectorized path; the
    per-sample Kraus walk (``vectorize="off"``, ~1 s a sweep at n = 3) at
    n = 2 only."""
    for n in (2, 3):
        for kind, strategy in (
            ("ansatz", AnsatzExpansion(circuit=hardware_efficient_ansatz(n, 1), order=1)),
            ("hybrid", HybridStrategy(circuit=fig8_ansatz(n, 1), order=1, locality=1)),
        ):
            for vectorize in ("auto", "off") if n == 2 else ("auto",):
                yield pytest.param(strategy, vectorize, id=f"{kind}-{n}q-{vectorize}")


@pytest.mark.parametrize("strategy,vectorize", _zne_cases())
def test_exact_zne_rows_bit_identical_across_chunk_sizes_and_slices(strategy, vectorize):
    """Extrapolation is elementwise in scale order, so a row's mitigated
    features do not depend on how many rows share its chunk (a matrix
    product over the fold stack runs as a dot for one row and a gemv for
    more, which round differently)."""
    n = strategy.num_qubits
    x = np.random.default_rng(n).uniform(0, 2 * np.pi, (5, 2, n))
    config = ZNE.merged(vectorize=vectorize)
    reference = generate_features(strategy, x, config=config.merged(chunk_size=8))
    for chunk_size in (1, 2):
        q = generate_features(strategy, x, config=config.merged(chunk_size=chunk_size))
        assert np.array_equal(q, reference)
    for lo, k in ((0, 1), (1, 3), (4, 1)):
        q = generate_features(strategy, x[lo : lo + k], config=config.merged(chunk_size=8))
        assert np.array_equal(q, reference[lo : lo + k])


def test_default_chunking_is_fine_grained_for_noisy_backends(noise):
    """With chunk_size left unset, expensive backends split the grid finely
    (8 rows/job) so small noisy datasets still occupy a worker pool, while
    the statevector default stays coarse (128 rows/job)."""
    rng = np.random.default_rng(5)
    many = rng.uniform(0, 2 * np.pi, size=(24, 4, 4))
    strategy = ObservableConstruction(qubits=4, locality=1)
    _, ideal_report = generate_features(strategy, many, return_report=True)
    _, noisy_report = generate_features(
        strategy,
        many,
        return_report=True,
        config=ExecutionConfig(backend=DensityMatrixBackend(noise)),
    )
    assert ideal_report.num_tasks == 1  # 24 rows < 128
    assert noisy_report.num_tasks == 3  # ceil(24 / 8)


def test_noisy_prepare_parallelises_without_changing_numbers(angles, noise):
    """Encoder-stage Kraus evolution fans out over the sweep's executor
    (chunked like the job grid) and stays bit-identical to serial."""
    strategy = ObservableConstruction(qubits=4, locality=1)
    backend = DensityMatrixBackend(noise)
    reference = generate_features(
        strategy, angles, config=ExecutionConfig(backend=backend, chunk_size=2)
    )
    with ExecutionRuntime("thread", 2) as runtime:
        q = generate_features(
            strategy,
            angles,
            device=QuantumDevice(
                ExecutionConfig(backend=backend, chunk_size=2), runtime=runtime
            ),
        )
    assert np.array_equal(q, reference)


# ----------------------------------------------------------- pipeline
def test_hybrid_pipeline_runs_noisy_backend_end_to_end(angles, noise):
    y = (angles[:, 0, 0] > np.pi).astype(int)
    pipe = HybridPipeline(
        strategy=ObservableConstruction(qubits=4, locality=1),
        config=PIPELINE_DEFAULT_CONFIG.merged(backend=DensityMatrixBackend(noise), chunk_size=2),
    )
    pipe.fit(angles, y)
    preds = pipe.predict(angles)
    assert preds.shape == y.shape
    assert pipe.report_.dispatch is not None
    # The projection prices density tasks through the same backend.
    assert len(pipe.circuit_tasks(len(angles))) > 0


def test_pipeline_counters_scale_with_mitigation(angles, noise):
    """Resource accounting counts one execution (and shot draw) per fold
    scale for mitigated sweeps."""
    y = (angles[:, 0, 0] > np.pi).astype(int)
    strategy = ObservableConstruction(qubits=4, locality=1)
    backend = MitigatedBackend(DensityMatrixBackend(noise), scales=(1, 3, 5))
    pipe = HybridPipeline(
        strategy=strategy,
        config=PIPELINE_DEFAULT_CONFIG.merged(
            backend=backend, estimator="shots", shots=16, chunk_size=2
        ),
    ).fit(angles, y)
    d, p, m = len(angles), strategy.num_ansatze, strategy.num_features
    assert pipe.report_.counter.get("circuits_executed") == p * d * 3
    assert pipe.report_.counter.get("shots_fired") == 16 * d * m * 3


def test_pipeline_cost_projection_prices_density_above_statevector(angles, noise):
    from repro.hpc.cluster import task_costs

    ideal = HybridPipeline(strategy=ObservableConstruction(qubits=4, locality=1))
    noisy = HybridPipeline(
        strategy=ObservableConstruction(qubits=4, locality=1),
        config=PIPELINE_DEFAULT_CONFIG.merged(backend=DensityMatrixBackend(noise)),
    )
    cost_ideal = task_costs(ideal.circuit_tasks(8)).sum()
    cost_noisy = task_costs(noisy.circuit_tasks(8)).sum()
    assert cost_noisy > cost_ideal
