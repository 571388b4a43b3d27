"""Algorithm 1 under batched structure-shared execution.

Pins ``vectorize="auto"`` to the per-sample oracle (``vectorize="off"``)
across estimators, strategies, compile settings and executor backends: the
job grid and per-task seed derivation are shared, so exact sweeps agree to
1e-10 and stochastic sweeps are seed-for-seed identical.  Also covers the
batched stacked-superoperator path on noisy/mitigated backends, the graceful
fallback on backends without batched execution, the cost-model wiring and
the pipeline/session surfaces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExecutionConfig, QuantumDevice
from repro.core.ansatz import fig8_ansatz
from repro.core.features import (
    feature_circuit_tasks,
    feature_jobs,
    generate_features,
)
from repro.core.pipeline import PIPELINE_DEFAULT_CONFIG, HybridPipeline
from repro.core.strategies import (
    AnsatzExpansion,
    HybridStrategy,
    ObservableConstruction,
)
from repro.data.datasets import binary_coat_vs_shirt
from repro.data.encoding import encoding_template
from repro.hpc.runtime import ExecutionRuntime
from repro.quantum.backends import (
    DensityMatrixBackend,
    DistributedStatevectorBackend,
    MitigatedBackend,
    StatevectorBackend,
)
from repro.quantum.batched import compile_parametric, extend_template
from repro.quantum.noise import NoiseModel

STRATEGIES = [
    pytest.param(AnsatzExpansion(circuit=fig8_ansatz(4, 2), order=1), id="expansion"),
    pytest.param(ObservableConstruction(qubits=4, locality=2), id="observable"),
    pytest.param(HybridStrategy(circuit=fig8_ansatz(4, 1), order=1, locality=1), id="hybrid"),
]


@pytest.fixture(scope="module")
def angles():
    rng = np.random.default_rng(42)
    return rng.uniform(0, 2 * np.pi, size=(19, 4, 4))


def _cfg(**kw):
    kw.setdefault("chunk_size", 5)
    return ExecutionConfig(**kw)


# --------------------------------------------------------------- equivalence
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("compile", ["off", "auto"])
def test_exact_sweep_matches_per_sample_oracle(strategy, angles, compile):
    oracle = generate_features(
        strategy, angles, config=_cfg(compile=compile, vectorize="off")
    )
    batched = generate_features(
        strategy, angles, config=_cfg(compile=compile, vectorize="auto")
    )
    assert np.abs(batched - oracle).max() < 1e-10


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "estimator, kwargs",
    [("shots", dict(shots=64)), ("shadows", dict(snapshots=32))],
)
def test_stochastic_sweeps_seed_identical(strategy, angles, estimator, kwargs):
    """Same job grid + same per-task seeds => draw-for-draw identical."""
    if estimator == "shadows" and strategy.num_observables == 1:
        kwargs = dict(snapshots=48)
    oracle = generate_features(
        strategy, angles,
        config=_cfg(estimator=estimator, seed=11, vectorize="off", **kwargs),
    )
    batched = generate_features(
        strategy, angles,
        config=_cfg(estimator=estimator, seed=11, vectorize="auto", **kwargs),
    )
    assert np.array_equal(oracle, batched)


@pytest.fixture(scope="module")
def table3_rows():
    return binary_coat_vs_shirt(seed=1).x_train[:200]


@pytest.mark.parametrize("shots", [64, 1024])
def test_seeded_shots_independent_of_vectorize_and_compile_on_table3_data(table3_rows, shots):
    """Table III's own angles put encoder Bloch components at 0 and +-1,
    where the paths' exact values differ by roundoff and NumPy's binomial
    is discontinuous (it draws on 1 - p above p = 0.5 and uses no random
    number at p = 0): seeded shots must still not depend on the path."""
    strategy = HybridStrategy(order=1, locality=2)
    cfg = _cfg(estimator="shots", shots=shots, seed=11)
    results = {
        (vectorize, compile): generate_features(
            strategy, table3_rows, config=cfg.merged(vectorize=vectorize, compile=compile)
        )
        for vectorize in ("auto", "off")
        for compile in ("auto", "off")
    }
    reference = results["off", "off"]
    for q in results.values():
        assert np.array_equal(q, reference)


@pytest.mark.parametrize("pool", ["serial", "thread", "process"])
def test_executor_backends_agree_bit_for_bit(angles, pool):
    """Batched programs pickle: every pool yields the same exact matrix."""
    strategy = ObservableConstruction(qubits=4, locality=1)
    reference = generate_features(strategy, angles, config=_cfg(vectorize="auto"))
    with ExecutionRuntime(backend=pool, max_workers=2) as executor:
        via_pool = generate_features(
            strategy, angles, device=QuantumDevice(_cfg(vectorize="auto"), runtime=executor)
        )
    assert np.array_equal(reference, via_pool)


@pytest.mark.parametrize("policy", ["block", "cyclic", "lpt", "work_stealing"])
def test_dispatch_policy_independence(angles, policy):
    strategy = HybridStrategy(circuit=fig8_ansatz(4, 1), order=1, locality=1)
    reference = generate_features(strategy, angles, config=_cfg(vectorize="auto"))
    got = generate_features(
        strategy, angles, config=_cfg(vectorize="auto", dispatch_policy=policy)
    )
    assert np.array_equal(reference, got)


# -------------------------------------------------- noisy regimes vectorize
def _noisy_angles(rows: int = 7):
    rng = np.random.default_rng(0)
    return rng.uniform(0, 2 * np.pi, size=(rows, 2, 2))


def test_density_backend_vectorizes():
    """Gate-level-noise backends now run the batched stacked-superoperator
    path under vectorize="auto" -- same answer as per-sample, to 1e-10."""
    angles = _noisy_angles()
    strategy = ObservableConstruction(qubits=2, locality=1)
    backend = DensityMatrixBackend(NoiseModel.depolarizing(0.01))
    assert backend.supports_vectorize
    off = generate_features(
        strategy, angles, config=ExecutionConfig(backend=backend, vectorize="off")
    )
    auto = generate_features(
        strategy, angles, config=ExecutionConfig(backend=backend, vectorize="auto")
    )
    assert np.abs(auto - off).max() < 1e-10


def test_mitigated_sweep_vectorizes_seed_identical():
    """Regression: mitigated sweeps used to silently fall back to the
    per-sample path (supports_vectorize was False); the batched folded
    programs must now produce the same seed-contracted draws bit for bit."""
    angles = _noisy_angles()
    strategy = ObservableConstruction(qubits=2, locality=1)

    def cfg(vectorize):
        backend = MitigatedBackend(DensityMatrixBackend(NoiseModel.depolarizing(0.01)))
        assert backend.supports_vectorize
        return ExecutionConfig(
            backend=backend, vectorize=vectorize, estimator="shots", shots=64, seed=7
        )

    off = generate_features(strategy, angles, config=cfg("off"))
    auto = generate_features(strategy, angles, config=cfg("auto"))
    assert np.array_equal(off, auto)

    exact_off = generate_features(
        strategy, angles,
        config=ExecutionConfig(
            backend=MitigatedBackend(DensityMatrixBackend(NoiseModel.depolarizing(0.01))),
            vectorize="off",
        ),
    )
    exact_auto = generate_features(
        strategy, angles,
        config=ExecutionConfig(
            backend=MitigatedBackend(DensityMatrixBackend(NoiseModel.depolarizing(0.01))),
            vectorize="auto",
        ),
    )
    assert np.abs(exact_auto - exact_off).max() < 1e-10


def test_backends_without_batched_execution_fall_back():
    """vectorize="auto" stays a bit-exact no-op where no batched program
    exists: sharded statevector execution and statevector-wrapped ZNE."""
    assert not DistributedStatevectorBackend(shards=2).supports_vectorize
    assert not MitigatedBackend(StatevectorBackend()).supports_vectorize
    assert MitigatedBackend(DensityMatrixBackend()).supports_vectorize

    rng = np.random.default_rng(1)
    angles = rng.uniform(0, 2 * np.pi, size=(5, 4, 4))
    strategy = ObservableConstruction(qubits=4, locality=1)
    backend = DistributedStatevectorBackend(shards=2)
    off = generate_features(
        strategy, angles, config=ExecutionConfig(backend=backend, vectorize="off")
    )
    auto = generate_features(
        strategy, angles, config=ExecutionConfig(backend=backend, vectorize="auto")
    )
    assert np.array_equal(off, auto)


# ----------------------------------------------------------------- cost model
def test_cost_model_prices_batched_segments(angles):
    """The CircuitTask projection sees the batched program's kernel-launch
    count (fused blocks + angle chains), not the raw gate count."""
    strategy = AnsatzExpansion(circuit=fig8_ansatz(4, 1), order=0)
    template = encoding_template(4, 4)
    programs = [
        compile_parametric(extend_template(template, strategy.ansatz.bind(p)))
        for p in strategy.parameter_sets()
    ]
    jobs = feature_jobs(strategy.num_ansatze, angles.shape[0], 5)
    tasks = feature_circuit_tasks(
        jobs, programs, strategy.num_qubits, strategy.num_observables,
        "exact", 0, 0,
    )
    assert len(tasks) == len(jobs)
    segments = programs[0].num_segments
    for task, job in zip(tasks, jobs, strict=True):
        chunk = job.hi - job.lo
        expected = float(chunk * 16 * (4 * segments + strategy.num_observables))
        assert task.classical_flops == expected


# ------------------------------------------------------------------ surfaces
def test_pipeline_defaults_run_batched(angles):
    assert PIPELINE_DEFAULT_CONFIG.vectorize == "auto"
    y = np.arange(19) % 2
    strategy = ObservableConstruction(qubits=4, locality=1)
    batched = HybridPipeline(strategy=strategy).fit(angles, y)
    q_batched = batched.predict(angles)
    oracle = HybridPipeline(
        strategy=strategy, config=PIPELINE_DEFAULT_CONFIG.merged(vectorize="off")
    ).fit(angles, y)
    q_oracle = oracle.predict(angles)
    assert np.array_equal(q_batched, q_oracle)


def test_device_session_carries_vectorize(angles):
    strategy = ObservableConstruction(qubits=4, locality=1)
    oracle = generate_features(strategy, angles, config=_cfg(vectorize="off"))
    with QuantumDevice(_cfg(vectorize="auto")) as dev:
        q, report = dev.run(strategy, angles)
        assert report.policy == "work_stealing"
        # reconfigured() flips the knob without rebuilding the pool.
        q_off, _ = dev.reconfigured(vectorize="off").run(strategy, angles)
    assert np.abs(q - oracle).max() < 1e-10
    assert np.array_equal(q_off, oracle)
