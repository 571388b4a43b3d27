"""Compiled vs naive feature generation -- Algorithm 1 equivalence.

``generate_features(config=ExecutionConfig(compile=...))`` must reproduce
the uncompiled path: to float-reassociation tolerance (1e-12) for the
``exact`` estimator, and seed-identically for ``shots``/``shadows``, across
every executor backend.
The process-backend cases also exercise pickled ``CompiledCircuit`` shipping.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExecutionConfig, QuantumDevice
from repro.core.features import generate_features
from repro.core.pipeline import PIPELINE_DEFAULT_CONFIG, HybridPipeline
from repro.core.strategies import (
    AnsatzExpansion,
    HybridStrategy,
    ObservableConstruction,
)
from repro.hpc.runtime import ExecutionRuntime


@pytest.fixture(scope="module")
def angles():
    rng = np.random.default_rng(42)
    return rng.uniform(0, 2 * np.pi, size=(8, 4, 4))


STRATEGIES = [
    pytest.param(ObservableConstruction(qubits=4, locality=1), id="observable"),
    pytest.param(AnsatzExpansion(order=1), id="ansatz"),
    pytest.param(HybridStrategy(order=1, locality=1), id="hybrid"),
]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_exact_estimator_matches_uncompiled(strategy, angles):
    naive = generate_features(strategy, angles)
    compiled = generate_features(strategy, angles, config=ExecutionConfig(compile="auto"))
    assert compiled.shape == naive.shape
    assert np.allclose(compiled, naive, atol=1e-12)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_exact_estimator_all_fusion_widths(width, angles):
    strategy = HybridStrategy(order=1, locality=1)
    naive = generate_features(strategy, angles)
    compiled = generate_features(strategy, angles, config=ExecutionConfig(compile=width))
    assert np.allclose(compiled, naive, atol=1e-12)


def test_ansatz_free_strategy_is_bit_identical(angles):
    """No Ansatz -> nothing to compile -> literally the same code path."""
    strategy = ObservableConstruction(qubits=4, locality=2)
    assert np.array_equal(
        generate_features(strategy, angles),
        generate_features(strategy, angles, config=ExecutionConfig(compile="auto")),
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_shots_estimator_seed_identical(strategy, angles):
    naive = generate_features(
        strategy, angles, config=ExecutionConfig(estimator="shots", shots=128, seed=7)
    )
    compiled = generate_features(
        strategy,
        angles,
        config=ExecutionConfig(estimator="shots", shots=128, seed=7, compile="auto"),
    )
    assert np.array_equal(naive, compiled)


def test_shadows_estimator_seed_identical(angles):
    strategy = HybridStrategy(order=1, locality=1)
    naive = generate_features(
        strategy, angles, config=ExecutionConfig(estimator="shadows", snapshots=64, seed=3)
    )
    compiled = generate_features(
        strategy,
        angles,
        config=ExecutionConfig(estimator="shadows", snapshots=64, seed=3, compile="auto"),
    )
    assert np.array_equal(naive, compiled)


@pytest.mark.parametrize(
    "pool,workers",
    [
        pytest.param("serial", 1, id="serial"),
        pytest.param("thread", 4, id="thread"),
        pytest.param("process", 2, id="process"),
    ],
)
def test_compiled_backends_identical(pool, workers, angles):
    """All executor backends agree bit-for-bit under compiled execution."""
    strategy = AnsatzExpansion(order=1)
    reference = generate_features(strategy, angles, config=ExecutionConfig(compile="auto"))
    with ExecutionRuntime(pool, workers) as executor:
        via_backend = generate_features(
            strategy,
            angles,
            device=QuantumDevice(
                ExecutionConfig(compile="auto", chunk_size=3), runtime=executor
            ),
        )
    assert np.array_equal(reference, via_backend)


def test_compiled_backends_identical_shots(angles):
    """Seeded estimators stay schedule-independent with compilation on."""
    strategy = ObservableConstruction(qubits=4, locality=1)
    cfg = ExecutionConfig(estimator="shots", shots=64, seed=11, chunk_size=4, compile="auto")
    serial = generate_features(strategy, angles, config=cfg)
    with ExecutionRuntime("thread", 3) as executor:
        threaded = generate_features(
            strategy, angles, device=QuantumDevice(cfg, runtime=executor)
        )
    assert np.array_equal(serial, threaded)


def test_pipeline_compiled_matches_uncompiled(angles):
    """HybridPipeline's default compiled engine changes no prediction."""
    y = (angles[:, 0, 0] > np.pi).astype(int)
    compiled = HybridPipeline(strategy=HybridStrategy(order=1, locality=1))
    assert PIPELINE_DEFAULT_CONFIG.compile == "auto"
    naive = HybridPipeline(
        strategy=HybridStrategy(order=1, locality=1),
        config=PIPELINE_DEFAULT_CONFIG.merged(compile="off"),
    )
    compiled.fit(angles, y)
    naive.fit(angles, y)
    assert np.array_equal(compiled.predict(angles), naive.predict(angles))


def test_invalid_compile_knob_rejected(angles):
    strategy = AnsatzExpansion(order=1)
    with pytest.raises(ValueError):
        generate_features(strategy, angles, config=ExecutionConfig(compile="fast"))
