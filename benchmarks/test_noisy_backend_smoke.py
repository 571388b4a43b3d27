"""Noisy-backend pipeline smoke: density sweep through live dispatch.

Run by the CI ``runtime-smoke`` job: a 3-qubit depolarising-noise Q-matrix
sweep end to end through the persistent :class:`ExecutionRuntime` (spawn
process pool, ``lpt`` policy) plus a fitted :class:`HybridPipeline`, so
the density path can never drift from the dispatch layer untested.
Asserts completion and serial/parallel bit-equality, not timing.
"""

from __future__ import annotations

import numpy as np

from repro.api import ExecutionConfig, QuantumDevice
from repro.core.pipeline import PIPELINE_DEFAULT_CONFIG, HybridPipeline
from repro.core.strategies import ObservableConstruction
from repro.hpc.runtime import ExecutionRuntime
from repro.quantum.backends import DensityMatrixBackend, MitigatedBackend
from repro.quantum.noise import NoiseModel

NUM_QUBITS = 3
SAMPLES = 6
CHUNK = 2


def build_workload():
    rng = np.random.default_rng(0)
    angles = rng.uniform(0, 2 * np.pi, size=(SAMPLES, 4, NUM_QUBITS))
    y = (angles[:, 0, 0] > np.pi).astype(int)
    return angles, y


def test_noisy_pipeline_streams_through_process_pool():
    angles, y = build_workload()
    strategy = ObservableConstruction(qubits=NUM_QUBITS, locality=1)
    backend = DensityMatrixBackend(NoiseModel.depolarizing(0.02))
    from repro.core.features import generate_features

    reference = generate_features(
        strategy, angles, config=ExecutionConfig(backend=backend, chunk_size=CHUNK)
    )

    with ExecutionRuntime("process", 2, start_method="spawn") as runtime:
        # Exact Kraus evolution => serial and pooled sweeps are bit-identical.
        cfg = ExecutionConfig(backend=backend, dispatch_policy="lpt", chunk_size=CHUNK)
        q = generate_features(strategy, angles, device=QuantumDevice(cfg, runtime=runtime))
        assert np.array_equal(q, reference)

        pipeline = HybridPipeline(
            strategy=strategy,
            device=QuantumDevice(
                PIPELINE_DEFAULT_CONFIG.merged(
                    backend=backend, chunk_size=CHUNK, dispatch_policy="lpt"
                ),
                runtime=runtime,
            ),
        ).fit(angles, y)
        preds = pipeline.predict(angles)
        assert runtime.pools_created == 1

    assert pipeline.report_.dispatch is not None
    assert preds.shape == y.shape


def test_mitigated_backend_through_process_pool():
    angles, _ = build_workload()
    strategy = ObservableConstruction(qubits=NUM_QUBITS, locality=1)
    backend = MitigatedBackend(
        DensityMatrixBackend(NoiseModel.depolarizing(0.02)), scales=(1, 3)
    )
    from repro.core.features import generate_features

    reference = generate_features(
        strategy, angles, config=ExecutionConfig(backend=backend, chunk_size=CHUNK)
    )
    with ExecutionRuntime("process", 2, start_method="spawn") as runtime:
        cfg = ExecutionConfig(backend=backend, dispatch_policy="lpt", chunk_size=CHUNK)
        q = generate_features(strategy, angles, device=QuantumDevice(cfg, runtime=runtime))
    assert np.array_equal(q, reference)
