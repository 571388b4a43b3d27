"""End-to-end pipeline tests."""

import numpy as np
import pytest

from repro.api import ExecutionConfig, QuantumDevice
from repro.core.pipeline import PIPELINE_DEFAULT_CONFIG, HybridPipeline
from repro.core.strategies import HybridStrategy, ObservableConstruction
from repro.hpc.cluster import ClusterModel, NodeSpec
from repro.hpc.runtime import ExecutionRuntime


@pytest.fixture(scope="module")
def small_task():
    rng = np.random.default_rng(0)
    angles = rng.uniform(0, 2 * np.pi, size=(40, 4, 4))
    y = (angles[:, 0, 0] + angles[:, 1, 1] > 2 * np.pi).astype(int)
    return angles, y


def test_fit_predict_roundtrip(small_task):
    angles, y = small_task
    pipe = HybridPipeline(strategy=ObservableConstruction(qubits=4, locality=1))
    pipe.fit(angles, y)
    preds = pipe.predict(angles)
    assert preds.shape == y.shape
    assert pipe.score(angles, y) > 0.5
    assert pipe.loss(angles, y) < 1.0


def test_report_contents(small_task):
    angles, y = small_task
    pipe = HybridPipeline(
        strategy=HybridStrategy(order=1, locality=1),
        cluster=ClusterModel(node=NodeSpec(), num_nodes=4),
    )
    pipe.fit(angles, y)
    report = pipe.report_
    assert report.num_features == 221
    assert report.num_ansatze == 17
    assert report.num_train == 40
    assert report.timer.total("generate_features") > 0
    assert report.projected_makespan is not None
    assert "ensemble" in report.summary()


def test_circuit_tasks_grid(small_task):
    angles, _ = small_task
    pipe = HybridPipeline(
        strategy=HybridStrategy(order=1, locality=1),
        config=PIPELINE_DEFAULT_CONFIG.merged(chunk_size=16),
    )
    tasks = pipe.circuit_tasks(angles.shape[0])
    # p Ansatz instances x ceil(40/16)=3 chunks.
    assert len(tasks) == 17 * 3
    assert sum(t.num_circuits for t in tasks) == 17 * 40


def test_executor_backend_equivalence(small_task):
    angles, y = small_task
    serial = HybridPipeline(strategy=ObservableConstruction(qubits=4, locality=1))
    serial.fit(angles, y)
    with ExecutionRuntime("thread", 4) as runtime:
        threaded = HybridPipeline(
            strategy=ObservableConstruction(qubits=4, locality=1),
            device=QuantumDevice(PIPELINE_DEFAULT_CONFIG.merged(chunk_size=8), runtime=runtime),
        )
        threaded.fit(angles, y)
        assert np.allclose(serial.predict(angles), threaded.predict(angles))


def test_shots_pipeline(small_task):
    angles, y = small_task
    pipe = HybridPipeline(
        strategy=ObservableConstruction(qubits=4, locality=1),
        config=PIPELINE_DEFAULT_CONFIG.merged(estimator="shots", shots=256),
    )
    pipe.fit(angles, y)
    assert pipe.report_.counter.get("shots_fired") > 0
    assert 0.0 <= pipe.score(angles, y) <= 1.0


def test_multiclass_pipeline():
    rng = np.random.default_rng(1)
    angles = rng.uniform(0, 2 * np.pi, size=(30, 4, 4))
    y = rng.integers(0, 3, 30)
    pipe = HybridPipeline(
        strategy=ObservableConstruction(qubits=4, locality=1), num_classes=3
    )
    pipe.fit(angles, y)
    assert set(np.unique(pipe.predict(angles))) <= {0, 1, 2}


def test_shots_fired_accounting(small_task):
    """Budget regression: shots pays per (d, p, q) entry, shadows per (d, p)."""
    angles, y = small_task
    d = angles.shape[0]
    strategy = ObservableConstruction(qubits=4, locality=1)
    p, q = strategy.num_ansatze, strategy.num_observables

    exact = HybridPipeline(strategy=strategy).fit(angles, y)
    assert exact.report_.counter.get("shots_fired") == 0

    shots = HybridPipeline(
        strategy=strategy, config=PIPELINE_DEFAULT_CONFIG.merged(estimator="shots", shots=64)
    ).fit(angles, y)
    assert shots.report_.counter.get("shots_fired") == 64 * d * p * q

    shadows = HybridPipeline(
        strategy=strategy,
        config=PIPELINE_DEFAULT_CONFIG.merged(estimator="shadows", snapshots=128),
    ).fit(angles, y)
    # One shadow batch per (data point, Ansatz), reused across all q
    # observables -- NOT snapshots * Q.size.
    assert shadows.report_.counter.get("shots_fired") == 128 * d * p


def test_report_dispatch_reconciliation(small_task):
    angles, y = small_task
    with ExecutionRuntime("thread", 2) as runtime:
        pipe = HybridPipeline(
            strategy=ObservableConstruction(qubits=4, locality=1),
            device=QuantumDevice(
                PIPELINE_DEFAULT_CONFIG.merged(chunk_size=8, dispatch_policy="lpt"),
                runtime=runtime,
            ),
        )
        pipe.fit(angles, y)
    dispatch = pipe.report_.dispatch
    assert dispatch is not None
    assert dispatch.policy == "lpt"
    assert dispatch.num_tasks == len(pipe.circuit_tasks(angles.shape[0]))
    rec = dispatch.reconcile()
    assert rec["wall_s"] > 0
    assert rec["measured_total_s"] > 0
    assert "dispatch (lpt" in pipe.report_.summary()


def test_pipeline_persistent_runtime_across_sweeps(small_task):
    """One long-lived pool serves fit and every subsequent predict."""
    angles, y = small_task
    with ExecutionRuntime("thread", 2) as runtime:
        pipe = HybridPipeline(
            strategy=ObservableConstruction(qubits=4, locality=1),
            device=QuantumDevice(PIPELINE_DEFAULT_CONFIG.merged(chunk_size=8), runtime=runtime),
        )
        pipe.fit(angles, y)
        pipe.predict(angles)
        pipe.predict(angles)
        assert runtime.pools_created == 1


def test_pipeline_leaves_caller_owned_runtime_open(small_task):
    """A runtime bound through ``QuantumDevice(cfg, runtime=rt)`` stays open
    and is reused: neither the pipeline nor the borrowing device kills it."""
    angles, y = small_task
    with ExecutionRuntime("thread", 2) as runtime:
        device = QuantumDevice(PIPELINE_DEFAULT_CONFIG.merged(chunk_size=8), runtime=runtime)
        pipe = HybridPipeline(
            strategy=ObservableConstruction(qubits=4, locality=1), device=device
        )
        pipe.fit(angles, y)
        assert pipe.score(angles, y) > 0.5
        device.close()
        # Closing the borrowing device must leave the caller's runtime
        # usable (shutdown is permanent, so only its owner may trigger it).
        assert not runtime.closed
        assert runtime.map(len, [[1, 2]]) == [2]
        assert runtime.pools_created == 1
    assert runtime.closed


def test_model_classes_leave_device_pool_open(small_task):
    from repro.core.model import PostVariationalClassifier

    angles, y = small_task
    with QuantumDevice(ExecutionConfig(), pool="thread", max_workers=2) as device:
        clf = PostVariationalClassifier(
            strategy=ObservableConstruction(qubits=4, locality=1), device=device
        )
        clf.fit(angles, y)
        assert clf.predict(angles).shape == y.shape
        # fit and predict share the device's one pool and never close it.
        assert device.runtime.pools_created == 1
        assert not device.closed


def test_scheduling_policies_do_not_change_predictions(small_task):
    angles, y = small_task
    strategy = ObservableConstruction(qubits=4, locality=1)
    reference = HybridPipeline(strategy=strategy).fit(angles, y).predict(angles)
    with ExecutionRuntime("thread", 2) as runtime:
        for policy in ("block", "cyclic", "lpt", "work_stealing"):
            pipe = HybridPipeline(
                strategy=strategy,
                device=QuantumDevice(
                    PIPELINE_DEFAULT_CONFIG.merged(chunk_size=8, dispatch_policy=policy),
                    runtime=runtime,
                ),
            )
            assert np.array_equal(pipe.fit(angles, y).predict(angles), reference)


def test_unfitted_errors(small_task):
    angles, y = small_task
    pipe = HybridPipeline(strategy=ObservableConstruction(qubits=4, locality=1))
    with pytest.raises(RuntimeError):
        pipe.predict(angles)
    with pytest.raises(ValueError):
        HybridPipeline(strategy=None)
