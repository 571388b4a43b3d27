"""QuantumDevice sessions and the sklearn-style QuantumFeatureMap."""

import pickle

import numpy as np
import pytest

from repro.api import ExecutionConfig, QuantumDevice, QuantumFeatureMap
from repro.core.features import generate_features, prepare_states
from repro.core.model import PostVariationalClassifier
from repro.core.strategies import HybridStrategy, ObservableConstruction
from repro.hpc.runtime import ExecutionRuntime
from repro.quantum.backends import (
    DensityMatrixBackend,
    MitigatedBackend,
    StatevectorBackend,
)
from repro.quantum.noise import NoiseModel

BACKENDS = {
    "statevector": StatevectorBackend(),
    "density": DensityMatrixBackend(NoiseModel.depolarizing(0.02)),
    "mitigated": MitigatedBackend(
        DensityMatrixBackend(NoiseModel.depolarizing(0.02)), scales=(1, 3)
    ),
}


@pytest.fixture(scope="module")
def strategy():
    return ObservableConstruction(qubits=4, locality=1)


@pytest.fixture(scope="module")
def angles():
    rng = np.random.default_rng(0)
    return rng.uniform(0, 2 * np.pi, size=(7, 4, 4))


# ------------------------------------------------------------------- device
def test_device_run_and_stream_match_reference(strategy, angles):
    cfg = ExecutionConfig(chunk_size=3, dispatch_policy="lpt")
    reference = generate_features(strategy, angles, config=cfg)
    with QuantumDevice(cfg, pool="thread", max_workers=2) as device:
        q, report = device.run(strategy, angles)
        assert report.policy == "lpt"
        assert report.backend == "thread"
        states = device.prepare(angles)
        assembled = np.empty_like(reference)
        seen = 0
        for job, block in device.stream(strategy, states):
            assembled[
                job.lo : job.hi,
                job.ansatz_index * strategy.num_observables :
                (job.ansatz_index + 1) * strategy.num_observables,
            ] = block
            seen += block.shape[0]
    assert np.array_equal(q, reference)
    assert np.array_equal(assembled, reference)
    assert seen == angles.shape[0] * strategy.num_ansatze


def test_device_pool_reused_across_sweeps(strategy, angles):
    with QuantumDevice(pool="thread", max_workers=2) as device:
        device.run(strategy, angles)
        device.run(strategy, angles)
        assert device.runtime.pools_created == 1


def test_device_close_owned_runtime(strategy, angles):
    device = QuantumDevice()
    device.run(strategy, angles)
    device.close()
    assert device.closed
    with pytest.raises(RuntimeError):
        device.run(strategy, angles)


def test_device_shared_runtime_not_closed():
    with ExecutionRuntime("thread", max_workers=2) as runtime:
        with QuantumDevice(runtime=runtime):
            pass
        assert not runtime.closed  # ownership rule: shared pools survive


def test_device_reconfigured_shares_runtime(strategy, angles):
    with QuantumDevice(pool="thread", max_workers=2) as device:
        noisy = device.reconfigured(
            backend=DensityMatrixBackend(NoiseModel.depolarizing(0.01))
        )
        assert noisy.runtime is device.runtime
        assert noisy.config.backend.name == "density"
        assert device.config.backend.name == "statevector"
        noisy.close()  # non-owning: must not tear the shared pool down
        assert not device.runtime.closed
        device.run(strategy, angles)


def test_device_threads_through_model(strategy, angles):
    y = np.arange(7) % 2
    cfg = ExecutionConfig(chunk_size=2)
    reference = PostVariationalClassifier(strategy=strategy, config=cfg).fit(angles, y)
    with QuantumDevice(cfg, pool="thread", max_workers=2) as device:
        via_device = PostVariationalClassifier(strategy=strategy, device=device).fit(
            angles, y
        )
        assert device.runtime.pools_created == 1  # the sweep ran on its pool
    assert np.array_equal(reference.q_train_, via_device.q_train_)


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_device_run_matches_function_path(backend_name):
    strategy = ObservableConstruction(qubits=2, locality=1)
    angles = np.random.default_rng(42).uniform(0, 2 * np.pi, size=(5, 2, 2))
    cfg = ExecutionConfig(
        estimator="shots", shots=16, seed=9, backend=BACKENDS[backend_name]
    )
    direct = generate_features(strategy, angles, config=cfg)
    with QuantumDevice(cfg, pool="thread", max_workers=2) as device:
        q, report = device.run(strategy, angles)
        assert report.num_tasks > 0
    assert np.array_equal(direct, q)


def test_device_plus_config_rejected(strategy, angles):
    with QuantumDevice() as device, pytest.raises(TypeError, match="not both"):
        generate_features(strategy, angles, config=ExecutionConfig(), device=device)


def test_non_device_passed_as_device_rejected(strategy, angles):
    # A runtime also binds a pool and has a .config -- the plausible mix-up
    # must fail fast, not deep inside the sweep.
    with ExecutionRuntime() as runtime, pytest.raises(TypeError, match="QuantumDevice"):
        generate_features(strategy, angles, device=runtime)
    # Config-bearing non-devices (a feature map) are equally rejected.
    fmap = QuantumFeatureMap(strategy, config=ExecutionConfig())
    with pytest.raises(TypeError, match="QuantumDevice"):
        generate_features(strategy, angles, device=fmap)


def test_device_rejects_bad_config():
    with pytest.raises(TypeError):
        QuantumDevice(config={"estimator": "exact"})


def test_device_rejects_runtime_plus_pool_kwargs():
    # runtime= and pool-construction kwargs are mutually exclusive: silently
    # ignoring the requested pool would run sweeps on the wrong substrate.
    with ExecutionRuntime() as runtime:
        with pytest.raises(TypeError, match="one or the other"):
            QuantumDevice(runtime=runtime, pool="process", max_workers=4)
        with pytest.raises(TypeError, match="one or the other"):
            QuantumDevice(runtime=runtime, max_workers=2)


# -------------------------------------------------------------- feature map
def test_feature_map_matches_generate_features(strategy, angles):
    reference = generate_features(strategy, angles)
    fmap = QuantumFeatureMap(strategy)
    q = fmap.fit_transform(angles)
    assert np.array_equal(q, reference)
    assert fmap.last_report_ is not None
    assert fmap.n_features_in_ == 16


def test_feature_map_accepts_2d_sklearn_input(strategy, angles):
    flat = angles.reshape(angles.shape[0], -1)
    fmap = QuantumFeatureMap(strategy)
    q3 = fmap.fit_transform(angles)
    q2 = fmap.fit_transform(flat)
    assert np.array_equal(q2, q3)


def test_feature_map_transform_requires_fit(strategy, angles):
    fmap = QuantumFeatureMap(strategy)
    with pytest.raises(RuntimeError, match="not fitted"):
        fmap.transform(angles)


def test_feature_map_width_mismatch_rejected(strategy, angles):
    fmap = QuantumFeatureMap(strategy).fit(angles)
    with pytest.raises(ValueError, match="features per sample"):
        fmap.transform(angles[:, :2, :])


def test_feature_map_feature_names(strategy):
    names = QuantumFeatureMap(strategy).get_feature_names_out()
    assert len(names) == strategy.num_features
    assert names[0] == "ansatz0_obs0"
    assert names[-1] == f"ansatz{strategy.num_ansatze - 1}_obs{strategy.num_observables - 1}"


def test_feature_map_sklearn_params_roundtrip(strategy):
    cfg = ExecutionConfig(estimator="shots", shots=8)
    fmap = QuantumFeatureMap(strategy, config=cfg)
    params = fmap.get_params()
    clone = QuantumFeatureMap(params["strategy"]).set_params(config=params["config"])
    assert clone.config == cfg
    with pytest.raises(ValueError):
        fmap.set_params(unknown=1)
    with pytest.raises(ValueError, match="strategy is required"):
        fmap.set_params(strategy=None)
    assert fmap.strategy is strategy  # failed call mutated nothing


def test_feature_map_config_is_picklable(strategy):
    fmap = QuantumFeatureMap(strategy, config=ExecutionConfig(seed=4))
    restored = pickle.loads(pickle.dumps(fmap))
    assert restored.config == fmap.config


def test_feature_map_shared_device_not_closed(strategy, angles):
    """The map borrows the device: still open and usable after transforms."""
    with QuantumDevice(pool="thread", max_workers=2) as device:
        fmap = QuantumFeatureMap(strategy, device=device)
        q = fmap.fit_transform(angles)
        fmap.transform(angles)
        assert not device.closed
        assert np.array_equal(device.run(strategy, angles)[0], q)
        assert device.runtime.pools_created == 1


def test_feature_map_set_params_rejects_config_plus_device(strategy):
    with QuantumDevice() as device:
        fmap = QuantumFeatureMap(strategy, device=device)
        with pytest.raises(TypeError, match="not both"):
            fmap.set_params(config=ExecutionConfig())
        # The failed call must not have mutated anything (a caller catching
        # the error keeps a consistent transformer).
        assert fmap.config is None
        assert fmap.device is device
        # Swapping the device out for a config is the legitimate path.
        fmap.set_params(device=None, config=ExecutionConfig())
        assert fmap.config is not None


def test_model_device_swap_after_construction_is_live(strategy, angles):
    """Assigning model.device post-construction rebinds config + runtime."""
    y = np.arange(7) % 2
    cfg = ExecutionConfig(estimator="shots", shots=8, seed=5)
    with QuantumDevice(cfg, pool="thread", max_workers=2) as device:
        model = PostVariationalClassifier(strategy=strategy)
        model.device = device
        model.fit(angles, y)
        # The *first* sweep after the swap already runs on the device's pool.
        assert device.runtime.pools_created == 1
    reference = PostVariationalClassifier(strategy=strategy, config=cfg).fit(angles, y)
    assert np.array_equal(model.q_train_, reference.q_train_)


def test_feature_map_set_params_config_takes_effect(strategy, angles):
    """A config swapped in via set_params must drive the next transform."""
    fmap = QuantumFeatureMap(strategy, config=ExecutionConfig())
    exact = fmap.fit_transform(angles)
    fmap.set_params(config=ExecutionConfig(estimator="shots", shots=8, seed=1))
    shotty = fmap.transform(angles)
    assert not np.array_equal(exact, shotty)
    reference = generate_features(
        strategy, angles, config=ExecutionConfig(estimator="shots", shots=8, seed=1)
    )
    assert np.array_equal(shotty, reference)


def test_feature_map_composes_with_classical_head(angles):
    """The sklearn split: quantum transformer + any classical estimator."""
    from repro.ml.logistic import LogisticRegression

    strategy = HybridStrategy(order=1, locality=1)
    y = np.arange(7) % 2
    fmap = QuantumFeatureMap(strategy, config=ExecutionConfig(compile="auto"))
    q = fmap.fit_transform(angles)
    head = LogisticRegression().fit(q, y)
    preds = head.predict(fmap.transform(angles))
    assert preds.shape == y.shape


def test_prepare_states_public_helper(strategy, angles):
    states = prepare_states(angles)
    assert states.shape == (7, 16)
    direct = generate_features(strategy, angles)
    from repro.core.features import evaluate_features

    assert np.array_equal(evaluate_features(strategy, states), direct)
