"""Regression: the model classes honor every execution knob.

Historically ``PostVariationalRegressor``/``PostVariationalClassifier``
accepted no ``chunk_size``/``compile``/``dispatch_policy`` and silently
used defaults even when the surrounding pipeline was configured otherwise
-- the knob drift the unified config fixes by construction.  These tests
pin the fix: under an identical ``ExecutionConfig`` the model and the
pipeline produce *identical* feature matrices, and the once-ignored knobs
demonstrably reach the sweep.
"""

import numpy as np
import pytest

from repro.api import ExecutionConfig, QuantumDevice
from repro.core.model import PostVariationalClassifier, PostVariationalRegressor
from repro.core.pipeline import PIPELINE_DEFAULT_CONFIG, HybridPipeline
from repro.core.strategies import ObservableConstruction

CFG = ExecutionConfig(
    estimator="shots", shots=32, seed=11, chunk_size=3,
    compile="auto", dispatch_policy="lpt",
)


@pytest.fixture(scope="module")
def strategy():
    return ObservableConstruction(qubits=4, locality=1)


@pytest.fixture(scope="module")
def angles():
    rng = np.random.default_rng(5)
    return rng.uniform(0, 2 * np.pi, size=(8, 4, 4))


def test_model_and_pipeline_features_identical_under_same_config(strategy, angles):
    y = np.arange(8) % 2
    model = PostVariationalClassifier(strategy=strategy, config=CFG).fit(angles, y)
    pipeline = HybridPipeline(strategy=strategy, config=CFG).fit(angles, y)
    pipeline_q = pipeline._features(angles)
    # Same config object -> same seed derivation, chunking, compilation and
    # dispatch policy -> bit-identical Q matrices.
    assert np.array_equal(model.q_train_, pipeline_q)


def test_models_honor_previously_dropped_knobs(strategy, angles):
    """chunk_size/compile/dispatch_policy change the model's execution.

    ``chunk_size`` alters the job grid and therefore the per-task RNG
    streams of stochastic estimators: if the knob were still silently
    dropped (the old bug), both fits would produce the same matrix.
    """
    base = ExecutionConfig(estimator="shots", shots=16, seed=0)
    y = np.arange(8) % 2
    q_default = PostVariationalClassifier(strategy=strategy, config=base).fit(
        angles, y
    ).q_train_
    q_chunked = PostVariationalClassifier(
        strategy=strategy, config=base.merged(chunk_size=1)
    ).fit(angles, y).q_train_
    assert not np.array_equal(q_default, q_chunked)


def test_model_config_resolution_matches_legacy_defaults(strategy, angles):
    """A bare model is bit-identical to its pre-config behaviour."""
    y = np.arange(8) % 2
    bare = PostVariationalClassifier(strategy=strategy).fit(angles, y)
    explicit = PostVariationalClassifier(
        strategy=strategy, config=ExecutionConfig()
    ).fit(angles, y)
    assert np.array_equal(bare.q_train_, explicit.q_train_)
    assert bare.config is None  # None means the default ExecutionConfig


def test_regressor_accepts_config(strategy, angles):
    y = np.linspace(-1, 1, 8)
    reg = PostVariationalRegressor(strategy=strategy, config=CFG).fit(angles, y)
    reg2 = PostVariationalRegressor(strategy=strategy, config=CFG).fit(angles, y)
    assert np.array_equal(reg.q_train_, reg2.q_train_)
    assert np.allclose(reg.predict(angles), reg2.predict(angles))


def test_post_construction_config_replacement_is_live(strategy, angles):
    y = np.arange(8) % 2
    model = PostVariationalClassifier(strategy=strategy)
    model.config = ExecutionConfig(estimator="shots", shots=8, seed=3)
    model.fit(angles, y)
    reference = PostVariationalClassifier(
        strategy=strategy, config=ExecutionConfig(estimator="shots", shots=8, seed=3)
    ).fit(angles, y)
    assert np.array_equal(model.q_train_, reference.q_train_)


def test_config_reset_to_none_restores_owner_defaults(strategy, angles):
    y = np.arange(8) % 2
    model = PostVariationalClassifier(strategy=strategy, config=CFG)
    model.config = None
    model.fit(angles, y)  # must not crash; back to model defaults
    default = PostVariationalClassifier(strategy=strategy).fit(angles, y)
    assert np.array_equal(model.q_train_, default.q_train_)
    pipe = HybridPipeline(strategy=strategy, config=CFG)
    pipe.config = None
    assert pipe._execution()[0] == PIPELINE_DEFAULT_CONFIG  # pipeline defaults


def test_pipeline_device_swap_is_live(strategy, angles):
    y = np.arange(8) % 2
    pipe = HybridPipeline(strategy=strategy)
    pipe.fit(angles, y)
    cfg = ExecutionConfig(estimator="shots", shots=8, seed=3)
    with QuantumDevice(cfg, pool="thread", max_workers=2) as device:
        pipe.device = device
        pipe.fit(angles, y)
        # The device supplies both the config and the pool of the next fit.
        assert pipe.report_.dispatch.backend == "thread"
        assert pipe.report_.counter.get("shots_fired") > 0
        assert device.runtime.pools_created == 1


@pytest.mark.parametrize("owner", ["model", "pipeline"])
def test_assigning_device_over_config_needs_config_cleared(owner, strategy, angles):
    """config and device never both configure a sweep: assigning one over
    the other fails the next fit with the construction-time TypeError, and
    clearing the other first makes the swap take effect."""
    y = np.arange(8) % 2
    cfg = ExecutionConfig(estimator="shots", shots=8, seed=3)
    make = PostVariationalClassifier if owner == "model" else HybridPipeline
    obj = make(strategy=strategy, config=CFG)
    reference = make(strategy=strategy, config=cfg).fit(angles, y)
    with QuantumDevice(cfg) as device:
        obj.device = device
        with pytest.raises(TypeError, match="pass config= or device=, not both"):
            obj.fit(angles, y)
        obj.config = None
        obj.fit(angles, y)
        assert np.array_equal(obj.predict(angles), reference.predict(angles))


def test_pipeline_projection_uses_config_chunking(strategy):
    """circuit_tasks reflects the configured chunk_size (not a default)."""
    p = HybridPipeline(strategy=strategy, config=CFG.merged(chunk_size=2))
    tasks = p.circuit_tasks(num_samples=8)
    # 8 samples / chunk 2 = 4 chunks per Ansatz instance.
    assert len(tasks) == 4 * strategy.num_ansatze
    assert all(t.num_circuits == 2 for t in tasks)
