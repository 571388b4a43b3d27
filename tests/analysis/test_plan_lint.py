"""Config/plan lint: every RPA1xx code pinned by a trigger AND a pass case."""

import numpy as np
import pytest

from repro.analysis.plan import MIN_EFFICIENT_CHUNK, lint_config
from repro.api.config import ExecutionConfig
from repro.quantum.backends import DistributedStatevectorBackend


def test_default_config_is_clean():
    assert lint_config(ExecutionConfig()).clean
    assert lint_config(ExecutionConfig(), num_qubits=4).clean


# --------------------------------------------- RPA101 (shards > register)
def test_rpa101_shards_exceed_register():
    cfg = ExecutionConfig(backend=DistributedStatevectorBackend(shards=8), compile="auto")
    report = lint_config(cfg, num_qubits=2)
    assert "RPA101" in report.codes()
    assert not report.ok
    (finding,) = [d for d in report if d.code == "RPA101"]
    assert finding.location == "config.backend.shards"


def test_rpa101_not_without_width_or_when_it_fits():
    cfg = ExecutionConfig(backend=DistributedStatevectorBackend(shards=8), compile="auto")
    assert "RPA101" not in lint_config(cfg).codes()  # width unknown: skip
    assert "RPA101" not in lint_config(cfg, num_qubits=5).codes()


# ------------------------------------------- RPA102 (host round-trips)
def test_rpa102_stochastic_estimator_on_device_backend(monkeypatch):
    import repro.xp as xp

    monkeypatch.setattr(xp, "backend_available", lambda name: True)
    monkeypatch.setattr(xp, "_torch_has_cuda", lambda: True)
    cfg = ExecutionConfig(estimator="shots", shots=64, array_backend="auto")
    report = lint_config(cfg)
    assert "RPA102" in report.codes()
    (finding,) = [d for d in report if d.code == "RPA102"]
    assert "resolves to" in finding.message  # 'auto' resolution spelled out


def test_rpa102_not_on_numpy_or_exact():
    assert "RPA102" not in lint_config(
        ExecutionConfig(estimator="shots", shots=64)
    ).codes()
    assert "RPA102" not in lint_config(ExecutionConfig(estimator="exact")).codes()


# ------------------------------------------------ RPA103 (unpicklable)
def test_rpa103_generator_seed():
    cfg = ExecutionConfig(seed=np.random.default_rng(7))
    report = lint_config(cfg)
    assert "RPA103" in report.codes()
    assert report.ok  # warning: serial execution still works


def test_rpa103_not_on_int_seed():
    assert "RPA103" not in lint_config(ExecutionConfig(seed=7)).codes()


# ------------------------------------------------ RPA104 (tiny chunks)
def test_rpa104_chunk_below_crossover():
    cfg = ExecutionConfig(chunk_size=MIN_EFFICIENT_CHUNK - 1)
    assert "RPA104" in lint_config(cfg).codes()


def test_rpa104_not_at_crossover_or_default():
    assert "RPA104" not in lint_config(
        ExecutionConfig(chunk_size=MIN_EFFICIENT_CHUNK)
    ).codes()
    assert "RPA104" not in lint_config(ExecutionConfig()).codes()


# ------------------------------------- RPA105 (vectorize unsupported)
def test_rpa105_vectorize_on_per_sample_backend():
    cfg = ExecutionConfig(
        vectorize="auto", backend=DistributedStatevectorBackend(shards=2), compile="auto"
    )
    if cfg.backend.supports_vectorize:
        pytest.skip("distributed backend grew a batched engine")
    assert "RPA105" in lint_config(cfg).codes()


def test_rpa105_not_on_vectorizing_backend():
    cfg = ExecutionConfig(vectorize="auto")
    assert cfg.backend.supports_vectorize
    assert "RPA105" not in lint_config(cfg).codes()


# ---------------------------------------------- RPA106 (zero budget)
@pytest.mark.parametrize(
    "kwargs", [dict(estimator="shots", shots=0), dict(estimator="shadows", snapshots=0)]
)
def test_rpa106_zero_measurement_budget(kwargs):
    report = lint_config(ExecutionConfig(**kwargs))
    assert "RPA106" in report.codes()
    assert not report.ok


def test_rpa106_not_when_budget_positive_or_unused():
    assert "RPA106" not in lint_config(
        ExecutionConfig(estimator="shots", shots=1)
    ).codes()
    # A zero budget for the *other* estimator is inert configuration.
    assert "RPA106" not in lint_config(
        ExecutionConfig(estimator="exact", shots=0)
    ).codes()

