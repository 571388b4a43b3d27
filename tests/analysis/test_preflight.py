"""Preflight knob: the admission gate entry points run at job-build time.

The acceptance behaviour: ``preflight="error"`` rejects a
shards-exceeds-qubits job *before any dispatch*; ``"warn"`` surfaces the
same findings as warnings while leaving results bit-identical; ``"off"``
(the default) is free.
"""

import warnings

import numpy as np
import pytest

from repro.analysis.preflight import (
    PREFLIGHT_MODES,
    PreflightError,
    PreflightWarning,
    resolve_preflight,
    run_preflight,
)
from repro.api import ExecutionConfig, QuantumDevice
from repro.core.features import generate_features, prepare_states
from repro.core.strategies import ObservableConstruction

QUBITS = 2


@pytest.fixture(scope="module")
def strategy():
    return ObservableConstruction(qubits=QUBITS, locality=1)


@pytest.fixture(scope="module")
def angles():
    rng = np.random.default_rng(7)
    return rng.uniform(0, 2 * np.pi, size=(4, 2, QUBITS))


# --------------------------------------------------------------- knob
def test_resolve_preflight_modes():
    assert PREFLIGHT_MODES == ("off", "warn", "error")
    for mode in PREFLIGHT_MODES:
        assert resolve_preflight(mode) == mode
    assert resolve_preflight(None) == "off"
    with pytest.raises(ValueError, match="preflight"):
        resolve_preflight("strict")


def test_config_validates_and_serializes_preflight():
    assert ExecutionConfig().preflight == "off"
    assert ExecutionConfig(preflight=None).preflight == "off"
    with pytest.raises(ValueError, match="preflight"):
        ExecutionConfig(preflight="maybe")
    cfg = ExecutionConfig(preflight="warn")
    assert ExecutionConfig.from_dict(cfg.to_dict()).preflight == "warn"


# ------------------------------------------------------- run_preflight
def test_off_mode_short_circuits():
    # shards=32 >> 2^2 would be an error; "off" never analyzes.
    cfg = ExecutionConfig(shards=32, compile="auto")
    report = run_preflight(cfg, num_qubits=QUBITS)
    assert report.clean


def test_error_mode_raises_with_report():
    cfg = ExecutionConfig(shards=32, compile="auto", preflight="error")
    with pytest.raises(PreflightError) as excinfo:
        run_preflight(cfg, num_qubits=QUBITS, owner="unit")
    assert "RPA101" in excinfo.value.report.codes()
    assert "unit" in str(excinfo.value)


def test_warn_mode_warns_every_finding():
    cfg = ExecutionConfig(shards=32, preflight="warn")  # RPA101 + RPA107
    with pytest.warns(PreflightWarning) as caught:
        report = run_preflight(cfg, num_qubits=QUBITS)
    assert set(report.codes()) == {"RPA101", "RPA107"}
    assert len(caught) == len(report)


# ------------------------------------------ entry-point integration
def test_generate_features_error_mode_rejects_before_dispatch(strategy, angles):
    cfg = ExecutionConfig(shards=32, compile="auto", preflight="error")
    with pytest.raises(PreflightError) as excinfo:
        generate_features(strategy, angles, config=cfg)
    assert "RPA101" in excinfo.value.report.codes()


REJECTED = {
    "RPA106": ExecutionConfig(estimator="shots", shots=0, preflight="error"),
    "RPA101": ExecutionConfig(shards=8, preflight="error"),  # 8 slabs > 2^2 amplitudes
}


@pytest.mark.parametrize("code", sorted(REJECTED))
@pytest.mark.parametrize("entry", ["run", "evaluate", "stream"])
def test_every_device_entry_point_runs_preflight(strategy, angles, entry, code):
    """run, evaluate and stream reject the same job before any dispatch."""
    states = prepare_states(None, angles)
    with QuantumDevice(REJECTED[code]) as device, pytest.raises(PreflightError) as excinfo:
        if entry == "run":
            device.run(strategy, angles)
        elif entry == "evaluate":
            device.evaluate(strategy, states)
        else:
            device.stream(strategy, states)
    assert code in excinfo.value.report.codes()


def test_warn_mode_is_result_neutral(strategy, angles):
    baseline = generate_features(strategy, angles, config=ExecutionConfig())
    with pytest.warns(PreflightWarning):
        noisy_cfg = ExecutionConfig(shards=2, compile="off", preflight="warn")
        warned = generate_features(strategy, angles, config=noisy_cfg.merged(
            shards=1, compile="off", chunk_size=2  # RPA104 fires, run unchanged
        ))
    np.testing.assert_array_equal(baseline, warned)


def test_default_config_emits_no_warnings(strategy, angles):
    with warnings.catch_warnings():
        warnings.simplefilter("error", PreflightWarning)
        generate_features(strategy, angles, config=ExecutionConfig(preflight="warn"))


# ------------------------------------------------------ inspectors
def test_device_check_never_raises(strategy):
    cfg = ExecutionConfig(shards=32, compile="auto", preflight="error")
    with QuantumDevice(cfg) as device:
        report = device.check(num_qubits=QUBITS)
    assert "RPA101" in report.codes()


def test_device_check_lints_program_under_plan(strategy):
    from repro.quantum.circuit import Circuit

    template = Circuit(QUBITS, name="t")
    template.append("crx", (0, 1), "theta_0")  # RPA003 under vectorize
    with QuantumDevice(ExecutionConfig(shards=2, compile="auto")) as device:
        report = device.check(template)
    assert "RPA003" in report.codes()
    assert "RPA004" in report.codes()


def test_config_diagnose_matches_lint_config():
    cfg = ExecutionConfig(shards=8, compile="auto")
    assert cfg.diagnose(num_qubits=2).codes() == ("RPA101",)
    assert cfg.diagnose().clean
