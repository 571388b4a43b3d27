"""Serve-plan lint (RPA11x) and the serve preflight gate."""

from __future__ import annotations

import warnings

import pytest

from repro.analysis.diagnostics import DIAGNOSTIC_CODES
from repro.analysis.plan import lint_serve_config
from repro.analysis.preflight import (
    PreflightError,
    PreflightWarning,
    run_serve_preflight,
)
from repro.api.config import ExecutionConfig, ServeConfig, TransportConfig
from repro.quantum.backends import DistributedStatevectorBackend


def test_serve_codes_registered():
    for code in ("RPA110", "RPA111", "RPA112", "RPA113", "RPA114", "RPA115", "RPA116"):
        assert code in DIAGNOSTIC_CODES


def test_default_serve_config_is_clean():
    assert lint_serve_config(ServeConfig()).clean


# ------------------------------------------------- RPA110 (batch window)
def test_rpa110_zero_window_warns():
    report = lint_serve_config(ServeConfig(batch_window_ms=0))
    (finding,) = [d for d in report if d.code == "RPA110"]
    assert finding.severity == "warning"
    assert report.ok  # zero is legal, just coalescing-free


def test_rpa110_negative_window_is_error():
    report = lint_serve_config(ServeConfig(batch_window_ms=-2.0))
    (finding,) = [d for d in report if d.code == "RPA110"]
    assert finding.severity == "error"
    assert not report.ok


def test_rpa110_not_on_positive_window():
    assert "RPA110" not in lint_serve_config(
        ServeConfig(batch_window_ms=2.0)
    ).codes()


# -------------------------------------------- RPA112 (starved tenants)
def test_rpa112_nonpositive_weight_is_error():
    cfg = ServeConfig(tenant_weights={"paying": 1.0, "free": 0.0})
    report = lint_serve_config(cfg)
    findings = [d for d in report if d.code == "RPA112"]
    assert len(findings) == 1
    assert "free" in findings[0].message
    assert not report.ok


def test_rpa112_one_finding_per_starved_tenant():
    cfg = ServeConfig(tenant_weights={"a": -1.0, "b": 0.0, "c": 2.0})
    report = lint_serve_config(cfg)
    assert len([d for d in report if d.code == "RPA112"]) == 2


def test_rpa112_not_on_positive_weights():
    cfg = ServeConfig(tenant_weights={"a": 3.0, "b": 1.0})
    assert "RPA112" not in lint_serve_config(cfg).codes()


# ------------------------- RPA113 (retired: window without batching)
def test_rpa113_window_with_vectorize_off():
    """Retired: a ``vectorize="off"`` template coalesces like every other
    sweep mode, so no analyzer flags its window; the code stays reserved."""
    assert DIAGNOSTIC_CODES["RPA113"].title.startswith("retired:")
    cfg = ServeConfig(
        batch_window_ms=2.0,
        execution=ExecutionConfig(vectorize="off", preflight="warn"),
    )
    assert lint_serve_config(cfg, num_qubits=3).clean
    with warnings.catch_warnings():
        warnings.simplefilter("error", PreflightWarning)
        assert run_serve_preflight(cfg, num_qubits=3).clean


def test_rpa113_not_when_window_off_or_vectorized():
    assert "RPA113" not in lint_serve_config(
        ServeConfig(batch_window_ms=0, execution=ExecutionConfig(vectorize="off"))
    ).codes()
    assert "RPA113" not in lint_serve_config(
        ServeConfig(max_batch_size=1, execution=ExecutionConfig(vectorize="off"))
    ).codes()
    assert "RPA113" not in lint_serve_config(ServeConfig()).codes()


# ------------------------------------ RPA114 (deadline inside the window)
def test_rpa114_timeout_shorter_than_window():
    cfg = ServeConfig(
        batch_window_ms=5.0,
        transport=TransportConfig(request_timeout_s=0.001),
    )
    report = lint_serve_config(cfg)
    (finding,) = [d for d in report if d.code == "RPA114"]
    assert finding.severity == "warning"
    assert report.ok


def test_rpa114_not_on_sane_or_absent_deadline():
    assert "RPA114" not in lint_serve_config(
        ServeConfig(batch_window_ms=5.0, transport=TransportConfig())
    ).codes()
    assert "RPA114" not in lint_serve_config(
        ServeConfig(
            batch_window_ms=5.0,
            transport=TransportConfig(request_timeout_s=None),
        )
    ).codes()
    assert "RPA114" not in lint_serve_config(
        ServeConfig(batch_window_ms=5.0)  # no transport at all
    ).codes()


# ---------------------------------------- RPA115 (frame below one row)
def test_rpa115_tiny_frame_is_error():
    cfg = ServeConfig(transport=TransportConfig(max_frame_bytes=16))
    report = lint_serve_config(cfg, num_qubits=4)
    (finding,) = [d for d in report if d.code == "RPA115"]
    assert finding.severity == "error"
    assert not report.ok


def test_rpa115_scales_with_qubits():
    """The floor is one feature row's result frame: it grows with the
    feature count, not the qubit count (a config-only lint sizes a row of
    one value)."""
    cfg = ServeConfig(transport=TransportConfig(max_frame_bytes=400))
    assert "RPA115" not in lint_serve_config(cfg, num_qubits=16).codes()
    assert "RPA115" not in lint_serve_config(cfg, num_qubits=4, num_features=10).codes()
    assert "RPA115" in lint_serve_config(cfg, num_qubits=4, num_features=67).codes()
    roomy = ServeConfig(transport=TransportConfig(max_frame_bytes=700))
    assert "RPA115" not in lint_serve_config(roomy, num_qubits=4, num_features=67).codes()


def test_rpa115_refuses_a_template_whose_row_fits_no_frame():
    """Registration lints the template's real row: 67 features (536 bytes a
    row) cannot fit a 400-byte frame, so multi-row requests would fail."""
    from repro.core.strategies import strategy_from_name
    from repro.serve import FeatureService

    service = FeatureService(ServeConfig(
        execution=ExecutionConfig(preflight="error"),
        transport=TransportConfig(max_frame_bytes=400),
    ))
    wide = strategy_from_name("observable", num_qubits=4, locality=2)
    with pytest.raises(PreflightError, match="RPA115") as info:
        service.register("wide", wide, rows=1)
    assert "multi-row requests cannot be answered" in str(info.value)
    service.register("narrow", strategy_from_name("observable", num_qubits=4), rows=1)


def test_rpa115_not_on_default_frame_bound():
    assert "RPA115" not in lint_serve_config(
        ServeConfig(transport=TransportConfig()), num_qubits=20
    ).codes()


def test_transport_defaults_are_clean():
    assert lint_serve_config(
        ServeConfig(transport=TransportConfig()), num_qubits=8
    ).clean


def test_cache_off_and_small_frames_lint_clean():
    """A zero-size cache is off and a small frame bound streams: plain
    settings, not contradictory knob pairs."""
    cfg = ServeConfig(result_cache_size=0, transport=TransportConfig(max_frame_bytes=4096))
    assert lint_serve_config(cfg, num_qubits=4).clean


# ----------------------------------------------- nested execution merge
def test_nested_execution_findings_merged():
    cfg = ServeConfig(
        execution=ExecutionConfig(
            backend=DistributedStatevectorBackend(shards=8), compile="auto", vectorize="auto"
        )
    )
    report = lint_serve_config(cfg, num_qubits=2)
    assert "RPA101" in report.codes()  # the execution-level finding


def test_diagnose_matches_lint_serve_config():
    cfg = ServeConfig(batch_window_ms=0)
    assert cfg.diagnose().codes() == lint_serve_config(cfg).codes()


# ----------------------------------------------------- preflight gate
def _flagged(preflight: str) -> ServeConfig:
    return ServeConfig(
        batch_window_ms=0,
        execution=ExecutionConfig(
            vectorize="auto", compile="auto", preflight=preflight
        ),
    )


def test_serve_preflight_off_is_free():
    report = run_serve_preflight(_flagged("off"))
    assert not report.codes()


def test_serve_preflight_warn_surfaces_findings():
    with pytest.warns(PreflightWarning, match="RPA110"):
        report = run_serve_preflight(_flagged("warn"))
    assert "RPA110" in report.codes()


def test_serve_preflight_error_raises_on_errors_only():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PreflightWarning)
        # RPA110-at-zero is a warning: error mode lets it pass.
        run_serve_preflight(_flagged("error"))
    starving = ServeConfig(
        tenant_weights={"a": 0.0},
        execution=ExecutionConfig(
            vectorize="auto", compile="auto", preflight="error"
        ),
    )
    with pytest.raises(PreflightError, match="RPA112"):
        run_serve_preflight(starving)


def test_service_register_runs_preflight():
    from repro.core.strategies import strategy_from_name
    from repro.serve import FeatureService

    service = FeatureService(
        ServeConfig(
            tenant_weights={"ghost": 0.0},
            execution=ExecutionConfig(
                vectorize="auto", compile="auto", preflight="error"
            ),
        )
    )
    with pytest.raises(PreflightError, match="RPA112"):
        service.register(
            "t", strategy_from_name("observable", num_qubits=2), rows=2
        )
