"""Pre-flight: run the analyzers at job-build time, per the config knob.

``ExecutionConfig(preflight="warn"|"error"|"off")`` decides what happens
with the findings when an entry point (``generate_features``,
``QuantumDevice.run``...) is about to dispatch a sweep:

* ``"off"``   -- (default) no analysis, zero overhead;
* ``"warn"``  -- every finding becomes a :class:`PreflightWarning`;
* ``"error"`` -- error-severity findings raise :class:`PreflightError`
  *before any dispatch* (no pool submit, no state allocation); warnings
  and infos still warn.

The analysis itself is the same code the ``repro lint`` CLI and
``QuantumDevice.check`` run; this module only decides consequence.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from typing import TYPE_CHECKING, Any

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.plan import lint_config
from repro.analysis.program import lint_circuit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.config import ExecutionConfig, ServeConfig
    from repro.quantum.circuit import Circuit

__all__ = [
    "PREFLIGHT_MODES",
    "PreflightError",
    "PreflightWarning",
    "resolve_preflight",
    "run_preflight",
    "run_serve_preflight",
]

#: Legal values of the ``preflight`` config knob.
PREFLIGHT_MODES = ("off", "warn", "error")


class PreflightWarning(UserWarning):
    """One pre-flight finding surfaced as a warning (modes warn/error)."""


class PreflightError(ValueError):
    """Pre-flight rejection: the report's error-severity findings.

    Carries the full :class:`DiagnosticReport` as ``report`` so callers
    (and tests) can inspect codes instead of parsing the message.
    """

    def __init__(self, report: DiagnosticReport, owner: str) -> None:
        self.report = report
        lines = [d.render() for d in report.errors]
        super().__init__(
            f"{owner}: preflight rejected the job "
            f"({len(report.errors)} error(s)):\n" + "\n".join(lines)
        )


def resolve_preflight(knob: Any) -> str:
    """Validate the ``preflight`` config knob (``None`` is legacy "off")."""
    if knob is None:
        return "off"
    if knob not in PREFLIGHT_MODES:
        raise ValueError(
            f"preflight must be one of {PREFLIGHT_MODES}, got {knob!r}"
        )
    return str(knob)


def _backend_noise_model(config: ExecutionConfig) -> Any:
    """The noise model the plan will actually apply, if any.

    ``MitigatedBackend`` nests its noisy backend under ``.backend``; walk
    one level so ZNE plans lint the channels they fold.
    """
    backend = config.backend
    model = getattr(backend, "noise_model", None)
    if model is None:
        model = getattr(getattr(backend, "backend", None), "noise_model", None)
    return model


def run_preflight(
    config: ExecutionConfig,
    *,
    num_qubits: int | None = None,
    circuits: Iterable[Circuit] = (),
    owner: str = "preflight",
) -> DiagnosticReport:
    """Analyze ``config`` (+ the job's circuits) and act per its knob.

    Always returns the merged report; in mode ``"error"`` it raises
    :class:`PreflightError` first when any error-severity finding exists.
    Mode ``"off"`` short-circuits to an empty report without analyzing.
    """
    mode = resolve_preflight(getattr(config, "preflight", "off"))
    if mode == "off":
        return DiagnosticReport()
    report = lint_config(config, num_qubits=num_qubits)
    return _enforce(report, mode, config, circuits, owner)


def run_serve_preflight(
    config: ServeConfig,
    *,
    num_qubits: int | None = None,
    circuits: Iterable[Circuit] = (),
    owner: str = "serve-preflight",
) -> DiagnosticReport:
    """The serving layer's pre-flight: serve-plan lint + program lint.

    The consequence knob is the *nested* execution config's ``preflight``
    (one knob governs both layers): ``"off"`` short-circuits, ``"warn"``
    warns per finding, ``"error"`` raises :class:`PreflightError` before
    the service starts or a template registers.
    """
    from repro.analysis.plan import lint_serve_config

    execution = config.execution
    assert execution is not None  # ServeConfig canonicalized it
    mode = resolve_preflight(execution.preflight)
    if mode == "off":
        return DiagnosticReport()
    report = lint_serve_config(config, num_qubits=num_qubits)
    return _enforce(report, mode, execution, circuits, owner)


def _enforce(
    report: DiagnosticReport, mode: str, execution: ExecutionConfig,
    circuits: Iterable[Circuit], owner: str,
) -> DiagnosticReport:
    """Both pre-flights' tail: add the program lint of ``circuits`` to
    ``report``, then raise (mode ``"error"``) or warn per finding.
    ``stacklevel=4`` points a warning at the call of whatever ran the
    preflight (``generate_features``' ``_run_preflight(...)`` line, the
    caller of ``FeatureService.register``)."""
    noise_model = _backend_noise_model(execution)
    for circuit in circuits:
        report = report + lint_circuit(circuit, noise_model=noise_model)
    if mode == "error" and not report.ok:
        raise PreflightError(report, owner)
    for diagnostic in report:
        warnings.warn(
            f"{owner}: {diagnostic.render()}", PreflightWarning, stacklevel=4
        )
    return report
