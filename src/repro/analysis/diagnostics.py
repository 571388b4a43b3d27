"""Diagnostic value objects: stable codes, severities, reports.

Every check in :mod:`repro.analysis` -- program lint, config/plan lint, the
AST codebase lint -- emits :class:`Diagnostic` instances with a *stable*
``RPAxxx`` code, so tooling (CI gates, editor integrations, the table-driven
test suite) can pin behaviour per code instead of parsing prose.  The full
code table lives in :data:`DIAGNOSTIC_CODES`; constructing a diagnostic with
an unregistered code is a programming error and raises immediately.

Code ranges, by analysis layer:

* ``RPA0xx`` -- program lint (circuit / template IR, no execution);
* ``RPA1xx`` -- config/plan lint (cross-field :class:`ExecutionConfig`
  checks beyond per-field validation; ``RPA11x`` covers the serving
  layer's :class:`ServeConfig`);
* ``RPA3xx`` -- codebase lint (repo invariants enforced over source ASTs
  by :mod:`repro.analysis.astlint`).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "SEVERITIES",
    "DIAGNOSTIC_CODES",
    "CodeSpec",
    "Diagnostic",
    "DiagnosticReport",
]

#: Severity levels, most severe first.  Plain strings (not an enum) so
#: diagnostics JSON-serialize without custom encoders and compare cheaply.
ERROR = "error"
WARNING = "warning"
INFO = "info"
SEVERITIES = (ERROR, WARNING, INFO)


@dataclass(frozen=True)
class CodeSpec:
    """Registry entry for one stable diagnostic code."""

    code: str
    title: str
    default_severity: str


def _registry(*specs: CodeSpec) -> dict[str, CodeSpec]:
    table: dict[str, CodeSpec] = {}
    for spec in specs:
        if spec.code in table:
            raise ValueError(f"duplicate diagnostic code {spec.code}")
        if spec.default_severity not in SEVERITIES:
            raise ValueError(f"bad severity for {spec.code}")
        table[spec.code] = spec
    return table


#: The stable code table.  Codes are append-only: retiring a check keeps its
#: code reserved (never recycle a number for a different meaning) and marks
#: its title ``retired:``; no analyzer emits a retired code.
DIAGNOSTIC_CODES: dict[str, CodeSpec] = _registry(
    # ------------------------------------------------- program lint (RPA0xx)
    CodeSpec("RPA001", "operation wires out of range or duplicated", ERROR),
    CodeSpec("RPA002", "malformed operation (unknown gate / wrong arity / bad parameter)", ERROR),
    CodeSpec("RPA003", "template defeats batched vectorized execution", WARNING),
    CodeSpec("RPA004", "retired: gate outside the sharded fast-gate table", WARNING),
    CodeSpec("RPA005", "noise channel can never fire on this circuit", WARNING),
    CodeSpec("RPA006", "Kraus set is not trace-preserving", ERROR),
    # -------------------------------------------- config/plan lint (RPA1xx)
    CodeSpec("RPA101", "shards exceed the statevector register", ERROR),
    CodeSpec("RPA102", "stochastic estimator forces device->host round-trips", WARNING),
    CodeSpec("RPA103", "config cannot cross a process pool / serialize", WARNING),
    CodeSpec("RPA104", "chunk size below the dispatch-overhead crossover", WARNING),
    CodeSpec("RPA105", "vectorize requested but backend runs per-sample", WARNING),
    CodeSpec("RPA106", "stochastic estimator with a zero measurement budget", ERROR),
    CodeSpec("RPA107", "retired: sharded execution without the grouped compiled engine", INFO),
    # ------------------------------------------- serve-plan lint (RPA11x)
    CodeSpec("RPA110", "micro-batch window is zero or negative", WARNING),
    CodeSpec("RPA111", "retired: result caching enabled with a zero-entry cache", WARNING),
    CodeSpec("RPA112", "tenant fairness weight starves a tenant", ERROR),
    CodeSpec("RPA113", "retired: micro-batching without vectorized execution", WARNING),
    CodeSpec("RPA114", "request deadline shorter than the batch window", WARNING),
    CodeSpec("RPA115", "max_frame_bytes cannot carry one feature row", ERROR),
    CodeSpec("RPA116", "retired: stream threshold set on a non-streaming transport", WARNING),
    # ------------------------------------------------ codebase lint (RPA3xx)
    CodeSpec("RPA301", "xp-parameterized kernel hardwires NumPy ops", ERROR),
    CodeSpec("RPA302", "frozen-dataclass mutation outside __post_init__", ERROR),
    CodeSpec("RPA303", "public API function missing complete type annotations", ERROR),
    CodeSpec("RPA304", "kernel module imports an accelerator library directly", ERROR),
    CodeSpec("RPA305", "kernel module draws randomness in a hot path", ERROR),
)


@dataclass(frozen=True)
class Diagnostic:
    """One finding: stable code, severity, human message, actionable hint.

    ``location`` is free-form context (``"path.py:12"`` for source checks,
    ``"circuit 'encode' op 3"`` for IR checks, ``""`` for whole-config
    findings).  ``severity`` defaults to the code's registered severity.
    """

    code: str
    message: str
    severity: str = ""
    fix_hint: str = ""
    location: str = ""

    def __post_init__(self) -> None:
        spec = DIAGNOSTIC_CODES.get(self.code)
        if spec is None:
            raise ValueError(f"unregistered diagnostic code {self.code!r}")
        if not self.severity:
            object.__setattr__(self, "severity", spec.default_severity)
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    @property
    def title(self) -> str:
        """The registered one-line title of this diagnostic's code."""
        return DIAGNOSTIC_CODES[self.code].title

    def render(self) -> str:
        """One human-readable line (the ``repro lint`` text format)."""
        where = f"{self.location}: " if self.location else ""
        hint = f"  [fix: {self.fix_hint}]" if self.fix_hint else ""
        return f"{self.code} {self.severity}: {where}{self.message}{hint}"

    def to_dict(self) -> dict[str, str]:
        """JSON-safe representation (the ``repro lint --json`` format)."""
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "fix_hint": self.fix_hint,
            "location": self.location,
        }


_SEVERITY_ORDER = {severity: rank for rank, severity in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class DiagnosticReport:
    """An immutable batch of diagnostics with severity accessors.

    Reports merge with ``+`` so each analysis layer stays independently
    testable while callers (CLI, preflight, ``QuantumDevice.check``) combine
    them into one verdict.  ``ok`` is the admission decision: no
    error-severity findings (warnings and infos do not reject a job).
    """

    diagnostics: tuple[Diagnostic, ...] = ()

    @classmethod
    def collect(cls, items: Iterable[Diagnostic]) -> DiagnosticReport:
        """A report over ``items``, sorted most-severe first (stable)."""
        ordered = sorted(items, key=lambda d: (_SEVERITY_ORDER[d.severity], d.code))
        return cls(tuple(ordered))

    # ------------------------------------------------------------- accessors
    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == WARNING)

    @property
    def infos(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == INFO)

    @property
    def ok(self) -> bool:
        """True when nothing at error severity was found."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """True when nothing at all was found (the ``--strict`` bar)."""
        return not self.diagnostics

    def codes(self) -> tuple[str, ...]:
        """The distinct codes present, sorted (test/table ergonomics)."""
        return tuple(sorted({d.code for d in self.diagnostics}))

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __add__(self, other: DiagnosticReport) -> DiagnosticReport:
        return DiagnosticReport.collect(self.diagnostics + other.diagnostics)

    # -------------------------------------------------------------- renderers
    def render(self) -> str:
        """The text report: one line per diagnostic plus a summary line."""
        lines = [d.render() for d in self.diagnostics]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} info(s)"
        )
        return "\n".join(lines)

    def to_json(self, indent: int | None = None) -> str:
        """JSON array of :meth:`Diagnostic.to_dict` entries."""
        return json.dumps([d.to_dict() for d in self.diagnostics], indent=indent)
