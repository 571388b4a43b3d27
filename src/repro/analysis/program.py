"""Program lint: circuit/template IR diagnostics without execution.

Analyzes a :class:`~repro.quantum.circuit.Circuit` -- bound or an unbound
template -- the way a compiler front-end would: structural validity first
(wires, gate table, parameter shape), then batched admissibility (will the
batched engine accept the template, or silently fall back per-sample?),
then the noise model's physical consistency (trace preservation, channels
that can never fire).  Nothing here prepares a single amplitude, so a
mis-built job is rejected at admission instead of ``4^n`` stacked passes
into a sweep.  Sharding is not a program property: a sharded sweep always
runs the grouped compiled engine, whatever gates the circuit uses.

``Circuit.append`` already validates most structural properties at build
time, but the IR is deliberately open -- the library itself constructs
circuits by assigning ``operations`` directly (``bind``, ``compose``,
``extend_template``), and serialized or generated programs enter the same
way -- so the linter re-checks the invariants on the final gate list.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quantum.circuit import Circuit

__all__ = ["lint_circuit", "lint_noise_model"]


def _op_location(circuit: Circuit, index: int) -> str:
    return f"circuit {circuit.name!r} op {index}"


def _lint_operations(circuit: Circuit) -> list[Diagnostic]:
    """RPA001/RPA002: structural validity of the raw gate list."""
    from repro.quantum.circuit import Parameter
    from repro.quantum.gates import GATE_NUM_QUBITS, is_parametric

    found: list[Diagnostic] = []
    n = circuit.num_qubits
    for index, op in enumerate(circuit.operations):
        where = _op_location(circuit, index)
        arity = GATE_NUM_QUBITS.get(op.gate)
        if arity is None:
            found.append(
                Diagnostic(
                    "RPA002",
                    f"unknown gate {op.gate!r}",
                    fix_hint="use a gate from repro.quantum.gates.GATE_NUM_QUBITS",
                    location=where,
                )
            )
            continue
        if len(op.qubits) != arity:
            found.append(
                Diagnostic(
                    "RPA002",
                    f"gate {op.gate!r} acts on {arity} qubit(s), got {op.qubits}",
                    fix_hint="match the operand count to the gate arity",
                    location=where,
                )
            )
        if is_parametric(op.gate):
            if op.param is None:
                found.append(
                    Diagnostic(
                        "RPA002",
                        f"parametric gate {op.gate!r} carries no angle or slot",
                        fix_hint="bind a float angle or register a Parameter",
                        location=where,
                    )
                )
        elif op.param is not None:
            found.append(
                Diagnostic(
                    "RPA002",
                    f"fixed gate {op.gate!r} carries a parameter {op.param!r}",
                    fix_hint="drop the parameter (fixed gates take none)",
                    location=where,
                )
            )
        bad_wires = sorted({q for q in op.qubits if not 0 <= q < n})
        if bad_wires:
            found.append(
                Diagnostic(
                    "RPA001",
                    f"gate {op.gate!r} touches wire(s) {bad_wires} outside the "
                    f"{n}-qubit register",
                    fix_hint=f"wires must lie in [0, {n}); widen the register "
                    f"or remap the gate",
                    location=where,
                )
            )
        if len(set(op.qubits)) != len(op.qubits):
            found.append(
                Diagnostic(
                    "RPA001",
                    f"gate {op.gate!r} repeats a wire in {op.qubits}",
                    fix_hint="multi-qubit gates need distinct wires",
                    location=where,
                )
            )
        if isinstance(op.param, Parameter) and op.param.index < 0:
            found.append(
                Diagnostic(
                    "RPA002",
                    f"parameter {op.param.name!r} has negative slot index "
                    f"{op.param.index}",
                    fix_hint="register parameters via Circuit.add_parameter",
                    location=where,
                )
            )
    return found


def _lint_vectorize(circuit: Circuit) -> list[Diagnostic]:
    """RPA003: unbound slots the batched engine cannot keep symbolic.

    ``compile_parametric`` only chains *single-qubit* rotations
    (:data:`~repro.quantum.batched.BATCHED_ROTATIONS`); any other unbound
    gate makes the template non-compilable, and the feature pipeline then
    silently runs the per-sample reference path under ``vectorize="auto"``.
    Reported as a warning with the defeating gate named, so the fallback is
    visible before a sweep is priced on stacked passes.
    """
    from repro.quantum.batched import BATCHED_ROTATIONS
    from repro.quantum.circuit import Parameter

    found: list[Diagnostic] = []
    for index, op in enumerate(circuit.operations):
        if isinstance(op.param, Parameter) and op.gate not in BATCHED_ROTATIONS:
            found.append(
                Diagnostic(
                    "RPA003",
                    f"unbound {op.gate!r} cannot stay symbolic in a batched "
                    f"template (only {sorted(BATCHED_ROTATIONS)} chain); "
                    f"vectorize='auto' will fall back to the per-sample path",
                    fix_hint="bind this gate before the sweep, or express the "
                    "slot as a single-qubit rotation",
                    location=_op_location(circuit, index),
                )
            )
    return found


def lint_noise_model(
    noise_model: Any, circuit: Circuit | None = None, atol: float = 1e-10
) -> DiagnosticReport:
    """RPA005/RPA006: physical consistency of a gate-count noise model.

    ``noise_model`` is a :class:`~repro.quantum.noise.NoiseModel` (or any
    object with ``one_qubit`` / ``two_qubit`` Kraus lists).  RPA006 flags
    channels violating trace preservation ``sum_k K^dag K = I`` within
    ``atol`` (including empty Kraus lists, which annihilate the state);
    with a ``circuit``, RPA005 flags channel arities no gate ever triggers
    -- the noise the study claims to apply would never fire.
    """
    found: list[Diagnostic] = []
    if noise_model is None:
        return DiagnosticReport.collect(found)
    arities = {len(op.qubits) for op in circuit.operations} if circuit is not None else None
    for label, arity in (("one_qubit", 1), ("two_qubit", 2)):
        kraus = getattr(noise_model, label, None)
        if kraus is None:
            continue
        defect = _kraus_defect(kraus, atol)
        if defect is not None:
            found.append(
                Diagnostic(
                    "RPA006",
                    f"{label} channel is not trace-preserving: {defect}",
                    fix_hint="normalize the Kraus set so sum_k K^dag K = I "
                    "(see repro.quantum.noise.validate_kraus)",
                    location=f"noise_model.{label}",
                )
            )
        if arities is not None and arity not in arities:
            found.append(
                Diagnostic(
                    "RPA005",
                    f"{label} channel defined but the circuit has no "
                    f"{arity}-qubit gate, so it never fires",
                    fix_hint="drop the unused channel, or check the circuit "
                    "is the one you meant to run noisily",
                    location=f"noise_model.{label}",
                )
            )
    return DiagnosticReport.collect(found)


def _kraus_defect(kraus: Sequence[Any], atol: float) -> str | None:
    """A human-readable completeness defect, or None when trace-preserving."""
    ops = [np.asarray(k, dtype=np.complex128) for k in kraus]
    if not ops:
        return "empty Kraus list (annihilates every state)"
    dim = ops[0].shape[0]
    total = np.zeros((dim, dim), dtype=np.complex128)
    for op in ops:
        if op.shape != (dim, dim):
            return f"mixed operator shapes {sorted({o.shape for o in ops})}"
        total += op.conj().T @ op
    deviation = float(np.max(np.abs(total - np.eye(dim))))
    if deviation > atol:
        return f"max |sum K^dag K - I| = {deviation:.3e} (tol {atol:.0e})"
    return None


def lint_circuit(
    circuit: Circuit,
    *,
    noise_model: Any = None,
    kraus_atol: float = 1e-10,
) -> DiagnosticReport:
    """Full program lint of one circuit/template under a plan context.

    Pure inspection -- no state preparation, no binding, no compilation.
    ``noise_model`` enables the channel checks (RPA005/RPA006); it
    defaults to "not part of the plan".
    """
    found = _lint_operations(circuit)
    found += _lint_vectorize(circuit)
    report = DiagnosticReport.collect(found)
    return report + lint_noise_model(noise_model, circuit, atol=kraus_atol)
