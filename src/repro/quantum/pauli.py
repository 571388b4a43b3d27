"""Heisenberg-picture Pauli propagation for Clifford ensembles (Appendix A).

Appendix A writes every feature as ``tr(U_a^dag O_b U_a rho(x))``.  When
the bound Ansatz instance ``U_a`` is a Clifford circuit, the conjugated
observable is one signed Pauli string, ``U_a^dag O_b U_a = s * P``
(Gottesman-Knill; Aaronson & Gottesman, arXiv:quant-ph/0406196).  The
Fig. 7 encoder has no entangler, so ``rho(x)`` is a product of single-qubit
states with Bloch vectors ``r_q(x)``, and the feature collapses to
``Q_ij = s * prod_q r_q(x_i)[P_q]`` -- O(n) work per entry, no ``2^n``
statevector.  At the paper's expansion point theta = 0 every parameter
shift is +-pi/2 (Sec. IV.A), so every shifted instance of the Fig. 8 and
hardware-efficient Ansaetze is Clifford.

Three pieces:

* :func:`conjugation_table` -- for one (gate, angle), the signed
  permutation ``U^dag P U = s * P'`` over the gate's ``4^k`` Paulis, or
  ``None`` when the gate is not Clifford at that angle.  One table serves
  both directions: observables propagate backwards through the Ansatz, and
  a fixed encoder gate moves a Bloch vector by ``r'[P] = s * r[P']``.
* :func:`propagate` -- every (instance, observable) column in ONE reverse
  pass over the unbound Ansatz, one vectorized step per (gate, distinct
  angle); returns the ensemble's :class:`PauliProgram` -- its distinct
  strings, and each column's string and sign -- or ``None`` as soon as an
  instance is not Clifford.
* :func:`bloch_vectors` -- the encoder's per-qubit Bloch vectors for a raw
  angle batch, by closed-form rotations on ``(d,)`` columns.

Columns repeat up to sign (17 columns of an order-1 shift ensemble measured
on one observable conjugate to 8 distinct strings), so a sweep multiplies
Bloch components once per (row, distinct string) and fills every column by
a signed gather.  Every per-row operation is elementwise (no matmul, einsum
or BLAS call across rows), so a row's features are bit-identical whatever
batch it arrives in -- the property serve coalescing and row slicing rely
on.

Letter codes: 0 = I, 1 = X, 2 = Y, 3 = Z; a ``k``-qubit Pauli's table
index is its letters read base 4, the gate's first qubit most significant.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.quantum.circuit import Circuit, Parameter
from repro.quantum.gates import GATE_NUM_QUBITS, PAULI_MATRICES, gate_matrix
from repro.quantum.observables import PauliString

__all__ = [
    "ConjugationTable",
    "PauliProgram",
    "bloch_vectors",
    "clear_pauli_tables",
    "conjugation_table",
    "propagate",
]

_LETTERS = "IXYZ"
_CODES = {letter: code for code, letter in enumerate(_LETTERS)}
#: Coefficients of ``U^dag P U`` this close to 0 or +-1 count as exact.
_TOL = 1e-12
#: The Bloch-vector plane each rotation turns, as (b, c) letter codes:
#: ``r_b' = r_b cos t - r_c sin t``, ``r_c' = r_b sin t + r_c cos t``.
#: ``phase(t)`` is ``rz(t)`` up to a global phase.
_ROTATION_PLANES = {"rx": (2, 3), "ry": (3, 1), "rz": (1, 2), "phase": (1, 2)}


@dataclass(frozen=True)
class ConjugationTable:
    """``U^dag P U = signs[P] * P'`` with ``P' = images[P]``, per Pauli index."""

    signs: np.ndarray
    images: np.ndarray


def _pauli_basis(k: int) -> np.ndarray:
    """``(4^k, 2^k, 2^k)`` Pauli matrices in table-index order."""
    mats = [np.ones((1, 1), dtype=np.complex128)]
    for _ in range(k):
        mats = [np.kron(m, PAULI_MATRICES[c]) for m in mats for c in _LETTERS]
    return np.stack(mats)


_BASES = {k: _pauli_basis(k) for k in (1, 2)}
# (gate, angle) -> table.  Non-Clifford lookups are not kept: a pass stops
# at the first one, and keeping them would grow the cache with every
# distinct angle ever tried.  No lock: threads that race on a key only
# build equal tables twice.
_TABLES: dict[tuple[str, float | None], ConjugationTable] = {}


def _build_table(gate: str, param: float | None) -> ConjugationTable | None:
    u = gate_matrix(gate, param)
    basis = _BASES[GATE_NUM_QUBITS[gate]]
    conjugated = u.conj().T @ basis @ u
    # coeffs[p, q] = tr(Q U^dag P U) / 2^k: the Pauli expansion of each image.
    coeffs = np.einsum("qij,pji->pq", basis, conjugated) / u.shape[0]
    rounded = np.round(coeffs.real)
    if np.abs(coeffs - rounded).max() > _TOL or np.any(np.abs(rounded).sum(axis=1) != 1):
        return None
    images = np.argmax(np.abs(rounded), axis=1)
    return ConjugationTable(signs=rounded[np.arange(len(images)), images], images=images)


def conjugation_table(gate: str, param: float | None = None) -> ConjugationTable | None:
    """The Clifford conjugation table of ``gate`` at ``param``, or ``None``.

    Built from :func:`~repro.quantum.gates.gate_matrix`: the table exists
    only when every coefficient of every ``U^dag P U`` is within 1e-12 of
    0 or +-1.  Tables are cached per (gate, angle) until
    :func:`clear_pauli_tables` (which
    :func:`~repro.quantum.compile.clear_compile_cache` calls).
    """
    key = (gate, None if param is None else float(param))
    table = _TABLES.get(key)
    if table is None:
        table = _build_table(*key)
        if table is not None:
            _TABLES[key] = table
    return table


def clear_pauli_tables() -> None:
    """Drop every cached conjugation table."""
    _TABLES.clear()


@dataclass(frozen=True)
class PauliProgram:
    """An ensemble's observables in the Heisenberg picture, one string each.

    Column ``c = a * q + b`` (Ansatz instance ``a``, observable ``b``) is
    ``U_a^dag O_b U_a = signs[c] * P``, where ``P`` is distinct string
    ``index[c]`` and ``letters[s]`` holds the ``n`` letter codes of distinct
    string ``s``.  A sweep evaluates the ``S = len(letters)`` strings per
    row (:meth:`expectations`) and fills all ``p * q`` columns from them
    (:meth:`gather`).  Plain arrays, so the program pickles to process
    workers; a job ships the Bloch vectors of its rows alongside.
    """

    letters: np.ndarray
    index: np.ndarray
    signs: np.ndarray

    def expectations(self, bloch: np.ndarray) -> np.ndarray:
        """``(d, n, 4)`` Bloch vectors -> ``(d, S)``: ``<P_s>`` on each row's
        product state, the product of its per-qubit Bloch components.

        Elementwise products in a fixed qubit order: each entry's bits
        depend on its own row only.
        """
        columns = self.letters.T
        values = bloch[:, 0, columns[0]]
        for qubit in range(1, len(columns)):
            values *= bloch[:, qubit, columns[qubit]]
        return values

    def gather(self, values: np.ndarray, out: np.ndarray) -> None:
        """Fill ``(d, p * q)`` ``out`` from ``(d, S)`` :meth:`expectations`:
        column ``c`` is ``signs[c] * values[:, index[c]]``.

        Exact: a sign is +-1, so applying it last gives the bits applying it
        first would.
        """
        # The indices are in range by construction; "clip" lets np.take write
        # ``out`` directly, where the default mode fills a buffered copy.
        np.take(values, self.index, axis=1, out=out, mode="clip")
        out *= self.signs


def _conjugate(
    letters: np.ndarray,
    signs: np.ndarray,
    rows: np.ndarray | slice,
    qubits: tuple[int, ...],
    table: ConjugationTable,
) -> None:
    """Conjugate ``rows`` of the (letters, signs) stack by one gate, in place."""
    index = letters[rows, qubits[0]]
    if len(qubits) == 2:
        index = 4 * index + letters[rows, qubits[1]]
    signs[rows] *= table.signs[index]
    # Gathered before any write: ``index`` may be a view into ``letters``.
    image = table.images[index]
    if len(qubits) == 1:
        letters[rows, qubits[0]] = image
    else:
        letters[rows, qubits[0]], letters[rows, qubits[1]] = np.divmod(image, 4)


def propagate(
    circuit: Circuit | None,
    parameter_sets: Sequence[np.ndarray],
    observables: Sequence[PauliString],
) -> PauliProgram | None:
    """Conjugate every observable by every bound instance of ``circuit``.

    One reverse pass over the *unbound* gate list covers all ``p x q``
    (instance, observable) columns: a parametric gate reads each instance's
    angle from ``parameter_sets`` and takes one vectorized step per distinct
    angle.  Returns the ensemble's :class:`PauliProgram`, its strings
    deduplicated, or ``None`` at the first gate that is not Clifford at some
    instance's angle.  ``circuit`` None (or gate-free) is the identity
    Ansatz.
    """
    p, q = len(parameter_sets), len(observables)
    letters = np.tile(
        np.array([[_CODES[c] for c in o.string] for o in observables], dtype=np.intp),
        (p, 1),
    )
    signs = np.ones(p * q)
    thetas = np.asarray(parameter_sets, dtype=float).reshape(p, -1)
    instance = np.repeat(np.arange(p), q)
    for op in reversed([] if circuit is None else circuit.operations):
        if isinstance(op.param, Parameter):
            values, which = np.unique(thetas[:, op.param.index], return_inverse=True)
            row_group = which[instance]
            steps: list = [(float(v), row_group == g) for g, v in enumerate(values)]
        else:
            steps = [(op.param, slice(None))]
        for angle, rows in steps:
            table = conjugation_table(op.gate, angle)
            if table is None:
                return None
            _conjugate(letters, signs, rows, op.qubits, table)
    # One void scalar per row of letter codes: rows compare byte for byte,
    # so every register width dedupes the same way (a base-4 integer key
    # would overflow int64 past 32 qubits).
    codes = letters.astype(np.uint8)
    distinct, index = np.unique(
        codes.view(np.dtype((np.void, codes.shape[1]))).ravel(), return_inverse=True
    )
    return PauliProgram(
        letters=distinct.view(np.uint8).reshape(len(distinct), -1),
        index=index,
        signs=signs,
    )


def bloch_vectors(template: Circuit, angles: np.ndarray) -> np.ndarray:
    """Per-qubit Bloch vectors ``(1, <X>, <Y>, <Z>)`` of the encoded states.

    ``template`` is a single-qubit-gate encoder whose symbolic slot ``i``
    takes column ``i`` of the flattened ``(d, ...)`` ``angles`` batch (the
    :func:`~repro.data.encoding.encoding_template` layout).  Angle slots
    rotate ``(d,)`` columns in closed form; fixed gates apply their signed
    permutation.  Returns ``(d, n, 4)``.
    """
    d = angles.shape[0]
    # Contiguous per-slot columns: the trig kernels see the same layout
    # whatever the batch size, so a row's bits never depend on its batch.
    slots = np.ascontiguousarray(np.asarray(angles, dtype=float).reshape(d, -1).T)
    bloch = np.zeros((d, template.num_qubits, 4))
    bloch[:, :, 0] = bloch[:, :, 3] = 1.0  # |0>: <I> = <Z> = 1
    for op in template:
        if len(op.qubits) != 1:
            raise ValueError(f"encoder gate {op.gate!r} on {op.qubits} is not single-qubit")
        r = bloch[:, op.qubits[0]]
        if op.param is None:
            table = conjugation_table(op.gate)
            if table is None:
                raise ValueError(f"encoder gate {op.gate!r} has no Clifford table")
            r[:] = r[:, table.images] * table.signs
            continue
        theta = slots[op.param.index] if isinstance(op.param, Parameter) else op.param
        cos, sin = np.cos(theta), np.sin(theta)
        b, c = _ROTATION_PLANES[op.gate]
        r[:, b], r[:, c] = r[:, b] * cos - r[:, c] * sin, r[:, b] * sin + r[:, c] * cos
    return bloch
