"""Data-encoding circuit of paper Fig. 7.

"We then encode each column into a single qubit by iterating between RZ and
RX gates": qubit ``c`` carries column ``c`` of the pooled 4x4 image; row 0
enters as RZ, row 1 as RX, row 2 as RZ, row 3 as RX.  An initial Hadamard
layer precedes the rotations so the leading RZ acts non-trivially on |0>
(RZ is diagonal, hence a global phase on |0> -- the H layer is the standard
choice that makes the alternating RZ/RX encoding injective in all angles).

Two code paths produce identical states (tested):

* :func:`encoding_circuit` -- the explicit Fig. 7 :class:`Circuit`, gate for
  gate, for inspection/transpilation;
* :func:`encode_batch` -- a vectorised kernel that prepares all d states in
  one pass using per-sample batched rotations (the HPC-friendly hot path).
"""

from __future__ import annotations

import numpy as np

from repro.quantum.circuit import Circuit
from repro.quantum.gates import H, rotation_batch
from repro.quantum.statevector import apply_matrix_batch, zero_state

__all__ = [
    "encoding_circuit",
    "encoding_template",
    "encode_batch",
    "encoded_dimension",
]


def encoded_dimension(num_qubits: int) -> int:
    """Hilbert-space dimension of the encoded register."""
    return 2**num_qubits


def encoding_circuit(features: np.ndarray) -> Circuit:
    """Fig. 7 circuit for one pooled image (rows x cols, cols = qubits)."""
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 2:
        raise ValueError("features must be a (rows, cols) array")
    rows, cols = feats.shape
    circuit = Circuit(cols, name="encode")
    for q in range(cols):
        circuit.append("h", q)
    for r in range(rows):
        gate = "rz" if r % 2 == 0 else "rx"
        for q in range(cols):
            circuit.append(gate, q, float(feats[r, q]))
    return circuit


def encoding_template(rows: int, cols: int) -> Circuit:
    """The Fig. 7 circuit with *symbolic* angles: one slot per (row, col).

    Parameter ``r * cols + q`` carries feature ``(r, q)`` -- first-use
    registration order matches the C-order flattening of a
    ``(d, rows, cols)`` angle batch, so
    ``ParametricCompiledCircuit.apply_batch(angles)`` consumes the raw
    batch directly.  This is the shared structure the batched engine
    compiles once per Ansatz instance and reuses for every data chunk.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"encoding template needs rows, cols >= 1, got {rows}x{cols}")
    circuit = Circuit(cols, name="encode")
    for q in range(cols):
        circuit.append("h", q)
    for r in range(rows):
        gate = "rz" if r % 2 == 0 else "rx"
        for q in range(cols):
            circuit.append(gate, q, f"x_{r}_{q}")
    return circuit


def encode_batch(features: np.ndarray) -> np.ndarray:
    """Vectorised Fig. 7 encoding of a whole dataset.

    ``features`` is (d, rows, cols); returns (d, 2**cols) statevectors.
    Equivalent to running :func:`encoding_circuit` per sample but ~d times
    fewer Python-level gate applications (each gate is applied to the whole
    batch with per-sample angles).
    """
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 3:
        raise ValueError("features must be a (d, rows, cols) batch")
    d, rows, cols = feats.shape
    states = zero_state(cols, batch=d)
    for q in range(cols):
        states = apply_matrix_batch(states, H, (q,))
    for r in range(rows):
        kind = "rz" if r % 2 == 0 else "rx"
        for q in range(cols):
            states = apply_matrix_batch(states, rotation_batch(kind, feats[:, r, q]), (q,))
    return states
