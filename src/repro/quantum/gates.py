"""Quantum gate matrices and metadata.

All gates are dense complex128 NumPy matrices in the computational basis.
Qubit 0 is the *most significant* bit of a basis index (big-endian), matching
the string convention of :mod:`repro.quantum.observables` where ``"XZ"`` means
X on qubit 0 and Z on qubit 1.

Two registries are exposed:

* :data:`FIXED_GATES` -- parameter-free gates, name -> matrix.
* :data:`PARAMETRIC_GATES` -- name -> callable(theta) returning the matrix.

:func:`rotation_batch` builds the per-sample ``(batch, 2, 2)`` stacks of the
:data:`BATCHED_ROTATIONS` under any array namespace (:mod:`repro.xp`).

Rotation gates follow the physics convention ``R_P(theta) = exp(-i theta P/2)``
so that the parameter-shift rule of Mitarai et al. (shift +-pi/2) applies
exactly (paper Sec. IV.A).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.xp import get_namespace

__all__ = [
    "I2",
    "X",
    "Y",
    "Z",
    "H",
    "S",
    "SDG",
    "T",
    "TDG",
    "CNOT",
    "CZ",
    "SWAP",
    "rx",
    "ry",
    "rz",
    "crx",
    "cry",
    "crz",
    "phase",
    "BATCHED_ROTATIONS",
    "rotation_batch",
    "FIXED_GATES",
    "PARAMETRIC_GATES",
    "GATE_NUM_QUBITS",
    "gate_matrix",
    "is_parametric",
    "PAULI_MATRICES",
]

I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=np.complex128)
SDG = S.conj().T
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128)
TDG = T.conj().T

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)
CZ = np.diag([1, 1, 1, -1]).astype(np.complex128)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)

#: Pauli letter -> matrix, used throughout the observable machinery.
PAULI_MATRICES: dict[str, np.ndarray] = {"I": I2, "X": X, "Y": Y, "Z": Z}


def rx(theta: float) -> np.ndarray:
    """Rotation about X: ``exp(-i theta X / 2)``."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def ry(theta: float) -> np.ndarray:
    """Rotation about Y: ``exp(-i theta Y / 2)``."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def rz(theta: float) -> np.ndarray:
    """Rotation about Z: ``exp(-i theta Z / 2)``."""
    e = np.exp(-1j * theta / 2)
    return np.array([[e, 0], [0, e.conjugate()]], dtype=np.complex128)


def phase(theta: float) -> np.ndarray:
    """Diagonal phase gate ``diag(1, e^{i theta})``."""
    return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=np.complex128)


#: Single-qubit rotations :func:`rotation_batch` builds per sample: the
#: gates a batched template may keep as angle slots.  Unbound multi-qubit
#: rotations must be bound before compilation -- the sweep only ever keeps
#: *encoding* rotations symbolic, which are single-qubit by construction
#: (Fig. 7).
BATCHED_ROTATIONS: frozenset[str] = frozenset({"rx", "ry", "rz", "phase"})


def rotation_batch(kind: str, angles: np.ndarray, xp=None) -> np.ndarray:
    """``(batch, 2, 2)`` stack of ``kind`` rotation matrices, one per angle.

    The single source of the per-sample rotation math shared by the Fig. 7
    encoder kernel (:func:`repro.data.encoding.encode_batch`), the batched
    engine's angle slots (:class:`repro.quantum.batched.AngleChain`) and
    the stacked density walker.  ``angles`` is a 1-D real array on ``xp``'s
    device (:mod:`repro.xp`; ``None`` is NumPy); the trig runs on the real
    angles and lands in complex zeros by slice assignment.
    """
    xp = xp or get_namespace("numpy")
    out = xp.zeros((angles.shape[0], 2, 2))
    if kind in ("rx", "ry"):
        c, s = xp.cos(angles / 2), xp.sin(angles / 2)
        out[:, 0, 0] = out[:, 1, 1] = c
        if kind == "rx":
            out[:, 0, 1] = out[:, 1, 0] = -1j * s
        else:
            out[:, 0, 1], out[:, 1, 0] = -s, s
    elif kind == "rz":
        e = xp.exp(-0.5j * angles)
        out[:, 0, 0] = e
        out[:, 1, 1] = xp.conj(e)
    elif kind == "phase":
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = xp.exp(1j * angles)
    else:
        raise KeyError(f"unknown batched rotation {kind!r}")
    return out


def _controlled(u: np.ndarray) -> np.ndarray:
    out = np.eye(4, dtype=np.complex128)
    out[2:, 2:] = u
    return out


def crx(theta: float) -> np.ndarray:
    """Controlled-RX on (control, target)."""
    return _controlled(rx(theta))


def cry(theta: float) -> np.ndarray:
    """Controlled-RY on (control, target)."""
    return _controlled(ry(theta))


def crz(theta: float) -> np.ndarray:
    """Controlled-RZ on (control, target)."""
    return _controlled(rz(theta))


FIXED_GATES: dict[str, np.ndarray] = {
    "i": I2,
    "x": X,
    "y": Y,
    "z": Z,
    "h": H,
    "s": S,
    "sdg": SDG,
    "t": T,
    "tdg": TDG,
    "cnot": CNOT,
    "cx": CNOT,
    "cz": CZ,
    "swap": SWAP,
}

PARAMETRIC_GATES: dict[str, Callable[[float], np.ndarray]] = {
    "rx": rx,
    "ry": ry,
    "rz": rz,
    "phase": phase,
    "crx": crx,
    "cry": cry,
    "crz": crz,
}

GATE_NUM_QUBITS: dict[str, int] = {
    **{name: 1 for name in ("i", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "phase")},
    **{name: 2 for name in ("cnot", "cx", "cz", "swap", "crx", "cry", "crz")},
}

#: Gates whose generator is a Pauli with eigenvalues +-1/2 -- the exact
#: two-term parameter-shift rule (shift +-pi/2, coefficient 1/2) applies.
PAULI_ROTATIONS: frozenset[str] = frozenset({"rx", "ry", "rz"})


def is_parametric(name: str) -> bool:
    """True when the gate named ``name`` takes an angle parameter."""
    return name in PARAMETRIC_GATES


def gate_matrix(name: str, param: float | None = None) -> np.ndarray:
    """Resolve a gate name (and optional angle) to its dense matrix."""
    key = name.lower()
    if key in FIXED_GATES:
        if param is not None:
            raise ValueError(f"gate {name!r} takes no parameter")
        return FIXED_GATES[key]
    if key in PARAMETRIC_GATES:
        if param is None:
            raise ValueError(f"gate {name!r} requires a parameter")
        return PARAMETRIC_GATES[key](float(param))
    raise KeyError(f"unknown gate {name!r}")
