"""Batched statevector simulator.

The hot loop of the post-variational method evaluates the *same* fixed
circuit on *every* data point (paper Algorithm 1: ``Q_ij = <0|S(x_i)^dag
U(theta_j)^dag O_j U(theta_j) S(x_i)|0>``).  Following the HPC guideline of
vectorising the innermost loops, states are stored as ``(batch, 2**n)``
complex arrays and every gate is applied to the whole batch with a single
einsum -- one BLAS-grade operation per gate instead of ``batch`` Python-level
circuit executions.

Conventions
-----------
* Qubit 0 is the most significant bit of a computational-basis index.
* States are C-contiguous ``complex128``; kernels preserve contiguity
  (cache-friendliness per the optimisation guide).
* A kernel that takes ``xp`` has one body written against that array
  namespace (:mod:`repro.xp`); ``xp=None`` is NumPy.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.quantum.circuit import Circuit
from repro.quantum.gates import gate_matrix
from repro.utils.rng import as_rng
from repro.utils.validation import check_power_of_two
from repro.xp import get_namespace

__all__ = [
    "zero_state",
    "basis_state",
    "apply_matrix",
    "apply_matrix_batch",
    "run_circuit",
    "probabilities",
    "sample_counts",
    "fidelity",
    "StatevectorSimulator",
]


def zero_state(num_qubits: int, batch: int | None = None) -> np.ndarray:
    """Return |0...0> as shape ``(2**n,)`` or ``(batch, 2**n)``."""
    dim = 2**num_qubits
    if batch is None:
        state = np.zeros(dim, dtype=np.complex128)
        state[0] = 1.0
    else:
        state = np.zeros((batch, dim), dtype=np.complex128)
        state[:, 0] = 1.0
    return state


def basis_state(num_qubits: int, index: int) -> np.ndarray:
    """Return the computational basis state |index>."""
    dim = 2**num_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    state = np.zeros(dim, dtype=np.complex128)
    state[index] = 1.0
    return state


def _as_batch(state: np.ndarray) -> tuple[np.ndarray, bool]:
    """View ``state`` as (batch, dim); report whether input was unbatched."""
    if state.ndim == 1:
        return state[None, :], True
    if state.ndim == 2:
        return state, False
    raise ValueError(f"state must be 1-D or 2-D, got ndim={state.ndim}")


def apply_matrix(
    state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    """Apply a k-qubit unitary ``matrix`` to ``qubits`` of ``state``.

    Works on single states and batches; returns a new array.  The kernel
    reshapes the batch into ``(batch, left, 2, mid, 2, right, ...)`` blocks
    around the target axes and contracts with one einsum.
    """
    batch, squeeze = _as_batch(np.asarray(state, dtype=np.complex128))
    out = apply_matrix_batch(batch, matrix, qubits)
    return out[0] if squeeze else out


def apply_matrix_batch(
    states: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], *, xp=None
) -> np.ndarray:
    """Batched unitary application; ``states`` must be ``(batch, 2**n)``.

    ``matrix`` may be ``(2**k, 2**k)`` (shared across the batch) or
    ``(batch, 2**k, 2**k)`` (a distinct matrix per batch element -- used by
    data-encoding layers where each sample carries its own rotation angle).

    ``xp`` selects the array namespace (:mod:`repro.xp`; ``None`` is
    NumPy); inputs and output stay on its device.
    """
    xp = xp or get_namespace("numpy")
    states = xp.ascontiguous(xp.ascomplex(states))
    b, dim = states.shape
    n = check_power_of_two(dim, "state dimension")
    qubits = [int(q) for q in qubits]
    k = len(qubits)
    if len(set(qubits)) != k:
        raise ValueError(f"duplicate qubits {qubits}")
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for n={n}")
    matrix = xp.ascomplex(matrix)
    per_sample = matrix.ndim == 3
    expected = (b, 2**k, 2**k) if per_sample else (2**k, 2**k)
    if tuple(matrix.shape) != expected:
        raise ValueError(f"matrix shape {tuple(matrix.shape)} != expected {expected}")

    # Move target qubit axes to the front (after batch), apply, move back.
    tensor = states.reshape((b,) + (2,) * n)
    src = [1 + q for q in qubits]
    dst = list(range(1, 1 + k))
    tensor = xp.moveaxis(tensor, src, dst)
    rest = tuple(tensor.shape[1 + k :])
    tensor = tensor.reshape(b, 2**k, -1)
    spec = "bij,bjr->bir" if per_sample else "ij,bjr->bir"
    tensor = xp.einsum(spec, matrix, tensor)
    tensor = tensor.reshape((b,) + (2,) * k + rest)
    tensor = xp.moveaxis(tensor, dst, src)
    return xp.ascontiguous(tensor.reshape(b, dim))


def run_circuit(
    circuit: Circuit,
    state: np.ndarray | None = None,
    params: Sequence[float] | None = None,
    compile: str | int = "off",
) -> np.ndarray:
    """Evolve ``state`` (default |0..0>) through ``circuit``.

    Unbound circuits require ``params``.  ``state`` may be a batch; the same
    bound circuit is applied to every batch element.

    ``compile`` selects the execution engine: ``"off"`` walks the gate list
    (one einsum per gate, the reference semantics), ``"auto"`` or an int
    ``k >= 1`` routes through :func:`repro.quantum.compile.compile_circuit`
    -- gates are fused into blocks of support <= k and the compiled program
    is cached, so repeated calls on the same bound circuit skip straight to
    the fused kernels.
    """
    if not circuit.is_bound:
        if params is None:
            raise ValueError(f"circuit has {circuit.num_parameters} unbound parameters")
        circuit = circuit.bind(params)
    elif params is not None and len(params) != 0:
        raise ValueError("params given for an already-bound circuit")
    if state is None:
        state = zero_state(circuit.num_qubits)
    batch, squeeze = _as_batch(np.asarray(state, dtype=np.complex128))
    if batch.shape[1] != 2**circuit.num_qubits:
        raise ValueError(
            f"state dim {batch.shape[1]} incompatible with {circuit.num_qubits} qubits"
        )
    if compile != "off" and compile is not None:
        # Imported here: repro.quantum.compile itself builds on this module.
        from repro.quantum.compile import compile_circuit

        batch = compile_circuit(circuit, max_width=compile).apply(batch)
        return batch[0] if squeeze else batch
    for op in circuit:
        batch = apply_matrix_batch(batch, gate_matrix(op.gate, op.param), op.qubits)
    return batch[0] if squeeze else batch


def probabilities(state: np.ndarray) -> np.ndarray:
    """Born-rule outcome probabilities, batched along with the input."""
    return np.abs(np.asarray(state)) ** 2


def sample_counts(
    state: np.ndarray, shots: int, seed: int | np.random.Generator | None = None
) -> np.ndarray:
    """Sample measurement outcomes; returns counts of length ``dim``.

    For batched input returns shape ``(batch, dim)``.
    """
    if shots < 0:
        raise ValueError(f"shots={shots} must be >= 0")
    rng = as_rng(seed)
    batch, squeeze = _as_batch(np.asarray(state))
    probs = probabilities(batch)
    probs = probs / probs.sum(axis=1, keepdims=True)
    # One batched multinomial call: the per-row loop moves into NumPy's C
    # layer, which draws the same conditional binomials in the same order as
    # sequential per-row calls -- the seed-determinism contract the tests pin.
    counts = rng.multinomial(shots, probs)
    return counts[0] if squeeze else counts


def fidelity(state_a: np.ndarray, state_b: np.ndarray) -> np.ndarray | float:
    """Pure-state fidelity ``|<a|b>|^2`` (batched elementwise)."""
    a, squeeze_a = _as_batch(np.asarray(state_a, dtype=np.complex128))
    b, squeeze_b = _as_batch(np.asarray(state_b, dtype=np.complex128))
    overlap = np.abs(np.einsum("bi,bi->b", a.conj(), b)) ** 2
    return float(overlap[0]) if (squeeze_a and squeeze_b) else overlap


#: Sentinel distinguishing "use the simulator's configured engine" from an
#: explicit ``compile=None`` (which, like ``"off"``, means no compilation).
_INSTANCE_DEFAULT: str = "__instance_default__"


class StatevectorSimulator:
    """Object-style front end over the functional kernels.

    Keeps an explicit ``num_qubits`` so that mixed-width circuits are caught
    early, and offers the expectation-value entry point the estimation layers
    build on.  ``compile`` sets the default execution engine for every
    :meth:`run` (overridable per call); see :func:`run_circuit`.
    """

    def __init__(self, num_qubits: int, compile: str | int = "off"):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        from repro.quantum.compile import resolve_fusion_width

        resolve_fusion_width(compile)  # validate the knob eagerly
        self.num_qubits = int(num_qubits)
        self.dim = 2**self.num_qubits
        self.compile = compile

    def run(
        self,
        circuit: Circuit,
        state: np.ndarray | None = None,
        params: Sequence[float] | None = None,
        compile: str | int | None = _INSTANCE_DEFAULT,
    ) -> np.ndarray:
        """Evolve ``state`` through ``circuit`` (see :func:`run_circuit`).

        ``compile`` defaults to the instance-wide engine; pass ``"off"``
        (or ``None``, per the :func:`run_circuit` contract) to force the
        naive reference engine for one call.
        """
        if circuit.num_qubits != self.num_qubits:
            raise ValueError(
                f"circuit acts on {circuit.num_qubits} qubits, simulator on {self.num_qubits}"
            )
        engine = self.compile if compile is _INSTANCE_DEFAULT else compile
        return run_circuit(circuit, state=state, params=params, compile=engine)

    def expectation(self, state: np.ndarray, observable) -> np.ndarray | float:
        """``<state|observable|state>`` for a PauliString/PauliSum/matrix.

        Delegates to :func:`repro.quantum.observables.expectation`; accepts
        batches.
        """
        from repro.quantum.observables import expectation

        return expectation(state, observable)
