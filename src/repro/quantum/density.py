"""Density-matrix simulator for noisy-circuit verification.

The headline experiments run on pure statevectors (as in the paper, which
uses qiskit's ideal simulator), but the NISQ framing of the paper makes a
noise path essential for a credible release: the hybrid HPC-QC pipeline can
re-run any ensemble member under a Kraus noise model and the tests verify
that shot/shadow estimators converge to the *noisy* expectations.

Two execution engines share the per-gate semantics:

* :func:`run_circuit_density` -- the per-sample reference walk: one density
  matrix through the gate list, noise channels inserted after each gate.
* :class:`BatchedDensityProgram` + :func:`run_batched_density` -- the
  vectorized engine behind ``DensityMatrixBackend.supports_vectorize``: a
  whole sample batch evolves as one stacked ``(B, 2, ..., 2)`` tensor, each
  gate/Kraus operator costing one ``(B, 4^n)``-sized kernel pass instead of
  ``B`` Python-level walks.  Compilation deliberately performs **no fusion
  and no reordering** -- the per-gate Kraus insertion points are the
  semantics, which is exactly why density backends refuse fused
  :class:`~repro.quantum.compile.CompiledCircuit` programs.  Encoding
  rotations stay as angle slots (as in :mod:`repro.quantum.batched`), so
  one compiled template serves every sample chunk.

:func:`fold_density_program` gives the batched engine the same local
unitary folding that :func:`repro.quantum.mitigation.fold_circuit` applies
per sample -- ``C (C^dag C)^k`` at step level, with slot steps inverted by
negating their angle sign -- so :class:`MitigatedBackend` can run each fold
scale as one batched pass.

Both engines and the Kraus kernels under them have one body written
against an optional array namespace ``xp`` (:mod:`repro.xp`; ``None`` is
NumPy); the engines return NumPy.
"""

from __future__ import annotations

import dataclasses
import string
from dataclasses import dataclass, field
from functools import cached_property
from collections.abc import Sequence

import numpy as np

from repro.quantum.circuit import Circuit, Parameter
from repro.quantum.gates import BATCHED_ROTATIONS, gate_matrix, rotation_batch
from repro.quantum.observables import PauliString, PauliSum
from repro.quantum.statevector import apply_matrix_batch
from repro.utils.validation import check_power_of_two, check_square
from repro.xp import get_namespace

__all__ = [
    "pure_density",
    "apply_unitary",
    "apply_kraus",
    "run_circuit_density",
    "expectation_density",
    "purity",
    "partial_trace",
    "DensityStep",
    "BatchedDensityProgram",
    "compile_density_template",
    "concat_density_programs",
    "fold_density_program",
    "run_batched_density",
]


def pure_density(state: np.ndarray) -> np.ndarray:
    """``|psi><psi|`` from a statevector."""
    psi = np.asarray(state, dtype=np.complex128).ravel()
    return np.outer(psi, psi.conj())


def apply_unitary(
    rho: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], *, xp=None
) -> np.ndarray:
    """``K rho K^dag`` with the (not necessarily unitary) ``K`` on ``qubits``.

    Implemented with the fast statevector kernel: ``K rho`` applies K to each
    column of rho (batched), and right-multiplication by ``K^dag`` is applying
    ``conj(K)`` to each row.  ``xp`` selects the array namespace
    (:mod:`repro.xp`; ``None`` is NumPy); ``rho`` stays on its device.
    """
    xp = xp or get_namespace("numpy")
    rho = check_square(xp.ascomplex(rho), "rho")
    matrix = xp.ascomplex(matrix)
    left = xp.ascontiguous(
        apply_matrix_batch(xp.ascontiguous(rho.T), matrix, qubits, xp=xp).T
    )  # K rho
    return apply_matrix_batch(left, xp.conj(matrix), qubits, xp=xp)  # (K rho) K^dag


def apply_kraus(
    rho: np.ndarray, kraus_ops: Sequence[np.ndarray], qubits: Sequence[int], *, xp=None
) -> np.ndarray:
    """``sum_k K rho K^dag`` for a local channel on ``qubits``.

    Accumulates in place: the first term's fresh output array becomes the
    accumulator instead of allocating (and re-allocating) a zeros array per
    Kraus operator.
    """
    xp = xp or get_namespace("numpy")
    rho = xp.ascomplex(rho)
    out = None
    for k in kraus_ops:
        term = apply_unitary(rho, k, qubits, xp=xp)
        if out is None:
            out = term  # apply_unitary returns a fresh array: safe to own
        else:
            out += term
    if out is None:  # empty channel: preserve the historical zeros result
        return xp.zeros(tuple(rho.shape))
    return out


def run_circuit_density(
    circuit: Circuit,
    rho: np.ndarray | None = None,
    noise_model=None,
    *,
    xp=None,
) -> np.ndarray:
    """Evolve a density matrix through ``circuit``.

    ``noise_model`` (see :mod:`repro.quantum.noise`) is queried after every
    gate for the Kraus channel to insert; ``None`` gives ideal evolution.
    The walk runs on ``xp``'s device (:mod:`repro.xp`; ``None`` is NumPy)
    and the result returns as NumPy.
    """
    if not circuit.is_bound:
        raise ValueError("run_circuit_density requires a bound circuit")
    xp = xp or get_namespace("numpy")
    dim = 2**circuit.num_qubits
    if rho is None:
        rho = np.zeros((dim, dim), dtype=np.complex128)
        rho[0, 0] = 1.0
    else:
        rho = np.asarray(rho, dtype=np.complex128)
        if rho.shape != (dim, dim):
            raise ValueError(f"rho shape {rho.shape} != ({dim}, {dim})")
    rho = xp.to_device(rho)
    for op in circuit:
        rho = apply_unitary(rho, gate_matrix(op.gate, op.param), op.qubits, xp=xp)
        if noise_model is not None:
            for kraus, qubits in noise_model.channels_after(op):
                rho = apply_kraus(rho, kraus, qubits, xp=xp)
    return xp.to_numpy(rho)


def expectation_density(rho: np.ndarray, observable) -> float:
    """``tr(O rho)`` for PauliString / PauliSum / dense observable."""
    rho = check_square(np.asarray(rho, dtype=np.complex128), "rho")
    matrix = (
        observable.to_matrix()
        if isinstance(observable, (PauliString, PauliSum))
        else np.asarray(observable, dtype=np.complex128)
    )
    return float(np.trace(matrix @ rho).real)


def purity(rho: np.ndarray) -> float:
    """``tr(rho^2)``; 1 for pure states."""
    rho = np.asarray(rho, dtype=np.complex128)
    return float(np.trace(rho @ rho).real)


def partial_trace(rho: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Trace out all qubits not in ``keep`` (order of ``keep`` preserved)."""
    rho = check_square(np.asarray(rho, dtype=np.complex128), "rho")
    n = check_power_of_two(rho.shape[0], "rho dimension")
    keep = list(keep)
    drop = [q for q in range(n) if q not in keep]
    tensor = rho.reshape((2,) * (2 * n))
    for q in sorted(drop, reverse=True):
        tensor = np.trace(tensor, axis1=q, axis2=q + tensor.ndim // 2)
        # after trace, axes shrink by one on each side; recompute implicitly
    dim_keep = 2 ** len(keep)
    return tensor.reshape(dim_keep, dim_keep)


# --------------------------------------------------------------------------
# Batched density engine
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityStep:
    """One gate of a batched density program, plus its trailing channels.

    ``matrix`` is the dense bound gate (``None`` for an angle-slot step,
    which reads ``sign * angles[:, slot]`` -- ``sign=-1`` marks the folded
    inverse ``R(-theta) = R(theta)^dag``).  ``channels`` are the noise
    channels inserted after the gate: ``(kraus_tuple, qubits)`` pairs, the
    output of ``NoiseModel.channels_after`` frozen at compile time.
    """

    gate: str
    qubits: tuple[int, ...]
    matrix: np.ndarray | None
    slot: int | None = None
    sign: float = 1.0
    channels: tuple[tuple[tuple[np.ndarray, ...], tuple[int, ...]], ...] = ()

    @cached_property
    def superop(self) -> np.ndarray | None:
        """``U (x) conj(U)`` for a bound step (``None`` for a slot step).

        The stacked walker applies it in one einsum pass over the step's
        per-qubit axes instead of two one-sided passes -- the walk is
        memory-bound, so halving (or, for channels, 2x-per-Kraus-op
        reducing) the number of full-tensor sweeps is the speedup.
        """
        if self.matrix is None:
            return None
        return _superop_tensor(self.matrix)

    @cached_property
    def channel_superops(
        self,
    ) -> tuple[tuple[np.ndarray, tuple[int, ...]], ...]:
        """Each trailing channel as one ``sum_k K (x) conj(K)`` tensor."""
        return tuple(
            (_channel_superop(kraus), qubits) for kraus, qubits in self.channels
        )


@dataclass(frozen=True)
class BatchedDensityProgram:
    """A compiled density template: per-gate walk, whole batch per pass.

    Contains only tuples and NumPy arrays (picklable, shipped to process
    workers like every compiled program).  No fusion, no reordering: the
    step sequence mirrors the source gate list exactly so Kraus insertion
    points are preserved.
    """

    num_qubits: int
    num_slots: int
    steps: tuple[DensityStep, ...] = field(default=())
    name: str = "density[batched]"

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def num_kernel_passes(self) -> int:
        """Stacked ``(B, 4^n)`` passes one evolution costs.

        Each step is one superoperator pass (``U (x) conj(U)`` applied to
        its row/column axis pair) plus one per inserted channel (the
        channel's Kraus sum collapses into a single ``sum_k K (x) conj(K)``
        pass at compile time) -- the count the ``CircuitTask`` cost model
        prices at ``4^n`` apiece.
        """
        return sum(1 + len(step.channels) for step in self.steps)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedDensityProgram({self.name!r}, qubits={self.num_qubits}, "
            f"slots={self.num_slots}, steps={self.num_steps}, "
            f"passes={self.num_kernel_passes})"
        )


def compile_density_template(
    circuit: Circuit,
    noise_model=None,
    cache=None,
) -> BatchedDensityProgram:
    """Compile a (possibly unbound) circuit into a batched density program.

    The walk keeps the gate order verbatim and freezes each gate's trailing
    noise channels into its :class:`DensityStep`; unbound parameters must
    be single-qubit rotations from ``BATCHED_ROTATIONS`` (encoding slots),
    exactly as in :func:`repro.quantum.batched.compile_parametric`.

    ``cache`` is a :class:`~repro.quantum.compile.CompileCache`; pass the
    process-wide parametric cache to share its LRU.  Keys include the
    noise-model content hash; the program is host NumPy and runs under any
    array namespace (``run_batched_density(..., xp=...)``).
    """
    if cache is not None:
        from repro.quantum.batched import template_fingerprint

        key = (
            "density-batched",
            None if noise_model is None else hash(noise_model),
        ) + template_fingerprint(circuit)
        return cache.get_by_key(
            key, lambda: compile_density_template(circuit, noise_model)
        )
    steps: list[DensityStep] = []
    for op in circuit.operations:
        channels: tuple = ()
        if noise_model is not None:
            channels = tuple(
                (tuple(np.asarray(k, dtype=np.complex128) for k in kraus), tuple(qs))
                for kraus, qs in noise_model.channels_after(op)
            )
        if isinstance(op.param, Parameter):
            if op.gate not in BATCHED_ROTATIONS or len(op.qubits) != 1:
                raise ValueError(
                    f"cannot keep {op.gate!r} parametric in a batched density "
                    f"template: only single-qubit rotations "
                    f"{sorted(BATCHED_ROTATIONS)} may stay unbound"
                )
            steps.append(
                DensityStep(op.gate, op.qubits, None, op.param.index, 1.0, channels)
            )
        else:
            steps.append(
                DensityStep(
                    op.gate,
                    op.qubits,
                    np.asarray(gate_matrix(op.gate, op.param), dtype=np.complex128),
                    None,
                    1.0,
                    channels,
                )
            )
    return BatchedDensityProgram(
        num_qubits=circuit.num_qubits,
        num_slots=circuit.num_parameters,
        steps=tuple(steps),
        name=f"{circuit.name}[density-batched]",
    )


def concat_density_programs(*programs: BatchedDensityProgram) -> BatchedDensityProgram:
    """Sequential composition of batched density programs.

    Suffix programs must not introduce angle slots beyond the first
    program's table (the sweep composes an unbound encoder with bound
    Ansatz/fold suffixes, mirroring ``extend_template``).
    """
    if not programs:
        raise ValueError("concat_density_programs needs at least one program")
    first = programs[0]
    for p in programs[1:]:
        if p.num_qubits != first.num_qubits:
            raise ValueError("qubit count mismatch in concat_density_programs")
        if p.num_slots > first.num_slots:
            raise ValueError(
                "suffix programs must not add angle slots beyond the first's"
            )
    return BatchedDensityProgram(
        num_qubits=first.num_qubits,
        num_slots=first.num_slots,
        steps=tuple(s for p in programs for s in p.steps),
        name="+".join(p.name for p in programs),
    )


def _invert_step(step: DensityStep) -> DensityStep:
    """The adjoint of a step's gate; channels ride along unchanged.

    ``NoiseModel.channels_after`` keys on gate arity/qubits only, and a
    folded inverse has the same arity on the same qubits -- so inserting
    the *same* channels after each inverted gate is exactly what the
    per-sample walk over ``fold_circuit`` output does.
    """
    if step.matrix is None:
        return dataclasses.replace(step, sign=-step.sign)
    return dataclasses.replace(
        step, matrix=np.ascontiguousarray(step.matrix.conj().T)
    )


def fold_density_program(
    program: BatchedDensityProgram, scale: int
) -> BatchedDensityProgram:
    """Local unitary folding at step level: ``C (C^dag C)^k``, scale ``2k+1``.

    The batched counterpart of :func:`repro.quantum.mitigation.fold_circuit`
    working on unbound templates: a bound step inverts to its conjugate
    transpose, an angle-slot step inverts by negating its sign
    (``R(-theta) = R(theta)^dag`` for the Pauli/phase rotations that may
    stay symbolic).
    """
    if scale < 1 or scale % 2 == 0:
        raise ValueError(f"fold scale must be an odd positive int, got {scale}")
    if scale == 1:
        return program
    inverse = tuple(_invert_step(s) for s in reversed(program.steps))
    steps = list(program.steps)
    for _ in range((scale - 1) // 2):
        steps.extend(inverse)
        steps.extend(program.steps)
    return dataclasses.replace(
        program, steps=tuple(steps), name=f"{program.name}[scale={scale}]"
    )


#: Lowercase letters label the stacked rho axes (batch + 2n); superoperator
#: output indices use uppercase so the two alphabets never collide.
_EINSUM_AXES = string.ascii_lowercase
_SUPEROP_AXES = string.ascii_uppercase


def _superop_tensor(matrix: np.ndarray) -> np.ndarray:
    """``U (x) conj(U)`` as a ``(4,)*2k`` tensor in per-qubit layout.

    The stacked walker vectorizes rho with ONE size-4 axis per qubit (the
    qubit's row and column bits combined, row bit major), so a ``k``-qubit
    superoperator is a plain ``k``-axis gate application -- the cheapest
    contraction pattern einsum has.  Axis order here: ``k`` output axes
    then ``k`` input axes, each ``4 = (row bit, column bit)``.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    k = m.shape[0].bit_length() - 1
    s = np.einsum("ij,kl->ikjl", m, m.conj())  # (r_out, c_out, r_in, c_in)
    s = s.reshape((2,) * (4 * k))
    perm = [axis for i in range(k) for axis in (i, k + i)]
    perm += [axis for i in range(k) for axis in (2 * k + i, 3 * k + i)]
    return np.ascontiguousarray(np.transpose(s, perm).reshape((4,) * (2 * k)))


def _channel_superop(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """``sum_k K (x) conj(K)``: a whole channel as one superoperator pass."""
    out = None
    for k_op in kraus:
        term = _superop_tensor(k_op)
        out = term if out is None else out + term
    if out is None:  # empty channel: annihilates everything, like apply_kraus
        return np.zeros((4, 4), dtype=np.complex128)
    return out


def _apply_superop(tensor, superop_dev, qubits, xp):
    """One superoperator pass on the stacked ``(B, 4,..,4)`` rho tensor.

    Contracts the superop's input axes with the step's qubit axes
    (``1 + q``) in a single einsum whose output axes stay in place -- no
    transpose copies, and ``U rho U^dag`` (or a whole Kraus sum) costs one
    full-tensor sweep instead of two (or ``2 * len(kraus)``).  The walk is
    memory-bound, so the sweep count is the wall-clock.
    """
    k = len(qubits)
    sub = _EINSUM_AXES[: tensor.ndim]
    axes = [1 + q for q in qubits]
    out_labels = _SUPEROP_AXES[:k]
    gate_sub = out_labels + "".join(sub[a] for a in axes)
    out = list(sub)
    for label, axis in zip(out_labels, axes, strict=True):
        out[axis] = label
    return xp.einsum(f"{gate_sub},{sub}->{''.join(out)}", superop_dev, tensor)


def _apply_superop_per_sample(tensor, superops, qubit, xp):
    """Per-sample ``(B, 4, 4)`` rotation superops on one qubit's axis."""
    sub = _EINSUM_AXES[: tensor.ndim]  # sub[0] is the batch axis
    axis = 1 + qubit
    out = sub[:axis] + "Z" + sub[axis + 1 :]
    return xp.einsum(f"{sub[0]}Z{sub[axis]},{sub}->{out}", superops, tensor)


def run_batched_density(
    program: BatchedDensityProgram, angles: np.ndarray, *, xp=None
) -> np.ndarray:
    """Evolve a |0..0><0..0| batch through ``program`` in stacked passes.

    ``angles`` is ``(batch, num_slots)`` (trailing axes flattened C-order,
    as in ``apply_batch``); returns ``(batch, 2^n, 2^n)`` NumPy density
    matrices.  The whole batch advances gate by gate -- identical insertion
    semantics to :func:`run_circuit_density`, but each gate/Kraus operator
    is one ``(B, 4^n)``-sized kernel instead of ``B`` Python walks.  ``xp``
    selects the array namespace (:mod:`repro.xp`; ``None`` is NumPy).
    """
    xp = xp or get_namespace("numpy")
    angles = np.asarray(angles, dtype=float)
    if angles.ndim > 2:
        angles = angles.reshape(angles.shape[0], -1)
    if angles.ndim != 2 or angles.shape[1] != program.num_slots:
        raise ValueError(
            f"angles shape {angles.shape} incompatible with "
            f"{program.num_slots} angle slots"
        )
    b = angles.shape[0]
    n = program.num_qubits
    dim = 2**n
    angles = xp.to_device(angles)

    # Vectorized rho: one size-4 axis per qubit (row bit, column bit), so
    # |0..0><0..0| is the all-zeros index.  See :func:`_superop_tensor`.
    rho = xp.zeros((b,) + (4,) * n)
    rho[(slice(None),) + (0,) * n] = 1.0
    for step in program.steps:
        if step.matrix is None:
            mats = rotation_batch(step.gate, step.sign * angles[:, step.slot], xp)
            superops = xp.einsum("bij,bkl->bikjl", mats, xp.conj(mats)).reshape(
                b, 4, 4
            )
            rho = _apply_superop_per_sample(rho, superops, step.qubits[0], xp)
        else:
            rho = _apply_superop(
                rho, xp.to_device_cached(step.superop), step.qubits, xp
            )
        for superop, qubits in step.channel_superops:
            rho = _apply_superop(rho, xp.to_device_cached(superop), qubits, xp)
    # Unpack the per-qubit (row, col) axes back into (B, 2^n, 2^n) matrices:
    # interleaved (r0, c0, r1, c1, ...) -> (r0..r_{n-1} | c0..c_{n-1}).
    tensor = rho.reshape((b,) + (2,) * (2 * n))
    src = tuple(1 + 2 * q for q in range(n)) + tuple(2 + 2 * q for q in range(n))
    dst = tuple(1 + q for q in range(n)) + tuple(1 + n + q for q in range(n))
    tensor = xp.moveaxis(tensor, src, dst)
    return xp.to_numpy(xp.ascontiguous(tensor).reshape(b, dim, dim))
