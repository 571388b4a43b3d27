"""Batched structure-shared execution: one compile, a whole sample batch.

The Q-matrix sweep (paper Algorithm 1) evaluates the *same* circuit template
``U(theta_j) S(x_i)`` on every data point -- only the encoding angles differ
per row.  The per-sample engines (naive walker, :class:`CompiledCircuit`)
must re-bind and re-compile that template for every sample because binding
bakes the angles into the gate matrices.  This module keeps the template
*unbound*: fixed and bound gates fuse into shared dense blocks exactly as in
:mod:`repro.quantum.compile`, while parameterised single-qubit rotations stay
as *angle slots*, and :meth:`ParametricCompiledCircuit.apply_batch` evolves
an entire chunk of samples in one stacked pass --

* each shared :class:`~repro.quantum.compile.FusedBlock` is one batched
  ``(2^k, 2^k) x (B, 2^k, 2^(n-k))`` matmul over the whole batch, a row's
  bits independent of the batch height;
* each run of per-sample rotations on one qubit collapses into a single
  :class:`AngleChain`: the per-row 2x2 matrices are composed in ``(B, 2, 2)``
  space (a few tiny batched matmuls) and applied with one batched einsum,
  so ``rows`` encoder rotations cost one state-sized kernel pass instead of
  ``rows``.

VQNet's precompiled hybrid-network graphs and qibotf's gate-queue batching
(PAPERS.md) make the same bet: when structure is shared, amortise it across
the batch.  The per-sample engines remain the reference oracle -- the
property suite (``tests/quantum/test_batched.py``) pins ``apply_batch``
against sample-at-a-time bind+evolve to 1e-10 on random templates.

Segment reordering is support-disjoint only (two operations acting on
disjoint qubit sets commute), so the compiled program is exactly equivalent
to the source template.  Like every kernel, :meth:`apply_batch` has one body
written against an optional array namespace ``xp`` (:mod:`repro.xp`;
``None`` is NumPy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.quantum.circuit import Circuit, Operation, Parameter
from repro.quantum.compile import (
    DEFAULT_FUSION_WIDTH,
    CompileCache,
    FusedBlock,
    _block_unitary,
    resolve_fusion_width,
)
from repro.quantum.gates import BATCHED_ROTATIONS, gate_matrix, rotation_batch
from repro.quantum.transpile import fuse_blocks
from repro.xp import get_namespace

__all__ = [
    "BATCHED_ROTATIONS",
    "AngleChain",
    "ParametricCompiledCircuit",
    "compile_parametric",
    "clear_parametric_cache",
    "extend_template",
    "resolve_vectorize",
    "template_fingerprint",
]


def resolve_vectorize(knob: str | None) -> str:
    """Canonicalize the user-facing ``vectorize`` knob.

    ``"auto"`` -> batched structure-shared execution wherever the backend
    supports it; ``"off"``/``None`` -> the per-sample reference path.
    """
    if knob is None or knob == "off":
        return "off"
    if knob == "auto":
        return "auto"
    raise ValueError(f'vectorize must be "auto" or "off", got {knob!r}')


#: Chain factor tag for a bound single-qubit gate folded into an AngleChain.
_FIXED = "fixed"


@dataclass(frozen=True)
class AngleChain:
    """A run of single-qubit gates on one wire with per-sample angles.

    ``factors`` are ``(kind, payload)`` pairs in application order:
    ``(rotation_name, slot_index)`` for a parametric factor or
    ``("fixed", matrix)`` for a bound gate riding along in the chain.  The
    whole chain composes into one per-sample 2x2 -- composition happens in
    ``(batch, 2, 2)`` space, costing ~8 flops per sample per factor versus
    a full ``batch * 2^n`` state pass per gate.
    """

    qubit: int
    factors: tuple[tuple[str, object], ...]

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    @property
    def slots(self) -> tuple[int, ...]:
        """Angle-slot indices this chain reads, in application order."""
        return tuple(p for kind, p in self.factors if kind != _FIXED)

    def matrices(self, angles: np.ndarray, *, xp=None) -> np.ndarray:
        """The composed per-sample matrix stack, shape ``(batch, 2, 2)``.

        ``angles`` is the ``(batch, num_slots)`` chunk on ``xp``'s device
        (:mod:`repro.xp`; ``None`` is NumPy); the composition runs there.
        """
        xp = xp or get_namespace("numpy")
        out = None
        for kind, payload in self.factors:
            m = (
                xp.to_device_cached(payload)
                if kind == _FIXED
                else rotation_batch(kind, angles[:, payload], xp)
            )
            # (2,2) @ (B,2,2) and (B,2,2) @ (B,2,2) both broadcast; factors
            # apply left-to-right, so later factors multiply from the left.
            out = m if out is None else xp.matmul(m, out)
        return out


@dataclass(frozen=True)
class ParametricCompiledCircuit:
    """A fused program with open angle slots, executable per sample batch.

    ``segments`` interleave shared :class:`FusedBlock` unitaries with
    per-sample :class:`AngleChain` rotations in program order.  Instances
    contain only tuples and NumPy arrays, so -- like
    :class:`~repro.quantum.compile.CompiledCircuit` -- one parent-side
    compilation pickles to every process-pool worker.
    """

    num_qubits: int
    num_slots: int
    segments: tuple[FusedBlock | AngleChain, ...]
    fusion_width: int
    source_gates: int
    name: str = "parametric"

    #: Dispatch marker: this program consumes raw angle chunks via
    #: ``evolve_batch`` rather than prepared states via ``evolve`` (shared
    #: with the batched density programs, replacing isinstance dispatch).
    consumes_angles = True

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def num_blocks(self) -> int:
        return sum(1 for s in self.segments if isinstance(s, FusedBlock))

    @property
    def num_chains(self) -> int:
        return sum(1 for s in self.segments if isinstance(s, AngleChain))

    def apply_batch(
        self, angles: np.ndarray, states: np.ndarray | None = None, *, xp=None
    ) -> np.ndarray:
        """Evolve a whole batch, one row of ``angles`` per sample.

        ``angles`` is ``(batch, num_slots)`` (a trailing multi-axis layout
        like the encoder's ``(batch, rows, cols)`` is flattened C-order,
        matching first-use parameter registration order).  ``states``
        defaults to a |0...0> batch; when given it must be
        ``(batch, 2**n)``.  Returns ``(batch, 2**n)`` evolved states.

        ``xp`` selects the array namespace (:mod:`repro.xp`; ``None`` is
        NumPy): the angle chunk moves to its device once, the segment walk
        runs there, and the result returns as NumPy.
        """
        xp = xp or get_namespace("numpy")
        angles = np.asarray(angles, dtype=float)
        if angles.ndim > 2:
            angles = angles.reshape(angles.shape[0], -1)
        if angles.ndim != 2 or angles.shape[1] != self.num_slots:
            raise ValueError(
                f"angles shape {angles.shape} incompatible with "
                f"{self.num_slots} angle slots"
            )
        b = angles.shape[0]
        dim = 2**self.num_qubits
        angles = xp.to_device(angles)
        if states is None:
            tensor = xp.zeros((b,) + (2,) * self.num_qubits)
            tensor[(slice(None),) + (0,) * self.num_qubits] = 1.0
        else:
            states = xp.ascomplex(states)
            if tuple(states.shape) != (b, dim):
                raise ValueError(
                    f"states shape {tuple(states.shape)} != expected {(b, dim)}"
                )
            tensor = states.reshape((b,) + (2,) * self.num_qubits)
        # The batch stays in (B, 2, ..., 2) tensor form across all segments;
        # one contiguity copy at the very end (same discipline as
        # CompiledCircuit.apply).
        for seg in self.segments:
            if isinstance(seg, AngleChain):
                axis = 1 + seg.qubit
                moved = xp.moveaxis(tensor, axis, 1)
                shape = tuple(moved.shape)
                flat = moved.reshape(b, 2, -1)
                flat = xp.einsum("bij,bjr->bir", seg.matrices(angles, xp=xp), flat)
                tensor = xp.moveaxis(flat.reshape(shape), 1, axis)
            else:
                tensor = seg.apply_tensor(tensor, xp)
        return xp.to_numpy(xp.ascontiguous(tensor.reshape(b, dim)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParametricCompiledCircuit({self.name!r}, qubits={self.num_qubits}, "
            f"slots={self.num_slots}, blocks={self.num_blocks} + "
            f"chains={self.num_chains} from {self.source_gates} gates, "
            f"k={self.fusion_width})"
        )


class _RunBuilder:
    """Mutable builder for a run of bound operations awaiting fusion."""

    __slots__ = ("support", "ops")

    def __init__(self, op: Operation):
        self.support = set(op.qubits)
        self.ops = [op]

    def add(self, op: Operation) -> None:
        self.support |= set(op.qubits)
        self.ops.append(op)

    def touches(self, qubits: tuple[int, ...]) -> bool:
        return bool(self.support & set(qubits))


class _ChainBuilder:
    """Mutable builder for an :class:`AngleChain`."""

    __slots__ = ("qubit", "factors")

    def __init__(self, qubit: int):
        self.qubit = qubit
        self.factors: list[tuple[str, object]] = []

    def touches(self, qubits: tuple[int, ...]) -> bool:
        return self.qubit in qubits


def template_fingerprint(circuit: Circuit) -> tuple:
    """Hashable identity of a circuit *template* (slots stay symbolic).

    The unbound counterpart of :meth:`Circuit.fingerprint`: bound angles
    enter as floats, parameter slots as ``("slot", index)`` markers -- two
    templates share a fingerprint iff they compile identically under
    :func:`compile_parametric`, so this is the parametric-cache key.
    """
    return (circuit.num_qubits, circuit.num_parameters) + tuple(
        (
            op.gate,
            op.qubits,
            ("slot", op.param.index)
            if isinstance(op.param, Parameter)
            else (None if op.param is None else float(op.param)),
        )
        for op in circuit.operations
    )


#: Process-wide cache for batched templates (the Q-matrix sweep recompiles
#: the same encoder/Ansatz templates on every fit/predict call otherwise).
#: Sized like the bound-circuit cache: the paper's largest shift ensemble
#: (8 qubits, R=2) holds 129 instances, which must fit with headroom or the
#: LRU would evict the whole working set once per sweep.
GLOBAL_PARAMETRIC_CACHE = CompileCache(maxsize=256)


def clear_parametric_cache() -> None:
    """Drop every entry of the process-wide parametric compile cache."""
    GLOBAL_PARAMETRIC_CACHE.clear()


def compile_parametric(
    circuit: Circuit,
    max_width: int | str = DEFAULT_FUSION_WIDTH,
    cache: CompileCache | None = GLOBAL_PARAMETRIC_CACHE,
) -> ParametricCompiledCircuit:
    """Compile a (possibly unbound) template into a batched program.

    Bound operations fuse into dense :class:`FusedBlock` unitaries of
    support ``<= max_width`` exactly as :func:`compile_circuit`; unbound
    single-qubit rotations become :class:`AngleChain` slots.  Consecutive
    single-qubit gates on the same wire -- parametric or bound -- merge into
    one chain, so e.g. the Fig. 7 encoder's ``rows`` alternating RZ/RX
    rotations per qubit collapse into a single per-sample 2x2.

    All reordering during segment construction swaps support-disjoint
    operations only, so the program is exactly equivalent to the source.
    Unbound rotations outside :data:`BATCHED_ROTATIONS` (controlled
    rotations) raise -- bind them first.  Compiled templates are cached
    under their :func:`template_fingerprint`; the program is host NumPy and
    runs under any array namespace (``apply_batch(angles, xp=...)``).  Pass
    ``cache=None`` to force a fresh compilation.
    """
    width = resolve_fusion_width(max_width)
    if width is None:
        raise ValueError(
            'compile_parametric called with compilation disabled ("off")'
        )
    if cache is not None:
        key = ("parametric", width) + template_fingerprint(circuit)
        return cache.get_by_key(
            key, lambda: compile_parametric(circuit, width, cache=None)
        )
    segments: list[_RunBuilder | _ChainBuilder] = []
    for op in circuit.operations:
        if isinstance(op.param, Parameter):
            if op.gate not in BATCHED_ROTATIONS:
                raise ValueError(
                    f"cannot keep {op.gate!r} parametric in a batched template: "
                    f"only single-qubit rotations {sorted(BATCHED_ROTATIONS)} "
                    f"may stay unbound"
                )
            chain: _ChainBuilder | None = None
            for seg in reversed(segments):
                if seg.touches(op.qubits):
                    if isinstance(seg, _ChainBuilder) and seg.qubit == op.qubits[0]:
                        chain = seg
                    break
            if chain is None:
                chain = _ChainBuilder(op.qubits[0])
                segments.append(chain)
            chain.factors.append((op.gate, op.param.index))
        else:
            # Scan back past support-disjoint segments: merge into the first
            # segment that touches this op (a run absorbs it; a chain on the
            # same single wire folds it in as a fixed factor).  If the
            # touching segment cannot absorb it -- or nothing touches --
            # any run *after* the blocker is support-disjoint from the op
            # and can host it; otherwise open a fresh run at the end.
            target: _RunBuilder | _ChainBuilder | None = None
            fallback: _RunBuilder | None = None
            for seg in reversed(segments):
                if seg.touches(op.qubits):
                    if isinstance(seg, _RunBuilder):
                        target = seg
                    elif len(op.qubits) == 1:
                        target = seg
                    break
                if fallback is None and isinstance(seg, _RunBuilder):
                    fallback = seg
            if isinstance(target, _RunBuilder):
                target.add(op)
            elif isinstance(target, _ChainBuilder):
                target.factors.append((_FIXED, gate_matrix(op.gate, op.param)))
            elif fallback is not None:
                fallback.add(op)
            else:
                segments.append(_RunBuilder(op))

    final: list[FusedBlock | AngleChain] = []
    for seg in segments:
        if isinstance(seg, _ChainBuilder):
            final.append(AngleChain(seg.qubit, tuple(seg.factors)))
        else:
            sub = Circuit(circuit.num_qubits, name="run")
            sub.operations = seg.ops
            final.extend(
                FusedBlock(support, _block_unitary(support, ops), len(ops))
                for support, ops in fuse_blocks(sub, width)
            )
    return ParametricCompiledCircuit(
        num_qubits=circuit.num_qubits,
        num_slots=circuit.num_parameters,
        segments=tuple(final),
        fusion_width=width,
        source_gates=circuit.num_gates,
        name=f"{circuit.name}[batched,k={width}]",
    )


def extend_template(template: Circuit, bound: Circuit | None) -> Circuit:
    """The template followed by a *bound* circuit (the sweep's ``S . U``).

    :meth:`Circuit.compose` requires both sides bound (merging parameter
    tables is never needed); the batched sweep needs exactly one asymmetric
    case -- unbound encoder template + bound Ansatz instance -- which is
    safe because the bound suffix adds no parameters.
    """
    if bound is None:
        return template
    if bound.num_qubits != template.num_qubits:
        raise ValueError("qubit count mismatch in extend_template")
    if not bound.is_bound:
        raise ValueError("extend_template suffix must be bound; call .bind() first")
    out = template.copy()
    out.operations = list(template.operations) + list(bound.operations)
    out.name = f"{template.name}+{bound.name}"
    return out
