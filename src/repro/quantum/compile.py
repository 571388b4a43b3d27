"""Ahead-of-time circuit compilation: gate fusion + a compile cache.

The post-variational hot loop (paper Algorithm 1) evaluates the *same* fixed
circuits ``U(theta_j) S(x_i)`` over every data point, so the naive simulator
spends its time re-walking identical gate lists -- one einsum per gate per
call -- and re-building gate matrices that never change.  Fixed circuits are
exactly the case where aggressive ahead-of-time compilation pays off (paper
Sec. VIII; the distributed gate-queue grouping of qibotf and VQNet's
precompiled hybrid-network graphs make the same bet).

Two pieces:

* :func:`compile_circuit` partitions a bound circuit's gate list into
  contiguous blocks whose combined support is at most ``max_width`` qubits
  (:func:`repro.quantum.transpile.fuse_blocks`), fuses every block into a
  single dense unitary, and returns a :class:`CompiledCircuit` that executes
  one :func:`~repro.quantum.statevector.apply_matrix_batch` call per block
  instead of per gate.

* A structure-keyed LRU :class:`CompileCache` (circuit fingerprint -> fused
  program) so the per-sample encoding loop and the per-shift Ansatz ensemble
  reuse compiled artifacts across the whole Q-matrix sweep.  Compiled
  programs are plain dataclasses of NumPy arrays, hence picklable, so one
  parent-side compile is shipped to every
  :class:`~repro.hpc.runtime.ExecutionRuntime` process worker.  They carry
  no array namespace: one cached program runs under NumPy, CuPy or torch
  (``apply(states, xp=...)``, :mod:`repro.xp`).

The fusion-width trade-off: a block on ``k`` qubits costs one
``(2^k, 2^k) @ (batch, 2^k, 2^(n-k))`` contraction, so wider blocks amortise
more gates per einsum but each einsum touches a ``2^k``-times larger matrix.
``k=3`` is the sweet spot for the paper's 4-8 qubit circuits (measured in
``benchmarks/test_compile_speedup.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.quantum.circuit import Circuit, Operation
from repro.quantum.gates import gate_matrix
from repro.quantum.pauli import clear_pauli_tables
from repro.quantum.statevector import apply_matrix_batch, zero_state
from repro.quantum.transpile import fuse_blocks
from repro.xp import get_namespace

__all__ = [
    "DEFAULT_FUSION_WIDTH",
    "FusedBlock",
    "CompiledCircuit",
    "ShardGroup",
    "plan_shard_groups",
    "CompileCache",
    "CacheInfo",
    "resolve_fusion_width",
    "compile_circuit",
    "compile_cache_info",
    "clear_compile_cache",
]

#: Fusion width selected by ``compile="auto"``.
DEFAULT_FUSION_WIDTH = 3


def resolve_fusion_width(knob: str | int | None) -> int | None:
    """Map the user-facing ``compile`` knob to a fusion width.

    ``"off"``/``None`` -> ``None`` (no compilation), ``"auto"`` -> the
    default width, an integer ``>= 1`` -> that width.
    """
    if knob is None or knob == "off":
        return None
    if knob == "auto":
        return DEFAULT_FUSION_WIDTH
    if isinstance(knob, (int, np.integer)) and not isinstance(knob, bool):
        if knob < 1:
            raise ValueError(f"fusion width {knob} must be >= 1")
        return int(knob)
    raise ValueError(f'compile must be "auto", "off" or an int >= 1, got {knob!r}')


@dataclass(frozen=True)
class FusedBlock:
    """One fused segment: a dense unitary on a small qubit support.

    ``qubits`` are global indices in ascending order; ``qubits[0]`` is the
    most significant bit of a ``matrix`` row index (the library-wide
    big-endian convention).
    """

    qubits: tuple[int, ...]
    matrix: np.ndarray
    source_gates: int

    @property
    def width(self) -> int:
        return len(self.qubits)

    def apply_tensor(self, tensor, xp):
        """Contract this block into a ``(batch, 2, ..., 2)`` state tensor.

        tensordot output: the ``k`` gate-output axes first, then the
        untouched axes in original relative order; moveaxis restores the
        layout (``qubits`` is sorted ascending, matching the gate's local
        big-endian ordering).  The matrix reaches ``xp``'s device through
        the namespace's constant memo.
        """
        k = self.width
        gate = xp.to_device_cached(self.matrix).reshape((2,) * (2 * k))
        axes = [1 + q for q in self.qubits]
        tensor = xp.tensordot(gate, tensor, axes=(list(range(k, 2 * k)), axes))
        return xp.moveaxis(tensor, tuple(range(k)), tuple(axes))


@dataclass(frozen=True)
class CompiledCircuit:
    """A fused, ready-to-execute program equivalent to its source circuit.

    Contains only tuples and NumPy arrays, so instances pickle cheaply --
    the property that lets one parent-side compilation be shipped to every
    process-pool worker.
    """

    num_qubits: int
    blocks: tuple[FusedBlock, ...]
    fusion_width: int
    source_gates: int
    name: str = "compiled"

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def gate_reduction(self) -> float:
        """Fraction of per-call kernel launches eliminated by fusion."""
        if self.source_gates == 0:
            return 0.0
        return 1.0 - self.num_blocks / self.source_gates

    def apply(self, states: np.ndarray, *, xp=None) -> np.ndarray:
        """Evolve ``states`` (1-D state or ``(batch, 2**n)``) through the program.

        The batch stays in ``(batch, 2, ..., 2)`` tensor form across all
        blocks -- one BLAS-grade tensordot per fused block and a single
        contiguity copy at the end, instead of the per-gate reshape/copy
        round-trips of the naive engine.

        ``xp`` selects the array namespace (:mod:`repro.xp`; ``None`` is
        NumPy); states stay on its device.
        """
        xp = xp or get_namespace("numpy")
        states = xp.ascomplex(states)
        squeeze = states.ndim == 1
        batch = states[None, :] if squeeze else states
        if batch.ndim != 2 or batch.shape[1] != 2**self.num_qubits:
            raise ValueError(
                f"state shape {tuple(states.shape)} incompatible with "
                f"{self.num_qubits} qubits"
            )
        b, dim = batch.shape
        tensor = batch.reshape((b,) + (2,) * self.num_qubits)
        for block in self.blocks:
            tensor = block.apply_tensor(tensor, xp)
        out = xp.ascontiguous(tensor.reshape(b, dim))
        return out[0] if squeeze else out

    def run(self, state: np.ndarray | None = None) -> np.ndarray:
        """Like :func:`~repro.quantum.statevector.run_circuit`: default |0..0>."""
        if state is None:
            state = zero_state(self.num_qubits)
        return self.apply(state)

    def unitary(self) -> np.ndarray:
        """Dense ``(2**n, 2**n)`` unitary of the whole program (tests/debug)."""
        return np.ascontiguousarray(self.apply(np.eye(2**self.num_qubits)).T)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledCircuit({self.name!r}, qubits={self.num_qubits}, "
            f"blocks={self.num_blocks} from {self.source_gates} gates, "
            f"k={self.fusion_width})"
        )


@dataclass(frozen=True)
class ShardGroup:
    """A run of fused blocks executable with zero communication.

    ``global_qubits`` names the logical qubits parked in the rank-selecting
    register slots for the run: the group's blocks never touch them, so on
    a sharded simulator every block applies with the node-local kernel (the
    qibotf ``DeviceQueues`` pattern).  ``global_qubits is None`` marks a
    dense-fallback step: a single block too wide for the local register,
    applied with the generic multi-rank dense kernel instead.
    """

    global_qubits: tuple[int, ...] | None
    blocks: tuple[FusedBlock, ...]


def plan_shard_groups(
    compiled: CompiledCircuit, num_global: int
) -> tuple[ShardGroup, ...]:
    """Partition a compiled program into communication-free gate groups.

    Greedy left-to-right walk: blocks accumulate into the current group
    while their combined support fits in the ``n - num_global`` local
    qubits; on overflow the group closes and the next one starts.  Each
    closed group's global qubits are chosen among the qubits it never
    touches, preferring the previous group's globals so consecutive groups
    need few (often zero) qubit remaps.  Concatenating the groups' blocks
    reproduces the program's block order exactly.
    """
    if not isinstance(num_global, (int, np.integer)) or isinstance(num_global, bool):
        raise ValueError(f"num_global must be an int, got {num_global!r}")
    num_global = int(num_global)
    n = compiled.num_qubits
    if not 0 <= num_global <= n:
        raise ValueError(f"num_global={num_global} out of range for {n} qubits")
    if num_global == 0:
        return (ShardGroup((), compiled.blocks),)
    max_support = n - num_global

    groups: list[ShardGroup] = []
    current: list[FusedBlock] = []
    touched: set[int] = set()
    prev_globals: tuple[int, ...] = tuple(range(num_global))

    def close() -> None:
        nonlocal current, touched, prev_globals
        if not current:
            return
        free = [q for q in prev_globals if q not in touched]
        free += [q for q in range(n) if q not in touched and q not in free]
        chosen = tuple(sorted(free[:num_global]))
        groups.append(ShardGroup(chosen, tuple(current)))
        prev_globals = chosen
        current, touched = [], set()

    for block in compiled.blocks:
        if block.width > max_support:
            # Too wide to ever be communication-free: its own dense step.
            close()
            groups.append(ShardGroup(None, (block,)))
            continue
        merged = touched | set(block.qubits)
        if current and len(merged) > max_support:
            close()
            merged = set(block.qubits)
        current.append(block)
        touched = merged
    close()
    return tuple(groups)


def _block_unitary(support: Sequence[int], ops: Sequence[Operation]) -> np.ndarray:
    """Dense unitary of ``ops`` restricted to ``support`` (local big-endian).

    Runs the block's gates over the rows of an identity matrix: row ``i``
    ends as ``U e_i``, so the accumulated array is ``U^T``.
    """
    local = {q: i for i, q in enumerate(support)}
    states = np.eye(2 ** len(support), dtype=np.complex128)
    for op in ops:
        states = apply_matrix_batch(
            states, gate_matrix(op.gate, op.param), [local[q] for q in op.qubits]
        )
    return np.ascontiguousarray(states.T)


def _compile_bound(circuit: Circuit, max_width: int) -> CompiledCircuit:
    """Fuse ``circuit`` (bound) into a :class:`CompiledCircuit`, uncached."""
    blocks = tuple(
        FusedBlock(support, _block_unitary(support, ops), len(ops))
        for support, ops in fuse_blocks(circuit, max_width)
    )
    return CompiledCircuit(
        num_qubits=circuit.num_qubits,
        blocks=blocks,
        fusion_width=max_width,
        source_gates=circuit.num_gates,
        name=f"{circuit.name}[k={max_width}]",
    )


@dataclass(frozen=True)
class CacheInfo:
    """Snapshot of compile-cache statistics."""

    hits: int
    misses: int
    currsize: int
    maxsize: int


class CompileCache:
    """Thread-safe LRU map from circuit fingerprint to compiled program.

    Keys come from :meth:`Circuit.fingerprint` plus the fusion width, so the
    same structure bound at different angles occupies distinct entries while
    a re-bound identical circuit hits.  Programs hold only host NumPy
    arrays, so one entry serves every array namespace (each namespace
    memoises its own device copies).  Bounded so long sweeps over
    per-sample encoders cannot grow memory without limit.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._entries: OrderedDict[tuple, CompiledCircuit] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, circuit: Circuit, max_width: int) -> CompiledCircuit:
        """Fetch (or compile and insert) the fused program for ``circuit``."""
        key = (max_width,) + circuit.fingerprint()
        return self.get_by_key(key, lambda: _compile_bound(circuit, max_width))

    def get_by_key(self, key: tuple, factory):
        """LRU lookup under an explicit key, compiling via ``factory`` on miss.

        The generic entry point behind :meth:`get`; the batched engine uses
        it with *template* fingerprints (which bound-circuit fingerprints
        cannot express) while sharing the same LRU/statistics machinery.
        """
        with self._lock:
            program = self._entries.get(key)
            if program is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                return program
            self._misses += 1
        # Compile outside the lock: fusion is the expensive part and other
        # threads compiling different circuits need not serialise on it.
        program = factory()
        with self._lock:
            self._entries[key] = program
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return program

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(self._hits, self._misses, len(self._entries), self.maxsize)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Process-wide cache used by ``compile_circuit`` unless one is passed in.
GLOBAL_COMPILE_CACHE = CompileCache()


def compile_circuit(
    circuit: Circuit,
    max_width: int | str = DEFAULT_FUSION_WIDTH,
    params: Sequence[float] | None = None,
    cache: CompileCache | None = GLOBAL_COMPILE_CACHE,
) -> CompiledCircuit:
    """Compile ``circuit`` into a fused program.

    ``max_width`` accepts the same values as the ``compile`` knob minus
    ``"off"`` (``"auto"`` or an int >= 1).  Unbound circuits require
    ``params``.  Pass ``cache=None`` to force a fresh compilation.  The
    program is host NumPy and runs under any array namespace
    (``apply(states, xp=...)``).
    """
    width = resolve_fusion_width(max_width)
    if width is None:
        raise ValueError('compile_circuit called with compilation disabled ("off")')
    if not circuit.is_bound:
        if params is None:
            raise ValueError(
                f"circuit has {circuit.num_parameters} unbound parameters"
            )
        circuit = circuit.bind(params)
    elif params is not None and len(params) != 0:
        raise ValueError("params given for an already-bound circuit")
    if cache is None:
        return _compile_bound(circuit, width)
    return cache.get(circuit, width)


def compile_cache_info() -> CacheInfo:
    """Statistics of the process-wide compile cache."""
    return GLOBAL_COMPILE_CACHE.info()


def clear_compile_cache() -> None:
    """Drop every entry (and reset counters) of the process-wide cache,
    and the Pauli engine's conjugation tables with it."""
    GLOBAL_COMPILE_CACHE.clear()
    clear_pauli_tables()
