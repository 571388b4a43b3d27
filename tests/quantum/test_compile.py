"""Property tests for the compiled-circuit engine.

200 seeded random circuits (mixed 1q/2q gates, widths 2-7, fusion width
k in {1, 2, 3}) pin the fused engine to the naive gate-walker to 1e-10,
plus unitarity of every fused block, exact partition preservation, and the
compile-cache contract (structure + angles keyed, LRU-bounded, picklable
programs) and row stability (a row's bits never depend on its batch).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.quantum.circuit import Circuit
from repro.quantum.compile import (
    DEFAULT_FUSION_WIDTH,
    CompileCache,
    CompiledCircuit,
    clear_compile_cache,
    compile_cache_info,
    compile_circuit,
    resolve_fusion_width,
)
from repro.quantum.statevector import StatevectorSimulator, run_circuit, zero_state
from repro.quantum.transpile import fuse_blocks

ONE_QUBIT = ["x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "phase"]
TWO_QUBIT = ["cnot", "cx", "cz", "swap", "crx", "cry", "crz"]
PARAMETRIC = {"rx", "ry", "rz", "phase", "crx", "cry", "crz"}


def random_circuit(rng: np.random.Generator, num_qubits: int, num_gates: int) -> Circuit:
    """A bound random circuit mixing every supported 1q/2q gate."""
    c = Circuit(num_qubits, name="random")
    for _ in range(num_gates):
        if num_qubits >= 2 and rng.random() < 0.4:
            gate = TWO_QUBIT[rng.integers(len(TWO_QUBIT))]
            qubits = tuple(rng.choice(num_qubits, size=2, replace=False).tolist())
        else:
            gate = ONE_QUBIT[rng.integers(len(ONE_QUBIT))]
            qubits = int(rng.integers(num_qubits))
        param = float(rng.uniform(-2 * np.pi, 2 * np.pi)) if gate in PARAMETRIC else None
        c.append(gate, qubits, param)
    return c


def random_states(rng: np.random.Generator, num_qubits: int, batch: int) -> np.ndarray:
    vecs = rng.normal(size=(batch, 2**num_qubits)) + 1j * rng.normal(
        size=(batch, 2**num_qubits)
    )
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


# --------------------------------------------------------------- equivalence
@pytest.mark.parametrize("seed", range(200))
def test_fused_matches_naive(seed):
    """The core property: compiled execution == naive execution to 1e-10."""
    rng = np.random.default_rng(10_000 + seed)
    n = int(rng.integers(2, 8))
    g = int(rng.integers(5, 41))
    k = int(rng.integers(1, 4))
    circuit = random_circuit(rng, n, g)
    program = compile_circuit(circuit, max_width=k, cache=None)

    states = random_states(rng, n, 3)
    naive = run_circuit(circuit, state=states)
    fused = program.apply(states)
    assert np.abs(naive - fused).max() < 1e-10

    # Batched and unbatched zero-state entry points agree too.
    assert np.abs(run_circuit(circuit) - program.run()).max() < 1e-10

    # Every fused block is unitary on its (bounded) support.
    for block in program.blocks:
        assert block.width <= max(k, 2)
        eye = np.eye(2**block.width)
        assert np.abs(block.matrix @ block.matrix.conj().T - eye).max() < 1e-10
    assert sum(block.source_gates for block in program.blocks) == circuit.num_gates


@pytest.mark.parametrize("num_qubits", [2, 3])
def test_apply_is_row_stable(num_qubits):
    """A row's bits never depend on its batch: one row alone, or the tail of
    a short stack, equals those rows of a 64-row call, also where a fused
    block covers every qubit (a one-row contraction, or a final partial
    BLAS panel, must not round differently)."""
    rng = np.random.default_rng(40 + num_qubits)
    program = compile_circuit(random_circuit(rng, num_qubits, 30), cache=None)
    assert any(block.width == num_qubits for block in program.blocks)
    states = random_states(rng, num_qubits, 64)
    stacked = program.apply(states)
    for i in range(64):
        assert np.array_equal(program.apply(states[i : i + 1]), stacked[i : i + 1])
        assert np.array_equal(program.apply(states[i]), stacked[i])
    for height in range(2, 9):
        assert np.array_equal(program.apply(states[-height:]), stacked[-height:])


@pytest.mark.parametrize("seed", range(20))
def test_fuse_blocks_partition_preserves_program(seed):
    """Concatenating the block op lists restores the gate list exactly."""
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, int(rng.integers(2, 8)), int(rng.integers(1, 30)))
    for k in (1, 2, 3):
        blocks = fuse_blocks(circuit, max_width=k)
        flat = [op for _, ops in blocks for op in ops]
        assert flat == circuit.operations
        for support, ops in blocks:
            assert support == tuple(sorted({q for op in ops for q in op.qubits}))
            assert len(support) <= max(k, 2)


def test_fuse_blocks_validation():
    c = Circuit(2).append("h", 0)
    with pytest.raises(ValueError):
        fuse_blocks(c, max_width=0)
    unbound = Circuit(2).append("rx", 0, "theta")
    with pytest.raises(ValueError):
        fuse_blocks(unbound, max_width=2)


def test_compiled_unitary_matches_naive():
    rng = np.random.default_rng(3)
    circuit = random_circuit(rng, 3, 15)
    program = compile_circuit(circuit, cache=None)
    eye = np.eye(8, dtype=np.complex128)
    naive_u = run_circuit(circuit, state=eye).T
    assert np.abs(program.unitary() - naive_u).max() < 1e-10


def test_run_circuit_compile_knob():
    rng = np.random.default_rng(4)
    circuit = random_circuit(rng, 4, 20)
    naive = run_circuit(circuit)
    for knob in ("auto", 1, 2, 3):
        assert np.abs(run_circuit(circuit, compile=knob) - naive).max() < 1e-10
    with pytest.raises(ValueError):
        run_circuit(circuit, compile="bogus")


def test_simulator_compile_knob():
    rng = np.random.default_rng(5)
    circuit = random_circuit(rng, 3, 12)
    naive = StatevectorSimulator(3).run(circuit)
    compiled_sim = StatevectorSimulator(3, compile="auto")
    assert np.abs(compiled_sim.run(circuit) - naive).max() < 1e-10
    # Per-call override wins over the instance default.
    assert np.array_equal(compiled_sim.run(circuit, compile="off"), naive)
    with pytest.raises(ValueError):
        StatevectorSimulator(3, compile="bogus")


def test_resolve_fusion_width():
    assert resolve_fusion_width("off") is None
    assert resolve_fusion_width(None) is None
    assert resolve_fusion_width("auto") == DEFAULT_FUSION_WIDTH
    assert resolve_fusion_width(2) == 2
    for bad in ("wide", 0, -3, 1.5, True):
        with pytest.raises(ValueError):
            resolve_fusion_width(bad)


def test_unbound_circuit_requires_params():
    c = Circuit(2).append("rx", 0, "theta")
    with pytest.raises(ValueError):
        compile_circuit(c, cache=None)
    program = compile_circuit(c, params=[0.7], cache=None)
    assert np.abs(program.run() - run_circuit(c, params=[0.7])).max() < 1e-12


# --------------------------------------------------------------------- cache
@pytest.fixture
def fresh_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


def test_cache_hit_on_identical_circuit(fresh_cache):
    circuit = Circuit(2).append("h", 0).append("rx", 1, 0.3)
    first = compile_circuit(circuit)
    second = compile_circuit(circuit.copy())
    assert second is first  # same fingerprint -> same cached program
    info = compile_cache_info()
    assert info.hits == 1 and info.misses == 1 and info.currsize == 1


def test_cache_distinct_entries_for_distinct_angles(fresh_cache):
    template = Circuit(2, name="ansatz").append("ry", 0, "a").append("cnot", (0, 1))
    a = compile_circuit(template.bind([0.1]))
    b = compile_circuit(template.bind([0.2]))
    assert a is not b
    info = compile_cache_info()
    assert info.misses == 2 and info.currsize == 2
    # Re-binding the same angle hits.
    assert compile_circuit(template.bind([0.1])) is a
    assert compile_cache_info().hits == 1


def test_cache_distinct_entries_per_fusion_width(fresh_cache):
    circuit = Circuit(3).append("h", 0).append("cnot", (0, 1)).append("cnot", (1, 2))
    one = compile_circuit(circuit, max_width=1)
    three = compile_circuit(circuit, max_width=3)
    assert one is not three
    assert compile_cache_info().currsize == 2


def test_cache_lru_eviction():
    cache = CompileCache(maxsize=2)
    template = Circuit(1).append("rx", 0, "a")
    p1 = compile_circuit(template.bind([1.0]), cache=cache)
    compile_circuit(template.bind([2.0]), cache=cache)
    # Touch p1 so the second entry is least-recently-used, then overflow.
    assert compile_circuit(template.bind([1.0]), cache=cache) is p1
    compile_circuit(template.bind([3.0]), cache=cache)
    assert len(cache) == 2
    assert compile_circuit(template.bind([1.0]), cache=cache) is p1  # survived
    info = cache.info()
    assert info.currsize == 2 and info.maxsize == 2
    cache.clear()
    assert len(cache) == 0 and cache.info().hits == 0


def test_cache_bypass():
    circuit = Circuit(1).append("h", 0)
    a = compile_circuit(circuit, cache=None)
    b = compile_circuit(circuit, cache=None)
    assert a is not b


def test_compiled_program_pickles():
    """Process-pool workers receive compiled programs by pickle."""
    rng = np.random.default_rng(6)
    circuit = random_circuit(rng, 4, 18)
    program = compile_circuit(circuit, cache=None)
    clone = pickle.loads(pickle.dumps(program))
    assert isinstance(clone, CompiledCircuit)
    states = random_states(rng, 4, 2)
    assert np.array_equal(clone.apply(states), program.apply(states))


def test_identity_program_on_empty_circuit():
    program = compile_circuit(Circuit(2), cache=None)
    assert program.num_blocks == 0
    state = zero_state(2)
    assert np.array_equal(program.apply(state), state)


# ------------------------------------------------------- shard-group planning
def _plan(circuit, num_global, max_width=2):
    from repro.quantum.compile import plan_shard_groups

    program = compile_circuit(circuit, max_width=max_width, cache=None)
    return program, plan_shard_groups(program, num_global)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("num_global", [1, 2])
def test_shard_groups_preserve_block_order(seed, num_global):
    """Concatenating group blocks reproduces the compiled block sequence."""
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, 5, 25)
    program, plan = _plan(circuit, num_global)
    flattened = [b for group in plan for b in group.blocks]
    assert flattened == list(program.blocks)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("num_global", [1, 2])
def test_shard_groups_globals_avoid_group_support(seed, num_global):
    """Each group's global qubits are disjoint from every block it runs, and
    exactly num_global of them are chosen (dense-fallback groups excepted)."""
    rng = np.random.default_rng(100 + seed)
    circuit = random_circuit(rng, 5, 25)
    program, plan = _plan(circuit, num_global)
    max_support = program.num_qubits - num_global
    for group in plan:
        if group.global_qubits is None:
            # Fallback groups hold exactly one oversized block.
            assert len(group.blocks) == 1
            assert len(set(group.blocks[0].qubits)) > max_support
            continue
        assert len(group.global_qubits) == num_global
        touched = {q for b in group.blocks for q in b.qubits}
        assert touched.isdisjoint(group.global_qubits)
        assert len(touched) <= max_support


def test_shard_groups_zero_globals_single_group():
    """num_global=0 (single rank): one group, no remaps needed."""
    rng = np.random.default_rng(2)
    circuit = random_circuit(rng, 4, 20)
    program, plan = _plan(circuit, 0)
    assert len(plan) == 1
    assert plan[0].global_qubits == ()
    assert plan[0].blocks == program.blocks


def test_shard_groups_dense_fallback_for_wide_blocks():
    """Blocks wider than the local register become lone fallback groups."""
    circuit = Circuit(3)
    for q in range(3):
        circuit.append("h", q)
    circuit.append("cnot", (0, 1)).append("cnot", (1, 2)).append("cnot", (0, 2))
    # Fuse everything into one 3-qubit block, then plan with 1 local qubit.
    program = compile_circuit(circuit, max_width=3, cache=None)
    from repro.quantum.compile import plan_shard_groups

    plan = plan_shard_groups(program, 2)
    assert any(g.global_qubits is None for g in plan)


def test_shard_groups_validation():
    from repro.quantum.compile import plan_shard_groups

    program = compile_circuit(Circuit(3).append("h", 0), cache=None)
    with pytest.raises(ValueError):
        plan_shard_groups(program, -1)
    with pytest.raises(ValueError):
        plan_shard_groups(program, 4)  # more globals than qubits
    with pytest.raises(ValueError):
        plan_shard_groups(program, 1.5)
