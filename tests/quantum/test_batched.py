"""Property tests for the batched structure-shared engine.

150 seeded random *templates* (bound 1q/2q gates mixed with unbound
single-qubit rotation slots) pin ``apply_batch`` to the per-sample oracle --
bind one row of angles, evolve with the naive gate walker -- to 1e-10, plus
segment bookkeeping (chain merging on the Fig. 7 encoder), exact agreement
with :func:`compile_circuit` on fully bound circuits, row stability (a
row's bits never depend on its batch), input validation and picklability
(the property that ships one parent-side compile to every process worker).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.data.encoding import encode_batch, encoding_template
from repro.quantum.batched import (
    AngleChain,
    ParametricCompiledCircuit,
    compile_parametric,
    extend_template,
    resolve_vectorize,
)
from repro.quantum.circuit import Circuit
from repro.quantum.compile import FusedBlock, compile_circuit
from repro.quantum.statevector import run_circuit

BOUND_ONE_QUBIT = ["x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "phase"]
BOUND_TWO_QUBIT = ["cnot", "cx", "cz", "swap", "crx", "cry", "crz"]
SLOT_GATES = ["rx", "ry", "rz", "phase"]
PARAMETRIC = {"rx", "ry", "rz", "phase", "crx", "cry", "crz"}


def random_template(
    rng: np.random.Generator, num_qubits: int, num_gates: int, slot_prob: float = 0.35
) -> Circuit:
    """A random circuit template mixing bound gates and angle slots."""
    c = Circuit(num_qubits, name="template")
    for g in range(num_gates):
        if rng.random() < slot_prob:
            gate = SLOT_GATES[rng.integers(len(SLOT_GATES))]
            c.append(gate, int(rng.integers(num_qubits)), f"s{g}")
        elif num_qubits >= 2 and rng.random() < 0.4:
            gate = BOUND_TWO_QUBIT[rng.integers(len(BOUND_TWO_QUBIT))]
            qubits = tuple(rng.choice(num_qubits, size=2, replace=False).tolist())
            param = float(rng.uniform(-np.pi, np.pi)) if gate in PARAMETRIC else None
            c.append(gate, qubits, param)
        else:
            gate = BOUND_ONE_QUBIT[rng.integers(len(BOUND_ONE_QUBIT))]
            param = float(rng.uniform(-np.pi, np.pi)) if gate in PARAMETRIC else None
            c.append(gate, int(rng.integers(num_qubits)), param)
    return c


# --------------------------------------------------------------- equivalence
@pytest.mark.parametrize("seed", range(150))
def test_apply_batch_matches_per_sample_oracle(seed):
    """The core property: one stacked pass == bind + evolve per sample."""
    rng = np.random.default_rng(31_000 + seed)
    n = int(rng.integers(2, 7))
    g = int(rng.integers(5, 35))
    k = int(rng.integers(1, 4))
    template = random_template(rng, n, g)
    program = compile_parametric(template, max_width=k)
    assert program.num_slots == template.num_parameters

    batch = 4
    angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=(batch, template.num_parameters))
    stacked = program.apply_batch(angles)
    oracle = np.stack(
        [run_circuit(template.bind(angles[i])) for i in range(batch)]
    )
    assert np.abs(stacked - oracle).max() < 1e-10

    # From caller-supplied initial states too.
    states = rng.normal(size=(batch, 2**n)) + 1j * rng.normal(size=(batch, 2**n))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    stacked = program.apply_batch(angles, states=states)
    oracle = np.stack(
        [run_circuit(template.bind(angles[i]), state=states[i]) for i in range(batch)]
    )
    assert np.abs(stacked - oracle).max() < 1e-10


@pytest.mark.parametrize("num_qubits", [2, 3])
def test_apply_batch_is_row_stable(num_qubits):
    """A row's bits never depend on its batch: one row alone, or the tail of
    a short stack, equals those rows of a 64-row stack, also through shared
    blocks on every qubit (the encoder's fused Hadamards and a bound Ansatz
    suffix)."""
    rng = np.random.default_rng(50 + num_qubits)
    suffix = random_template(rng, num_qubits, 30, slot_prob=0.0)
    program = compile_parametric(
        extend_template(encoding_template(2, num_qubits), suffix), cache=None
    )
    widths = [seg.width for seg in program.segments if isinstance(seg, FusedBlock)]
    assert num_qubits in widths
    angles = rng.uniform(0, np.pi, size=(64, 2, num_qubits))
    stacked = program.apply_batch(angles)
    for i in range(64):
        assert np.array_equal(program.apply_batch(angles[i : i + 1]), stacked[i : i + 1])
    for height in range(2, 9):
        assert np.array_equal(program.apply_batch(angles[-height:]), stacked[-height:])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fully_bound_template_matches_compile_circuit(k):
    """With no slots the batched program is the fused program, same map."""
    rng = np.random.default_rng(7)
    template = random_template(rng, 4, 25, slot_prob=0.0)
    program = compile_parametric(template, max_width=k)
    assert program.num_slots == 0
    assert program.num_chains == 0
    fused = compile_circuit(template, max_width=k, cache=None)
    states = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    got = program.apply_batch(np.empty((3, 0)), states=states)
    assert np.abs(got - fused.apply(states)).max() < 1e-12


def test_encoder_template_matches_encode_batch():
    """The Fig. 7 template reproduces the vectorised encoder kernel."""
    rng = np.random.default_rng(3)
    rows, cols = 4, 5
    angles = rng.uniform(0, 2 * np.pi, size=(11, rows, cols))
    program = compile_parametric(encoding_template(rows, cols))
    assert np.abs(program.apply_batch(angles) - encode_batch(angles)).max() < 1e-10


def test_extend_template_appends_bound_suffix():
    rng = np.random.default_rng(5)
    template = encoding_template(2, 3)
    suffix = random_template(rng, 3, 10, slot_prob=0.0)
    full = extend_template(template, suffix)
    assert full.num_parameters == template.num_parameters
    assert full.num_gates == template.num_gates + suffix.num_gates
    # None suffix is the identity composition.
    assert extend_template(template, None) is template
    with pytest.raises(ValueError, match="bound"):
        extend_template(template, encoding_template(2, 3))
    with pytest.raises(ValueError, match="qubit count"):
        extend_template(template, random_template(rng, 2, 4, slot_prob=0.0))


# ----------------------------------------------------------------- structure
def test_encoder_chains_collapse_per_qubit():
    """rows alternating RZ/RX rotations per wire merge into ONE chain each,
    so encoding costs cols state-sized passes instead of rows * cols."""
    rows, cols = 6, 4
    program = compile_parametric(encoding_template(rows, cols))
    chains = [s for s in program.segments if isinstance(s, AngleChain)]
    assert len(chains) == cols
    assert sorted(c.qubit for c in chains) == list(range(cols))
    for chain in chains:
        assert chain.num_factors == rows
        # Slot indices are this qubit's column of the C-order angle grid.
        assert chain.slots == tuple(r * cols + chain.qubit for r in range(rows))
    # The H layer fuses into shared dense blocks.
    blocks = [s for s in program.segments if isinstance(s, FusedBlock)]
    assert sum(b.source_gates for b in blocks) == cols


def test_bound_gates_fold_into_neighbouring_chain():
    """A bound 1q gate adjacent to a slot chain rides along as a fixed
    factor instead of opening a new fused block."""
    c = Circuit(2)
    c.append("rx", 0, "a")
    c.append("h", 0)
    c.append("rz", 0, "b")
    program = compile_parametric(c)
    assert program.num_blocks == 0
    assert program.num_chains == 1
    assert program.segments[0].num_factors == 3

    rng = np.random.default_rng(0)
    angles = rng.uniform(-np.pi, np.pi, size=(5, 2))
    oracle = np.stack([run_circuit(c.bind(a)) for a in angles])
    assert np.abs(program.apply_batch(angles) - oracle).max() < 1e-12


def test_disjoint_runs_merge_past_chains():
    """Bound gates commute past support-disjoint chains into earlier runs,
    keeping the fused-block count independent of interleaving order."""
    c = Circuit(3)
    c.append("h", 0)
    c.append("rz", 1, "a")  # chain on wire 1
    c.append("cz", (0, 2))  # disjoint from wire 1: merges with the h run
    program = compile_parametric(c, max_width=3)
    assert program.num_blocks == 1
    assert program.num_chains == 1

    rng = np.random.default_rng(1)
    angles = rng.uniform(-np.pi, np.pi, size=(4, 1))
    oracle = np.stack([run_circuit(c.bind(a)) for a in angles])
    assert np.abs(program.apply_batch(angles) - oracle).max() < 1e-12


# ---------------------------------------------------------------- validation
def test_unbound_controlled_rotation_rejected():
    c = Circuit(2)
    c.append("crx", (0, 1), "theta")
    with pytest.raises(ValueError, match="single-qubit rotations"):
        compile_parametric(c)


def test_compile_off_rejected():
    with pytest.raises(ValueError, match="disabled"):
        compile_parametric(encoding_template(2, 2), max_width="off")


def test_apply_batch_shape_validation():
    program = compile_parametric(encoding_template(2, 2))
    with pytest.raises(ValueError, match="angle slots"):
        program.apply_batch(np.zeros((3, 5)))
    with pytest.raises(ValueError, match="states shape"):
        program.apply_batch(np.zeros((3, 4)), states=np.zeros((2, 4)))


def test_resolve_vectorize_knob():
    assert resolve_vectorize(None) == "off"
    assert resolve_vectorize("off") == "off"
    assert resolve_vectorize("auto") == "auto"
    for bad in ("on", True, 1, "batched"):
        with pytest.raises(ValueError, match="vectorize"):
            resolve_vectorize(bad)


# ------------------------------------------------------------------ pickling
def test_program_pickles_and_matches():
    """One parent-side compile must ship to process workers intact."""
    rng = np.random.default_rng(9)
    template = random_template(rng, 3, 20)
    program = compile_parametric(template)
    clone = pickle.loads(pickle.dumps(program))
    assert isinstance(clone, ParametricCompiledCircuit)
    angles = rng.uniform(-np.pi, np.pi, size=(6, template.num_parameters))
    assert np.array_equal(program.apply_batch(angles), clone.apply_batch(angles))
