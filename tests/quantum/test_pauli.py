"""The Heisenberg-picture Pauli engine against its dense oracles.

(a) conjugation tables against the dense ``U^dag P U`` of every gate;
(b) each column's propagated (sign, string) against Appendix A's dense
decomposition (``core.decomposition.heisenberg_observable``, Eq. A7) and
against a gate-by-gate walk of its own instance, with the distinct strings
deduplicated at any register width;
(c) encoder Bloch vectors against statevector expectations;
(d) Pauli-mode Q against the per-sample oracle, and bit-identical across
runtimes, dispatch policies, chunk sizes and row slices; seeded shots
draw for draw equal to the per-sample oracle;
(e) one non-Clifford instance keeps the ensemble on the statevector path;
(f) a Pauli sweep runs one job per row chunk, priced at the shots and
bytes of the per-instance grid it replaces; every other path keeps one
job per (instance, chunk).
"""

from __future__ import annotations

import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionConfig, QuantumDevice
from repro.core.ansatz import fig8_ansatz
from repro.core.decomposition import heisenberg_observable
from repro.core.features import (
    SweepPlan,
    SweepRoute,
    evaluate_features,
    feature_circuit_tasks,
    generate_features,
    iter_feature_blocks,
    sweep_mode,
)
from repro.core.strategies import AnsatzExpansion, HybridStrategy
from repro.data.encoding import encode_batch, encoding_template
from repro.hpc.runtime import ExecutionRuntime
from repro.hpc.scheduler import SCHEDULING_POLICIES
from repro.quantum.circuit import Circuit
from repro.quantum.gates import FIXED_GATES, GATE_NUM_QUBITS, PARAMETRIC_GATES, gate_matrix
from repro.quantum.observables import PauliString, expectation
from repro.quantum.pauli import (
    bloch_vectors,
    clear_pauli_tables,
    conjugation_table,
    propagate,
)
from repro.quantum.statevector import run_circuit

LETTERS = "IXYZ"
QUARTER_TURNS = (0.0, np.pi / 2, -np.pi / 2, np.pi)
SINGLE_ROTATIONS = ("rx", "ry", "rz", "phase")
CONTROLLED_ROTATIONS = ("crx", "cry", "crz")
NON_CLIFFORD_FIXED = ("t", "tdg")
CLIFFORD_FIXED = tuple(sorted(set(FIXED_GATES) - set(NON_CLIFFORD_FIXED)))

CLIFFORD_CASES = (
    [(gate, None) for gate in CLIFFORD_FIXED]
    + [(gate, angle) for gate in SINGLE_ROTATIONS for angle in QUARTER_TURNS]
    + [(gate, angle) for gate in CONTROLLED_ROTATIONS for angle in (0.0, np.pi)]
)
NON_CLIFFORD_CASES = (
    [(gate, None) for gate in NON_CLIFFORD_FIXED]
    + [(gate, 0.3) for gate in SINGLE_ROTATIONS + CONTROLLED_ROTATIONS]
    + [(gate, angle) for gate in CONTROLLED_ROTATIONS for angle in (np.pi / 2, -np.pi / 2)]
)


def _string(code: int, k: int) -> str:
    """Table index -> Pauli letters (base 4, first qubit most significant)."""
    return "".join(LETTERS[(code >> 2 * (k - 1 - j)) & 3] for j in range(k))


def _column(program, column: int) -> tuple[str, float]:
    """A propagated column's (string, sign)."""
    letters = program.letters[program.index[column]]
    return "".join(LETTERS[c] for c in letters), float(program.signs[column])


def _walk(bound: Circuit, observable: PauliString) -> tuple[str, float]:
    """One instance's row, conjugated gate by gate through its own tables."""
    letters = [LETTERS.index(c) for c in observable.string]
    sign = 1.0
    for op in reversed(bound.operations):
        table = conjugation_table(op.gate, op.param)
        index = letters[op.qubits[0]]
        if len(op.qubits) == 2:
            index = 4 * index + letters[op.qubits[1]]
        sign *= float(table.signs[index])
        image = int(table.images[index])
        if len(op.qubits) == 1:
            letters[op.qubits[0]] = image
        else:
            letters[op.qubits[0]], letters[op.qubits[1]] = divmod(image, 4)
    return "".join(LETTERS[c] for c in letters), sign


# ------------------------------------------------------------------ (a)
def test_cases_cover_every_gate():
    names = {gate for gate, _ in CLIFFORD_CASES + NON_CLIFFORD_CASES}
    assert names == set(FIXED_GATES) | set(PARAMETRIC_GATES)


@pytest.mark.parametrize("gate,angle", CLIFFORD_CASES)
def test_table_equals_dense_conjugation(gate, angle):
    table = conjugation_table(gate, angle)
    assert table is not None
    k = GATE_NUM_QUBITS[gate]
    u = gate_matrix(gate, angle)
    for index in range(4**k):
        pauli = PauliString(_string(index, k)).to_matrix()
        image = PauliString(_string(int(table.images[index]), k)).to_matrix()
        assert table.signs[index] in (1.0, -1.0)
        np.testing.assert_allclose(
            u.conj().T @ pauli @ u, table.signs[index] * image, atol=1e-12
        )


@pytest.mark.parametrize("gate,angle", NON_CLIFFORD_CASES)
def test_non_clifford_gates_have_no_table(gate, angle):
    assert conjugation_table(gate, angle) is None


def test_compile_cache_clear_empties_the_tables():
    from repro.quantum import pauli
    from repro.quantum.compile import clear_compile_cache

    conjugation_table("h")
    conjugation_table("rx", np.pi / 2)
    assert pauli._TABLES
    clear_compile_cache()
    assert not pauli._TABLES
    conjugation_table("t")  # a non-Clifford lookup is not kept
    assert not pauli._TABLES


# ------------------------------------------------------------------ (b)
@st.composite
def clifford_ansatz(draw, max_qubits=3, max_gates=10):
    """An unbound Clifford-at-quarter-turns Ansatz plus bound instances."""
    n = draw(st.integers(1, max_qubits))
    circuit = Circuit(n, name="drawn")
    fixed_1q = [g for g in CLIFFORD_FIXED if GATE_NUM_QUBITS[g] == 1]
    fixed_2q = [g for g in CLIFFORD_FIXED if GATE_NUM_QUBITS[g] == 2]
    slots = 0
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(["fixed", "slot", "bound"] + (["pair"] if n > 1 else [])))
        if kind == "pair":
            qubits = draw(st.permutations(range(n)))[:2]
            circuit.append(draw(st.sampled_from(fixed_2q)), qubits)
            continue
        qubit = draw(st.integers(0, n - 1))
        if kind == "fixed":
            circuit.append(draw(st.sampled_from(fixed_1q)), qubit)
        elif kind == "slot":
            circuit.append(draw(st.sampled_from(SINGLE_ROTATIONS)), qubit, f"theta_{slots}")
            slots += 1
        else:
            angle = draw(st.sampled_from(QUARTER_TURNS))
            circuit.append(draw(st.sampled_from(SINGLE_ROTATIONS)), qubit, angle)
    p = draw(st.integers(1, 3))
    thetas = [
        np.array(draw(st.lists(st.sampled_from(QUARTER_TURNS), min_size=slots, max_size=slots)))
        for _ in range(p)
    ]
    letters = st.text(alphabet=LETTERS, min_size=n, max_size=n)
    observables = [PauliString(s) for s in draw(st.lists(letters, min_size=1, max_size=2))]
    return circuit, thetas, observables


@given(case=clifford_ansatz())
@settings(max_examples=40, deadline=None)
def test_propagation_matches_dense_heisenberg_observable(case):
    circuit, thetas, observables = case
    program = propagate(circuit, thetas, observables)
    assert program is not None
    q = len(observables)
    for a, params in enumerate(thetas):
        bound = circuit.bind(params)
        for b, observable in enumerate(observables):
            (term,) = heisenberg_observable(bound, observable).items()
            coeff, pauli = term
            string, sign = _column(program, a * q + b)
            assert string == pauli.string
            assert abs(coeff - sign) < 1e-12


@given(case=clifford_ansatz(max_qubits=4, max_gates=12))
@settings(max_examples=60, deadline=None)
def test_every_column_reproduces_its_instance_row(case):
    """The ensemble pass dedupes strings across instances and observables;
    each column still maps to exactly the (string, sign) its own instance
    gives, and every distinct string is some column's."""
    circuit, thetas, observables = case
    program = propagate(circuit, thetas, observables)
    q = len(observables)
    assert program.letters.dtype == np.uint8
    assert program.index.shape == program.signs.shape == (len(thetas) * q,)
    assert len({row.tobytes() for row in program.letters}) == len(program.letters)
    assert sorted(set(program.index.tolist())) == list(range(len(program.letters)))
    for a, params in enumerate(thetas):
        bound = circuit.bind(params)
        for b, observable in enumerate(observables):
            assert _column(program, a * q + b) == _walk(bound, observable)


def test_strings_differing_only_above_qubit_31_stay_distinct():
    """40 qubits: a base-4 integer key would need 80 bits, so two strings
    that differ only on the last qubit must still dedupe apart."""
    n = 40
    circuit = Circuit(n).append("ry", n - 1, "a")
    observables = [PauliString("Z" + "I" * (n - 2) + last) for last in "XY"]
    # ry(pi) = -iY: X -> -X, Y -> Y.
    program = propagate(circuit, [np.array([0.0]), np.array([np.pi])], observables)
    assert program.letters.shape == (2, n)
    assert [_column(program, c) for c in range(4)] == [
        (observables[0].string, 1.0),
        (observables[1].string, 1.0),
        (observables[0].string, -1.0),
        (observables[1].string, 1.0),
    ]
    x = np.random.default_rng(3).uniform(0, 2 * np.pi, (5, 1, n))
    bloch = bloch_vectors(encoding_template(1, n), x)
    q = np.empty((5, 4))
    program.gather(program.expectations(bloch), q)
    z0x, z0y = bloch[:, 0, 3] * bloch[:, n - 1, 1], bloch[:, 0, 3] * bloch[:, n - 1, 2]
    assert np.array_equal(q, np.stack([z0x, z0y, -z0x, z0y], axis=1))


def test_non_clifford_instance_stops_the_pass():
    circuit = Circuit(2).append("h", 0).append("ry", 1, "a").append("cnot", (0, 1))
    observables = [PauliString("ZZ")]
    assert propagate(circuit, [np.array([np.pi / 2])], observables) is not None
    assert propagate(circuit, [np.array([np.pi / 2]), np.array([0.3])], observables) is None
    assert propagate(Circuit(2).append("t", 0), [np.zeros(0)], observables) is None


def test_identity_ansatz_keeps_the_observables():
    observables = [PauliString("XZ"), PauliString("IY")]
    program = propagate(None, [np.zeros(0), np.zeros(0)], observables)
    assert len(program.letters) == 2
    assert [_column(program, c) for c in range(4)] == [("XZ", 1.0), ("IY", 1.0)] * 2


# ------------------------------------------------------------------ (c)
@pytest.mark.parametrize("rows,qubits", [(1, 1), (4, 4), (3, 5)])
def test_bloch_vectors_equal_statevector_expectations(rows, qubits):
    x = np.random.default_rng(rows * qubits).uniform(0, 2 * np.pi, (7, rows, qubits))
    bloch = bloch_vectors(encoding_template(rows, qubits), x)
    states = encode_batch(x)
    assert bloch.shape == (7, qubits, 4)
    assert np.all(bloch[..., 0] == 1.0)
    for qubit, code in itertools.product(range(qubits), (1, 2, 3)):
        chars = ["I"] * qubits
        chars[qubit] = LETTERS[code]
        exact = expectation(states, PauliString("".join(chars)))
        np.testing.assert_allclose(bloch[:, qubit, code], exact, atol=1e-12)


def test_bloch_vectors_cover_every_rotation_and_fixed_clifford():
    template = Circuit(2)
    template.append("h", 0).append("s", 1).append("ry", 0, "a").append("phase", 1, "b")
    template.append("sdg", 0).append("rx", 1, "c").append("rz", 0, "d").append("y", 1)
    template.append("ry", 1, 0.7)
    x = np.random.default_rng(5).uniform(-np.pi, np.pi, (6, 4))
    bloch = bloch_vectors(template, x)
    for i, row in enumerate(x):
        state = run_circuit(template.bind(row))
        for qubit, code in itertools.product(range(2), (1, 2, 3)):
            chars = ["I", "I"]
            chars[qubit] = LETTERS[code]
            exact = expectation(state, PauliString("".join(chars)))
            assert abs(bloch[i, qubit, code] - exact) < 1e-12


@pytest.mark.parametrize(
    "template,match",
    [
        (Circuit(2).append("cnot", (0, 1)), "single-qubit"),
        (Circuit(2).append("t", 0), "no Clifford table"),
    ],
)
def test_bloch_vectors_reject_unsupported_encoder_gates(template, match):
    with pytest.raises(ValueError, match=match):
        bloch_vectors(template, np.zeros((1, 0)))


# ------------------------------------------------------------------ (d)
@st.composite
def clifford_ensemble(draw):
    """A drawn Ansatz expanded around theta = 0: every instance Clifford."""
    circuit, _, _ = draw(clifford_ansatz(max_qubits=4, max_gates=8))
    if circuit.num_parameters == 0:
        circuit.append("ry", 0, "theta_extra")
    order = draw(st.integers(1, 2))
    if draw(st.booleans()):
        strategy = HybridStrategy(circuit=circuit, order=order, locality=2)
    else:
        observable = PauliString(draw(st.text(alphabet=LETTERS, min_size=circuit.num_qubits,
                                              max_size=circuit.num_qubits)))
        strategy = AnsatzExpansion(circuit=circuit, order=order, observable=observable)
    rows = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    x = np.random.default_rng(seed).uniform(0, 2 * np.pi, (5, rows, circuit.num_qubits))
    return strategy, x


@given(case=clifford_ensemble())
@settings(max_examples=25, deadline=None)
def test_pauli_sweep_matches_per_sample_oracle(case):
    strategy, x = case
    cfg = ExecutionConfig(vectorize="auto", chunk_size=2)
    assert sweep_mode(strategy, cfg) == "pauli"
    pauli = generate_features(strategy, x, config=cfg)
    oracle = generate_features(strategy, x, config=cfg.merged(vectorize="off"))
    assert np.abs(pauli - oracle).max() < 1e-10


STRATEGY = HybridStrategy(circuit=fig8_ansatz(4, 2), order=1, locality=2)
X = np.random.default_rng(11).uniform(0, 2 * np.pi, (23, 4, 4))
AUTO = ExecutionConfig(vectorize="auto", compile="auto")


@pytest.fixture(scope="module")
def reference():
    assert sweep_mode(STRATEGY, AUTO) == "pauli"
    return generate_features(STRATEGY, X, config=AUTO)


@pytest.mark.parametrize("pool", ["serial", "thread", "process"])
@pytest.mark.parametrize("policy", SCHEDULING_POLICIES)
def test_pauli_sweep_bit_identical_across_runtimes_and_policies(reference, pool, policy):
    with ExecutionRuntime(pool, 1 if pool == "serial" else 2) as runtime:
        q = generate_features(
            STRATEGY, X,
            device=QuantumDevice(
                AUTO.merged(dispatch_policy=policy, chunk_size=4), runtime=runtime
            ),
        )
    assert np.array_equal(q, reference)


@pytest.mark.parametrize("chunk_size", [1, 5, 64])
def test_pauli_sweep_bit_identical_across_chunk_sizes(reference, chunk_size):
    q = generate_features(STRATEGY, X, config=AUTO.merged(chunk_size=chunk_size))
    assert np.array_equal(q, reference)


@pytest.mark.parametrize("lo,k", [(0, 1), (7, 1), (22, 1), (3, 5), (10, 13)])
def test_pauli_rows_bit_identical_in_any_slice(reference, lo, k):
    q = generate_features(STRATEGY, X[lo : lo + k], config=AUTO)
    assert np.array_equal(q, reference[lo : lo + k])


@pytest.fixture(scope="module")
def runtimes():
    """One pool per runtime kind for the whole module; spawned processes,
    since forking a process that already runs threads warns."""
    with (
        ExecutionRuntime("serial") as serial,
        ExecutionRuntime("thread", 2) as thread,
        ExecutionRuntime("process", 2, start_method="spawn") as process,
    ):
        yield {"serial": serial, "thread": thread, "process": process}


@given(
    case=clifford_ensemble(),
    quarter_turns=st.booleans(),
    shots=st.sampled_from([1, 7, 64, 1024]),
    seed=st.integers(0, 2**32 - 1),
    chunk_size=st.integers(1, 6),
    pool=st.sampled_from(["serial", "thread", "process"]),
)
@settings(max_examples=30, deadline=None)
def test_pauli_shots_sweep_equals_vectorize_off_draw_for_draw(
    runtimes, case, quarter_turns, shots, seed, chunk_size, pool
):
    """Angles on the quarter-turn grid put Bloch components at 0 and +-1,
    where the two paths' exact values differ by roundoff and NumPy's
    binomial is discontinuous: the sampler's snap must absorb that."""
    strategy, x = case
    if quarter_turns:
        x = np.round(x / (np.pi / 2)) * (np.pi / 2)
    cfg = ExecutionConfig(
        estimator="shots", shots=shots, seed=seed, chunk_size=chunk_size, vectorize="auto"
    )
    assert sweep_mode(strategy, cfg) == "pauli"
    q = generate_features(strategy, x, device=QuantumDevice(cfg, runtime=runtimes[pool]))
    oracle = generate_features(strategy, x, config=cfg.merged(vectorize="off"))
    assert np.array_equal(q, oracle)


# ------------------------------------------------------------------ (e)
@pytest.mark.parametrize(
    "strategy",
    [
        pytest.param(
            AnsatzExpansion(circuit=Circuit(2).append("crx", (0, 1), "a"), order=1),
            id="crx-at-quarter-turn",
        ),
        pytest.param(
            HybridStrategy(
                circuit=fig8_ansatz(4, 2), order=1, locality=1,
                base_parameters=np.array([0, 0, 0, 0.4, 0, 0, 0, 0]),
            ),
            id="nonzero-base-parameter",
        ),
    ],
)
def test_non_clifford_instance_selects_shared_encoder(strategy):
    assert sweep_mode(strategy, AUTO) == "shared_encoder"
    x = X[:, :, : strategy.num_qubits]
    q = generate_features(strategy, x, config=AUTO)
    oracle = generate_features(strategy, x, config=AUTO.merged(vectorize="off"))
    assert np.abs(q - oracle).max() < 1e-10


@pytest.mark.parametrize(
    "config,mode",
    [
        pytest.param(AUTO.merged(vectorize="off"), "prepared", id="vectorize-off"),
        pytest.param(AUTO.merged(estimator="shots", shots=32), "pauli", id="shots"),
        pytest.param(
            AUTO.merged(estimator="shadows", snapshots=16), "shared_encoder", id="shadows"
        ),
    ],
)
def test_pauli_needs_auto_vectorize_and_the_exact_or_shots_estimator(config, mode):
    """Shadows snapshot a state, so they keep the statevector path."""
    assert sweep_mode(STRATEGY, config) == mode


def test_single_instance_stays_batched():
    strategy = AnsatzExpansion(circuit=fig8_ansatz(4, 2), order=0)
    assert sweep_mode(strategy, AUTO) == "batched"


def test_concurrent_propagation_survives_table_clears():
    """Serve flush threads share the table cache: racing builds and clears
    must never change a propagated program."""
    strategy = HybridStrategy(circuit=fig8_ansatz(4, 2), order=1, locality=2)
    args = (strategy.ansatz, strategy.parameter_sets(), strategy.observables())
    reference = propagate(*args)
    failures: list[str] = []
    stop = threading.Event()

    def worker():
        for _ in range(20):
            program = propagate(*args)
            if program is None or not all(
                np.array_equal(getattr(program, field), getattr(reference, field))
                for field in ("letters", "index", "signs")
            ):
                failures.append("program changed under concurrency")

    def clearer():
        while not stop.is_set():
            clear_pauli_tables()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        sweeper = threading.Thread(target=clearer)
        sweeper.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stop.set()
        sweeper.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in [*threads, sweeper])
    assert failures == []


# ------------------------------------------------------------------ (f)
@pytest.mark.parametrize("chunk_size", [4, 5, 64])
def test_pauli_sweep_runs_one_job_per_row_chunk(reference, chunk_size):
    with QuantumDevice(AUTO.merged(chunk_size=chunk_size), pool="thread", max_workers=2) as device:
        q, report = device.run(STRATEGY, X)
    assert report.num_tasks == math.ceil(len(X) / chunk_size)
    assert np.array_equal(q, reference)


@pytest.mark.parametrize("chunk_size", [4, 5, 64])
def test_pauli_shots_plan_prices_the_per_instance_grid(chunk_size):
    """A Pauli shots job stands for every instance of its rows: the plan's
    total shots (sum of shots x circuits) and result bytes equal the
    ``vectorize="off"`` plan's, and each job holds that grid's seeds."""
    cfg = AUTO.merged(estimator="shots", shots=64, chunk_size=chunk_size, seed=3)
    template = encoding_template(X.shape[1], X.shape[2])
    modes, totals, plans = [], [], []
    for config in (cfg, cfg.merged(vectorize="off")):
        route = SweepRoute.build(STRATEGY, config, template)
        plan = SweepPlan.build(STRATEGY, config, len(X), route.programs, config.seed)
        tasks = feature_circuit_tasks(
            list(plan.jobs), route.programs, STRATEGY.num_qubits,
            STRATEGY.num_observables, "shots", config.shots, config.snapshots,
        )
        modes.append(route.mode)
        totals.append(
            (sum(t.shots * t.num_circuits for t in tasks), sum(t.result_bytes for t in tasks))
        )
        plans.append(plan)
    assert modes == ["pauli", "prepared"]
    p, q = STRATEGY.num_ansatze, STRATEGY.num_observables
    assert totals[0] == totals[1] == (len(X) * p * q * 64, 8 * len(X) * p * q)
    pauli, per_instance = plans
    chunks = len(pauli.jobs)
    assert [job.ansatz_index for job in pauli.jobs] == [0] * chunks
    assert all(len(seeds) == p for seeds in pauli.seeds)
    assert [s for c in range(chunks) for s in pauli.seeds[c]] == [
        per_instance.seeds[a * chunks + c] for c in range(chunks) for a in range(p)
    ]


def test_shared_encoder_sweep_keeps_one_job_per_instance_chunk():
    strategy = HybridStrategy(
        circuit=fig8_ansatz(4, 2), order=1, locality=1,
        base_parameters=np.array([0, 0, 0, 0.4, 0, 0, 0, 0]),
    )
    assert sweep_mode(strategy, AUTO) == "shared_encoder"
    with QuantumDevice(AUTO.merged(chunk_size=5), pool="thread", max_workers=2) as device:
        _, report = device.run(strategy, X)
    assert report.num_tasks == strategy.num_ansatze * math.ceil(len(X) / 5)


def test_prepared_states_keep_per_instance_blocks(reference):
    """Prepared states have lost their angles, so ``evaluate_features`` and
    ``iter_feature_blocks`` never take the Pauli engine: each job is one
    instance's ``(chunk, q)`` block."""
    p, q = STRATEGY.num_ansatze, STRATEGY.num_observables
    cfg = AUTO.merged(chunk_size=5)
    states = encode_batch(X)
    blocks = list(iter_feature_blocks(STRATEGY, states, config=cfg))
    assert sorted((job.ansatz_index, job.lo) for job, _ in blocks) == [
        (a, lo) for a in range(p) for lo in range(0, len(X), 5)
    ]
    assert all(block.shape == (job.hi - job.lo, q) for job, block in blocks)
    evaluated, report = evaluate_features(STRATEGY, states, config=cfg, return_report=True)
    assert report.num_tasks == p * math.ceil(len(X) / 5)
    assert np.abs(evaluated - reference).max() < 1e-10
