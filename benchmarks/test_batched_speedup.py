"""E14 -- batched structure-shared execution vs the per-sample oracle.

The Q-matrix hot loop evaluates one template ``U(theta_j) S(x_i)`` per data
point; the per-sample engine must bind the encoding angles into the gate
matrices and re-walk the circuit for every row.  The batched engine
(:mod:`repro.quantum.batched`) compiles the template once -- shared fused
blocks + per-sample angle chains -- and evolves the whole batch in one
stacked pass.  Measured here on the reference workload (8 qubits, depth
>= 40, batch 256, locality-1 Pauli block) with the acceptance bar of a
>= 2x speedup over sample-at-a-time bind + evolve + measure; the measured
number is typically far larger (see BENCH_batched.json).

Also reports the end-to-end Q-matrix sweep delta: ``generate_features``
under ``vectorize="auto"`` vs ``"off"`` (both compiled), with the sweep mode
each ``"auto"`` arm ran.  A single instance runs the batched engine; the
17-instance ensemble at theta = 0 is Clifford and runs the Pauli engine;
the same ensemble at seeded nonzero base parameters is not, and records
the shared-encoder win (report-only).

Smoke mode (``BATCHED_BENCH_SMOKE=1``, the CI perf-guard job) shrinks the
workload and gates on "batched is not slower than the per-sample oracle"
instead of the full 2x bar.  Results are written to ``BENCH_batched.json``
only when ``BENCH_WRITE=1`` (opt-in, so local runs never dirty the tree).
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import best_of, env_flag, write_bench_record
from repro.api import ExecutionConfig
from repro.core.ansatz import hardware_efficient_ansatz
from repro.core.features import generate_features, sweep_mode
from repro.core.strategies import AnsatzExpansion
from repro.data.encoding import encoding_template
from repro.quantum.batched import compile_parametric, extend_template
from repro.quantum.circuit import Circuit
from repro.quantum.observables import expectation, local_pauli_strings
from repro.quantum.statevector import run_circuit

SMOKE = env_flag("BATCHED_BENCH_SMOKE")

NUM_QUBITS = 8
ROWS = 4
TARGET_DEPTH = 10 if SMOKE else 40
BATCH = 16 if SMOKE else 256
REPEATS = 2 if SMOKE else 5
LOCALITY = 1


def build_ansatz() -> Circuit:
    """A bound depth>=TARGET_DEPTH hardware-efficient Ansatz instance."""
    rng = np.random.default_rng(0)
    circuit = Circuit(NUM_QUBITS, name="qmatrix-ansatz")
    while circuit.depth() < TARGET_DEPTH:
        for q in range(NUM_QUBITS):
            circuit.append("ry", q, float(rng.uniform(-np.pi, np.pi)))
            circuit.append("rz", q, float(rng.uniform(-np.pi, np.pi)))
        for q in range(NUM_QUBITS - 1):
            circuit.append("cnot", (q, q + 1))
    return circuit


def run_benchmark():
    rng = np.random.default_rng(1)
    angles = rng.uniform(0, 2 * np.pi, size=(BATCH, ROWS, NUM_QUBITS))
    observables = local_pauli_strings(NUM_QUBITS, LOCALITY)
    template = extend_template(encoding_template(ROWS, NUM_QUBITS), build_ansatz())

    compile_start = time.perf_counter()
    program = compile_parametric(template)
    compile_time = time.perf_counter() - compile_start

    flat = angles.reshape(BATCH, -1)

    def per_sample_block() -> np.ndarray:
        """Sample-at-a-time Q-matrix block: bind, evolve, measure per row."""
        block = np.empty((BATCH, len(observables)))
        for i in range(BATCH):
            state = run_circuit(template.bind(flat[i]))
            for b, obs in enumerate(observables):
                block[i, b] = expectation(state, obs)
        return block

    def batched_block() -> np.ndarray:
        """One stacked pass + batched Pauli expectations."""
        states = program.apply_batch(angles)
        block = np.empty((BATCH, len(observables)))
        for b, obs in enumerate(observables):
            block[:, b] = expectation(states, obs)
        return block

    oracle = per_sample_block()
    batched = batched_block()
    max_err = float(np.abs(oracle - batched).max())

    t_per_sample = best_of(per_sample_block, REPEATS)
    t_batched = best_of(batched_block, REPEATS)

    # End-to-end sweeps: the same knob through generate_features (chunked
    # dispatch, streaming assembly).  A single-instance strategy takes the
    # fully stacked path (encoder + Ansatz as one program per job); a
    # Clifford ensemble evolves no state (Pauli engine); a non-Clifford
    # ensemble shares one batched-encoder pass across all instances, a win
    # bounded by the encoder share of the sweep since the "off" arm already
    # batches chunk evolution through the compiled engine.
    def sweep_delta(strategy) -> dict:
        cfg = ExecutionConfig(compile="auto", chunk_size=64)
        q_off = generate_features(strategy, angles, config=cfg.merged(vectorize="off"))
        q_auto = generate_features(strategy, angles, config=cfg.merged(vectorize="auto"))
        t_off = best_of(
            lambda: generate_features(
                strategy, angles, config=cfg.merged(vectorize="off")
            ),
            repeats=min(REPEATS, 3),
        )
        t_auto = best_of(
            lambda: generate_features(
                strategy, angles, config=cfg.merged(vectorize="auto")
            ),
            repeats=min(REPEATS, 3),
        )
        return {
            "num_ansatze": strategy.num_ansatze,
            "sweep_mode": sweep_mode(strategy, cfg.merged(vectorize="auto")),
            "t_vectorize_off_s": t_off,
            "t_vectorize_auto_s": t_auto,
            "speedup": t_off / t_auto,
            "max_abs_err": float(np.abs(q_off - q_auto).max()),
        }

    sweep_single = sweep_delta(
        AnsatzExpansion(circuit=hardware_efficient_ansatz(NUM_QUBITS, 2), order=0)
    )
    sweep_multi = sweep_delta(
        AnsatzExpansion(circuit=hardware_efficient_ansatz(NUM_QUBITS, 1), order=1)
    )
    sweep_non_clifford = sweep_delta(
        AnsatzExpansion(
            circuit=hardware_efficient_ansatz(NUM_QUBITS, 1),
            order=1,
            base_parameters=np.random.default_rng(2).uniform(-np.pi, np.pi, NUM_QUBITS),
        )
    )

    return {
        "benchmark": "batched_speedup",
        "workload": {
            "num_qubits": NUM_QUBITS,
            "rows": ROWS,
            "ansatz_depth": template.depth(),
            "template_gates": template.num_gates,
            "angle_slots": program.num_slots,
            "batch": BATCH,
            "observables": len(observables),
            "smoke": SMOKE,
        },
        "program": {
            "blocks": program.num_blocks,
            "chains": program.num_chains,
            "fusion_width": program.fusion_width,
            "compile_time_s": compile_time,
        },
        "t_per_sample_s": t_per_sample,
        "t_batched_s": t_batched,
        "speedup": t_per_sample / t_batched,
        "max_abs_err": max_err,
        "sweep_single_instance": sweep_single,
        "sweep_multi_instance": sweep_multi,
        "sweep_multi_instance_non_clifford": sweep_non_clifford,
    }


def test_batched_beats_per_sample_oracle():
    result = run_benchmark()
    write_bench_record("BENCH_batched.json", result)

    print("\n=== E14: batched structure-shared execution ===")
    w, prog = result["workload"], result["program"]
    print(
        f"workload: {w['num_qubits']} qubits, depth {w['ansatz_depth']}, "
        f"{w['template_gates']} gates ({w['angle_slots']} angle slots), "
        f"batch {w['batch']}, {w['observables']} observables"
    )
    print(
        f"template -> {prog['blocks']} fused blocks + {prog['chains']} angle "
        f"chains (k={prog['fusion_width']}), compiled once in "
        f"{prog['compile_time_s']*1e3:.1f} ms"
    )
    print(
        f"per-sample {result['t_per_sample_s']*1e3:.1f} ms  "
        f"batched {result['t_batched_s']*1e3:.1f} ms  "
        f"speedup {result['speedup']:.1f}x  "
        f"(max |err| {result['max_abs_err']:.1e})"
    )
    for label, key in (
        ("single-instance", "sweep_single_instance"),
        ("multi-instance", "sweep_multi_instance"),
        ("multi-instance, non-Clifford", "sweep_multi_instance_non_clifford"),
    ):
        sweep = result[key]
        print(
            f"end-to-end sweep, {label} (p={sweep['num_ansatze']}, "
            f"{sweep['sweep_mode']}): "
            f"off {sweep['t_vectorize_off_s']*1e3:.1f} ms  "
            f"auto {sweep['t_vectorize_auto_s']*1e3:.1f} ms  "
            f"speedup {sweep['speedup']:.2f}x  (max |err| {sweep['max_abs_err']:.1e})"
        )

    # Correctness before speed: the stacked pass is the same map.
    assert result["max_abs_err"] < 1e-10
    assert result["sweep_single_instance"]["max_abs_err"] < 1e-10
    assert result["sweep_multi_instance"]["max_abs_err"] < 1e-10
    assert result["sweep_multi_instance_non_clifford"]["max_abs_err"] < 1e-10
    if SMOKE:
        # The CI perf-guard gate: batched must never lose to the oracle.
        assert result["speedup"] >= 1.0
    else:
        # The tentpole acceptance bar on the reference workload.
        assert result["speedup"] >= 2.0
