"""Feature-generation (Algorithm 1) tests."""

import numpy as np
import pytest

from repro.api import ExecutionConfig, QuantumDevice
from repro.core.features import (
    FeatureJob,
    evaluate_features,
    feature_circuit_tasks,
    generate_features,
    iter_feature_blocks,
    sweep_mode,
)
from repro.core.strategies import (
    AnsatzExpansion,
    HybridStrategy,
    ObservableConstruction,
)
from repro.data.encoding import encode_batch
from repro.hpc.runtime import ExecutionRuntime
from repro.quantum.backends import DensityMatrixBackend
from repro.quantum.observables import expectation
from repro.quantum.statevector import run_circuit


@pytest.fixture
def angles():
    rng = np.random.default_rng(0)
    return rng.uniform(0, 2 * np.pi, size=(9, 4, 4))


def manual_algorithm1(strategy, angles):
    """Literal Algorithm 1: nested loops over data, shifts and observables."""
    states = encode_batch(angles)
    q_cols = []
    for params in strategy.parameter_sets():
        circuit = strategy.ansatz
        evolved = (
            run_circuit(circuit.bind(params), state=states)
            if circuit is not None and circuit.num_parameters
            else states
        )
        for obs in strategy.observables():
            q_cols.append(expectation(evolved, obs))
    return np.stack(q_cols, axis=1)


@pytest.mark.parametrize(
    "strategy",
    [
        ObservableConstruction(qubits=4, locality=1),
        AnsatzExpansion(order=1),
        HybridStrategy(order=1, locality=1),
    ],
    ids=["observable", "ansatz", "hybrid"],
)
def test_matches_literal_algorithm1(strategy, angles):
    q = generate_features(strategy, angles)
    assert q.shape == (9, strategy.num_features)
    assert np.allclose(q, manual_algorithm1(strategy, angles), atol=1e-12)


def test_identity_observable_column_is_one(angles):
    s = ObservableConstruction(qubits=4, locality=1)
    q = generate_features(s, angles)
    assert np.allclose(q[:, 0], 1.0)  # identity Pauli first


def test_features_bounded(angles):
    q = generate_features(HybridStrategy(order=1, locality=2), angles)
    assert np.all(q >= -1 - 1e-9) and np.all(q <= 1 + 1e-9)


def test_executor_backends_identical(angles):
    s = HybridStrategy(order=1, locality=1)
    serial = generate_features(s, angles)
    with ExecutionRuntime("thread", 4) as runtime:
        threaded = generate_features(
            s, angles, device=QuantumDevice(ExecutionConfig(chunk_size=3), runtime=runtime)
        )
    assert np.array_equal(serial, threaded)


def test_chunk_size_invariance(angles):
    s = ObservableConstruction(qubits=4, locality=2)
    a = generate_features(s, angles, config=ExecutionConfig(chunk_size=2))
    b = generate_features(s, angles, config=ExecutionConfig(chunk_size=128))
    assert np.array_equal(a, b)


def test_shots_estimator_converges(angles):
    s = ObservableConstruction(qubits=4, locality=1)
    exact = generate_features(s, angles)
    noisy = generate_features(
        s, angles, config=ExecutionConfig(estimator="shots", shots=8000, seed=5)
    )
    assert np.max(np.abs(exact - noisy)) < 0.1


def test_shots_estimator_deterministic_under_seed(angles):
    s = ObservableConstruction(qubits=4, locality=1)
    a = generate_features(s, angles, config=ExecutionConfig(estimator="shots", shots=100, seed=3))
    b = generate_features(s, angles, config=ExecutionConfig(estimator="shots", shots=100, seed=3))
    assert np.array_equal(a, b)
    c = generate_features(s, angles, config=ExecutionConfig(estimator="shots", shots=100, seed=4))
    assert not np.array_equal(a, c)


def test_shots_estimator_schedule_independent(angles):
    """Per-task RNG spawning: results identical across executors."""
    s = ObservableConstruction(qubits=4, locality=1)
    serial = generate_features(
        s, angles, config=ExecutionConfig(estimator="shots", shots=64, seed=11, chunk_size=4)
    )
    with ExecutionRuntime("thread", 3) as runtime:
        threaded = generate_features(
            s,
            angles,
            device=QuantumDevice(
                ExecutionConfig(estimator="shots", shots=64, seed=11, chunk_size=4),
                runtime=runtime,
            ),
        )
    assert np.array_equal(serial, threaded)


def test_shadows_estimator_reasonable(angles):
    s = ObservableConstruction(qubits=4, locality=1)
    exact = generate_features(s, angles[:3])
    shadow = generate_features(
        s, angles[:3], config=ExecutionConfig(estimator="shadows", snapshots=4000, seed=2)
    )
    assert np.max(np.abs(exact - shadow)) < 0.35


def test_evaluate_features_on_states(angles):
    states = encode_batch(angles)
    s = ObservableConstruction(qubits=4, locality=1)
    via_angles = generate_features(s, angles)
    via_states = evaluate_features(s, states)
    assert np.allclose(via_angles, via_states)


def test_validation(angles):
    s = ObservableConstruction(qubits=4, locality=1)
    with pytest.raises(ValueError):
        generate_features(s, angles[0])  # not 3-D
    with pytest.raises(ValueError):
        generate_features(s, angles[:, :, :3])  # wrong qubit count
    with pytest.raises(ValueError):
        generate_features(s, angles, config=ExecutionConfig(estimator="bogus"))


#: One case per sweep path of generate_features (see sweep_mode).
SWEEP_PATHS = [
    pytest.param(
        ObservableConstruction(qubits=4, locality=1), ExecutionConfig(),
        "prepared", id="per-sample",
    ),
    pytest.param(
        ObservableConstruction(qubits=4, locality=1),
        ExecutionConfig(vectorize="auto"), "batched", id="single-instance-batched",
    ),
    pytest.param(
        HybridStrategy(order=1, locality=1, base_parameters=np.full(8, 0.3)),
        ExecutionConfig(vectorize="auto"), "shared_encoder", id="shared-encoder",
    ),
    pytest.param(
        HybridStrategy(order=1, locality=1), ExecutionConfig(vectorize="auto"),
        "pauli", id="pauli",
    ),
    pytest.param(
        HybridStrategy(order=1, locality=1),
        ExecutionConfig(vectorize="auto", backend=DensityMatrixBackend()),
        "batched", id="density-batched",
    ),
]


@pytest.mark.parametrize("strategy,config,mode", SWEEP_PATHS)
def test_zero_row_batch_rejected_on_every_path(strategy, config, mode):
    assert sweep_mode(strategy, config) == mode
    empty = np.zeros((0, 4, 4))
    with pytest.raises(ValueError, match=r"no rows: got shape \(0, 4, 4\)"):
        generate_features(strategy, empty, config=config)
    # shots=0 fails preflight (RPA106): the row check must come first.
    config = config.merged(estimator="shots", shots=0, preflight="error")
    with pytest.raises(ValueError, match=r"no rows: got shape \(0, 4, 4\)"):
        generate_features(strategy, empty, config=config)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("strategy,config,mode", SWEEP_PATHS)
def test_non_finite_angles_rejected_on_every_path(strategy, config, mode, bad):
    assert sweep_mode(strategy, config) == mode
    x = np.random.default_rng(0).uniform(0, np.pi, (3, 4, 4))
    x[2, 1, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        generate_features(strategy, x, config=config)


# ---------------------------------------------------------------- streaming
def test_iter_feature_blocks_tiles_the_matrix(angles):
    s = HybridStrategy(order=1, locality=1)
    states = encode_batch(angles)
    reference = evaluate_features(s, states, config=ExecutionConfig(chunk_size=4))
    q = s.num_observables
    assembled = np.full_like(reference, np.nan)
    count = 0
    for job, block in iter_feature_blocks(s, states, config=ExecutionConfig(chunk_size=4)):
        assert block.shape == (job.hi - job.lo, q)
        target = assembled[job.lo : job.hi, job.ansatz_index * q : (job.ansatz_index + 1) * q]
        assert np.all(np.isnan(target))  # each job yielded exactly once
        assembled[job.lo : job.hi, job.ansatz_index * q : (job.ansatz_index + 1) * q] = block
        count += 1
    assert count == s.num_ansatze * 3  # ceil(9/4) = 3 chunks
    assert np.array_equal(assembled, reference)


def test_iter_feature_blocks_stochastic_matches_evaluate(angles):
    s = ObservableConstruction(qubits=4, locality=1)
    states = encode_batch(angles)
    reference = evaluate_features(
        s, states, config=ExecutionConfig(estimator="shots", shots=64, seed=9, chunk_size=3)
    )
    q = s.num_observables
    assembled = np.empty_like(reference)
    for job, block in iter_feature_blocks(
        s, states, config=ExecutionConfig(estimator="shots", shots=64, seed=9, chunk_size=3)
    ):
        assembled[job.lo : job.hi, job.ansatz_index * q : (job.ansatz_index + 1) * q] = block
    assert np.array_equal(assembled, reference)


def test_iter_feature_blocks_validates_eagerly(angles):
    s = ObservableConstruction(qubits=4, locality=1)
    states = encode_batch(angles)
    with pytest.raises(ValueError):
        iter_feature_blocks(s, states, config=ExecutionConfig(dispatch_policy="fifo"))
    with pytest.raises(ValueError):
        iter_feature_blocks(s, states, config=ExecutionConfig(estimator="bogus"))


def test_preallocated_out_filled_in_place(angles):
    s = ObservableConstruction(qubits=4, locality=1)
    states = encode_batch(angles)
    reference = evaluate_features(s, states)
    buf = np.zeros_like(reference)
    returned = evaluate_features(s, states, out=buf)
    assert returned is buf
    assert np.array_equal(buf, reference)
    with pytest.raises(ValueError):
        evaluate_features(s, states, out=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        evaluate_features(s, states, out=np.zeros_like(reference, dtype=np.float32))


def test_dispatch_report_covers_all_tasks(angles):
    s = ObservableConstruction(qubits=4, locality=1)
    states = encode_batch(angles)
    q_matrix, report = evaluate_features(
        s, states, return_report=True, config=ExecutionConfig(chunk_size=3, dispatch_policy="lpt")
    )
    reference = evaluate_features(s, states, config=ExecutionConfig(chunk_size=3))
    assert np.array_equal(q_matrix, reference)
    assert report.policy == "lpt"
    assert report.num_tasks == 3  # p=1 x ceil(9/3) chunks
    assert all(sec >= 0 for sec in report.measured_seconds)
    assert all(cost > 0 for cost in report.predicted_costs)
    assert set(report.reconcile()) >= {"projected_makespan", "wall_s", "cost_correlation"}


def test_dispatch_policy_does_not_change_results(angles):
    s = HybridStrategy(order=1, locality=1)
    states = encode_batch(angles)
    reference = evaluate_features(s, states, config=ExecutionConfig(chunk_size=3))
    with ExecutionRuntime("thread", 3) as ex:
        for policy in ("block", "cyclic", "lpt", "work_stealing"):
            cfg = ExecutionConfig(chunk_size=3, dispatch_policy=policy)
            q = evaluate_features(s, states, device=QuantumDevice(cfg, runtime=ex))
            assert np.array_equal(q, reference), policy


def test_bare_runtime_accepted_as_executor(angles):
    """A bare runtime binds through ``QuantumDevice(cfg, runtime=rt)``: it
    stays open and the same pool serves every sweep."""
    s = ObservableConstruction(qubits=4, locality=1)
    states = encode_batch(angles)
    with ExecutionRuntime("thread", 2) as rt:
        device = QuantumDevice(ExecutionConfig(chunk_size=3), runtime=rt)
        q = evaluate_features(s, states, device=device)
        again = evaluate_features(s, states, device=device)
        device.close()
        assert not rt.closed
        assert rt.pools_created == 1
    assert np.array_equal(q, evaluate_features(s, states))
    assert np.array_equal(again, q)


def test_feature_circuit_tasks_price_depth_and_shots(angles):
    s = HybridStrategy(order=1, locality=1)
    jobs = [FeatureJob(0, 0, 4), FeatureJob(0, 4, 6)]
    programs = [s.ansatz]
    exact = feature_circuit_tasks(jobs, programs, s.num_qubits, s.num_observables, "exact", 0, 0)
    assert [t.num_circuits for t in exact] == [4, 2]
    assert all(t.shots == 0 for t in exact)
    assert exact[0].classical_flops > exact[1].classical_flops  # bigger chunk costs more
    shots = feature_circuit_tasks(jobs, programs, s.num_qubits, s.num_observables, "shots", 32, 0)
    assert all(t.shots == 32 * s.num_observables for t in shots)
    shadows = feature_circuit_tasks(
        jobs, programs, s.num_qubits, s.num_observables, "shadows", 0, 128
    )
    assert all(t.shots == 128 for t in shadows)
    # Deeper programs cost more classical work than no program at all.
    empty = feature_circuit_tasks(jobs, [None], s.num_qubits, s.num_observables, "exact", 0, 0)
    assert exact[0].classical_flops > empty[0].classical_flops
