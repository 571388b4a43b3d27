"""Acceptance property suite for the persistent async runtime.

Pins the schedule-independence contract with streaming assembly on:

* ``exact``  -- bit-for-bit identical Q matrices across every
  {serial, thread, process} backend x {block, cyclic, lpt, work_stealing}
  dispatch policy combination;
* ``shots``/``shadows`` -- seed-deterministic matrices: identical for a
  fixed seed regardless of backend/policy, different under a different
  seed.

Per-task RNG streams are derived from the task *index*, so neither the
submission order (policy) nor the completion order (backend) may leak into
the numbers.  Process pools are created once per backend fixture and
reused across every sweep -- exercising pool persistence along the way.
"""

import numpy as np
import pytest

from repro.api import ExecutionConfig, QuantumDevice
from repro.core.features import evaluate_features
from repro.core.strategies import HybridStrategy
from repro.data.encoding import encode_batch
from repro.hpc.runtime import ExecutionRuntime
from repro.hpc.scheduler import SCHEDULING_POLICIES

CHUNK = 2  # 6 samples -> 3 chunks per Ansatz: real multi-task schedules


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(42)
    angles = rng.uniform(0, 2 * np.pi, size=(6, 4, 4))
    return HybridStrategy(order=1, locality=1), encode_batch(angles)


@pytest.fixture(scope="module", params=["serial", "thread", "process"])
def executor(request):
    workers = 1 if request.param == "serial" else 2
    with ExecutionRuntime(request.param, workers) as ex:
        yield ex


@pytest.mark.parametrize("policy", SCHEDULING_POLICIES)
def test_exact_bit_for_bit_across_backends_and_policies(workload, executor, policy):
    strategy, states = workload
    reference = evaluate_features(strategy, states, config=ExecutionConfig(chunk_size=CHUNK))
    q = evaluate_features(
        strategy,
        states,
        device=QuantumDevice(
            ExecutionConfig(chunk_size=CHUNK, dispatch_policy=policy), runtime=executor
        ),
    )
    assert np.array_equal(q, reference)


@pytest.mark.parametrize("policy", SCHEDULING_POLICIES)
@pytest.mark.parametrize(
    "estimator,kwargs",
    [("shots", {"shots": 32}), ("shadows", {"snapshots": 16})],
    ids=["shots", "shadows"],
)
def test_stochastic_seed_deterministic_across_schedules(
    workload, executor, policy, estimator, kwargs
):
    strategy, states = workload
    cfg = ExecutionConfig(estimator=estimator, seed=7, chunk_size=CHUNK, **kwargs)
    reference = evaluate_features(strategy, states, config=cfg)
    q = evaluate_features(
        strategy,
        states,
        device=QuantumDevice(cfg.merged(dispatch_policy=policy), runtime=executor),
    )
    assert np.array_equal(q, reference)


def test_different_seed_changes_stochastic_matrix(workload):
    strategy, states = workload
    a = evaluate_features(
        strategy,
        states,
        config=ExecutionConfig(estimator="shots", shots=32, seed=7, chunk_size=CHUNK),
    )
    b = evaluate_features(
        strategy,
        states,
        config=ExecutionConfig(estimator="shots", shots=32, seed=8, chunk_size=CHUNK),
    )
    assert not np.array_equal(a, b)


def test_process_pool_persisted_across_property_sweeps(workload, executor):
    """The module-scoped executor must have built at most one pool."""
    strategy, states = workload
    evaluate_features(
        strategy,
        states,
        device=QuantumDevice(ExecutionConfig(chunk_size=CHUNK), runtime=executor),
    )
    if executor.backend != "serial":
        assert executor.pools_created == 1
