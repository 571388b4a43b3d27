"""Coalescing bit-equality: served responses == standalone generate_features.

The serving layer's core contract, table-driven over the execution paths:
every micro-batched response must be bit-identical to
``generate_features(strategy, x, config=execution.merged(seed=request_seed))``
no matter which concurrent requests shared its flush.  The seed contract is
per request, not per flush -- so stochastic estimators are covered too.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api.config import ExecutionConfig
from repro.api.device import QuantumDevice
from repro.core.features import generate_features, sweep_mode
from repro.core.strategies import strategy_from_name
from repro.quantum.backends import (
    DensityMatrixBackend,
    DistributedStatevectorBackend,
    MitigatedBackend,
    StatevectorBackend,
)
from repro.quantum.noise import NoiseModel
from repro.serve import FeatureService, ServeConfig

QUBITS = 3
ROWS = 2

#: Ids ending in ``-fallback`` name paths that once ran request by request;
#: every one of them coalesces now, and the ids keep their names.
CASES = [
    pytest.param(
        "observable",
        ExecutionConfig(vectorize="auto", compile="auto"),
        id="exact-statevector-fast-path",
    ),
    pytest.param(
        "observable",
        ExecutionConfig(
            estimator="shots", shots=128, vectorize="auto", compile="auto"
        ),
        id="shots-statevector-fast-path",
    ),
    pytest.param(
        "hybrid",
        ExecutionConfig(
            estimator="shots",
            shots=64,
            backend=DensityMatrixBackend(),
            vectorize="auto",
            compile="auto",
        ),
        id="shots-density-multi-ansatz-fast-path",
    ),
    # An exact ensemble of Clifford instances: it coalesces on "pauli" now,
    # the id predates that.
    pytest.param(
        "hybrid",
        ExecutionConfig(vectorize="auto", compile="auto"),
        id="exact-multi-ansatz-statevector-fallback",
    ),
    pytest.param(
        "observable",
        ExecutionConfig(estimator="shots", shots=64, vectorize="off"),
        id="shots-vectorize-off-fallback",
    ),
    # "prepared": the stacked rows are prepared once, each program evolves
    # them once -- on every backend that runs per sample.
    pytest.param(
        "hybrid-theta",
        ExecutionConfig(vectorize="off", compile="off"),
        id="exact-prepared-compile-off",
    ),
    pytest.param(
        "hybrid",
        ExecutionConfig(
            estimator="shots",
            shots=64,
            backend=DensityMatrixBackend(NoiseModel.depolarizing(0.01)),
            vectorize="off",
        ),
        id="shots-prepared-noisy-density",
    ),
    pytest.param(
        "hybrid-theta",
        ExecutionConfig(
            backend=MitigatedBackend(StatevectorBackend()),
            vectorize="auto",
            compile="auto",
        ),
        id="exact-prepared-zne",
    ),
    pytest.param(
        "hybrid-theta",
        ExecutionConfig(
            backend=DistributedStatevectorBackend(shards=2), compile="auto"
        ),
        id="exact-prepared-sharded",
    ),
    pytest.param(
        "hybrid-theta",
        ExecutionConfig(
            estimator="shadows", snapshots=32, vectorize="off", compile="auto"
        ),
        id="shadows-prepared-compiled",
    ),
    pytest.param(
        "observable",
        ExecutionConfig(
            estimator="shots", shots=64, chunk_size=2,
            vectorize="auto", compile="auto",
        ),
        id="shots-chunked-fast-path",
    ),
    pytest.param(
        "observable",
        ExecutionConfig(
            estimator="shadows", snapshots=32, vectorize="auto", compile="auto"
        ),
        id="shadows-statevector-fast-path",
    ),
    pytest.param(
        "hybrid",
        ExecutionConfig(chunk_size=2, vectorize="auto", compile="auto"),
        id="exact-pauli-chunked",
    ),
    pytest.param(
        "hybrid-theta",
        ExecutionConfig(vectorize="auto", compile="auto"),
        id="exact-shared-encoder",
    ),
    # A non-Clifford expansion point: shots on a Clifford ensemble run
    # "pauli" (the next row).
    pytest.param(
        "hybrid-theta",
        ExecutionConfig(
            estimator="shots", shots=64, vectorize="auto", compile="auto"
        ),
        id="shots-shared-encoder",
    ),
    pytest.param(
        "hybrid",
        ExecutionConfig(
            estimator="shots", shots=64, chunk_size=2, vectorize="auto", compile="auto"
        ),
        id="shots-pauli",
    ),
    pytest.param(
        "hybrid",
        ExecutionConfig(
            estimator="shadows", snapshots=32, vectorize="auto", compile="auto"
        ),
        id="shadows-shared-encoder",
    ),
    # One generic 3-qubit block per program: 1-row requests must round
    # like their rows of a taller flush.
    pytest.param(
        "ansatz-theta",
        ExecutionConfig(vectorize="auto", compile="auto"),
        id="exact-single-ansatz-full-width-block",
    ),
]


#: Flushes ship to process workers unchanged (FlushRequest and its
#: SweepPlan pickle): one case per coalescing mode runs there too.
PROCESS_CASES = {
    "shots-statevector-fast-path",
    "exact-multi-ansatz-statevector-fallback",
    "exact-pauli-chunked",
    "exact-shared-encoder",
    "shots-pauli",
    "shots-prepared-noisy-density",
    "exact-prepared-sharded",
}
POOL_CASES = [pytest.param(*case.values, "serial", id=case.id) for case in CASES] + [
    pytest.param(*case.values, "process", id=f"{case.id}-process")
    for case in CASES
    if case.id in PROCESS_CASES
]


def _theta(layers: int) -> np.ndarray:
    """A seeded non-Clifford expansion point for the Fig. 8 Ansatz."""
    return np.random.default_rng(11).uniform(-np.pi, np.pi, size=QUBITS * layers)


def _strategy(kind: str):
    """``"hybrid"`` is the 1-layer Fig. 8 ensemble, Clifford at theta = 0;
    ``"hybrid-theta"`` expands it at a non-Clifford point instead, and
    ``"ansatz-theta"`` is one non-Clifford 2-layer instance, whose second
    rotation layer fuses into a generic block on every qubit."""
    if kind == "hybrid":
        return strategy_from_name("hybrid", num_qubits=QUBITS, layers=1)
    if kind == "hybrid-theta":
        return strategy_from_name(
            "hybrid", num_qubits=QUBITS, layers=1, base_parameters=_theta(1)
        )
    if kind == "ansatz-theta":
        return strategy_from_name(
            "ansatz", num_qubits=QUBITS, order=0, base_parameters=_theta(2)
        )
    return strategy_from_name(kind, num_qubits=QUBITS)


def test_cases_cover_every_sweep_mode():
    modes = {sweep_mode(_strategy(case.values[0]), case.values[1]) for case in CASES}
    assert modes == {"batched", "pauli", "shared_encoder", "prepared"}


@pytest.mark.parametrize("kind,execution,pool", POOL_CASES)
def test_coalesced_responses_bit_equal_standalone(kind, execution, pool):
    strategy = _strategy(kind)
    config = ServeConfig(
        batch_window_ms=10.0,
        max_batch_size=64,
        pool="serial",
        result_cache_size=0,  # every request must really execute
        execution=execution,
    )
    # A spawned pool: forking a process that already runs threads warns.
    device = (
        QuantumDevice(execution, pool="process", max_workers=2, start_method="spawn")
        if pool == "process"
        else None
    )
    service = FeatureService(config, device=device)
    service.register("t", strategy, rows=ROWS)

    rng = np.random.default_rng(42)
    inputs = [
        rng.uniform(0, np.pi, size=(1 + i % 3, ROWS, QUBITS)) for i in range(6)
    ]
    seeds = [100 + i for i in range(6)]

    async def main():
        async with service:
            responses = await asyncio.gather(
                *(
                    service.submit("t", x, tenant=f"u{i % 3}", seed=s)
                    for i, (x, s) in enumerate(zip(inputs, seeds))
                )
            )
            return responses, service.metrics()

    try:
        responses, metrics = asyncio.run(main())
    finally:
        if device is not None:
            device.close()
    # The requests actually coalesced -- otherwise this tests nothing.
    assert metrics.coalesce_ratio > 1.0
    assert metrics.max_flush_size > 1
    for response, x, seed in zip(responses, inputs, seeds):
        reference = generate_features(
            strategy, x, config=execution.merged(seed=seed)
        )
        assert np.array_equal(response, reference)


def test_prepared_flush_prepares_once_and_evolves_each_program_once(monkeypatch):
    """A ``"prepared"`` flush runs like every other mode: one preparation of
    the stacked rows and one evolution per program, not one per request."""
    strategy = _strategy("hybrid-theta")
    execution = ExecutionConfig(vectorize="off", compile="auto")
    assert sweep_mode(strategy, execution) == "prepared"
    calls = {"prepare": 0, "evolve": 0}

    def counted(name):
        method = getattr(StatevectorBackend, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(StatevectorBackend, name, counted(name))
    config = ServeConfig(
        batch_window_ms=50.0,
        max_batch_size=64,
        pool="serial",
        result_cache_size=0,
        execution=execution,
    )
    service = FeatureService(config)
    service.register("t", strategy, rows=ROWS)
    rng = np.random.default_rng(3)
    inputs = [rng.uniform(0, np.pi, size=(1 + i % 3, ROWS, QUBITS)) for i in range(6)]

    async def main():
        async with service:
            await asyncio.gather(
                *(service.submit("t", x, seed=i) for i, x in enumerate(inputs))
            )
            return service.metrics()

    metrics = asyncio.run(main())
    assert metrics.flushes_total == 1
    assert calls == {"prepare": 1, "evolve": strategy.num_ansatze}


@pytest.mark.parametrize(
    "kind,execution",
    [
        pytest.param(
            "observable",
            ExecutionConfig(
                estimator="shots", shots=128, vectorize="auto", compile="auto"
            ),
            id="batched",
        ),
        pytest.param(
            "hybrid", ExecutionConfig(vectorize="auto", compile="auto"), id="pauli"
        ),
        pytest.param(
            "hybrid",
            ExecutionConfig(estimator="shots", shots=64, vectorize="auto", compile="auto"),
            id="shots-pauli",
        ),
        pytest.param(
            "hybrid-theta",
            ExecutionConfig(vectorize="auto", compile="auto"),
            id="shared-encoder",
        ),
    ],
)
def test_same_seed_same_input_identical_across_flush_compositions(kind, execution):
    """One request's bits never depend on who shared its flush."""
    strategy = _strategy(kind)
    x = np.random.default_rng(7).uniform(0, np.pi, size=(2, ROWS, QUBITS))

    async def run_with_peers(num_peers: int) -> np.ndarray:
        config = ServeConfig(
            batch_window_ms=10.0,
            max_batch_size=64,
            pool="serial",
            result_cache_size=0,
            execution=execution,
        )
        service = FeatureService(config)
        service.register("t", strategy, rows=ROWS)
        peer_rng = np.random.default_rng(1000 + num_peers)
        peers = [
            peer_rng.uniform(0, np.pi, size=(3, ROWS, QUBITS))
            for _ in range(num_peers)
        ]
        async with service:
            results = await asyncio.gather(
                service.submit("t", x, seed=55),
                *(
                    service.submit("t", p, seed=2000 + i)
                    for i, p in enumerate(peers)
                ),
            )
            return results[0]

    alone = asyncio.run(run_with_peers(0))
    with_two = asyncio.run(run_with_peers(2))
    with_five = asyncio.run(run_with_peers(5))
    assert np.array_equal(alone, with_two)
    assert np.array_equal(alone, with_five)
