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
from repro.core.features import generate_features
from repro.core.strategies import strategy_from_name
from repro.quantum.backends import DensityMatrixBackend
from repro.serve import FeatureService, ServeConfig

QUBITS = 3
ROWS = 2

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
]


#: Flushes ship to process workers unchanged (FlushRequest and its
#: SweepPlan pickle): one fast-path and one fallback case run there too.
PROCESS_CASES = {"shots-statevector-fast-path", "exact-multi-ansatz-statevector-fallback"}
POOL_CASES = [pytest.param(*case.values, "serial", id=case.id) for case in CASES] + [
    pytest.param(*case.values, "process", id=f"{case.id}-process")
    for case in CASES
    if case.id in PROCESS_CASES
]


def _strategy(kind: str):
    if kind == "hybrid":
        return strategy_from_name("hybrid", num_qubits=QUBITS, layers=1)
    return strategy_from_name(kind, num_qubits=QUBITS)


@pytest.mark.parametrize("kind,execution,pool", POOL_CASES)
def test_coalesced_responses_bit_equal_standalone(kind, execution, pool):
    strategy = _strategy(kind)
    config = ServeConfig(
        batch_window_ms=10.0,
        max_batch_size=64,
        pool="serial",
        cache_results=False,  # every request must really execute
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


def test_same_seed_same_input_identical_across_flush_compositions():
    """One request's bits never depend on who shared its flush."""
    strategy = _strategy("observable")
    execution = ExecutionConfig(
        estimator="shots", shots=128, vectorize="auto", compile="auto"
    )
    x = np.random.default_rng(7).uniform(0, np.pi, size=(2, ROWS, QUBITS))

    async def run_with_peers(num_peers: int) -> np.ndarray:
        config = ServeConfig(
            batch_window_ms=10.0,
            max_batch_size=64,
            pool="serial",
            cache_results=False,
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
