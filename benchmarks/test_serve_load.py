"""Serving layer -- micro-batched vs per-request dispatch under load.

The serving claim: when many concurrent requests share a template
fingerprint, coalescing them into one stacked ``evolve`` pass per
flush amortizes the per-call program walk that per-request dispatch pays
over and over.  Measured here as a closed-loop load test through the real
:class:`~repro.serve.service.FeatureService` -- admission, fairness,
batcher and asyncio bridge all on the hot path -- with the acceptance bar
of >= 2x throughput for the micro-batched service over sequential
per-request dispatch on >= 64 concurrent requests sharing <= 4 templates
(deep single-Ansatz templates, where evolution dominates measurement).
Latency quantiles are recorded for both modes: micro-batching *trades
p50 latency for throughput* (a request waits out its batch window), which
the record makes visible rather than hiding.

Bit-equality under coalescing is asserted here too, on a seeded ``shots``
estimator: every served response must equal its standalone
``generate_features`` sweep no matter how requests were batched (the CI
gate; tests/serve/test_coalescing_equivalence.py covers the full table).

Smoke mode (``SERVE_BENCH_SMOKE=1``, the CI perf-guard job) shrinks the
load and gates on "batched is not slower" instead of the full 2x bar.
Results land in ``BENCH_serve.json`` only when ``BENCH_WRITE=1``.
"""

from __future__ import annotations

import asyncio

import numpy as np

from benchmarks.conftest import env_flag, write_bench_record
from repro.api import ExecutionConfig, ServeConfig
from repro.core.features import generate_features
from repro.core.strategies import strategy_from_name
from repro.serve import FeatureService, run_load

SMOKE = env_flag("SERVE_BENCH_SMOKE")

REQUESTS = 24 if SMOKE else 96
CONCURRENCY = REQUESTS  # every request in flight at once
TEMPLATES = 2 if SMOKE else 4
NUM_QUBITS = 4 if SMOKE else 6
LAYERS = 2 if SMOKE else 4
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
SPEEDUP_BAR = 1.0 if SMOKE else 2.0


def build_service(*, batch_window_ms: float, max_batch_size: int) -> FeatureService:
    """The load-test service: <= TEMPLATES deep single-Ansatz templates."""
    config = ServeConfig(
        batch_window_ms=batch_window_ms,
        max_batch_size=max_batch_size,
        pool="serial",
        result_cache_size=0,  # measure execution, not cache hits
        execution=ExecutionConfig(vectorize="auto", compile="auto"),
    )
    service = FeatureService(config)
    for i in range(TEMPLATES):
        service.register(
            f"template-{i}",
            strategy_from_name(
                "ansatz", num_qubits=NUM_QUBITS, layers=LAYERS, order=0
            ),
            rows=2 + i,  # distinct encodings: distinct coalescing groups
        )
    return service


def drive(service: FeatureService, *, sequential: bool):
    async def main():
        async with service:
            report = await run_load(
                service,
                requests=REQUESTS,
                concurrency=CONCURRENCY,
                samples=1,
                tenants=TENANTS,
                seed=1,
                sequential=sequential,
            )
            return report, service.metrics()

    return asyncio.run(main())


def test_serve_load(benchmark):
    def measure():
        batched = drive(
            build_service(batch_window_ms=10.0, max_batch_size=64),
            sequential=False,
        )
        per_request = drive(
            build_service(batch_window_ms=0.0, max_batch_size=1),
            sequential=True,
        )
        return batched, per_request

    (batched_report, batched_metrics), (seq_report, seq_metrics) = (
        benchmark.pedantic(measure, rounds=1, iterations=1)
    )

    speedup = batched_report.throughput / seq_report.throughput
    print(
        f"\n=== serve load: {REQUESTS} requests, {TEMPLATES} templates, "
        f"{len(TENANTS)} tenants ({'smoke' if SMOKE else 'full'}) ==="
    )
    for name, report, metrics in (
        ("micro-batched", batched_report, batched_metrics),
        ("per-request", seq_report, seq_metrics),
    ):
        print(
            f"{name:<14} {report.throughput:>8.0f} rps  "
            f"p50 {report.p50_ms:>7.2f} ms  p99 {report.p99_ms:>7.2f} ms  "
            f"coalesce {metrics.coalesce_ratio:>5.1f}"
        )
    print(f"speedup: {speedup:.2f}x (bar: {SPEEDUP_BAR:.1f}x)")

    assert batched_report.completed == REQUESTS
    assert seq_report.completed == REQUESTS
    assert batched_metrics.coalesce_ratio > 1.0
    assert seq_metrics.coalesce_ratio == 1.0
    assert speedup >= SPEEDUP_BAR

    write_bench_record(
        "BENCH_serve.json",
        {
            "requests": REQUESTS,
            "concurrency": CONCURRENCY,
            "templates": TEMPLATES,
            "tenants": len(TENANTS),
            "num_qubits": NUM_QUBITS,
            "smoke": SMOKE,
            "speedup": speedup,
            "speedup_bar": SPEEDUP_BAR,
            "micro_batched": {
                **batched_report.to_dict(),
                "coalesce_ratio": batched_metrics.coalesce_ratio,
                "max_flush_size": batched_metrics.max_flush_size,
            },
            "per_request": {
                **seq_report.to_dict(),
                "coalesce_ratio": seq_metrics.coalesce_ratio,
            },
        },
    )


def test_served_shots_bit_equal_standalone():
    """CI gate: seeded stochastic responses are batching-invariant."""
    strategy = strategy_from_name("observable", num_qubits=3)
    execution = ExecutionConfig(
        estimator="shots", shots=128, vectorize="auto", compile="auto"
    )
    service = FeatureService(
        ServeConfig(
            batch_window_ms=10.0,
            max_batch_size=64,
            pool="serial",
            result_cache_size=0,
            execution=execution,
        )
    )
    service.register("t", strategy, rows=2)
    rng = np.random.default_rng(9)
    inputs = [rng.uniform(0, np.pi, size=(2, 2, 3)) for _ in range(8)]

    async def main():
        async with service:
            return await asyncio.gather(
                *(
                    service.submit("t", x, tenant=TENANTS[i % 3], seed=500 + i)
                    for i, x in enumerate(inputs)
                )
            ), service.metrics()

    responses, metrics = asyncio.run(main())
    assert metrics.coalesce_ratio > 1.0  # they really shared flushes
    for i, (response, x) in enumerate(zip(responses, inputs)):
        reference = generate_features(
            strategy, x, config=execution.merged(seed=500 + i)
        )
        assert np.array_equal(response, reference)
