"""Network transport -- socket-path overhead vs in-process dispatch.

The transport claim: putting the serving layer behind a real TCP socket
(length-prefixed JSON+binary frames, request multiplexing, per-request
deadlines) costs framing and loopback copies but not batching -- requests
arriving over the wire coalesce in the same ``MicroBatcher`` flushes as
in-process ones, so the stacked-pass amortization survives the hop.
Measured as the same closed-loop load test as ``test_serve_load``, run
once through :class:`~repro.serve.client.InProcessTransport` and once
through :class:`~repro.serve.transport.TcpTransport` against a real
``asyncio.start_server`` loopback socket, with the acceptance bar that
the socket path stays within 1.5x of in-process throughput on the
96-request / 4-template workload and keeps ``coalesce_ratio > 1``.

Bit-equality over the wire is asserted too, on a seeded ``shots``
estimator: the decoded float64 payload must equal the standalone
``generate_features`` sweep byte for byte (the CI gate;
tests/serve/test_transport.py covers the full table).

Smoke mode (``TRANSPORT_BENCH_SMOKE=1``, the CI perf-guard job) shrinks
the load and loosens the overhead bar.  Results land in
``BENCH_transport.json`` only when ``BENCH_WRITE=1``.
"""

from __future__ import annotations

import asyncio

import numpy as np

from benchmarks.conftest import env_flag, write_bench_record
from repro.api import ExecutionConfig, ServeConfig
from repro.core.features import generate_features
from repro.core.strategies import strategy_from_name
from repro.serve import (
    FeatureServer,
    FeatureService,
    InProcessTransport,
    TcpTransport,
    run_load,
)

SMOKE = env_flag("TRANSPORT_BENCH_SMOKE")

REQUESTS = 24 if SMOKE else 96
CONCURRENCY = REQUESTS  # every request in flight at once
TEMPLATES = 2 if SMOKE else 4
NUM_QUBITS = 4 if SMOKE else 6
LAYERS = 2 if SMOKE else 4
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
# The socket path must stay within this factor of in-process throughput.
# Smoke runs are too short to average out loopback jitter, so the bar
# loosens there; the full run holds the ISSUE's 1.5x.
OVERHEAD_BAR = 3.0 if SMOKE else 1.5


def build_service() -> FeatureService:
    """Same shape as the serve benchmark: deep single-Ansatz templates."""
    config = ServeConfig(
        batch_window_ms=10.0,
        max_batch_size=64,
        pool="serial",
        result_cache_size=0,  # measure execution + wire, not cache hits
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


def drive_in_process():
    async def main():
        service = build_service()
        async with service:
            report = await run_load(
                InProcessTransport(service),
                requests=REQUESTS,
                concurrency=CONCURRENCY,
                samples=1,
                tenants=TENANTS,
                seed=1,
            )
            return report, service.metrics()

    return asyncio.run(main())


def drive_tcp():
    async def main():
        service = build_service()
        async with service, FeatureServer(service) as server:
            host, port = server.address
            async with await TcpTransport.connect(host, port) as transport:
                report = await run_load(
                    transport,
                    requests=REQUESTS,
                    concurrency=CONCURRENCY,
                    samples=1,
                    tenants=TENANTS,
                    seed=1,
                )
            return report, service.metrics()

    return asyncio.run(main())


def test_transport_load(benchmark):
    # One drive lasts tens of milliseconds: scheduler jitter would
    # dominate a single sample, so each mode keeps its best of REPEATS
    # runs (min-time benchmarking) before the ratio is taken.
    repeats = 1 if SMOKE else 3

    def measure():
        in_best = max(
            (drive_in_process() for _ in range(repeats)),
            key=lambda pair: pair[0].throughput,
        )
        tcp_best = max(
            (drive_tcp() for _ in range(repeats)),
            key=lambda pair: pair[0].throughput,
        )
        return in_best, tcp_best

    (in_report, in_metrics), (tcp_report, tcp_metrics) = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    overhead = in_report.throughput / tcp_report.throughput
    print(
        f"\n=== transport load: {REQUESTS} requests, {TEMPLATES} templates, "
        f"{len(TENANTS)} tenants ({'smoke' if SMOKE else 'full'}) ==="
    )
    for name, report, metrics in (
        ("in-process", in_report, in_metrics),
        ("tcp-socket", tcp_report, tcp_metrics),
    ):
        print(
            f"{name:<11} {report.throughput:>8.0f} rps  "
            f"p50 {report.p50_ms:>7.2f} ms  p99 {report.p99_ms:>7.2f} ms  "
            f"coalesce {metrics.coalesce_ratio:>5.1f}"
        )
    print(f"socket overhead: {overhead:.2f}x (bar: {OVERHEAD_BAR:.1f}x)")

    assert in_report.completed == REQUESTS
    assert tcp_report.completed == REQUESTS
    assert tcp_report.rejected == 0
    # Coalescing survives the socket hop.
    assert tcp_metrics.coalesce_ratio > 1.0
    assert overhead <= OVERHEAD_BAR

    write_bench_record(
        "BENCH_transport.json",
        {
            "requests": REQUESTS,
            "concurrency": CONCURRENCY,
            "templates": TEMPLATES,
            "tenants": len(TENANTS),
            "num_qubits": NUM_QUBITS,
            "smoke": SMOKE,
            "socket_overhead": overhead,
            "overhead_bar": OVERHEAD_BAR,
            "in_process": {
                **in_report.to_dict(),
                "coalesce_ratio": in_metrics.coalesce_ratio,
                "max_flush_size": in_metrics.max_flush_size,
            },
            "tcp_socket": {
                **tcp_report.to_dict(),
                "coalesce_ratio": tcp_metrics.coalesce_ratio,
                "max_flush_size": tcp_metrics.max_flush_size,
            },
        },
    )


def test_tcp_shots_bit_equal_standalone():
    """CI gate: seeded stochastic responses survive the wire bit-exact."""
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
        async with service, FeatureServer(service) as server:
            host, port = server.address
            async with await TcpTransport.connect(host, port) as transport:
                responses = await asyncio.gather(
                    *(
                        transport.submit(
                            "t", x, tenant=TENANTS[i % 3], seed=500 + i
                        )
                        for i, x in enumerate(inputs)
                    )
                )
            return responses, service.metrics()

    responses, metrics = asyncio.run(main())
    assert metrics.coalesce_ratio > 1.0  # they really shared flushes
    for i, (response, x) in enumerate(zip(responses, inputs)):
        reference = generate_features(
            strategy, x, config=execution.merged(seed=500 + i)
        )
        assert np.array_equal(response, reference)
