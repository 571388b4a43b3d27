"""Multi-tenant feature serving with cross-request micro-batching.

Shows the serving layer end to end:

1. one :class:`FeatureService` over a shared device, two registered
   templates (a locality-2 observable map and a hybrid strategy), exposed
   over a real TCP socket by :class:`FeatureServer`;
2. two tenants with 3:1 fairness weights submitting concurrent bursts
   through the :class:`~repro.serve.client.Transport` interface, naming
   their tenant on each call -- one on the service itself (the in-process
   transport), one through a socket client speaking the length-prefixed
   wire protocol;
3. requests sharing a template coalesce into stacked flushes (watch
   ``coalesce_ratio``) *across both transports*, repeated inputs hit the
   result cache, and every response stays bit-equal to a standalone
   ``generate_features`` call no matter how it travelled;
4. the metrics snapshot: per-tenant traffic, latency quantiles, cache and
   batcher counters.

Run:  python examples/serve_demo.py
"""

import asyncio
import json

import numpy as np

from repro.api import ExecutionConfig, ServeConfig
from repro.core import HybridStrategy, ObservableConstruction
from repro.core.features import generate_features
from repro.serve import FeatureServer, FeatureService, TcpTransport, Transport

QUBITS = 4
ROWS = 2


def build_service() -> FeatureService:
    config = ServeConfig(
        batch_window_ms=5.0,          # coalescing window
        max_batch_size=32,
        tenant_weights={"team-a": 3.0, "team-b": 1.0},
        result_cache_size=256,
        pool="thread",
        max_workers=2,
        execution=ExecutionConfig(vectorize="auto", compile="auto", seed=11),
    )
    service = FeatureService(config)
    service.register(
        "fashion-observable",
        ObservableConstruction(qubits=QUBITS, locality=2),
        rows=ROWS,
    )
    service.register(
        "fashion-hybrid",
        HybridStrategy(order=1, locality=1),
        rows=ROWS,
    )
    return service


async def tenant_burst(
    transport: Transport, tenant: str, template: str, n: int, seed: int
):
    rng = np.random.default_rng(seed)
    inputs = [rng.uniform(0, np.pi, size=(2, ROWS, QUBITS)) for _ in range(n)]
    responses = await asyncio.gather(
        *(transport.submit(template, x, tenant=tenant) for x in inputs)
    )
    return inputs, responses


async def main() -> None:
    service = build_service()
    async with service, FeatureServer(service) as server:
        host, port = server.address
        tcp = await TcpTransport.connect(host, port)
        # One call surface, two transports: team-a calls the service in
        # process, team-b rides the wire protocol.

        # Concurrent bursts from both tenants over both templates: requests
        # that share a template fingerprint fuse into one stacked pass,
        # socket and in-process traffic coalescing together.
        (a_in, a_out), (b_in, b_out) = await asyncio.gather(
            tenant_burst(service, "team-a", "fashion-observable", 8, seed=1),
            tenant_burst(tcp, "team-b", "fashion-observable", 8, seed=2),
        )
        await tenant_burst(tcp, "team-b", "fashion-hybrid", 4, seed=3)

        # Resubmitting an earlier input is a result-cache hit, bit-equal.
        again = await service.submit("fashion-observable", a_in[0], tenant="team-a")
        assert np.array_equal(again, a_out[0])

        # The bit-equality contract: a served response IS the standalone
        # sweep, no matter which requests shared its flush or which
        # transport carried it -- float64 rows travel as raw bytes.
        reference = generate_features(
            ObservableConstruction(qubits=QUBITS, locality=2),
            b_in[0],
            config=service.config.execution,
        )
        assert np.array_equal(b_out[0], reference)
        await tcp.aclose()

        snapshot = service.metrics()
        print("=== service metrics ===")
        print(json.dumps(snapshot.to_dict(), indent=2))
        print(
            f"\ncoalesce ratio {snapshot.coalesce_ratio:.1f} "
            f"({snapshot.flushed_requests_total} requests in "
            f"{snapshot.flushes_total} flushes, largest "
            f"{snapshot.max_flush_size})"
        )
        for name, stats in snapshot.tenants:
            print(
                f"{name}: {stats.requests} requests, "
                f"{stats.cache_hits} cache hits, p50 {stats.p50_ms:.2f} ms"
            )


if __name__ == "__main__":
    asyncio.run(main())
