"""The serving transport protocol and the load generator.

:class:`Transport` is what a client needs from a serving endpoint.  Two
implement it:

* :class:`~repro.serve.service.FeatureService` itself -- same-loop calls
  with zero copies and zero sockets;
* :class:`~repro.serve.transport.TcpTransport` -- the length-prefixed
  wire protocol over a socket (see :mod:`repro.serve.protocol`).

The two are interchangeable by construction: the TCP response is decoded
from the raw bytes of the in-process array, so swapping transports never
changes a single bit of a response.  The tenant travels with each call
(``await transport.submit("mnist", x, tenant="team-a")``).

:func:`run_load` drives a whole closed-loop benchmark over a transport:
N concurrent logical clients submitting requests round-robin over
templates, returning a :class:`LoadReport` with throughput and latency
quantiles.  The perf-guard benchmark runs it twice (micro-batched vs
sequential per-request dispatch) and asserts on the ratio; the transport
benchmark runs it once per transport and asserts on *that* ratio.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.serve.fairness import BackpressureError
from repro.serve.metrics import _percentile_ms
from repro.serve.service import TEMPLATE_SEED

__all__ = [
    "Transport",
    "LoadReport",
    "run_load",
]


@runtime_checkable
class Transport(Protocol):
    """What a client needs from any serving transport.

    ``templates()`` / ``template_shape()`` are synchronous because every
    transport knows its catalog up front (in-process: the registry; TCP:
    the ``welcome`` handshake).  ``submit`` / ``predict`` are
    :meth:`~repro.serve.service.FeatureService.submit` /
    :meth:`~repro.serve.service.FeatureService.predict` -- same tri-state
    seed, same deadline semantics, same typed errors, same request checks
    -- so code written against a transport cannot tell where the service
    lives.
    """

    def templates(self) -> tuple[str, ...]: ...

    def template_shape(self, name: str) -> tuple[int, int]: ...

    async def submit(
        self,
        template: str,
        x: np.ndarray,
        *,
        tenant: str = "default",
        seed: Any = TEMPLATE_SEED,
        timeout_s: float | None = None,
    ) -> np.ndarray: ...

    async def predict(
        self,
        template: str,
        x: np.ndarray,
        *,
        tenant: str = "default",
        seed: Any = TEMPLATE_SEED,
        timeout_s: float | None = None,
    ) -> np.ndarray: ...


@dataclass(frozen=True)
class LoadReport:
    """One closed-loop load run: counts, wall time, latency quantiles."""

    requests: int
    completed: int
    rejected: int
    elapsed_s: float
    p50_ms: float
    p99_ms: float

    @property
    def throughput(self) -> float:
        """Completed requests per second over the run's wall time."""
        return self.completed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "rejected": self.rejected,
            "elapsed_s": self.elapsed_s,
            "throughput_rps": self.throughput,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
        }


async def run_load(
    transport: Transport,
    *,
    requests: int,
    concurrency: int,
    samples: int = 1,
    templates: tuple[str, ...] | None = None,
    tenants: tuple[str, ...] = ("default",),
    seed: int = 0,
    sequential: bool = False,
) -> LoadReport:
    """Drive ``requests`` total requests at ``concurrency`` through ``transport``.

    ``transport`` is any :class:`Transport`: a
    :class:`~repro.serve.service.FeatureService` (driven in-process) or a
    :class:`~repro.serve.transport.TcpTransport`.  Request ``i`` targets
    template ``templates[i % len(templates)]`` as tenant ``tenants[i %
    len(tenants)]`` with deterministic angles drawn from ``seed`` and
    request seed ``seed + i`` -- so two runs over the same service config
    (on any transport) produce bit-identical responses.
    ``sequential=True`` awaits requests one at a time (the no-coalescing
    baseline).  Requests refused with
    :class:`~repro.serve.fairness.BackpressureError` are counted as
    rejected, not retried; any other failure propagates.
    """
    if requests < 1:
        raise ValueError(f"requests={requests} must be >= 1")
    if concurrency < 1:
        raise ValueError(f"concurrency={concurrency} must be >= 1")
    if not isinstance(transport, Transport):
        raise TypeError(f"run_load needs a Transport, got {transport!r}")
    names = templates if templates is not None else transport.templates()
    if not names:
        raise ValueError("run_load needs at least one registered template")
    rng = np.random.default_rng(seed)
    inputs = {
        name: rng.uniform(0, np.pi, size=(samples, *transport.template_shape(name)))
        for name in names
    }
    latencies: list[float] = []
    rejected = 0

    async def one(i: int) -> None:
        nonlocal rejected
        name = names[i % len(names)]
        tenant = tenants[i % len(tenants)]
        t0 = time.perf_counter()
        try:
            await transport.submit(name, inputs[name], tenant=tenant, seed=seed + i)
        except BackpressureError:
            rejected += 1
            return
        latencies.append(time.perf_counter() - t0)

    gate = asyncio.Semaphore(concurrency)

    async def gated(i: int) -> None:
        async with gate:
            await one(i)

    start = time.perf_counter()
    if sequential:
        for i in range(requests):
            await one(i)
    else:
        await asyncio.gather(*(gated(i) for i in range(requests)))
    elapsed = time.perf_counter() - start
    reservoir = deque(latencies)
    return LoadReport(
        requests=requests,
        completed=len(latencies),
        rejected=rejected,
        elapsed_s=elapsed,
        p50_ms=_percentile_ms(reservoir, 50),
        p99_ms=_percentile_ms(reservoir, 99),
    )
