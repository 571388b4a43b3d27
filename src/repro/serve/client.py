"""Transport-agnostic client and load generator for the serving layer.

:class:`FeatureClient` is the tenant-side handle tests and demos use -- it
pins a tenant name so call sites read like remote clients would
(``await client.features("mnist", x)``).  Since the network transport
landed, the client speaks to any :class:`Transport`:

* :class:`InProcessTransport` -- same-loop calls straight into a
  :class:`FeatureService` (zero copies, zero sockets);
* :class:`~repro.serve.transport.TcpTransport` -- the length-prefixed
  wire protocol over a socket (see :mod:`repro.serve.protocol`).

The two are interchangeable by construction: the TCP response is decoded
from the raw bytes of the in-process array, so swapping transports never
changes a single bit of a response.

:func:`run_load` drives a whole closed-loop benchmark over a service,
transport, or client: N concurrent logical clients submitting requests
round-robin over templates, returning a :class:`LoadReport` with
throughput and latency quantiles.  The perf-guard benchmark runs it twice
(micro-batched vs sequential per-request dispatch) and asserts on the
ratio; the transport benchmark runs it once per transport and asserts
on *that* ratio.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.serve.metrics import _percentile_ms
from repro.serve.service import TEMPLATE_SEED, FeatureService

__all__ = [
    "Transport",
    "InProcessTransport",
    "FeatureClient",
    "LoadReport",
    "run_load",
]


@runtime_checkable
class Transport(Protocol):
    """What a client needs from any serving transport.

    ``templates()`` / ``template_shape()`` are synchronous because every
    transport knows its catalog up front (in-process: the registry; TCP:
    the ``welcome`` handshake).  ``submit`` / ``predict`` mirror
    :meth:`FeatureService.submit` / :meth:`~FeatureService.predict`
    exactly -- same tri-state seed, same deadline semantics, same typed
    errors -- so code written against a transport cannot tell where the
    service lives.
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

    async def aclose(self) -> None: ...


class InProcessTransport:
    """The null transport: direct same-loop calls into a service.

    ``aclose()`` is a no-op -- the transport borrows the service, it does
    not own its lifecycle (stop the service itself, or use it as an async
    context manager).
    """

    def __init__(self, service: FeatureService) -> None:
        if not isinstance(service, FeatureService):
            raise TypeError(f"service must be a FeatureService, got {service!r}")
        self.service = service

    def templates(self) -> tuple[str, ...]:
        return self.service.templates()

    def template_shape(self, name: str) -> tuple[int, int]:
        return self.service.template_shape(name)

    async def submit(
        self,
        template: str,
        x: np.ndarray,
        *,
        tenant: str = "default",
        seed: Any = TEMPLATE_SEED,
        timeout_s: float | None = None,
    ) -> np.ndarray:
        return await self.service.submit(
            template, x, tenant=tenant, seed=seed, timeout_s=timeout_s
        )

    async def predict(
        self,
        template: str,
        x: np.ndarray,
        *,
        tenant: str = "default",
        seed: Any = TEMPLATE_SEED,
        timeout_s: float | None = None,
    ) -> np.ndarray:
        return await self.service.predict(
            template, x, tenant=tenant, seed=seed, timeout_s=timeout_s
        )

    async def aclose(self) -> None:
        return None


def _as_transport(target: Any) -> Transport:
    """Normalize a service / transport / client into a transport."""
    if isinstance(target, FeatureClient):
        return target.transport
    if isinstance(target, FeatureService):
        return InProcessTransport(target)
    if isinstance(target, Transport):
        return target
    raise TypeError(
        f"run_load needs a FeatureService, a Transport, or a FeatureClient; "
        f"got {target!r}"
    )


class FeatureClient:
    """A tenant's handle on a serving transport.

    Build it over any transport::

        client = FeatureClient(transport=InProcessTransport(service))
        client = FeatureClient(transport=await TcpTransport.connect(host, port))
    """

    def __init__(self, *, transport: Transport, tenant: str = "default") -> None:
        if not isinstance(transport, Transport):
            raise TypeError(f"transport must implement Transport, got {transport!r}")
        self.transport = transport
        self.tenant = tenant

    @property
    def service(self) -> FeatureService | None:
        """The in-process service behind the transport, when there is one."""
        return getattr(self.transport, "service", None)

    async def features(
        self,
        template: str,
        x: np.ndarray,
        *,
        seed: Any = TEMPLATE_SEED,
        timeout_s: float | None = None,
    ) -> np.ndarray:
        return await self.transport.submit(
            template, x, tenant=self.tenant, seed=seed, timeout_s=timeout_s
        )

    async def predict(
        self,
        template: str,
        x: np.ndarray,
        *,
        seed: Any = TEMPLATE_SEED,
        timeout_s: float | None = None,
    ) -> np.ndarray:
        return await self.transport.predict(
            template, x, tenant=self.tenant, seed=seed, timeout_s=timeout_s
        )

    async def aclose(self) -> None:
        """Close the underlying transport (no-op for in-process)."""
        await self.transport.aclose()


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
    target: FeatureService | Transport | FeatureClient,
    *,
    requests: int,
    concurrency: int,
    samples: int = 1,
    templates: tuple[str, ...] | None = None,
    tenants: tuple[str, ...] = ("default",),
    seed: int = 0,
    sequential: bool = False,
) -> LoadReport:
    """Drive ``requests`` total requests at ``concurrency`` through ``target``.

    ``target`` is a service (driven in-process), any :class:`Transport`,
    or a :class:`FeatureClient` (its transport is used; per-request
    tenants still come from ``tenants``).  Request ``i`` targets template
    ``templates[i % len(templates)]`` as tenant ``tenants[i %
    len(tenants)]`` with deterministic angles drawn from ``seed`` and
    request seed ``seed + i`` -- so two runs over the same service config
    (on any transport) produce bit-identical responses.
    ``sequential=True`` awaits requests one at a time (the no-coalescing
    baseline); rejected requests (backpressure) are counted, not retried.
    """
    if requests < 1:
        raise ValueError(f"requests={requests} must be >= 1")
    if concurrency < 1:
        raise ValueError(f"concurrency={concurrency} must be >= 1")
    transport = _as_transport(target)
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
        except Exception:
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
