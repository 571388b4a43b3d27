"""``FeatureService`` -- the asyncio front-end over a shared device.

A service binds a :class:`~repro.api.config.ServeConfig` to one shared
:class:`~repro.api.device.QuantumDevice` and serves concurrent feature /
predict requests from many tenants:

* **registration** names a template: a strategy + encoding rows (+ an
  optional per-template execution config and classical head).  Artifacts
  (batched programs via the fingerprint-keyed compile cache, the
  coalescing group key, preflight lint) are built once here, not per
  request;
* **submission** is async: a request is cache-checked, planned (the
  :class:`~repro.core.features.SweepPlan` a standalone sweep of its rows
  builds), priced at that plan's cost, admitted against its tenant's bounds
  (:class:`~repro.serve.fairness.BackpressureError` at the door when
  full), then parked in the micro-batcher until its group flushes;
* **flushing** bridges the event loop to the runtime pool:
  ``asyncio.wrap_future(runtime.submit(execute_flush, ...))`` runs one
  stacked pass per coalesced batch and resolves every request future,
  bit-equal per request to a standalone ``generate_features`` call.

One service per event loop: ``start()`` binds the running loop and every
``submit`` must come from it (use one service per loop, or serialize loops).
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api.config import ExecutionConfig, ServeConfig
from repro.api.device import QuantumDevice
from repro.core.features import SweepPlan, preflight_circuits
from repro.quantum.batched import GLOBAL_PARAMETRIC_CACHE
from repro.serve.batcher import MicroBatcher, PendingRequest
from repro.serve.engine import (
    FlushRequest,
    TemplateArtifacts,
    build_artifacts,
    execute_flush,
)
from repro.serve.fairness import AdmissionController, WeightedRoundRobin
from repro.serve.metrics import MetricsSnapshot, ServiceMetrics
from repro.serve.result_cache import ResultCache, result_key

__all__ = [
    "TEMPLATE_SEED",
    "ServiceClosedError",
    "RequestTimeoutError",
    "Registration",
    "FeatureService",
]


class _TemplateSeed:
    """Type of :data:`TEMPLATE_SEED` (a readable repr in signatures)."""

    def __repr__(self) -> str:
        return "TEMPLATE_SEED"


#: Default request seed: run under the template's execution seed.  A
#: request's seed is tri-state -- this sentinel (omitted; on the wire, no
#: ``"seed"`` key), ``None`` (fresh entropy per call) or an int.
TEMPLATE_SEED: Any = _TemplateSeed()


def _check_request(x: np.ndarray, seed: Any, timeout_s: Any) -> None:
    """Reject a request no template can serve, before it costs anything.

    Non-finite angles, a seed that is not :data:`TEMPLATE_SEED`, ``None``
    or an integer (a bool or float seed is refused, not truncated), and a
    deadline that is not a positive number (``True`` is not one).  One
    body for both ends of the wire:
    :meth:`FeatureService.submit` runs it before metrics, the result cache
    and admission see the request, and
    :class:`~repro.serve.transport.TcpTransport` before the request is
    framed -- so a bad request fails the same way in-process and over TCP.
    """
    if timeout_s is not None and (
        isinstance(timeout_s, bool)
        or not isinstance(timeout_s, (int, float))
        or not timeout_s > 0
    ):
        raise ValueError(f"timeout_s={timeout_s!r} must be > 0 or None")
    if not (
        seed is TEMPLATE_SEED
        or seed is None
        or (isinstance(seed, (int, np.integer)) and not isinstance(seed, bool))
    ):
        raise TypeError(f"per-request seeds must be int or None, got {seed!r}")
    if not np.isfinite(x).all():
        raise ValueError("angles must be finite: got NaN or inf")


class ServiceClosedError(RuntimeError):
    """The service is not accepting requests (not started, or stopped)."""


class RequestTimeoutError(TimeoutError):
    """One request exceeded its deadline; its flush-mates are unaffected.

    Structured (``template`` / ``tenant`` / ``timeout_s`` attributes plus
    the stable wire ``code``) so the transport layer can answer the one
    timed-out client with a typed error frame while coalesced peers in
    the same flush complete normally.
    """

    code = "timeout"

    def __init__(
        self,
        message: str,
        *,
        template: str = "",
        tenant: str = "",
        timeout_s: float | None = None,
    ) -> None:
        super().__init__(message)
        self.template = template
        self.tenant = tenant
        self.timeout_s = timeout_s


@dataclass(frozen=True)
class Registration:
    """One named template: strategy, encoding rows, artifacts, head."""

    name: str
    rows: int
    artifacts: TemplateArtifacts
    head: Any = None

    @property
    def strategy(self) -> Any:
        return self.artifacts.strategy


class FeatureService:
    """Async multi-tenant feature service with cross-request micro-batching.

    Usage::

        service = FeatureService(ServeConfig(batch_window_ms=2.0))
        service.register("fashion", strategy, rows=2)
        async with service:
            features = await service.submit("fashion", angles, tenant="a")

    The service is itself the in-process
    :class:`~repro.serve.client.Transport` (``templates`` /
    ``template_shape`` / ``submit`` / ``predict``), interchangeable with a
    :class:`~repro.serve.transport.TcpTransport` to it.

    Pass ``device=`` to serve on an existing session (the service then
    never closes it); otherwise the service owns a device built from
    ``config.pool`` / ``config.max_workers`` around
    ``config.execution``.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        device: QuantumDevice | None = None,
    ) -> None:
        if config is None:
            config = ServeConfig()
        if not isinstance(config, ServeConfig):
            raise TypeError(f"config must be a ServeConfig, got {config!r}")
        self.config = config
        self._device = device
        self._owns_device = device is None
        self._registrations: dict[str, Registration] = {}
        self._artifacts_by_key: dict[Any, TemplateArtifacts] = {}
        self._metrics = ServiceMetrics()
        self._cache = ResultCache(config.result_cache_size, config.result_cache_ttl_s)
        self._admission = AdmissionController(
            config.max_queue_depth, config.max_queue_cost
        )
        self._batcher: MicroBatcher | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = False
        self._closed = False

    # ------------------------------------------------------------ properties
    @property
    def started(self) -> bool:
        return self._started

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def device(self) -> QuantumDevice | None:
        """The shared device (``None`` until an owning service starts)."""
        return self._device

    def templates(self) -> tuple[str, ...]:
        """Registered template names, sorted."""
        return tuple(sorted(self._registrations))

    def template_shape(self, name: str) -> tuple[int, int]:
        """The ``(rows, cols)`` one sample of template ``name`` encodes."""
        registration = self._require_registration(name)
        return (registration.rows, registration.strategy.num_qubits)

    def template_info(self, name: str) -> dict[str, Any]:
        """Wire-facing description of one registration.

        This is what the transport handshake advertises per template:
        input shape (``rows`` x ``cols``), feature ``layout``
        ``[num_ansatze, num_observables]`` (the response's column blocks),
        whether a classical ``head`` is registered, and the template's
        resolved ``chunk_size`` (the streaming block granularity).
        """
        registration = self._require_registration(name)
        strategy = registration.strategy
        return {
            "rows": registration.rows,
            "cols": strategy.num_qubits,
            "layout": [strategy.num_ansatze, strategy.num_observables],
            "head": registration.head is not None,
            "chunk_size": registration.artifacts.cfg.resolved_chunk_size,
        }

    # ---------------------------------------------------------- registration
    def register(
        self,
        name: str,
        strategy: Any,
        *,
        rows: int,
        config: ExecutionConfig | None = None,
        head: Any = None,
    ) -> None:
        """Register a named template (before or after ``start()``).

        ``config`` overrides the service-wide execution config for this
        template only; its seed is the template's *default* request seed
        (``submit(seed=...)`` overrides per request).  ``head`` is any
        object with ``predict(features)`` -- it makes :meth:`predict`
        available for this template.  Registration compiles the batched
        programs once and runs the serve preflight per the execution
        config's ``preflight`` knob.
        """
        from repro.analysis.preflight import run_serve_preflight

        if not name or not isinstance(name, str):
            raise ValueError(f"template name must be a non-empty string, got {name!r}")
        if name in self._registrations:
            raise ValueError(f"template {name!r} is already registered")
        if self._closed:
            raise ServiceClosedError("cannot register on a stopped service")
        if rows < 1:
            raise ValueError(f"rows={rows} must be >= 1")
        execution = config if config is not None else self.config.execution
        assert execution is not None  # ServeConfig canonicalized it
        if isinstance(execution.seed, np.random.Generator):
            raise TypeError(
                "served templates need an int (or None) seed: a live Generator "
                "has no serializable identity for the result cache or group key"
            )
        if head is not None and not callable(getattr(head, "predict", None)):
            raise TypeError(f"head must expose predict(features), got {head!r}")
        artifacts = build_artifacts(strategy, rows, execution)
        if execution.preflight != "off":
            run_serve_preflight(
                self.config.merged(execution=execution),
                num_qubits=strategy.num_qubits,
                circuits=preflight_circuits(strategy, artifacts.template),
                owner=f"FeatureService.register({name!r})",
            )
        self._registrations[name] = Registration(
            name=name, rows=rows, artifacts=artifacts, head=head
        )
        # Identical templates coalesce across registrations: last one wins
        # the mapping, but equal keys imply interchangeable artifacts.
        self._artifacts_by_key[artifacts.group_key] = artifacts

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> FeatureService:
        """Bind the running loop, refuse broken configs, warm the device."""
        from repro.analysis.preflight import run_serve_preflight

        if self._closed:
            raise ServiceClosedError("service was stopped; build a new one")
        if self._started:
            raise RuntimeError("service is already started")
        starving = [name for name, weight in self.config.tenant_weights if weight <= 0]
        if starving:
            raise ValueError(
                f"tenant_weights would starve {starving} (RPA112): every "
                f"named tenant needs a positive weight"
            )
        if self.config.batch_window_ms < 0:
            raise ValueError(
                f"batch_window_ms={self.config.batch_window_ms} is negative "
                f"(RPA110); use 0 to disable coalescing"
            )
        run_serve_preflight(self.config, owner="FeatureService.start")
        self._loop = asyncio.get_running_loop()
        if self._device is None:
            self._device = QuantumDevice(
                self.config.execution,
                pool=self.config.pool,
                max_workers=self.config.max_workers,
            )
        self._device.warm()
        self._batcher = MicroBatcher(
            window_s=self.config.batch_window_s,
            max_batch_size=self.config.max_batch_size,
            selector=WeightedRoundRobin(self.config.weights()),
            flush=self._run_flush,
        )
        self._started = True
        return self

    async def stop(self) -> None:
        """Stop admitting, drain every pending flush, release the device."""
        if self._closed:
            return
        self._closed = True
        if self._batcher is not None:
            await self._batcher.drain()
        if self._owns_device and self._device is not None:
            self._device.close()

    async def __aenter__(self) -> FeatureService:
        if not self._started:
            await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -------------------------------------------------------------- requests
    async def submit(
        self,
        template: str,
        x: np.ndarray,
        *,
        tenant: str = "default",
        seed: Any = TEMPLATE_SEED,
        timeout_s: float | None = None,
    ) -> np.ndarray:
        """Features for ``x`` under ``template``; coalesces with peers.

        ``x`` is ``(k, rows, cols)`` with ``k >= 1`` (or a single
        ``(rows, cols)`` sample, returned as ``(m,)``).  Any other shape, a
        non-finite angle, a seed that is neither an integer nor ``None``
        and a deadline that is not a positive number raise before the
        request is counted, cached or admitted.  ``seed`` defaults to the
        template's execution seed; per-request seeds keep the standalone seed
        contract -- the response equals
        ``generate_features(strategy, x, config=execution.merged(seed=seed))``
        bit for bit.  Raises
        :class:`~repro.serve.fairness.BackpressureError` when the tenant's
        admission bounds are full.

        ``timeout_s`` is this request's deadline, covering the batch
        window *and* the flush: on expiry the request is withdrawn from
        its coalescing group (still-queued) or abandoned (mid-flush) and
        :class:`RequestTimeoutError` is raised -- its flush-mates complete
        normally either way.  Cancelling the coroutine (a disconnected
        client) withdraws the request the same way.
        """
        self._check_serving()
        x = np.asarray(x, dtype=float)
        _check_request(x, seed, timeout_s)
        registration = self._require_registration(template)
        artifacts = registration.artifacts
        cfg = artifacts.cfg
        single = x.ndim == 2
        if single:
            x = x[None]
        if x.ndim != 3 or x.shape[1:] != (
            registration.rows,
            registration.strategy.num_qubits,
        ):
            raise ValueError(
                f"template {template!r} expects (k, {registration.rows}, "
                f"{registration.strategy.num_qubits}) angles, got {x.shape}"
            )
        if x.shape[0] == 0:
            raise ValueError(f"template {template!r} got no rows: angles of shape {x.shape}")
        if seed is TEMPLATE_SEED:
            seed = cfg.seed
        seed = None if seed is None else int(seed)
        self._metrics.record_request(tenant)
        # Stochastic estimators with seed None draw fresh entropy per call;
        # caching would freeze one draw, so those requests bypass the cache.
        # A zero-size cache is off: no key hashing, no lookup.
        stochastic = cfg.estimator != "exact"
        cache_key = None
        if self._cache.maxsize and not (stochastic and seed is None):
            cache_key = result_key(
                artifacts.group_key, x, seed if stochastic else None
            )
            cached = self._cache.get(cache_key)
            if cached is not None:
                self._metrics.record_cache_hit(tenant)
                return cached[0] if single else cached
        # The plan a standalone sweep of these rows builds: its jobs and
        # seeds drive the flush, its cost is the admission price.
        plan = SweepPlan.build(
            registration.strategy, cfg, x.shape[0], artifacts.programs, seed
        )
        cost = float(np.sum(plan.costs))
        try:
            self._admission.try_acquire(tenant, cost)
        except Exception:
            self._metrics.record_rejected(tenant)
            raise
        start = time.perf_counter()
        # Everything between admission and resolution runs under this
        # try/finally: an exception anywhere (enqueueing, the flush itself,
        # a deadline, a cancelled caller) must release the tenant's
        # admission units, or a failing group would permanently leak
        # capacity and eventually backpressure a healthy tenant.
        try:
            assert self._loop is not None and self._batcher is not None
            future: asyncio.Future = self._loop.create_future()
            payload = FlushRequest(angles=x, seed=seed, plan=plan)
            pending = PendingRequest(tenant, payload, cost, future)
            self._batcher.add(artifacts.group_key, pending)
            try:
                if timeout_s is None:
                    result = await future
                else:
                    try:
                        result = await asyncio.wait_for(
                            asyncio.shield(future), timeout_s
                        )
                    except asyncio.TimeoutError:
                        self._abandon(artifacts.group_key, pending)
                        self._metrics.record_timeout(tenant)
                        raise RequestTimeoutError(
                            f"request for template {template!r} (tenant "
                            f"{tenant!r}) exceeded its {timeout_s} s deadline; "
                            f"coalesced peers are unaffected",
                            template=template,
                            tenant=tenant,
                            timeout_s=timeout_s,
                        ) from None
            except asyncio.CancelledError:
                # Disconnected client: withdraw from the window (queued)
                # or leave the flush to skip the resolved future (inflight).
                self._abandon(artifacts.group_key, pending)
                raise
        finally:
            self._admission.release(tenant, cost)
        self._metrics.record_response(tenant, time.perf_counter() - start)
        if cache_key is not None:
            self._cache.put(cache_key, result)
        return result[0] if single else result

    def _abandon(self, group_key: Any, pending: PendingRequest) -> None:
        """Withdraw one request: dequeue if still windowed, resolve future."""
        assert self._batcher is not None
        self._batcher.discard(group_key, pending)
        future = pending.future
        if not future.done():
            future.cancel()
        elif not future.cancelled():
            # Lost race: the flush resolved just as the deadline fired.
            # Retrieve a possible exception so the loop never logs an
            # "exception was never retrieved" for an abandoned request.
            future.exception()

    async def predict(
        self,
        template: str,
        x: np.ndarray,
        *,
        tenant: str = "default",
        seed: Any = TEMPLATE_SEED,
        timeout_s: float | None = None,
    ) -> np.ndarray:
        """Features via :meth:`submit`, then the template's classical head."""
        registration = self._require_registration(template)
        if registration.head is None:
            raise ValueError(
                f"template {template!r} has no head; register(head=...) to "
                f"serve predictions"
            )
        features = await self.submit(
            template, x, tenant=tenant, seed=seed, timeout_s=timeout_s
        )
        if features.ndim == 1:
            features = features[None]
        return np.asarray(registration.head.predict(features))

    # --------------------------------------------------------------- metrics
    def metrics(self) -> MetricsSnapshot:
        """Freeze the service's counters into a snapshot (any thread)."""
        outstanding = {
            tenant: int(entry["depth"])
            for tenant, entry in self._admission.snapshot().items()
        }
        return self._metrics.snapshot(
            queue_depth=self._admission.depth(),
            outstanding=outstanding,
            compile_cache=dataclasses.asdict(GLOBAL_PARAMETRIC_CACHE.info()),
            result_cache=self._cache.info().to_dict(),
        )

    # -------------------------------------------------------------- internals
    def _require_registration(self, name: str) -> Registration:
        registration = self._registrations.get(name)
        if registration is None:
            raise KeyError(
                f"unknown template {name!r}; registered: {self.templates()}"
            )
        return registration

    def _check_serving(self) -> None:
        if not self._started:
            raise ServiceClosedError("service is not started; await start()")
        if self._closed:
            raise ServiceClosedError("service is stopped")
        if asyncio.get_running_loop() is not self._loop:
            raise RuntimeError(
                "submit() must run on the loop the service started on"
            )

    async def _run_flush(self, key: Any, batch: list[PendingRequest]) -> None:
        """Bridge one coalesced batch to the runtime pool and resolve it."""
        self._metrics.record_flush(len(batch))
        try:
            artifacts = self._artifacts_by_key[key]
            requests = [pending.payload for pending in batch]
            assert self._device is not None
            results = await asyncio.wrap_future(
                self._device.runtime.submit(execute_flush, artifacts, requests)
            )
        except Exception as exc:
            self._metrics.record_error(len(batch))
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        for pending, block in zip(batch, results, strict=True):
            if not pending.future.done():
                pending.future.set_result(block)
