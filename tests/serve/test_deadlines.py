"""Deadline and cancellation semantics: timeouts never stall flush-mates.

A request's ``timeout_s`` covers the batch window AND the flush.  Whether
the deadline fires while the request is still queued (mid-window) or after
its group was handed to the runtime (mid-flush), the caller gets a
structured :class:`RequestTimeoutError`, the tenant's admission units come
back, and every coalesced survivor completes bit-equal to standalone
``generate_features``.  Client cancellation (a vanished connection) takes
the same withdrawal path, and draining the service leaves zero orphaned
futures behind.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.api.config import ExecutionConfig
from repro.core.features import generate_features
from repro.core.strategies import strategy_from_name
from repro.serve import FeatureService, RequestTimeoutError, ServeConfig

QUBITS = 3
ROWS = 2


def make_service(**overrides) -> FeatureService:
    defaults = dict(
        batch_window_ms=2.0,
        pool="serial",
        result_cache_size=0,
        execution=ExecutionConfig(vectorize="auto", compile="auto", seed=7),
    )
    defaults.update(overrides)
    service = FeatureService(ServeConfig(**defaults))
    service.register(
        "t", strategy_from_name("observable", num_qubits=QUBITS), rows=ROWS
    )
    return service


def angles(k: int = 2, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0, np.pi, size=(k, ROWS, QUBITS))


def standalone(service: FeatureService, x: np.ndarray, seed: int) -> np.ndarray:
    registration = service._registrations["t"]
    cfg = registration.artifacts.cfg.merged(seed=seed)
    return generate_features(registration.strategy, x, config=cfg)


def _slow_flush(monkeypatch, delay_s: float):
    """Make every flush take ``delay_s`` inside the runtime worker."""
    from repro.serve import engine

    real_execute = engine.execute_flush

    def slow_execute(artifacts, requests):
        time.sleep(delay_s)
        return real_execute(artifacts, requests)

    monkeypatch.setattr("repro.serve.service.execute_flush", slow_execute)


# ------------------------------------------------------------- mid-window
def test_mid_window_timeout_spares_coalesced_peers():
    """A deadline elapsing inside the batch window withdraws only that
    request: its flush-mates coalesce without it and stay bit-equal."""

    async def main():
        service = make_service(batch_window_ms=150.0)
        async with service:
            doomed = asyncio.ensure_future(
                service.submit("t", angles(seed=1), seed=1, timeout_s=0.01)
            )
            survivor = asyncio.ensure_future(
                service.submit("t", angles(seed=2), seed=2)
            )
            with pytest.raises(RequestTimeoutError) as info:
                await doomed
            assert info.value.template == "t"
            assert info.value.tenant == "default"
            assert info.value.timeout_s == 0.01
            result = await survivor
            assert np.array_equal(result, standalone(service, angles(seed=2), 2))
        snapshot = service.metrics()
        assert snapshot.timeouts_total == 1
        assert snapshot.queue_depth == 0

    asyncio.run(main())


def test_mid_window_timeout_releases_admission():
    """Timed-out requests return their admission units immediately: with
    depth 1, the same tenant can submit again right after the timeout."""

    async def main():
        service = make_service(batch_window_ms=200.0, max_queue_depth=1)
        async with service:
            with pytest.raises(RequestTimeoutError):
                await service.submit("t", angles(seed=1), seed=1, timeout_s=0.01)
            assert service.metrics().queue_depth == 0
            retry = await service.submit("t", angles(seed=1), seed=1)
            assert np.array_equal(retry, standalone(service, angles(seed=1), 1))

    asyncio.run(main())


# -------------------------------------------------------------- mid-flush
def test_mid_flush_timeout_spares_coalesced_peers(monkeypatch):
    """A deadline elapsing after the group flushed abandons only that
    future; the in-flight flush still resolves every survivor bit-equal."""
    _slow_flush(monkeypatch, 0.2)

    async def main():
        service = make_service(batch_window_ms=5.0)
        async with service:
            doomed = asyncio.ensure_future(
                service.submit("t", angles(seed=1), seed=1, timeout_s=0.05)
            )
            survivor = asyncio.ensure_future(
                service.submit("t", angles(seed=2), seed=2)
            )
            with pytest.raises(RequestTimeoutError):
                await doomed
            result = await survivor
            assert np.array_equal(result, standalone(service, angles(seed=2), 2))
        snapshot = service.metrics()
        assert snapshot.timeouts_total == 1
        assert snapshot.queue_depth == 0
        assert snapshot.errors_total == 0

    asyncio.run(main())


def test_mid_flush_timeout_with_flush_error_does_not_leak(monkeypatch):
    """Worst case: the flush fails AFTER the deadline abandoned the
    request.  The error lands on the abandoned future (retrieved, not
    orphaned), admission is released, and the tenant is not poisoned."""
    from repro.serve import engine  # noqa: F401 -- mirrors _slow_flush idiom

    def failing_execute(artifacts, requests):
        time.sleep(0.15)
        raise RuntimeError("flush exploded")

    monkeypatch.setattr("repro.serve.service.execute_flush", failing_execute)

    async def main():
        service = make_service(batch_window_ms=5.0, max_queue_depth=2)
        async with service:
            with pytest.raises(RequestTimeoutError):
                await service.submit("t", angles(seed=1), seed=1, timeout_s=0.05)
            # Give the doomed flush time to fail and resolve its futures.
            await asyncio.sleep(0.3)
            assert service.metrics().queue_depth == 0
            with pytest.raises(RuntimeError, match="flush exploded"):
                await service.submit("t", angles(seed=2), seed=2)
            assert service.metrics().queue_depth == 0

    asyncio.run(main())


# ----------------------------------------------------------- cancellation
def test_cancel_mid_window_withdraws_and_releases():
    """Cancelling a waiting submit (client disconnect) dequeues it from
    its coalescing group and releases admission; peers are unaffected."""

    async def main():
        service = make_service(batch_window_ms=150.0, max_queue_depth=2)
        async with service:
            doomed = asyncio.ensure_future(
                service.submit("t", angles(seed=1), seed=1)
            )
            survivor = asyncio.ensure_future(
                service.submit("t", angles(seed=2), seed=2)
            )
            await asyncio.sleep(0.01)  # both queued, window still open
            assert service.metrics().queue_depth == 2
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            assert service.metrics().queue_depth == 1
            assert service._batcher is not None
            assert service._batcher.pending == 1
            result = await survivor
            assert np.array_equal(result, standalone(service, angles(seed=2), 2))
        assert service.metrics().queue_depth == 0

    asyncio.run(main())


def test_cancel_mid_flush_skips_resolution(monkeypatch):
    """Cancelling after the flush started leaves the flush to finish; the
    abandoned future is skipped at resolution and survivors stay exact."""
    _slow_flush(monkeypatch, 0.2)

    async def main():
        service = make_service(batch_window_ms=5.0)
        async with service:
            doomed = asyncio.ensure_future(
                service.submit("t", angles(seed=1), seed=1)
            )
            survivor = asyncio.ensure_future(
                service.submit("t", angles(seed=2), seed=2)
            )
            await asyncio.sleep(0.05)  # window closed, flush in flight
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            result = await survivor
            assert np.array_equal(result, standalone(service, angles(seed=2), 2))
        assert service.metrics().queue_depth == 0

    asyncio.run(main())


# ------------------------------------------------------------------ drain
def test_drain_leaves_zero_orphaned_futures():
    """stop() flushes every open window and awaits every in-flight flush:
    no pending requests, no in-flight tasks, every caller resolved."""

    async def main():
        service = make_service(batch_window_ms=500.0)
        await service.start()
        pending = [
            asyncio.ensure_future(
                service.submit("t", angles(seed=i), seed=i)
            )
            for i in range(1, 4)
        ]
        await asyncio.sleep(0.01)  # all parked in the 500 ms window
        batcher = service._batcher
        assert batcher is not None
        assert batcher.pending == 3
        await service.stop()
        assert batcher.pending == 0
        assert batcher.inflight_flushes == 0
        for i, fut in enumerate(pending, start=1):
            assert np.array_equal(
                await fut, standalone(service, angles(seed=i), i)
            )

    asyncio.run(main())


def test_drain_after_abandonment_leaves_zero_orphans(monkeypatch):
    """Draining while an abandoned request's flush is in flight still
    terminates cleanly with nothing left pending or in flight."""
    _slow_flush(monkeypatch, 0.15)

    async def main():
        service = make_service(batch_window_ms=5.0)
        await service.start()
        with pytest.raises(RequestTimeoutError):
            await service.submit("t", angles(seed=1), seed=1, timeout_s=0.03)
        batcher = service._batcher
        assert batcher is not None
        await service.stop()
        assert batcher.pending == 0
        assert batcher.inflight_flushes == 0
        assert service.metrics().queue_depth == 0

    asyncio.run(main())


# --------------------------------------------------------------- validation
def test_timeout_validation():
    async def main():
        service = make_service()
        async with service:
            for bad in (0, -1.0, "1"):
                with pytest.raises(ValueError, match="timeout_s"):
                    await service.submit("t", angles(), timeout_s=bad)

    asyncio.run(main())
