"""FeatureService lifecycle, caching, backpressure, metrics, errors."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api.config import ExecutionConfig
from repro.api.device import QuantumDevice
from repro.core.strategies import strategy_from_name
from repro.serve import (
    BackpressureError,
    FeatureService,
    ServeConfig,
    ServiceClosedError,
)
from repro.core.features import SweepPlan
from repro.serve.batcher import MicroBatcher

QUBITS = 3
ROWS = 2


def make_service(**overrides) -> FeatureService:
    defaults = dict(
        batch_window_ms=2.0,
        pool="serial",
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


def test_submit_requires_start():
    service = make_service()

    async def main():
        with pytest.raises(ServiceClosedError, match="not started"):
            await service.submit("t", angles())

    asyncio.run(main())


def test_submit_after_stop_rejected():
    async def main():
        service = make_service()
        async with service:
            pass
        with pytest.raises(ServiceClosedError, match="stopped"):
            await service.submit("t", angles())

    asyncio.run(main())


def test_unknown_template_rejected():
    async def main():
        async with make_service() as service:
            with pytest.raises(KeyError, match="unknown template"):
                await service.submit("nope", angles())

    asyncio.run(main())


def test_bad_shape_rejected():
    async def main():
        async with make_service() as service:
            with pytest.raises(ValueError, match="expects"):
                await service.submit("t", np.zeros((2, ROWS, QUBITS + 1)))

    asyncio.run(main())


def test_single_sample_round_trip():
    async def main():
        async with make_service() as service:
            x = angles(k=1)
            single = await service.submit("t", x[0])
            batch = await service.submit("t", x)
            assert single.ndim == 1
            assert np.array_equal(single, batch[0])

    asyncio.run(main())


def test_duplicate_registration_rejected():
    service = make_service()
    with pytest.raises(ValueError, match="already registered"):
        service.register(
            "t", strategy_from_name("observable", num_qubits=QUBITS), rows=ROWS
        )


def test_template_shape_and_templates():
    service = make_service()
    assert service.templates() == ("t",)
    assert service.template_shape("t") == (ROWS, QUBITS)


def test_start_refuses_starving_weights():
    service = make_service(tenant_weights={"a": 0.0})

    async def main():
        with pytest.raises(ValueError, match="RPA112"):
            await service.start()

    asyncio.run(main())


def test_cache_hits_identical_requests():
    async def main():
        async with make_service() as service:
            x = angles()
            first = await service.submit("t", x)
            second = await service.submit("t", x)
            assert np.array_equal(first, second)
            metrics = service.metrics()
            assert metrics.cache_hits_total == 1
            assert metrics.flushes_total == 1
            # Responses are copies: mutating one never poisons the cache.
            second[0, 0] = 1e9
            third = await service.submit("t", x)
            assert np.array_equal(first, third)

    asyncio.run(main())


def test_zero_size_cache_is_skipped(monkeypatch):
    """``result_cache_size=0`` turns the cache off: no key hashing, no lookup."""
    import repro.serve.service as service_module

    def no_hashing(*args, **kwargs):
        raise AssertionError("a zero-size cache must not hash request keys")

    monkeypatch.setattr(service_module, "result_key", no_hashing)

    async def main():
        async with make_service(result_cache_size=0) as service:
            x = angles()
            first = await service.submit("t", x)
            second = await service.submit("t", x)
            assert np.array_equal(first, second)
            metrics = service.metrics()
            assert metrics.cache_hits_total == 0
            assert metrics.flushes_total == 2
            assert metrics.result_cache["misses"] == 0

    asyncio.run(main())


def test_stochastic_seedless_requests_bypass_cache():
    async def main():
        service = make_service(
            execution=ExecutionConfig(
                estimator="shots", shots=64, vectorize="auto",
                compile="auto", seed=None,
            )
        )
        async with service:
            x = angles()
            await service.submit("t", x)
            await service.submit("t", x)
            assert service.metrics().cache_hits_total == 0

    asyncio.run(main())


def test_backpressure_rejects_and_counts():
    async def main():
        # Depth 1 with a long window: the second concurrent request of the
        # same tenant must bounce at admission.
        service = make_service(
            max_queue_depth=1, batch_window_ms=50.0, result_cache_size=0
        )
        async with service:
            first = asyncio.ensure_future(service.submit("t", angles(seed=1)))
            await asyncio.sleep(0)  # first request reaches the batcher
            with pytest.raises(BackpressureError):
                await service.submit("t", angles(seed=2))
            assert await first is not None
        metrics = service.metrics()
        assert metrics.rejected_total == 1
        assert metrics.tenants[0][1].rejected == 1

    asyncio.run(main())


def test_metrics_snapshot_shape():
    async def main():
        async with make_service() as service:
            await asyncio.gather(
                service.submit("t", angles(seed=1), tenant="a"),
                service.submit("t", angles(seed=2), tenant="b"),
            )
            snap = service.metrics().to_dict()
            assert snap["requests_total"] == 2
            assert snap["responses_total"] == 2
            assert snap["queue_depth"] == 0
            assert set(snap["tenants"]) == {"a", "b"}
            assert "hits" in snap["compile_cache"]
            assert "hits" in snap["result_cache"]
            assert snap["coalesce_ratio"] >= 1.0

    asyncio.run(main())


def test_flush_error_fans_out_and_counts(monkeypatch):
    def boom(artifacts, requests):
        raise RuntimeError("kernel exploded")

    monkeypatch.setattr("repro.serve.service.execute_flush", boom)

    async def main():
        async with make_service(result_cache_size=0) as service:
            results = await asyncio.gather(
                service.submit("t", angles(seed=1)),
                service.submit("t", angles(seed=2)),
                return_exceptions=True,
            )
            # The failure fans out: every waiter resolves with the error,
            # nothing wedges the loop.
            assert len(results) == 2
            assert all(isinstance(r, RuntimeError) for r in results)
            metrics = service.metrics()
            assert metrics.errors_total == 2
            assert metrics.queue_depth == 0

    asyncio.run(main())


def test_injected_device_not_closed_by_service():
    async def main():
        device = QuantumDevice(
            ExecutionConfig(vectorize="auto", compile="auto", seed=7)
        )
        service = FeatureService(ServeConfig(pool="serial"), device=device)
        service.register(
            "t", strategy_from_name("observable", num_qubits=QUBITS), rows=ROWS
        )
        async with service:
            await service.submit("t", angles())
        assert not device.closed
        device.close()

    asyncio.run(main())


def test_generator_seed_rejected():
    async def main():
        async with make_service() as service:
            with pytest.raises(TypeError, match="Generator"):
                await service.submit(
                    "t", angles(), seed=np.random.default_rng(0)
                )

    asyncio.run(main())


def test_predict_requires_head_and_uses_it():
    class DoubleHead:
        def predict(self, features):
            return features * 2

    async def main():
        service = make_service()
        service.register(
            "headed",
            strategy_from_name("observable", num_qubits=QUBITS),
            rows=ROWS,
            head=DoubleHead(),
        )
        async with service:
            with pytest.raises(ValueError, match="no head"):
                await service.predict("t", angles())
            x = angles()
            features = await service.submit("headed", x)
            predicted = await service.predict("headed", x)
            assert np.array_equal(predicted, features * 2)

    asyncio.run(main())


def test_feature_client_pins_tenant():
    """The tenant passed on the call is the one the metrics record."""

    async def main():
        async with make_service(result_cache_size=0) as service:
            await service.submit("t", angles(), tenant="team-a")
            metrics = service.metrics()
            assert [name for name, _ in metrics.tenants] == ["team-a"]

    asyncio.run(main())


def test_numpy_integer_seed_accepted():
    """The request check refuses bool and float seeds, not numpy integers."""

    async def main():
        async with make_service(
            result_cache_size=0,
            execution=ExecutionConfig(estimator="shots", shots=16, vectorize="auto", seed=7),
        ) as service:
            assert np.array_equal(
                await service.submit("t", angles(), seed=np.int64(3)),
                await service.submit("t", angles(), seed=3),
            )

    asyncio.run(main())


def test_admission_released_when_flush_fails(monkeypatch):
    def boom(artifacts, requests):
        raise RuntimeError("kernel exploded")

    monkeypatch.setattr("repro.serve.service.execute_flush", boom)

    async def main():
        service = make_service(max_queue_depth=1, result_cache_size=0)
        async with service:
            with pytest.raises(RuntimeError, match="kernel exploded"):
                await service.submit("t", angles(seed=1))
            # The failed request's admission units came back: depth is 0
            # and the tenant is re-admittable (a leak would bounce this
            # immediately with BackpressureError at depth 1).
            assert service.metrics().queue_depth == 0
            with pytest.raises(RuntimeError, match="kernel exploded"):
                await service.submit("t", angles(seed=2))

    asyncio.run(main())


def test_admission_released_when_planning_fails(monkeypatch):
    real_build = SweepPlan.build

    def bad_build(*args, **kwargs):
        raise RuntimeError("planner exploded")

    monkeypatch.setattr(SweepPlan, "build", bad_build)

    async def main():
        service = make_service(max_queue_depth=1, result_cache_size=0)
        async with service:
            with pytest.raises(RuntimeError, match="planner exploded"):
                await service.submit("t", angles(seed=1))
            # The request is planned before admission: a planner failure
            # holds no units, so a healthy retry is admitted at depth 0.
            assert service.metrics().queue_depth == 0
            monkeypatch.setattr(SweepPlan, "build", real_build)
            assert (await service.submit("t", angles(seed=2))) is not None

    asyncio.run(main())


def test_admission_released_when_enqueue_fails(monkeypatch):
    real_add = MicroBatcher.add

    def bad_add(self, key, request):
        raise RuntimeError("enqueue exploded")

    monkeypatch.setattr(MicroBatcher, "add", bad_add)

    async def main():
        service = make_service(max_queue_depth=1, result_cache_size=0)
        async with service:
            with pytest.raises(RuntimeError, match="enqueue exploded"):
                await service.submit("t", angles(seed=1))
            assert service.metrics().queue_depth == 0
            monkeypatch.setattr(MicroBatcher, "add", real_add)
            # Capacity leaked between try_acquire and enqueue would make
            # this healthy retry bounce at depth 1.
            assert (await service.submit("t", angles(seed=2))) is not None

    asyncio.run(main())


def test_zero_row_request_rejected_before_admission():
    """Alone or sharing a window with a peer, an empty batch is refused at
    the door: it never takes admission, never reaches a flush."""
    empty = np.zeros((0, ROWS, QUBITS))

    async def main():
        service = make_service(batch_window_ms=20.0, result_cache_size=0)
        async with service:
            with pytest.raises(ValueError, match="no rows"):
                await service.submit("t", empty)
            peer, alone = await asyncio.gather(
                service.submit("t", angles(seed=3)),
                service.submit("t", empty),
                return_exceptions=True,
            )
            assert isinstance(alone, ValueError) and "no rows" in str(alone)
            p, q = service.template_info("t")["layout"]
            assert peer.shape == (2, p * q)
            metrics = service.metrics()
            assert metrics.errors_total == 0
            assert metrics.queue_depth == 0

    asyncio.run(main())


def test_stop_is_idempotent():
    async def main():
        service = make_service()
        await service.start()
        await service.stop()
        await service.stop()
        assert service.closed

    asyncio.run(main())


def test_pauli_template_admitted_at_its_standalone_sweep_cost(monkeypatch):
    """A multi-instance Clifford template runs the Pauli engine per request,
    so admission prices it as that standalone sweep -- below the price of
    the same jobs as statevector evolutions."""
    from repro.core.features import generate_features, sweep_mode, unbound_programs
    from repro.serve.fairness import AdmissionController

    execution = ExecutionConfig(vectorize="auto", compile="auto", seed=7)
    strategy = strategy_from_name("ansatz", num_qubits=QUBITS, layers=1, order=1)
    assert sweep_mode(strategy, execution) == "pauli"
    x = angles(k=3)

    plans: list[SweepPlan] = []
    real_build = SweepPlan.build.__func__

    def recording_build(cls, *args, **kwargs):
        plans.append(real_build(cls, *args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(SweepPlan, "build", classmethod(recording_build))
    standalone = generate_features(strategy, x, config=execution)
    standalone_cost = float(np.sum(plans[0].costs))

    admitted: list[float] = []
    real_acquire = AdmissionController.try_acquire

    def recording_acquire(self, tenant, cost=0.0):
        admitted.append(cost)
        return real_acquire(self, tenant, cost)

    monkeypatch.setattr(AdmissionController, "try_acquire", recording_acquire)

    async def main():
        service = FeatureService(
            ServeConfig(batch_window_ms=2.0, pool="serial", execution=execution)
        )
        service.register("shifted", strategy, rows=ROWS)
        async with service:
            return await service.submit("shifted", x)

    served = asyncio.run(main())
    assert np.array_equal(served, standalone)
    assert admitted == [standalone_cost]
    statevector_plan = real_build(
        SweepPlan, strategy, execution, len(x), unbound_programs(strategy), 7
    )
    assert standalone_cost < float(np.sum(statevector_plan.costs))
