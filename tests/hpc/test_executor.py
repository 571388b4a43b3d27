"""Executor backend equivalence and ordering tests.

The executor is :class:`repro.hpc.runtime.ExecutionRuntime` configured by
:class:`repro.hpc.runtime.ExecutorConfig`: one order-preserving ``map``
over a persistent serial/thread/process pool.
"""

import os
import time

import numpy as np
import pytest

from repro.hpc import ExecutionRuntime, ExecutorConfig


def square(x):
    return x * x


def test_config_validation():
    with pytest.raises(ValueError):
        ExecutorConfig(backend="gpu")
    with pytest.raises(ValueError):
        ExecutorConfig(max_workers=0)


def test_serial_map():
    with ExecutionRuntime() as rt:
        assert rt.backend == "serial"
        assert rt.map(square, [1, 2, 3]) == [1, 4, 9]


def test_empty_tasks():
    with ExecutionRuntime("thread", 4) as rt:
        assert rt.map(square, []) == []
        assert rt.pools_created == 0


@pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 4), ("process", 2)])
def test_backends_agree(backend, workers):
    tasks = list(range(20))
    with ExecutionRuntime(backend, workers) as rt:
        assert rt.map(square, tasks) == [square(t) for t in tasks]


def test_order_preserved_despite_uneven_work():
    """Results must follow task order, not completion order."""

    def slow_then_fast(x):
        time.sleep(0.02 if x == 0 else 0.0)
        return x

    with ExecutionRuntime("thread", 4) as rt:
        assert rt.map(slow_then_fast, list(range(8))) == list(range(8))


def test_numpy_payloads_roundtrip():
    arrays = [np.full(4, i) for i in range(6)]
    with ExecutionRuntime("thread", 3) as rt:
        assert rt.map(lambda a: a.sum(), arrays) == [0, 4, 8, 12, 16, 20]


def test_auto_max_workers():
    cpus = os.cpu_count() or 1
    assert ExecutorConfig(max_workers=None).max_workers == cpus
    assert ExecutorConfig(max_workers="auto").max_workers == cpus
    assert ExecutionRuntime("thread", None).max_workers == cpus
    assert ExecutionRuntime("thread", "auto").max_workers == cpus
    with pytest.raises(ValueError):
        ExecutionRuntime("thread", "all-of-them")


def test_persistent_pool_reused_across_maps():
    with ExecutionRuntime("thread", 2) as rt:
        rt.map(square, [1, 2])
        rt.map(square, [3, 4])
        rt.run(square, [5])
        assert rt.pools_created == 1
