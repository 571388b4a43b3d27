"""Persistent asynchronous execution runtime for circuit-ensemble dispatch.

The live execution layer behind every sweep, serve flush and SPMD rank:

* **Persistent pools** -- an :class:`ExecutionRuntime` creates its worker
  pool once, lazily, and reuses it across every subsequent ``submit`` /
  ``map`` / ``stream`` / ``run`` call (every ``fit``/``predict`` sweep of a
  pipeline).  Shutdown is explicit (``shutdown()``) or scoped (context
  manager); a broken process pool is detected and transparently rebuilt.
* **Futures-based dispatch** -- ``submit`` returns a
  :class:`concurrent.futures.Future`; ``stream`` yields
  :class:`TaskCompletion` records in *completion* order so consumers
  (streaming Q-matrix assembly) can scatter results as they resolve, with
  no end-of-sweep barrier.
* **Policy-driven ordering** -- ``stream``/``run`` take a per-task cost
  vector and a scheduling policy name; tasks enter the shared worker queue
  in the order :func:`repro.hpc.scheduler.submission_order` dictates, so
  ``lpt``/``work_stealing`` order *real* execution rather than just the
  makespan projection.
* **Measured reconciliation** -- every task is timed inside the worker;
  ``run`` returns a :class:`DispatchReport` holding predicted costs and
  measured per-task wall-clock so the analytic projection can be
  reconciled against reality (``reconcile()``).

Results stay schedule-independent: ordering only changes *when* a task
runs, never its RNG stream, so all backends and policies remain
bit-for-bit (``exact``) or seed-deterministically (``shots``/``shadows``)
interchangeable -- the contract the property suite pins down.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from collections.abc import Callable, Iterator, Sequence
from typing import Any, NamedTuple

import numpy as np

from repro.hpc.scheduler import Assignment, schedule, submission_order

__all__ = [
    "ExecutorConfig",
    "ExecutionRuntime",
    "TaskCompletion",
    "DispatchReport",
    "resolve_max_workers",
]

_BACKENDS = ("serial", "thread", "process")
_START_METHODS = (None, "fork", "spawn", "forkserver")


def resolve_max_workers(max_workers: int | str | None) -> int:
    """Normalise a worker-count spec: ``None``/``"auto"`` -> ``os.cpu_count()``."""
    if max_workers is None or max_workers == "auto":
        return os.cpu_count() or 1
    if isinstance(max_workers, bool) or not isinstance(max_workers, (int, np.integer)):
        raise ValueError(
            f"max_workers must be an int >= 1, None or 'auto', got {max_workers!r}"
        )
    if max_workers < 1:
        raise ValueError("max_workers must be >= 1")
    return int(max_workers)


@dataclass(frozen=True)
class ExecutorConfig:
    """Executor settings; a plain dataclass so pipelines can log/serialise it.

    ``max_workers`` accepts ``None`` or ``"auto"`` (resolved to
    ``os.cpu_count()`` at construction).  ``start_method`` selects the
    multiprocessing start method for the process backend (``None`` keeps the
    platform default; ``"spawn"`` is what portable production deployments
    use and what the pool-reuse benchmark measures).
    """

    backend: str = "serial"
    max_workers: int | str | None = 1
    start_method: str | None = None

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {self.backend!r}")
        object.__setattr__(self, "max_workers", resolve_max_workers(self.max_workers))
        if self.start_method not in _START_METHODS:
            raise ValueError(
                f"start_method must be one of {_START_METHODS}, got {self.start_method!r}"
            )
        if self.start_method is not None and self.backend != "process":
            raise ValueError(
                f"start_method applies to the process backend only, "
                f"got backend={self.backend!r}"
            )


class TaskCompletion(NamedTuple):
    """One resolved task: original submission index, result, worker seconds."""

    index: int
    result: Any
    seconds: float


def _noop() -> None:
    """Worker warm-up task (picklable)."""


def _timed_call(fn: Callable[[Any], Any], index: int, task: Any) -> TaskCompletion:
    """Worker-side wrapper: run one task and time it where it executes."""
    start = time.perf_counter()
    result = fn(task)
    return TaskCompletion(index, result, time.perf_counter() - start)


@dataclass(frozen=True)
class DispatchReport:
    """Predicted vs measured record of one policy-ordered dispatch.

    ``predicted_costs`` are model units (whatever cost model fed the
    scheduler); ``measured_seconds`` are wall-clock seconds observed inside
    the workers.  ``reconcile()`` compares the analytic projection with an
    analytic *replay* on the measured costs and with the true end-to-end
    wall time.
    """

    policy: str
    backend: str
    num_workers: int
    predicted_costs: tuple[float, ...]
    measured_seconds: tuple[float, ...]
    wall_seconds: float

    @property
    def num_tasks(self) -> int:
        return len(self.predicted_costs)

    def projected(self) -> Assignment:
        """Analytic schedule on the *predicted* costs (the a-priori projection)."""
        return schedule(self.predicted_costs, self.num_workers, self.policy)

    def replayed(self) -> Assignment:
        """Analytic schedule replayed on the *measured* per-task seconds."""
        return schedule(self.measured_seconds, self.num_workers, self.policy)

    def cost_correlation(self) -> float:
        """Pearson correlation between predicted costs and measured seconds."""
        pred = np.asarray(self.predicted_costs)
        meas = np.asarray(self.measured_seconds)
        if pred.size < 2 or float(pred.std()) == 0.0 or float(meas.std()) == 0.0:
            return 0.0
        return float(np.corrcoef(pred, meas)[0, 1])

    def reconcile(self) -> dict[str, float]:
        """Projection vs measurement, condensed to the numbers a log wants."""
        projected = self.projected().makespan if self.num_tasks else 0.0
        replayed = self.replayed().makespan if self.num_tasks else 0.0
        # How well the greedy-queue model predicts reality (1.0 = exact;
        # >1 means real dispatch paid overheads the replay does not see).
        # Real wall time with zero replayed makespan (e.g. a report built
        # from incomplete records) is a degenerate measurement, reported as
        # inf rather than dressed up as a perfect match.
        if replayed > 0:
            wall_over_replay = self.wall_seconds / replayed
        elif self.num_tasks == 0 or self.wall_seconds == 0:
            wall_over_replay = 1.0
        else:
            wall_over_replay = float("inf")
        return {
            "projected_makespan": projected,
            "replayed_makespan_s": replayed,
            "measured_total_s": float(sum(self.measured_seconds)),
            "wall_s": self.wall_seconds,
            "wall_over_replay": wall_over_replay,
            "cost_correlation": self.cost_correlation(),
        }

    @classmethod
    def from_records(
        cls,
        policy: str,
        backend: str,
        num_workers: int,
        predicted_costs: Sequence[float],
        records: Sequence[TaskCompletion],
        wall_seconds: float,
    ) -> DispatchReport:
        seconds = np.zeros(len(predicted_costs))
        for rec in records:
            seconds[rec.index] = rec.seconds
        return cls(
            policy=policy,
            backend=backend,
            num_workers=num_workers,
            predicted_costs=tuple(float(c) for c in predicted_costs),
            measured_seconds=tuple(float(s) for s in seconds),
            wall_seconds=float(wall_seconds),
        )


class ExecutionRuntime:
    """Long-lived futures-based executor over a lazily-created, reused pool.

    Thread-safe for concurrent submission; ``serial`` (or one-worker)
    configurations execute inline with identical semantics, so the runtime
    is the single dispatch layer for every backend.
    """

    def __init__(
        self,
        backend: str = "serial",
        max_workers: int | str | None = 1,
        start_method: str | None = None,
    ):
        self.config = ExecutorConfig(
            backend=backend, max_workers=max_workers, start_method=start_method
        )
        self._pool: ThreadPoolExecutor | ProcessPoolExecutor | None = None
        self._warmed_pool: object | None = None  # last pool warm() fully started
        self._lock = threading.Lock()
        self._closed = False
        self.pools_created = 0  # observability: how many times a pool was built

    # ------------------------------------------------------------ properties
    @property
    def backend(self) -> str:
        return self.config.backend

    @property
    def max_workers(self) -> int:
        return self.config.max_workers  # type: ignore[return-value]

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def _inline(self) -> bool:
        """Serial semantics: no pool, tasks run at submission.

        A one-worker *thread* pool is indistinguishable from inline
        execution, so it is short-circuited; a one-worker *process* pool is
        not -- it still provides crash isolation and enforces picklability,
        so the process backend always gets a real pool.
        """
        return self.config.backend == "serial" or (
            self.config.backend == "thread" and self.config.max_workers == 1
        )

    # ------------------------------------------------------------- lifecycle
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("runtime is shut down; create a new ExecutionRuntime")

    def warm(self) -> None:
        """Build the pool and start its workers now instead of on dispatch.

        Pools spawn workers lazily on submit, so constructing the pool
        alone is not enough: one waited-on no-op per worker forces the
        spawns (interpreter start + imports for spawn-based process pools),
        keeping that one-time cost out of subsequently timed windows.
        A no-op for inline (serial / one-worker) configurations.
        """
        if self._inline:
            self._check_open()
            return
        pool = self._ensure_pool()
        if pool is self._warmed_pool:
            return  # already warmed; repeated calls must stay free
        wait([pool.submit(_noop) for _ in range(self.config.max_workers)])
        self._warmed_pool = pool

    def _ensure_pool(self) -> ThreadPoolExecutor | ProcessPoolExecutor:
        with self._lock:
            # Checked under the lock: a concurrent shutdown() must not be
            # followed by this thread building a fresh (leaked) pool.
            self._check_open()
            pool = self._pool
            # A crashed worker breaks a process pool permanently; rebuild it
            # so the persistent runtime survives individual task disasters.
            if pool is not None and getattr(pool, "_broken", False):
                pool.shutdown(wait=False)
                pool = self._pool = None
            if pool is None:
                if self.config.backend == "thread":
                    pool = ThreadPoolExecutor(max_workers=self.config.max_workers)
                else:
                    ctx = (
                        multiprocessing.get_context(self.config.start_method)
                        if self.config.start_method
                        else None
                    )
                    pool = ProcessPoolExecutor(
                        max_workers=self.config.max_workers, mp_context=ctx
                    )
                self._pool = pool
                self.pools_created += 1
        return pool

    def _invalidate_pool(self) -> None:
        """Discard a pool observed broken; the next dispatch rebuilds it."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def _pool_submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Submit to the pool, rebuilding once on ``BrokenExecutor``.

        The public exception (not just the private ``_broken`` flag checked
        in :meth:`_ensure_pool`) guards submission, so one crashed worker
        cannot permanently poison the persistent runtime.
        """
        try:
            return self._ensure_pool().submit(fn, *args)
        except BrokenExecutor:
            self._invalidate_pool()
            return self._ensure_pool().submit(fn, *args)

    def shutdown(self, wait: bool = True) -> None:
        """Release the pool; the runtime cannot be reused afterwards."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self) -> ExecutionRuntime:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -------------------------------------------------------------- dispatch
    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Schedule ``fn(*args)``; inline configurations resolve immediately."""
        if self._inline:
            self._check_open()
            future: Future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                # Only Exception: inline runs in the *caller's* thread, so a
                # KeyboardInterrupt/SystemExit here is the main thread's own
                # signal and must propagate, not be parked on the Future.
                future.set_exception(exc)
            return future
        return self._pool_submit(fn, *args)

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> list[Any]:
        """Order-preserving map over the persistent pool."""
        tasks = list(tasks)
        if not tasks:
            return []
        if self._inline:
            self._check_open()
            return [fn(t) for t in tasks]
        try:
            return list(self._ensure_pool().map(fn, tasks))
        except BrokenExecutor:
            # Rebuild once and re-run: map tasks are independent, so
            # re-executing the batch on a fresh pool is safe.
            self._invalidate_pool()
            return list(self._ensure_pool().map(fn, tasks))

    def stream(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        costs: Sequence[float] | None = None,
        policy: str = "work_stealing",
        records: list[TaskCompletion] | None = None,
    ) -> Iterator[TaskCompletion]:
        """Yield :class:`TaskCompletion` in completion order.

        Tasks are fed to the shared worker queue in the order the scheduling
        ``policy`` dictates for the given ``costs`` (uniform costs when
        ``None``).  ``records``, when given, accumulates a *result-free*
        copy of every completion (index + seconds only, so recording never
        pins task payloads in memory) for building a
        :class:`DispatchReport` after consuming the stream.

        Arguments are validated here, eagerly, so a bad policy or cost
        vector raises at the call site -- not at the consumer's first
        ``next()``, and not never for an empty task list.
        """
        tasks = list(tasks)
        n = len(tasks)
        cost_arr = np.ones(n) if costs is None else np.asarray(costs, dtype=float)
        if cost_arr.shape != (n,):
            raise ValueError(f"costs must have one entry per task ({n}), got {cost_arr.shape}")
        # Validates the policy (and worker count) even when n == 0.
        order = submission_order(cost_arr, self.config.max_workers, policy)
        return self._stream_iter(fn, tasks, order, records)

    def _stream_iter(
        self,
        fn: Callable[[Any], Any],
        tasks: list[Any],
        order: np.ndarray,
        records: list[TaskCompletion] | None,
    ) -> Iterator[TaskCompletion]:
        if not tasks:
            return
        if self._inline:
            self._check_open()
            for idx in order:
                completion = _timed_call(fn, int(idx), tasks[idx])
                if records is not None:
                    records.append(completion._replace(result=None))
                yield completion
            return
        # Bounded in-flight window: tasks enter the queue lazily in policy
        # order, at most ~2 per worker ahead of the consumer, so a slow
        # consumer never accumulates the whole sweep's results in completed
        # futures -- incremental consumers hold O(workers) blocks, not O(n).
        window = 2 * self.config.max_workers
        submit_iter = iter(order)
        pending: set[Future] = set()
        try:
            for idx in submit_iter:
                pending.add(self._pool_submit(_timed_call, fn, int(idx), tasks[idx]))
                if len(pending) >= window:
                    break
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for idx in submit_iter:
                    pending.add(self._pool_submit(_timed_call, fn, int(idx), tasks[idx]))
                    if len(pending) >= window:
                        break
                for future in done:
                    completion = future.result()
                    if records is not None:
                        records.append(completion._replace(result=None))
                    yield completion
        finally:
            # An abandoned generator (early break) must not leave the rest
            # of the sweep burning the persistent pool.
            for future in pending:
                future.cancel()

    def run(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        costs: Sequence[float] | None = None,
        policy: str = "work_stealing",
    ) -> tuple[list[Any], DispatchReport]:
        """Execute all tasks; return order-preserving results + dispatch report."""
        tasks = list(tasks)
        n = len(tasks)
        cost_arr = np.ones(n) if costs is None else np.asarray(costs, dtype=float)
        results: list[Any] = [None] * n
        records: list[TaskCompletion] = []
        start = time.perf_counter()
        for completion in self.stream(fn, tasks, costs=cost_arr, policy=policy, records=records):
            results[completion.index] = completion.result
        wall = time.perf_counter() - start
        report = DispatchReport.from_records(
            policy, self.config.backend, self.config.max_workers, cost_arr, records, wall
        )
        return results, report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("idle" if self._pool is None else "live")
        return (
            f"ExecutionRuntime({self.config.backend}, workers={self.config.max_workers}, "
            f"{state})"
        )
