"""``QuantumDevice`` -- a context-managed execution session.

A device binds an :class:`~repro.api.config.ExecutionConfig` (what to run)
to a long-lived :class:`~repro.hpc.runtime.ExecutionRuntime` (where to run
it): the worker pool is created once, reused across every ``run`` /
``evaluate`` / ``stream`` sweep, and released by ``close()`` or the
``with`` block.  This is the session layer the paper's hybrid HPC-QC
deployment implies -- one QPU-driving process per allocation, many sweeps
-- without each sweep re-negotiating nine keyword arguments.

Every feature entry point accepts ``device=`` directly, so a device also
serves as the single argument threading a session through pipelines and
models; it is the only way to run a sweep on a pool (``runtime=`` binds
one the caller already holds)::

    cfg = ExecutionConfig(estimator="shots", shots=256, dispatch_policy="lpt",
                          vectorize="auto")  # batched structure-shared sweeps
    with QuantumDevice(cfg, pool="thread", max_workers=8) as dev:
        q, report = dev.run(strategy, angles)
        clf = PostVariationalClassifier(strategy=strategy, device=dev).fit(x, y)
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.api.config import ExecutionConfig
from repro.hpc.runtime import DispatchReport, ExecutionRuntime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.diagnostics import DiagnosticReport

__all__ = ["QuantumDevice"]


class QuantumDevice:
    """Session facade: one config + one persistent runtime.

    ``pool`` / ``max_workers`` / ``start_method`` build an owned
    :class:`ExecutionRuntime` (``max_workers=None`` resolves to 1 for the
    serial pool and ``"auto"`` otherwise).  Alternatively pass ``runtime=``
    (an :class:`ExecutionRuntime`) to bind an existing, possibly shared,
    pool -- the device then follows the library-wide ownership rule and
    never shuts it down.

    A device is **thread-safe**: ``run`` / ``evaluate`` / ``stream`` may be
    called concurrently from multiple threads (the serving layer drives one
    shared device from many coroutines).  Results are bit-equal to
    sequential execution -- per-task RNG streams are derived from the task
    *index*, never from shared mutable state -- and the runtime serializes
    pool management under its own lock.  ``close()`` is idempotent and safe
    to race against in-flight sweeps: the session flips closed exactly once
    and late sweeps fail with the ordinary closed-session ``RuntimeError``.
    """

    def __init__(
        self,
        config: ExecutionConfig | None = None,
        *,
        pool: str = "serial",
        max_workers: int | str | None = None,
        start_method: str | None = None,
        runtime: ExecutionRuntime | None = None,
    ) -> None:
        if config is None:
            config = ExecutionConfig()
        if not isinstance(config, ExecutionConfig):
            raise TypeError(f"config must be an ExecutionConfig, got {config!r}")
        self.config = config
        if runtime is not None:
            if pool != "serial" or max_workers is not None or start_method is not None:
                raise TypeError(
                    "runtime= binds an existing pool; pool=/max_workers=/"
                    "start_method= describe a new one -- pass one or the other"
                )
            if not isinstance(runtime, ExecutionRuntime):
                raise TypeError(f"runtime must be an ExecutionRuntime, got {runtime!r}")
            self._runtime = runtime
            self._owns_runtime = False
        else:
            if max_workers is None:
                max_workers = 1 if pool == "serial" else "auto"
            self._runtime = ExecutionRuntime(
                backend=pool, max_workers=max_workers, start_method=start_method
            )
            self._owns_runtime = True
        self._closed = False
        # Serializes the closed-flag transition only: concurrent close()
        # calls (or close racing a sweep's _check_open) must tear the owned
        # pool down exactly once.  Sweeps themselves never take this lock;
        # the runtime has its own for pool management.
        self._state_lock = threading.Lock()

    # ------------------------------------------------------------ properties
    @property
    def runtime(self) -> ExecutionRuntime:
        """The persistent runtime backing this session."""
        return self._runtime

    @property
    def closed(self) -> bool:
        return self._closed or self._runtime.closed

    # ------------------------------------------------------------- lifecycle
    def warm(self) -> QuantumDevice:
        """Spawn the worker pool now instead of on the first sweep."""
        self._check_open()
        self._runtime.warm()
        return self

    def close(self) -> None:
        """End the session; an *owned* runtime's pool is shut down.

        Idempotent and thread-safe: exactly one caller performs the
        shutdown, every other (concurrent or repeated) call returns
        immediately.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        if self._owns_runtime:
            self._runtime.shutdown()

    def __enter__(self) -> QuantumDevice:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError("device session is closed; create a new QuantumDevice")

    # ----------------------------------------------------------- combinators
    def reconfigured(self, **overrides: Any) -> QuantumDevice:
        """A device with ``config.merged(**overrides)`` sharing this runtime.

        The new device does not own the pool, so closing it never tears the
        session down -- the pattern for sweeping a knob grid on one pool.
        """
        self._check_open()
        return QuantumDevice(self.config.merged(**overrides), runtime=self._runtime)

    # -------------------------------------------------------------- analysis
    def check(
        self, program: Any = None, *, num_qubits: int | None = None
    ) -> DiagnosticReport:
        """Static pre-flight report for this session (no execution).

        Lints the bound config (:func:`~repro.analysis.plan.lint_config`)
        and, when ``program`` is given, the circuit under this config's
        plan -- batched-template admissibility, the backend's noise
        channels
        (:func:`~repro.analysis.program.lint_circuit`).  Always returns
        the report regardless of the config's ``preflight`` knob; raising
        is the knob's job at job-build time, not this inspector's.
        """
        from repro.analysis.plan import lint_config
        from repro.analysis.preflight import _backend_noise_model
        from repro.analysis.program import lint_circuit

        if program is not None and num_qubits is None:
            num_qubits = program.num_qubits
        report = lint_config(self.config, num_qubits=num_qubits)
        if program is not None:
            report = report + lint_circuit(
                program, noise_model=_backend_noise_model(self.config)
            )
        return report

    # ------------------------------------------------------------- execution
    def prepare(self, angles: np.ndarray) -> np.ndarray:
        """Encode ``(d, rows, cols)`` angles into backend-prepared states.

        Expensive preparations (density / mitigated Kraus evolution) fan
        out over the session pool, chunked like the sweep's job grid.
        """
        from repro.core.features import prepare_states

        self._check_open()
        return prepare_states(angles, device=self)

    def run(
        self,
        strategy: Any,
        angles: np.ndarray,
        *,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, DispatchReport]:
        """Algorithm 1 under this session: ``(Q, DispatchReport)``.

        ``angles`` is the raw ``(d, rows, cols)`` batch; encoding, dispatch
        and streaming assembly all follow the bound config.
        """
        from repro.core.features import generate_features

        self._check_open()
        return generate_features(
            strategy, angles, out=out, return_report=True, device=self
        )

    def evaluate(
        self,
        strategy: Any,
        states: np.ndarray,
        *,
        out: np.ndarray | None = None,
        return_report: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, DispatchReport]:
        """Q matrix from already-prepared states (see :meth:`prepare`)."""
        from repro.core.features import evaluate_features

        self._check_open()
        return evaluate_features(
            strategy, states, out=out, return_report=return_report, device=self
        )

    def stream(self, strategy: Any, states: np.ndarray) -> Iterator[tuple]:
        """Q-blocks as ``(FeatureJob, block)`` pairs in completion order."""
        from repro.core.features import iter_feature_blocks

        self._check_open()
        return iter_feature_blocks(strategy, states, device=self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else "open"
        return (
            f"QuantumDevice({self.config.backend.name}, "
            f"estimator={self.config.estimator!r}, "
            f"pool={self._runtime.backend}x{self._runtime.max_workers}, {state})"
        )
