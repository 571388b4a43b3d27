"""``ExecutionConfig`` -- the one typed object for every execution knob.

The hybrid HPC-QC workflow is a single pipeline (encode -> dispatch ensemble
-> gather Q -> convex head) with many execution knobs (estimator, shots,
snapshots, chunk_size, seed, compile, dispatch_policy, backend, vectorize,
...).  :class:`ExecutionConfig` bundles them into one frozen, picklable,
JSON-serializable value object with centralized validation, so every
surface (functions, pipelines, models, SPMD, CLI) resolves the *same*
configuration the same way.

This module is the validation root: :func:`check_regime` (estimator x
backend compatibility) and :func:`resolve_chunk_size` (work-grid
granularity) live here and are re-exported by :mod:`repro.core.features`.
:func:`resolve_call` arbitrates between an entry point's ``config=`` and
``device=`` arguments, the only ways to configure a sweep.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.hpc.scheduler import SCHEDULING_POLICIES
from repro.quantum.backends import (
    QuantumBackend,
    backend_from_dict,
    backend_to_dict,
    resolve_backend,
)
from repro.quantum.batched import resolve_vectorize
from repro.quantum.compile import resolve_fusion_width
from repro.xp import resolve_array_backend, validate_array_backend

__all__ = [
    "ESTIMATORS",
    "CONFIG_FIELDS",
    "DEFAULT_CHUNK_SIZE",
    "EXPENSIVE_CHUNK_SIZE",
    "SERVE_CONFIG_FIELDS",
    "SERVE_POOLS",
    "TRANSPORT_CONFIG_FIELDS",
    "ExecutionConfig",
    "ServeConfig",
    "TransportConfig",
    "check_regime",
    "resolve_chunk_size",
    "resolve_call",
]

ESTIMATORS = ("exact", "shots", "shadows")

#: Default data-chunk width of the work grid for cheap vectorised
#: statevector evolution.
DEFAULT_CHUNK_SIZE = 128
#: Finer default for backends with heavy per-sample work (density /
#: mitigated Kraus evolution, flagged by ``parallel_prepare``): small noisy
#: datasets still split into enough jobs to occupy a worker pool.
EXPENSIVE_CHUNK_SIZE = 8


def check_regime(estimator: str, backend: QuantumBackend) -> None:
    """Validate the estimator/backend combination (cheap; runs at config
    construction so bad arguments fail before any state preparation)."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; choose from {ESTIMATORS}")
    if estimator == "shadows" and not backend.supports_shadows:
        raise ValueError(
            f"backend {backend.name!r} does not support the shadows estimator "
            f"(classical shadows need direct pure-state snapshots, which "
            f"mixed-state evolution and ZNE extrapolation cannot provide)"
        )


def resolve_chunk_size(chunk_size: int | None, backend: QuantumBackend) -> int:
    """Work-grid granularity: an explicit value wins, ``None`` picks a
    backend-appropriate default (coarse ideal, fine noisy/mitigated)."""
    if chunk_size is None:
        return EXPENSIVE_CHUNK_SIZE if backend.parallel_prepare else DEFAULT_CHUNK_SIZE
    if chunk_size < 1:
        raise ValueError(f"chunk_size={chunk_size} must be >= 1")
    return int(chunk_size)


@dataclass(frozen=True)
class ExecutionConfig:
    """Frozen value object bundling every Q-matrix execution knob.

    The defaults are the feature functions' (``compile="off"`` keeps the
    naive reference semantics bit-for-bit; orchestrators that prefer the
    compiled engine construct their own defaults):

    * ``estimator``       -- ``"exact"`` / ``"shots"`` / ``"shadows"``;
    * ``shots``           -- per (data point, Ansatz, observable) budget;
    * ``snapshots``       -- shadow batch per (data point, Ansatz);
    * ``chunk_size``      -- work-grid rows per job (``None`` = backend
      default, see :func:`resolve_chunk_size`);
    * ``seed``            -- root RNG seed (int, ``None`` or a Generator;
      Generators are not serializable);
    * ``compile``         -- circuit engine: ``"auto"``/``"off"``/width;
    * ``dispatch_policy`` -- live submission order policy;
    * ``backend``         -- execution regime (``None`` -> ideal
      statevector; normalized to an instance at construction).  Sharded
      execution is a regime like density or mitigation:
      ``backend=DistributedStatevectorBackend(shards=k)``;
    * ``vectorize``       -- batched structure-shared execution:
      ``"auto"`` compiles each (encoder, Ansatz instance) template once and
      evolves whole data chunks per stacked pass on backends that support
      it (:class:`~repro.quantum.batched.ParametricCompiledCircuit`), and
      runs exact or finite-shot ideal ensembles of Clifford instances on
      the Pauli engine (:mod:`repro.quantum.pauli`) --
      :func:`~repro.core.features.sweep_mode` names the route; ``"off"``
      keeps the per-sample reference path;
    * ``array_backend``   -- the array namespace the hot kernels run under
      (:mod:`repro.xp`): ``"numpy"`` (default, bit-identical to the
      historical path), ``"cupy"`` / ``"torch"`` (must be installed), or
      ``"auto"`` (best available accelerator, resolved once per sweep via
      :attr:`resolved_array_backend`);
    * ``preflight``       -- static analysis at job-build time
      (:mod:`repro.analysis`): ``"off"`` (default) skips it, ``"warn"``
      surfaces every finding as a
      :class:`~repro.analysis.preflight.PreflightWarning`, ``"error"``
      rejects jobs with error-severity findings
      (:class:`~repro.analysis.preflight.PreflightError`) before any
      dispatch.

    Validation is centralized in ``__post_init__``; instances are picklable
    and round-trip through :meth:`to_dict` / :meth:`from_dict` / JSON.
    """

    estimator: str = "exact"
    shots: int = 1024
    snapshots: int = 512
    chunk_size: int | None = None
    seed: int | np.random.Generator | None = 0
    compile: str | int = "off"
    dispatch_policy: str = "work_stealing"
    backend: QuantumBackend | None = None
    vectorize: str | None = "off"
    array_backend: str = "numpy"
    preflight: str | None = "off"

    def __post_init__(self) -> None:
        object.__setattr__(self, "backend", resolve_backend(self.backend))
        check_regime(self.estimator, self.backend)
        if self.chunk_size is not None:
            if isinstance(self.chunk_size, bool) or not isinstance(
                self.chunk_size, (int, np.integer)
            ):
                raise ValueError(
                    f"chunk_size must be an int >= 1 or None, got {self.chunk_size!r}"
                )
            resolve_chunk_size(int(self.chunk_size), self.backend)
            object.__setattr__(self, "chunk_size", int(self.chunk_size))
        for name in ("shots", "snapshots"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an int >= 0, got {value!r}")
            if value < 0:
                raise ValueError(f"{name}={value} must be >= 0")
            object.__setattr__(self, name, int(value))
        if self.seed is not None and not isinstance(
            self.seed, (int, np.integer, np.random.Generator)
        ):
            raise ValueError(
                f"seed must be an int, None or a numpy Generator, got {self.seed!r}"
            )
        if isinstance(self.seed, (int, np.integer)) and self.seed < 0:
            # SeedSequence would reject it deep inside the sweep; fail at
            # construction like every other knob.
            raise ValueError(f"seed={self.seed} must be >= 0")
        # ``None`` was always a legal legacy spelling of "off"; canonicalize
        # so equality and the JSON round trip see one representation.
        if self.compile is None:
            object.__setattr__(self, "compile", "off")
        # Validates the knob (raises on typos) without storing the width:
        # the compile field keeps its user-facing spelling for round-trips.
        try:
            resolve_fusion_width(self.compile)
        except ValueError as exc:
            # The width-range error speaks of "fusion width"; re-raise
            # naming the config field, like every other knob's error.
            if "compile" in str(exc):
                raise
            raise ValueError(f"compile: {exc}") from None
        # Lazy import: repro.analysis type-checks against this module.
        from repro.analysis.preflight import resolve_preflight

        object.__setattr__(self, "preflight", resolve_preflight(self.preflight))
        # Same canonicalization as compile: None is the legacy "off".
        object.__setattr__(self, "vectorize", resolve_vectorize(self.vectorize))
        # Fails here -- at construction -- on typos and on explicitly
        # requested libraries that are not importable, instead of deep in a
        # dispatched worker.  ``"auto"`` stays symbolic until resolution.
        validate_array_backend(self.array_backend)
        if self.dispatch_policy not in SCHEDULING_POLICIES:
            raise ValueError(
                f"unknown dispatch_policy {self.dispatch_policy!r}; "
                f"choose from {SCHEDULING_POLICIES}"
            )

    # -------------------------------------------------------------- analysis
    def diagnose(self, *, num_qubits: int | None = None) -> Any:
        """Cross-field plan lint of this config: a
        :class:`~repro.analysis.diagnostics.DiagnosticReport`.

        Pure inspection regardless of the ``preflight`` knob (that knob
        only decides what happens at job-build time).  ``num_qubits``
        enables the register-width checks (the backend's shards vs ``2^n``).
        """
        from repro.analysis.plan import lint_config

        return lint_config(self, num_qubits=num_qubits)

    # ------------------------------------------------------------- derived
    @property
    def resolved_chunk_size(self) -> int:
        """The effective work-grid granularity for this config's backend."""
        return resolve_chunk_size(self.chunk_size, self.backend)

    @property
    def resolved_array_backend(self) -> str:
        """The concrete namespace name ``"auto"`` resolves to (cupy > torch
        with CUDA > numpy).  Resolution happens once, parent-side: the
        concrete name -- not ``"auto"`` -- ships to every worker, so a
        heterogeneous pool can never split across namespaces mid-sweep."""
        return resolve_array_backend(self.array_backend)

    # ---------------------------------------------------------- combinators
    def merged(self, **overrides: Any) -> ExecutionConfig:
        """A new config with ``overrides`` applied (and re-validated).

        Unknown keys raise ``TypeError``.
        """
        if not overrides:
            return self
        return dataclasses.replace(self, **overrides)

    # --------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-safe dict (inverse: :meth:`from_dict`)."""
        if isinstance(self.seed, np.random.Generator):
            raise TypeError(
                "ExecutionConfig with a Generator seed is not serializable; "
                "pass an int seed to round-trip configs"
            )
        return {
            "estimator": self.estimator,
            "shots": self.shots,
            "snapshots": self.snapshots,
            "chunk_size": self.chunk_size,
            "seed": None if self.seed is None else int(self.seed),
            "compile": self.compile if isinstance(self.compile, str) else int(self.compile),
            "dispatch_policy": self.dispatch_policy,
            "backend": backend_to_dict(self.backend),
            "vectorize": self.vectorize,
            "array_backend": self.array_backend,
            "preflight": self.preflight,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> ExecutionConfig:
        """Build (and validate) a config from :meth:`to_dict` output."""
        data = dict(data)
        backend = data.pop("backend", None)
        if isinstance(backend, Mapping):
            backend = backend_from_dict(dict(backend))
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown ExecutionConfig fields {unknown}")
        return cls(backend=backend, **data)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> ExecutionConfig:
        return cls.from_dict(json.loads(text))


#: The execution-knob field names, in declaration order.
CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(ExecutionConfig))


#: Worker-pool kinds a :class:`ServeConfig` may ask its owned device for.
SERVE_POOLS = ("serial", "thread", "process")


def _require_number(
    name: str, value: Any, *, minimum: float | None = None, strict: bool = False
) -> float:
    """Validate one real-valued serve knob (bool is never a number here)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    out = float(value)
    if not np.isfinite(out):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if minimum is not None and (out < minimum or (strict and out == minimum)):
        bound = f"> {minimum}" if strict else f">= {minimum}"
        raise ValueError(f"{name}={value!r} must be {bound}")
    return out


def _require_count(name: str, value: Any, minimum: int) -> int:
    """Validate one integer serve knob (bool is not an int here)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name}={value} must be >= {minimum}")
    return int(value)


def _canonical_weights(value: Any) -> tuple[tuple[str, float], ...]:
    """Canonicalize ``tenant_weights`` to a sorted, hashable pair tuple.

    Accepts a mapping or an iterable of (name, weight) pairs; weights must
    be finite numbers but may be non-positive -- a starving weight is a
    *lint* finding (RPA112, and a service-start refusal), not a
    construction error, so ``repro lint --serve`` can describe it.
    """
    if value is None:
        return ()
    items = list(value.items()) if isinstance(value, Mapping) else list(value)
    out: list[tuple[str, float]] = []
    seen: set[str] = set()
    for item in items:
        try:
            name, weight = item
        except (TypeError, ValueError):
            raise ValueError(
                f"tenant_weights entries must be (name, weight) pairs, got {item!r}"
            ) from None
        if not isinstance(name, str) or not name:
            raise ValueError(f"tenant names must be non-empty strings, got {name!r}")
        if name in seen:
            raise ValueError(f"duplicate tenant {name!r} in tenant_weights")
        seen.add(name)
        out.append((name, _require_number(f"tenant_weights[{name!r}]", weight)))
    return tuple(sorted(out))


@dataclass(frozen=True)
class TransportConfig:
    """Frozen value object for the serving layer's network transport.

    Nested inside :class:`ServeConfig` exactly like
    :class:`ExecutionConfig` nests there: one picklable,
    JSON-round-trippable dataclass with centralized validation, so the
    socket front (:mod:`repro.serve.transport`) is configured through the
    same surface as everything else in :mod:`repro.api` and loose
    transport kwargs are rejected at construction.

    * ``host`` / ``port``       -- the TCP listen address; port ``0``
      binds an ephemeral port (the bound address is reported by
      ``FeatureServer.address``);
    * ``request_timeout_s``     -- default per-request deadline applied to
      socket requests that do not carry their own; ``None`` disables the
      default.  A deadline shorter than the batch window is lintable
      (RPA114) but constructible;
    * ``max_frame_bytes``       -- per-frame size bound (header +
      payload) enforced on both read and write.  It also decides
      splitting: a response is split into ``result`` frames of
      consecutive rows (values, for a 1-D response) exactly when a
      single frame would exceed it.  A bound too small for the frame of
      one feature row lints at error severity (RPA115).
    """

    host: str = "127.0.0.1"
    port: int = 0
    request_timeout_s: float | None = 30.0
    max_frame_bytes: int = 16 * 2**20

    def __post_init__(self) -> None:
        if not isinstance(self.host, str) or not self.host:
            raise ValueError(f"host must be a non-empty string, got {self.host!r}")
        port = _require_count("port", self.port, 0)
        if port > 65535:
            raise ValueError(f"port={port} must be <= 65535")
        object.__setattr__(self, "port", port)
        if self.request_timeout_s is not None:
            object.__setattr__(
                self,
                "request_timeout_s",
                _require_number(
                    "request_timeout_s", self.request_timeout_s, minimum=0, strict=True
                ),
            )
        # Tiny frame bounds stay constructible: RPA115 describes them.
        object.__setattr__(
            self, "max_frame_bytes", _require_count("max_frame_bytes", self.max_frame_bytes, 1)
        )

    # ---------------------------------------------------------- combinators
    def merged(self, **overrides: Any) -> TransportConfig:
        """A new config with ``overrides`` applied (and re-validated)."""
        if not overrides:
            return self
        return dataclasses.replace(self, **overrides)

    # --------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-safe dict (inverse: :meth:`from_dict`)."""
        return {
            "host": self.host,
            "port": self.port,
            "request_timeout_s": self.request_timeout_s,
            "max_frame_bytes": self.max_frame_bytes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> TransportConfig:
        """Build (and validate) a config from :meth:`to_dict` output."""
        data = dict(data)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown TransportConfig fields {unknown}")
        return cls(**data)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> TransportConfig:
        return cls.from_dict(json.loads(text))


#: The transport-knob field names, in declaration order (CLI flags mirror
#: these).
TRANSPORT_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(TransportConfig))


@dataclass(frozen=True)
class ServeConfig:
    """Frozen value object bundling every serving-layer knob.

    The serving layer (:mod:`repro.serve`) is configured exactly like
    execution is: one picklable, JSON-round-trippable dataclass with
    centralized validation.  An :class:`ExecutionConfig` nests inside it --
    the service executes requests under ``execution`` verbatim, so a served
    response is bit-equal to ``generate_features(..., config=execution)``.

    * ``execution``          -- the nested per-request execution config;
      ``None`` picks the serving default (``vectorize="auto"``,
      ``compile="auto"``: the faster engines; requests coalesce into
      stacked passes under any setting);
    * ``batch_window_ms``    -- how long an admitted request may wait for
      peers to coalesce with before its micro-batch flushes.  ``0`` flushes
      every request alone (coalescing off; RPA110 lints it), negative
      values are constructible for lint but rejected at service start;
    * ``max_batch_size``     -- requests per flush; a full batch flushes
      before the window expires;
    * ``max_queue_depth``    -- admitted-but-unflushed requests allowed
      *per tenant*; admission beyond it raises
      :class:`~repro.serve.fairness.BackpressureError`;
    * ``max_queue_cost``     -- optional per-tenant bound in
      :class:`~repro.hpc.cluster.CircuitTask` cost units (the scheduler's
      cost model prices each request at admission);
    * ``tenant_weights``     -- weighted-round-robin shares for named
      tenants (unnamed tenants weigh 1.0); canonicalized to a sorted tuple
      of ``(name, weight)`` pairs;
    * ``result_cache_size``  -- entry bound of the LRU cache that serves
      repeated ``(template, x, config)`` requests; ``0`` turns the cache
      off (no key hashing, no lookup);
    * ``result_cache_ttl_s`` -- optional time-to-live per cached entry;
    * ``pool`` / ``max_workers`` -- the worker pool of the service-owned
      :class:`~repro.api.device.QuantumDevice` (ignored when a device is
      passed in); flushes are the pool's unit of parallelism;
    * ``transport``          -- the nested :class:`TransportConfig` for
      the TCP front (:mod:`repro.serve.transport`); ``None`` means the
      service is in-process only (no socket server).

    Validation is centralized in ``__post_init__``; instances are picklable
    and round-trip through :meth:`to_dict` / :meth:`from_dict` / JSON.
    """

    execution: ExecutionConfig | None = None
    batch_window_ms: float = 2.0
    max_batch_size: int = 32
    max_queue_depth: int = 256
    max_queue_cost: float | None = None
    tenant_weights: Any = ()
    result_cache_size: int = 1024
    result_cache_ttl_s: float | None = None
    pool: str = "thread"
    max_workers: int | str | None = "auto"
    transport: TransportConfig | None = None

    def __post_init__(self) -> None:
        if self.transport is not None and not isinstance(self.transport, TransportConfig):
            raise ValueError(
                f"transport must be a TransportConfig or None, got {self.transport!r}"
            )
        execution = self.execution
        if execution is None:
            execution = ExecutionConfig(vectorize="auto", compile="auto")
        if not isinstance(execution, ExecutionConfig):
            raise ValueError(
                f"execution must be an ExecutionConfig or None, got {execution!r}"
            )
        object.__setattr__(self, "execution", execution)
        # Zero/negative windows stay constructible: RPA110 describes them.
        object.__setattr__(
            self, "batch_window_ms", _require_number("batch_window_ms", self.batch_window_ms)
        )
        object.__setattr__(
            self, "max_batch_size", _require_count("max_batch_size", self.max_batch_size, 1)
        )
        object.__setattr__(
            self, "max_queue_depth", _require_count("max_queue_depth", self.max_queue_depth, 1)
        )
        if self.max_queue_cost is not None:
            object.__setattr__(
                self,
                "max_queue_cost",
                _require_number("max_queue_cost", self.max_queue_cost, minimum=0, strict=True),
            )
        object.__setattr__(self, "tenant_weights", _canonical_weights(self.tenant_weights))
        object.__setattr__(
            self,
            "result_cache_size",
            _require_count("result_cache_size", self.result_cache_size, 0),
        )
        if self.result_cache_ttl_s is not None:
            object.__setattr__(
                self,
                "result_cache_ttl_s",
                _require_number(
                    "result_cache_ttl_s", self.result_cache_ttl_s, minimum=0, strict=True
                ),
            )
        if self.pool not in SERVE_POOLS:
            raise ValueError(f"unknown pool {self.pool!r}; choose from {SERVE_POOLS}")
        # Validates the knob without storing the resolved count (the field
        # keeps its user-facing spelling, like ExecutionConfig.compile).
        # Lazy import: hpc.runtime is not needed at config-import time.
        from repro.hpc.runtime import resolve_max_workers

        if self.max_workers is not None:
            resolve_max_workers(self.max_workers)

    # -------------------------------------------------------------- analysis
    def diagnose(self, *, num_qubits: int | None = None) -> Any:
        """Serve-plan lint of this config: a
        :class:`~repro.analysis.diagnostics.DiagnosticReport` merging the
        serve-layer checks (RPA110-RPA115) with the nested execution
        config's plan lint.  Pure inspection regardless of the nested
        ``preflight`` knob."""
        from repro.analysis.plan import lint_serve_config

        return lint_serve_config(self, num_qubits=num_qubits)

    # ------------------------------------------------------------- derived
    @property
    def batch_window_s(self) -> float:
        """The coalescing window in seconds (the event loop's unit)."""
        return self.batch_window_ms / 1e3

    def weights(self) -> dict[str, float]:
        """``tenant_weights`` as a plain dict (the WRR selector's input)."""
        return dict(self.tenant_weights)

    # ---------------------------------------------------------- combinators
    def merged(self, **overrides: Any) -> ServeConfig:
        """A new config with ``overrides`` applied (and re-validated).

        Unknown keys raise ``TypeError``, mirroring
        :meth:`ExecutionConfig.merged`.
        """
        if not overrides:
            return self
        return dataclasses.replace(self, **overrides)

    # --------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-safe dict (inverse: :meth:`from_dict`)."""
        execution = self.execution
        assert execution is not None  # __post_init__ canonicalized it
        return {
            "execution": execution.to_dict(),
            "batch_window_ms": self.batch_window_ms,
            "max_batch_size": self.max_batch_size,
            "max_queue_depth": self.max_queue_depth,
            "max_queue_cost": self.max_queue_cost,
            "tenant_weights": dict(self.tenant_weights),
            "result_cache_size": self.result_cache_size,
            "result_cache_ttl_s": self.result_cache_ttl_s,
            "pool": self.pool,
            "max_workers": self.max_workers,
            "transport": None if self.transport is None else self.transport.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> ServeConfig:
        """Build (and validate) a config from :meth:`to_dict` output."""
        data = dict(data)
        execution = data.pop("execution", None)
        if isinstance(execution, Mapping):
            execution = ExecutionConfig.from_dict(execution)
        transport = data.pop("transport", None)
        if isinstance(transport, Mapping):
            transport = TransportConfig.from_dict(transport)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown ServeConfig fields {unknown}")
        return cls(execution=execution, transport=transport, **data)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> ServeConfig:
        return cls.from_dict(json.loads(text))


#: The serving-knob field names, in declaration order (CLI flags and the
#: load generator mirror these).
SERVE_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(ServeConfig))


def resolve_call(
    config: ExecutionConfig | None,
    device: Any,
    *,
    owner: str,
    defaults: ExecutionConfig | None = None,
) -> tuple[ExecutionConfig, Any]:
    """Resolve one entry-point call to ``(ExecutionConfig, runtime)``.

    Exactly one configuration source wins:

    * ``device=`` -- supplies both config and runtime (the device's
      :class:`~repro.hpc.runtime.ExecutionRuntime`); combining it with
      ``config=`` is ambiguous and raises, and a closed device raises its
      own ``RuntimeError``, so every entry point refuses it;
    * ``config=`` -- used as-is; the runtime is ``None`` (inline serial);
    * neither -- ``defaults`` (the entry point's own defaults;
      ``ExecutionConfig()`` when omitted), inline serial.
    """
    if device is not None:
        if config is not None:
            raise TypeError(f"{owner}: pass config= or device=, not both")
        # Structural check instead of isinstance (no import cycle on the
        # device module), but strict enough to reject the plausible mix-ups
        # -- an ExecutionRuntime (no ExecutionConfig) or a pipeline/feature
        # map (config but no bound runtime): only a real device carries both.
        from repro.hpc.runtime import ExecutionRuntime

        if not isinstance(
            getattr(device, "config", None), ExecutionConfig
        ) or not isinstance(getattr(device, "runtime", None), ExecutionRuntime):
            raise TypeError(
                f"{owner}: device= expects a QuantumDevice, got {device!r}"
            )
        device._check_open()
        return device.config, device.runtime
    if config is None:
        return (defaults if defaults is not None else ExecutionConfig()), None
    if not isinstance(config, ExecutionConfig):
        raise TypeError(
            f"{owner}: config must be an ExecutionConfig, got {config!r}"
        )
    return config, None
