"""repro.api -- the unified execution API (the stable public surface).

One typed configuration object, one session facade, one sklearn-style
transformer:

* :class:`ExecutionConfig` -- frozen, picklable, JSON-round-trippable
  bundle of every execution knob (estimator, shots, snapshots, chunk_size,
  seed, compile, dispatch_policy, backend, vectorize) with centralized
  validation and a ``merged(**overrides)`` combinator;
* :class:`QuantumDevice` -- a context-managed session binding a config to
  a persistent :class:`~repro.hpc.runtime.ExecutionRuntime` (pool reuse
  across sweeps, ``run``/``evaluate``/``stream``, explicit close);
* :class:`QuantumFeatureMap` -- ``fit``/``transform`` over the feature
  sweep so quantum features compose with any classical head.

Every feature entry point (``generate_features``, ``evaluate_features``,
``iter_feature_blocks``, ``prepare_states``, ``HybridPipeline``,
``PostVariational*``, ``generate_features_spmd``, the CLI) is configured
by ``config=`` / ``device=`` and nothing else; a runtime the caller
already holds binds through ``QuantumDevice(cfg, runtime=rt)``, which
shares it and never shuts it down.

``QuantumDevice`` and ``QuantumFeatureMap`` are loaded lazily (PEP 562) so
that ``repro.core`` modules can import :mod:`repro.api.config` while this
package initialises without a cycle.
"""

from __future__ import annotations

from repro.api.config import (
    ESTIMATORS,
    SERVE_POOLS,
    ExecutionConfig,
    ServeConfig,
    TransportConfig,
    check_regime,
    resolve_call,
    resolve_chunk_size,
)

__all__ = [
    "ExecutionConfig",
    "QuantumDevice",
    "QuantumFeatureMap",
    "ServeConfig",
    "TransportConfig",
    "ESTIMATORS",
    "SERVE_POOLS",
    "check_regime",
    "resolve_call",
    "resolve_chunk_size",
]

_LAZY = {
    "QuantumDevice": "repro.api.device",
    "QuantumFeatureMap": "repro.api.feature_map",
}


def __getattr__(name: str) -> object:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
