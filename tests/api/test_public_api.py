"""API-stability smoke: every advertised symbol imports and is usable.

CI runs this as a dedicated job: the ``repro.api`` surface is the
compatibility contract, so a rename or a lazy-import regression must fail
before anything else does.  It also guards the removal of the loose
execution kwargs: ``config=`` / ``device=`` stay the only way to configure
a sweep, and every setting keeps exactly one spelling (the config field
tuples are pinned).
"""

import importlib.util
import inspect
import warnings

import pytest

from repro.core.distributed_pipeline import generate_features_spmd
from repro.core.features import evaluate_features, generate_features, iter_feature_blocks
from repro.core.model import PostVariationalClassifier, PostVariationalRegressor
from repro.core.pipeline import HybridPipeline

#: Execution knobs that live only on ExecutionConfig (``scheduling_policy``
#: is the pipeline's old spelling of ``dispatch_policy``).
LOOSE_EXECUTION_KWARGS = {
    "estimator",
    "shots",
    "snapshots",
    "chunk_size",
    "seed",
    "compile",
    "dispatch_policy",
    "scheduling_policy",
    "backend",
}
ENTRY_POINTS = [
    generate_features,
    evaluate_features,
    iter_feature_blocks,
    generate_features_spmd,
    HybridPipeline,
    PostVariationalClassifier,
    PostVariationalRegressor,
]


def test_every_all_symbol_importable():
    api = importlib.import_module("repro.api")
    assert api.__all__, "repro.api must advertise a public surface"
    for name in api.__all__:
        obj = getattr(api, name)
        assert obj is not None, name


def test_dir_covers_all():
    import repro.api as api

    assert set(api.__all__) <= set(dir(api))


def test_star_import_resolves_lazy_symbols():
    namespace: dict = {}
    exec("from repro.api import *", namespace)  # noqa: S102 - the actual contract
    for name in ("ExecutionConfig", "QuantumDevice", "QuantumFeatureMap"):
        assert name in namespace


def test_unknown_attribute_raises():
    import repro.api as api

    with pytest.raises(AttributeError):
        api.NoSuchThing


def test_core_surface_still_exports_entry_points():
    core = importlib.import_module("repro.core")
    for name in core.__all__:
        assert getattr(core, name) is not None, name


def test_importing_api_emits_no_warnings():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        import repro.api
        importlib.reload(repro.api)
    assert not caught


def test_api_surface_is_pinned():
    import repro.api as api

    assert api.__all__ == [
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


def test_removed_compatibility_names_stay_gone():
    core = importlib.import_module("repro.core")
    hpc = importlib.import_module("repro.hpc")
    serve = importlib.import_module("repro.serve")
    assert not hasattr(core, "generate_features_noisy")
    assert not hasattr(hpc, "ParallelExecutor")
    # Serve requests carry repro.core.features.SweepPlan; the serving
    # layer's own copy of the job-grid planner is gone.
    for name in ("RequestPlan", "plan_request", "request_cost"):
        assert not hasattr(serve, name), name
    for module in ("repro.core.noisy_features", "repro.core.lifecycle", "repro.hpc.executor"):
        assert importlib.util.find_spec(module) is None, module


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda entry: entry.__name__)
def test_entry_points_take_no_loose_execution_kwargs(entry):
    params = set(inspect.signature(entry).parameters)
    assert not params & LOOSE_EXECUTION_KWARGS
    assert {"config", "device"} <= params


def test_config_field_tuples_are_pinned():
    """One spelling per setting: a shard count lives on the backend, a
    zero-size result cache is off, and the frame bound decides streaming."""
    from repro.api.config import CONFIG_FIELDS, SERVE_CONFIG_FIELDS, TRANSPORT_CONFIG_FIELDS

    assert CONFIG_FIELDS == (
        "estimator",
        "shots",
        "snapshots",
        "chunk_size",
        "seed",
        "compile",
        "dispatch_policy",
        "backend",
        "vectorize",
        "array_backend",
        "preflight",
    )
    assert SERVE_CONFIG_FIELDS == (
        "execution",
        "batch_window_ms",
        "max_batch_size",
        "max_queue_depth",
        "max_queue_cost",
        "tenant_weights",
        "result_cache_size",
        "result_cache_ttl_s",
        "pool",
        "max_workers",
        "transport",
    )
    assert TRANSPORT_CONFIG_FIELDS == (
        "host",
        "port",
        "request_timeout_s",
        "max_frame_bytes",
    )


@pytest.mark.parametrize(
    "cls_name,key,value",
    [
        ("ExecutionConfig", "shards", 2),
        ("ServeConfig", "cache_results", False),
        ("TransportConfig", "streaming", False),
        ("TransportConfig", "stream_threshold_rows", 64),
    ],
)
def test_removed_config_keys_rejected_by_from_dict(cls_name, key, value):
    import repro.api as api

    cls = getattr(api, cls_name)
    data = cls().to_dict()
    data[key] = value
    with pytest.raises(ValueError, match=f"unknown {cls_name} fields"):
        cls.from_dict(data)


@pytest.mark.parametrize("method", ["submit", "predict"])
def test_tcp_transport_matches_transport_protocol(method):
    from repro.serve import TcpTransport
    from repro.serve.client import Transport

    def keyword_params(fn):
        return [
            (p.name, p.default)
            for p in inspect.signature(fn).parameters.values()
            if p.kind is inspect.Parameter.KEYWORD_ONLY
        ]

    assert keyword_params(getattr(TcpTransport, method)) == keyword_params(
        getattr(Transport, method)
    )
