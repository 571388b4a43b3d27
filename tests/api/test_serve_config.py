"""ServeConfig: validation, canonicalization, merge, wire form, pickling."""

from __future__ import annotations

import pickle

import pytest

from repro.api import SERVE_POOLS, ExecutionConfig, ServeConfig, TransportConfig
from repro.api.config import SERVE_CONFIG_FIELDS, TRANSPORT_CONFIG_FIELDS


def test_defaults_canonicalize_execution():
    config = ServeConfig()
    assert isinstance(config.execution, ExecutionConfig)
    # Serving defaults to the faster engines; every sweep mode coalesces,
    # so these are a speed choice, not a coalescing one.
    assert config.execution.vectorize == "auto"
    assert config.execution.compile == "auto"
    assert config.pool == "thread"
    assert config.result_cache_size == 1024  # the result cache is on


def test_field_registry_matches_dataclass():
    config = ServeConfig()
    assert set(SERVE_CONFIG_FIELDS) == set(config.to_dict())


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(batch_window_ms=float("nan")), "batch_window_ms"),
        (dict(max_batch_size=0), "max_batch_size"),
        (dict(max_queue_depth=0), "max_queue_depth"),
        (dict(max_queue_cost=0.0), "max_queue_cost"),
        (dict(result_cache_size=-1), "result_cache_size"),
        (dict(result_cache_ttl_s=0.0), "result_cache_ttl_s"),
        (dict(pool="gpu"), "pool"),
        (dict(tenant_weights={"": 1.0}), "tenant"),
        (dict(tenant_weights=[("a", 1.0), ("a", 2.0)]), "tenant"),
        (dict(tenant_weights={"a": float("inf")}), "weight"),
        (dict(execution="nope"), "execution"),
    ],
)
def test_invalid_fields_rejected(kwargs, match):
    with pytest.raises((ValueError, TypeError), match=match):
        ServeConfig(**kwargs)


def test_negative_window_allowed_for_lint():
    # Construction keeps negative windows representable (the lint RPA110
    # flags them at error severity; service.start() refuses them).
    config = ServeConfig(batch_window_ms=-1.0)
    report = config.diagnose()
    assert not report.ok
    assert any(d.code == "RPA110" for d in report)


def test_weights_canonical_and_queryable():
    from_mapping = ServeConfig(tenant_weights={"b": 2.0, "a": 1.0})
    from_pairs = ServeConfig(tenant_weights=[("b", 2.0), ("a", 1.0)])
    assert from_mapping.tenant_weights == (("a", 1.0), ("b", 2.0))
    assert from_mapping == from_pairs
    assert from_mapping.weights() == {"a": 1.0, "b": 2.0}


def test_batch_window_s_property():
    assert ServeConfig(batch_window_ms=2.5).batch_window_s == 0.0025


def test_merged_overrides_and_preserves():
    base = ServeConfig(batch_window_ms=2.0, max_batch_size=16)
    merged = base.merged(batch_window_ms=8.0)
    assert merged.batch_window_ms == 8.0
    assert merged.max_batch_size == 16
    assert base.batch_window_ms == 2.0  # frozen original untouched


def test_json_round_trip():
    config = ServeConfig(
        execution=ExecutionConfig(estimator="shots", shots=64, seed=3),
        batch_window_ms=5.0,
        tenant_weights={"a": 3.0, "b": 1.0},
        result_cache_ttl_s=30.0,
        pool="serial",
        max_workers=2,
    )
    restored = ServeConfig.from_json(config.to_json())
    assert restored == config
    assert restored.execution.shots == 64


def test_pickle_round_trip():
    config = ServeConfig(tenant_weights={"a": 2.0})
    assert pickle.loads(pickle.dumps(config)) == config


def test_serve_pools_registry():
    assert set(SERVE_POOLS) == {"serial", "thread", "process"}
    for pool in SERVE_POOLS:
        assert ServeConfig(pool=pool).pool == pool


# ------------------------------------------------------ TransportConfig
def test_transport_defaults():
    transport = TransportConfig()
    assert transport.host == "127.0.0.1"
    assert transport.port == 0  # ephemeral: bind picks a free port
    assert transport.request_timeout_s == 30.0
    assert transport.max_frame_bytes == 16 * 2**20


def test_transport_field_registry_matches_dataclass():
    assert set(TRANSPORT_CONFIG_FIELDS) == set(TransportConfig().to_dict())


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(host=""), "host"),
        (dict(host=7), "host"),
        (dict(port=-1), "port"),
        (dict(port=65536), "port"),
        (dict(request_timeout_s=0.0), "request_timeout_s"),
        (dict(request_timeout_s=-1.0), "request_timeout_s"),
        (dict(request_timeout_s=float("nan")), "request_timeout_s"),
        (dict(max_frame_bytes=0), "max_frame_bytes"),
    ],
)
def test_transport_invalid_fields_rejected(kwargs, match):
    with pytest.raises((ValueError, TypeError), match=match):
        TransportConfig(**kwargs)


def test_transport_unknown_kwargs_rejected():
    with pytest.raises(TypeError):
        TransportConfig(portt=8080)
    with pytest.raises(ValueError, match="unknown"):
        TransportConfig.from_dict({"port": 8080, "compression": "zstd"})


def test_transport_merged_overrides_and_preserves():
    base = TransportConfig(port=9000, max_frame_bytes=2**16)
    merged = base.merged(port=9001)
    assert merged.port == 9001
    assert merged.max_frame_bytes == 2**16
    assert base.port == 9000


def test_transport_json_round_trip():
    transport = TransportConfig(
        host="0.0.0.0",
        port=8443,
        request_timeout_s=None,
        max_frame_bytes=2**16,
    )
    assert TransportConfig.from_json(transport.to_json()) == transport


def test_transport_pickle_round_trip():
    transport = TransportConfig(port=1234)
    assert pickle.loads(pickle.dumps(transport)) == transport


def test_serve_config_nests_transport():
    config = ServeConfig(transport=TransportConfig(port=7000))
    assert config.to_dict()["transport"]["port"] == 7000
    restored = ServeConfig.from_json(config.to_json())
    assert restored == config
    assert isinstance(restored.transport, TransportConfig)
    # transport stays optional: the default config has none and
    # round-trips that way too.
    bare = ServeConfig()
    assert bare.transport is None
    assert ServeConfig.from_json(bare.to_json()).transport is None


def test_serve_config_rejects_non_transport():
    with pytest.raises((ValueError, TypeError), match="transport"):
        ServeConfig(transport={"port": 7000})


def test_transport_diagnose_covered_by_serve_lint():
    config = ServeConfig(transport=TransportConfig(max_frame_bytes=1))
    assert any(d.code == "RPA115" for d in config.diagnose())


def test_diagnose_merges_nested_execution_findings():
    config = ServeConfig(
        execution=ExecutionConfig(vectorize="auto", compile="auto", chunk_size=2),
        batch_window_ms=0,
    )
    report = config.diagnose()
    codes = {d.code for d in report}
    assert "RPA110" in codes  # the serve-level finding is present
    assert "RPA104" in codes  # merged from the nested execution config
