"""ExecutionConfig: validation, round-trips, combinators."""

import json
import pickle

import numpy as np
import pytest

from repro.api import ExecutionConfig
from repro.quantum.backends import (
    DensityMatrixBackend,
    DistributedStatevectorBackend,
    MitigatedBackend,
    StatevectorBackend,
    backend_from_dict,
    backend_to_dict,
)
from repro.quantum.noise import NoiseModel


def _backends():
    noise = NoiseModel.depolarizing(0.01)
    return [
        StatevectorBackend(),
        DistributedStatevectorBackend(shards=2),
        DensityMatrixBackend(),
        DensityMatrixBackend(noise),
        MitigatedBackend(DensityMatrixBackend(noise), scales=(1, 3)),
    ]


# ------------------------------------------------------------------ defaults
def test_defaults_match_historical_function_defaults():
    cfg = ExecutionConfig()
    assert cfg.estimator == "exact"
    assert cfg.shots == 1024
    assert cfg.snapshots == 512
    assert cfg.chunk_size is None
    assert cfg.seed == 0
    assert cfg.compile == "off"
    assert cfg.dispatch_policy == "work_stealing"
    assert isinstance(cfg.backend, StatevectorBackend)
    assert cfg.vectorize == "off"


def test_backend_none_normalized_to_statevector():
    assert isinstance(ExecutionConfig(backend=None).backend, StatevectorBackend)
    assert isinstance(ExecutionConfig(backend="statevector").backend, StatevectorBackend)


def test_resolved_chunk_size_tracks_backend():
    assert ExecutionConfig().resolved_chunk_size == 128
    assert ExecutionConfig(backend=DensityMatrixBackend()).resolved_chunk_size == 8
    assert ExecutionConfig(chunk_size=5).resolved_chunk_size == 5


# ---------------------------------------------------------------- validation
@pytest.mark.parametrize(
    "kwargs",
    [
        dict(estimator="nope"),
        dict(estimator="shadows", backend=DensityMatrixBackend()),
        dict(estimator="shadows", backend=MitigatedBackend(DensityMatrixBackend())),
        dict(chunk_size=0),
        dict(chunk_size=-3),
        dict(chunk_size=7.9),
        dict(chunk_size="8"),
        dict(shots=-1),
        dict(shots=2.5),
        dict(snapshots=-1),
        dict(compile="fast"),
        dict(compile=0),
        dict(dispatch_policy="random"),
        dict(seed="seven"),
        dict(seed=-1),
        dict(backend="density"),
        dict(vectorize="on"),
        dict(vectorize=True),
        dict(vectorize=1),
    ],
)
def test_invalid_combinations_raise(kwargs):
    with pytest.raises(ValueError):
        ExecutionConfig(**kwargs)


def test_frozen():
    cfg = ExecutionConfig()
    with pytest.raises(Exception):
        cfg.shots = 7


@pytest.mark.parametrize("backend", _backends(), ids=lambda b: repr(b))
def test_hashable_value_object_every_backend(backend):
    """Configs work as dict keys/set members for every regime, and equal
    configs hash equal (NoiseModel carries a content hash)."""
    a = ExecutionConfig(estimator="shots", backend=backend)
    b = ExecutionConfig(estimator="shots", backend=backend)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


# ---------------------------------------------------------------- combinator
def test_merged_overrides_and_revalidates():
    cfg = ExecutionConfig(estimator="shots", shots=64)
    merged = cfg.merged(shots=128, dispatch_policy="lpt")
    assert merged.shots == 128
    assert merged.dispatch_policy == "lpt"
    assert merged.estimator == "shots"
    assert cfg.shots == 64  # original untouched
    with pytest.raises(ValueError):
        cfg.merged(dispatch_policy="bogus")
    with pytest.raises(TypeError):
        cfg.merged(bogus_field=1)


def test_merged_no_overrides_returns_self():
    cfg = ExecutionConfig()
    assert cfg.merged() is cfg


def test_merged_overrides_vectorize():
    cfg = ExecutionConfig(vectorize="off")
    assert cfg.merged(vectorize="auto").vectorize == "auto"
    assert cfg.merged(vectorize="auto").merged(vectorize="off") == cfg
    with pytest.raises(ValueError):
        cfg.merged(vectorize="sometimes")


def test_vectorize_none_canonicalized_to_off():
    """None spells "off" for vectorize exactly as it does for compile."""
    cfg = ExecutionConfig(vectorize=None)
    assert cfg.vectorize == "off"
    assert cfg == ExecutionConfig()
    assert ExecutionConfig.from_json(cfg.to_json()) == cfg


def test_vectorize_json_roundtrip():
    cfg = ExecutionConfig(vectorize="auto", compile="auto")
    data = json.loads(cfg.to_json())
    assert data["vectorize"] == "auto"
    assert ExecutionConfig.from_json(cfg.to_json()) == cfg
    # Wire forms written before the knob existed still load (field default).
    del data["vectorize"]
    assert ExecutionConfig.from_dict(data).vectorize == "off"


def test_compile_none_canonicalized_to_off():
    """None was always a legal legacy spelling of compile='off'; it must
    normalize so equality and the JSON round trip hold."""
    cfg = ExecutionConfig(compile=None)
    assert cfg.compile == "off"
    assert cfg == ExecutionConfig()
    assert ExecutionConfig.from_json(cfg.to_json()) == cfg


# ---------------------------------------------------------------- round-trip
@pytest.mark.parametrize("backend", _backends(), ids=lambda b: repr(b))
def test_dict_roundtrip_every_backend(backend):
    cfg = ExecutionConfig(
        estimator="shots", shots=77, snapshots=33, chunk_size=9, seed=5,
        compile=3, dispatch_policy="lpt", backend=backend,
    )
    restored = ExecutionConfig.from_dict(cfg.to_dict())
    assert restored == cfg


@pytest.mark.parametrize("backend", _backends(), ids=lambda b: repr(b))
def test_json_roundtrip_every_backend(backend):
    cfg = ExecutionConfig(backend=backend)
    text = cfg.to_json()
    assert json.loads(text)  # valid JSON
    assert ExecutionConfig.from_json(text) == cfg


@pytest.mark.parametrize("backend", _backends(), ids=lambda b: repr(b))
def test_pickle_roundtrip_every_backend(backend):
    cfg = ExecutionConfig(estimator="shots", backend=backend)
    restored = pickle.loads(pickle.dumps(cfg))
    assert restored == cfg


def test_noise_model_hash_consistent_across_dtypes():
    """Equal models hash equal even when one is float64 and the other is
    its complex128 dict round-trip (the hash/eq contract)."""
    a = NoiseModel(one_qubit=[np.eye(2)])
    b = NoiseModel.from_dict(a.to_dict())
    assert a == b
    assert hash(a) == hash(b)


def test_noise_model_kraus_roundtrip_exact():
    noise = NoiseModel.depolarizing(0.013, 0.1)
    restored = NoiseModel.from_dict(noise.to_dict())
    for a, b in zip(noise.one_qubit, restored.one_qubit, strict=True):
        assert np.array_equal(a, b)  # JSON doubles round-trip bit-exactly
    assert restored == noise


def test_backend_dict_unknown_kind_raises():
    with pytest.raises(ValueError):
        backend_from_dict({"kind": "tensor_network"})


def test_backend_subclass_not_flattened_to_base_kind():
    """A subclass of a built-in must use its own to_dict (or fail loudly),
    never silently serialize as the base kind and lose itself on reload."""

    class Custom(StatevectorBackend):
        def to_dict(self):
            return {"kind": "custom"}

    class Silent(StatevectorBackend):
        pass

    assert backend_to_dict(Custom()) == {"kind": "custom"}
    with pytest.raises(TypeError, match="to_dict"):
        backend_to_dict(Silent())


def test_backend_to_dict_resolves_none():
    assert backend_to_dict(None) == {"kind": "statevector"}


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown"):
        ExecutionConfig.from_dict({"estimator": "exact", "warp_factor": 9})


def test_generator_seed_not_serializable():
    cfg = ExecutionConfig(seed=np.random.default_rng(0))
    with pytest.raises(TypeError):
        cfg.to_dict()


def test_mitigated_scales_roundtrip_as_tuple():
    cfg = ExecutionConfig(
        backend=MitigatedBackend(DensityMatrixBackend(), scales=(1, 5, 7))
    )
    restored = ExecutionConfig.from_json(cfg.to_json())
    assert restored.backend.scales == (1, 5, 7)


# -------------------------------------------------------------------- shards
def test_shards_default_is_one():
    cfg = ExecutionConfig()
    assert cfg.backend.shards == 1
    assert type(cfg.backend) is StatevectorBackend


def test_shards_requires_ideal_backend(capsys):
    """The CLI's --shards builds the distributed backend, which has no
    noisy or mitigated variant: the flag pair is an invalid-flags exit."""
    from repro.cli import main

    for regime in ("noisy", "mitigated"):
        with pytest.raises(SystemExit) as excinfo:
            main(["config", "--shards", "2", "--backend", regime])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--shards 2" in err and f"--backend {regime}" in err
    assert main(["config", "--shards", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["backend"] == {
        "kind": "distributed",
        "shards": 2,
    }


@pytest.mark.parametrize("bad", [0, 3, -2, 2.0, "2", True])
def test_shards_validation(bad):
    with pytest.raises(ValueError, match="shards"):
        DistributedStatevectorBackend(shards=bad)


def test_shards_json_roundtrip():
    cfg = ExecutionConfig(
        backend=DistributedStatevectorBackend(shards=4), estimator="shots", shots=99
    )
    data = json.loads(cfg.to_json())
    assert "shards" not in data  # one spelling: the backend carries it
    assert data["backend"] == {"kind": "distributed", "shards": 4}
    restored = ExecutionConfig.from_json(cfg.to_json())
    assert restored == cfg
    assert restored.backend.shards == 4


def test_shards_merged_combinator():
    cfg = ExecutionConfig()
    sharded = cfg.merged(backend=DistributedStatevectorBackend(shards=2))
    assert sharded.backend.shards == 2
    assert cfg.backend.shards == 1  # original untouched
    with pytest.raises(TypeError):
        cfg.merged(shards=2)


def test_sharded_config_merges_onto_every_backend():
    """Swapping the backend of a sharded config leaves no shard count behind."""
    cfg = ExecutionConfig(backend=DistributedStatevectorBackend(shards=4))
    assert cfg.merged(backend=None).backend == StatevectorBackend()
    dense = cfg.merged(backend=DensityMatrixBackend())
    assert dense.backend == DensityMatrixBackend()
    assert dense.backend.shards == 1


# ------------------------------------------------------------- array backend
def test_array_backend_default_is_numpy():
    cfg = ExecutionConfig()
    assert cfg.array_backend == "numpy"
    assert cfg.resolved_array_backend == "numpy"


@pytest.mark.parametrize("bad", ["bogus", "Numpy", "", 1, None, True])
def test_array_backend_unknown_names_raise_at_construction(bad):
    with pytest.raises(ValueError, match="array_backend"):
        ExecutionConfig(array_backend=bad)


def test_array_backend_json_roundtrip():
    cfg = ExecutionConfig(array_backend="auto", estimator="shots", shots=3)
    data = json.loads(cfg.to_json())
    assert data["array_backend"] == "auto"
    assert ExecutionConfig.from_json(cfg.to_json()) == cfg
    # Wire forms written before the knob existed still load (field default).
    legacy = cfg.to_dict()
    del legacy["array_backend"]
    assert ExecutionConfig.from_dict(legacy).array_backend == "numpy"


def test_array_backend_merged_combinator():
    cfg = ExecutionConfig()
    merged = cfg.merged(array_backend="auto")
    assert merged.array_backend == "auto"
    assert cfg.array_backend == "numpy"  # original untouched
    with pytest.raises(ValueError):
        cfg.merged(array_backend="gpu")
