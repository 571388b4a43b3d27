"""repro.xp shim: knob validation, "auto" resolution, the device-constant
memo, and kernel equivalence.

Every hot kernel has one body written against an ``xp`` namespace.  The
equivalence suite runs each kernel under every available namespace and
compares it with an *independent* NumPy reference (a different engine or a
dense ``np.kron`` construction), so it still checks something when the
namespace is NumPy itself.  NumPy always runs; torch and CuPy join the
parameterization whenever they are installed (the CI torch leg) and are
*skipped*, never failed, when absent.  The NumPy namespace keeps no
device memo, so the memo tests use a test-only namespace whose
``to_device`` copies like a host->GPU transfer.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.xp as xp_module
from repro.api import ExecutionConfig
from repro.core.ansatz import fig8_ansatz
from repro.core.features import generate_features, sweep_mode
from repro.core.strategies import AnsatzExpansion, ObservableConstruction
from repro.data.encoding import encoding_template
from repro.quantum.backends import DensityMatrixBackend
from repro.quantum.batched import compile_parametric, extend_template
from repro.quantum.circuit import Circuit
from repro.quantum.compile import CompileCache, compile_circuit
from repro.quantum.density import (
    apply_kraus,
    apply_unitary,
    compile_density_template,
    run_batched_density,
    run_circuit_density,
)
from repro.quantum.gates import H
from repro.quantum.noise import NoiseModel, depolarizing_channel
from repro.quantum.statevector import apply_matrix_batch, run_circuit
from repro.xp import (
    ARRAY_BACKENDS,
    backend_available,
    get_namespace,
    resolve_array_backend,
    validate_array_backend,
)


def _accelerators_absent(monkeypatch):
    monkeypatch.setattr(
        xp_module, "backend_available", lambda name: name == "numpy"
    )


# ----------------------------------------------------------------- selection
def test_auto_resolves_to_numpy_without_accelerators(monkeypatch):
    _accelerators_absent(monkeypatch)
    assert resolve_array_backend("auto") == "numpy"


def test_auto_prefers_cupy(monkeypatch):
    monkeypatch.setattr(xp_module, "backend_available", lambda name: True)
    assert resolve_array_backend("auto") == "cupy"


def test_auto_skips_cpu_only_torch(monkeypatch):
    """A CPU-only torch install is not faster than NumPy; auto only picks
    torch when it can reach a CUDA device."""
    monkeypatch.setattr(
        xp_module, "backend_available", lambda name: name in ("numpy", "torch")
    )
    monkeypatch.setattr(xp_module, "_torch_has_cuda", lambda: False)
    assert resolve_array_backend("auto") == "numpy"
    monkeypatch.setattr(xp_module, "_torch_has_cuda", lambda: True)
    assert resolve_array_backend("auto") == "torch"


@pytest.mark.parametrize("bad", ["bogus", "NUMPY", "", None, 3, ("numpy",)])
def test_unknown_names_raise(bad):
    with pytest.raises(ValueError, match="array_backend"):
        validate_array_backend(bad)


def test_explicit_backend_requires_install(monkeypatch):
    _accelerators_absent(monkeypatch)
    for name in ("cupy", "torch"):
        with pytest.raises(ValueError, match="not installed"):
            validate_array_backend(name)
    # "auto" stays symbolic at validation time: it resolves later.
    assert validate_array_backend("auto") == "auto"


def test_config_validates_at_construction(monkeypatch):
    """Unknown/not-installed backends fail at the ExecutionConfig call
    site, not deep inside a worker."""
    with pytest.raises(ValueError, match="array_backend"):
        ExecutionConfig(array_backend="tensorflow")
    _accelerators_absent(monkeypatch)
    with pytest.raises(ValueError, match="not installed"):
        ExecutionConfig(array_backend="cupy")
    assert ExecutionConfig(array_backend="auto").resolved_array_backend == "numpy"


def test_backend_tuple_spelling():
    assert ARRAY_BACKENDS == ("auto", "numpy", "cupy", "torch")
    assert backend_available("numpy")
    assert not backend_available("definitely_not_a_module_xyz")


def test_get_namespace_singletons(monkeypatch):
    a = get_namespace("numpy")
    assert a is get_namespace("numpy")
    assert a.name == "numpy"
    _accelerators_absent(monkeypatch)
    assert get_namespace("auto") is a


# ------------------------------------------------------------- transfer memo
class _CopyingNamespace(xp_module._NumpyNamespace):
    """NumPy ops, but ``to_device`` copies like a host->GPU transfer and the
    base class's constant memo is live (the NumPy namespace keeps none)."""

    def __init__(self, device_cache_size: int = 512):
        super().__init__("copying-numpy", device_cache_size)

    def to_device(self, array):
        return np.array(array, copy=True)

    to_device_cached = xp_module.ArrayNamespace.to_device_cached


def test_numpy_namespace_keeps_no_device_memo():
    """Host arrays need no transfer: the NumPy namespace hands constants
    back as they are and memoises nothing."""
    ns = get_namespace("numpy")
    a = np.eye(2, dtype=np.complex128)
    assert ns.to_device_cached(a) is a
    assert len(ns._device_cache) == 0


def test_to_device_cached_memoizes_by_identity():
    ns = _CopyingNamespace()
    a = np.eye(2, dtype=np.complex128)
    d1 = ns.to_device_cached(a)
    assert d1 is not a
    assert ns.to_device_cached(a) is d1


def test_to_device_cached_rejects_stale_id_hits():
    """A recycled id must never serve another array's device copy."""
    ns = _CopyingNamespace()
    a = np.eye(2, dtype=np.complex128)
    b = np.zeros((2, 2), dtype=np.complex128)
    sentinel = object()
    ns._device_cache[id(b)] = (a, sentinel)  # stale entry keyed at b's id
    out = ns.to_device_cached(b)
    assert out is not sentinel
    assert np.array_equal(np.asarray(out), b)


def test_to_device_cached_bounded():
    ns = _CopyingNamespace()
    arrays = [np.full((1,), i, dtype=np.complex128) for i in range(600)]
    for a in arrays:
        ns.to_device_cached(a)
    assert len(ns._device_cache) <= 512


def test_to_device_cached_evicts_least_recently_used():
    """The bound is an LRU, not FIFO: a re-touched entry survives eviction."""
    ns = _CopyingNamespace(device_cache_size=3)
    keep = np.full((1,), -1.0, dtype=np.complex128)
    kept_device = ns.to_device_cached(keep)
    fillers = [np.full((1,), i, dtype=np.complex128) for i in range(4)]
    for a in fillers:
        ns.to_device_cached(a)
        # Touch the pinned entry between inserts so it stays most-recent.
        assert ns.to_device_cached(keep) is kept_device
    assert len(ns._device_cache) == 3
    assert id(keep) in ns._device_cache
    # The oldest untouched fillers were the ones evicted.
    assert id(fillers[0]) not in ns._device_cache
    assert id(fillers[-1]) in ns._device_cache


def test_device_cache_size_validated():
    with pytest.raises(ValueError, match="device_cache_size"):
        _CopyingNamespace(device_cache_size=0)
    ns = _CopyingNamespace(device_cache_size=1)
    a = np.eye(2, dtype=np.complex128)
    b = np.zeros((2, 2), dtype=np.complex128)
    ns.to_device_cached(a)
    ns.to_device_cached(b)
    assert len(ns._device_cache) == 1
    assert id(b) in ns._device_cache


def test_to_device_cached_survives_concurrent_eviction():
    """Sweeps on a thread pool share one namespace and evict each other's
    entries (an order-2 expansion holds more block matrices than the memo
    keeps).  Under a tiny switch interval an unguarded memo loses the race
    between lookup and ``move_to_end`` and raises ``KeyError``."""
    ns = _CopyingNamespace(device_cache_size=2)
    # One more array than the memo holds: every thread both hits and evicts.
    arrays = [np.full((1,), i, dtype=np.complex128) for i in range(3)]
    errors: list[Exception] = []

    def hammer(offset):
        try:
            for i in range(20_000):
                a = arrays[(i + offset) % len(arrays)]
                if ns.to_device_cached(a)[0] != a[0]:
                    raise AssertionError(f"stale device copy for {a[0]}")
        except Exception as exc:  # surfaced by the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(ns._device_cache) <= 2


# ------------------------------------------------------- kernel equivalence
def _xp_params():
    params = [pytest.param("numpy", id="numpy")]
    for name in ("torch", "cupy"):
        params.append(
            pytest.param(
                name,
                id=name,
                marks=pytest.mark.skipif(
                    not backend_available(name), reason=f"{name} not installed"
                ),
            )
        )
    return params


@pytest.fixture(params=_xp_params())
def xp(request):
    return get_namespace(request.param)


def _bound_circuit(n=3):
    c = Circuit(n, name="bound")
    for q in range(n):
        c.append("h", q)
        c.append("ry", q, 0.3 + 0.2 * q)
    c.append("cnot", (0, 1)).append("cnot", (1, 2)).append("rz", 0, 0.7)
    c.append("cz", (0, 2))
    return c


def _random_states(rng, batch, dim):
    states = rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def _dense(matrix, qubits, n):
    """``matrix`` on ``qubits`` of an ``n``-qubit register as a dense
    operator: ``np.kron`` with the identity on the other qubits, then the
    tensor axes permuted back into register order."""
    rest = [q for q in range(n) if q not in qubits]
    full = np.kron(matrix, np.eye(2 ** len(rest)))
    perm = list(np.argsort(list(qubits) + rest))
    tensor = full.reshape((2,) * (2 * n)).transpose(perm + [n + p for p in perm])
    return tensor.reshape(2**n, 2**n)


def test_apply_matrix_batch_matches_reference(xp):
    rng = np.random.default_rng(3)
    states = _random_states(rng, 6, 8)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    reference = states @ _dense(q, (0, 2), 3).T
    via_xp = xp.to_numpy(
        apply_matrix_batch(xp.to_device(states), xp.to_device(q), (0, 2), xp=xp)
    )
    assert np.abs(via_xp - reference).max() < 1e-12


def test_compiled_circuit_apply_matches_reference(xp):
    """Fused blocks against the naive per-gate walk."""
    circuit = _bound_circuit()
    program = compile_circuit(circuit, cache=None)
    states = _random_states(np.random.default_rng(4), 4, 8)
    reference = run_circuit(circuit, state=states)
    via_xp = xp.to_numpy(program.apply(xp.to_device(states), xp=xp))
    assert np.abs(via_xp - reference).max() < 1e-12


def test_apply_batch_matches_reference(xp):
    """The batched engine (angle chains + fused blocks) against per-sample
    bind + naive walk."""
    template = extend_template(encoding_template(3, 3), _bound_circuit())
    program = compile_parametric(template, cache=None)
    rng = np.random.default_rng(5)
    angles = rng.uniform(0, 2 * np.pi, size=(7, 9))
    reference = np.stack([run_circuit(template.bind(row)) for row in angles])
    via_xp = program.apply_batch(angles, xp=xp)
    assert np.abs(np.asarray(via_xp) - reference).max() < 1e-12


def test_run_batched_density_matches_reference(xp):
    """The stacked superoperator walk against per-sample Kraus walks."""
    template = encoding_template(2, 2)
    noise = NoiseModel.depolarizing(0.02)
    program = compile_density_template(template, noise)
    rng = np.random.default_rng(6)
    angles = rng.uniform(0, 2 * np.pi, size=(5, 4))
    reference = np.stack(
        [run_circuit_density(template.bind(row), noise_model=noise) for row in angles]
    )
    via_xp = run_batched_density(program, angles, xp=xp)
    assert np.abs(via_xp - reference).max() < 1e-12


def test_apply_kraus_matches_reference(xp):
    rng = np.random.default_rng(7)
    psi = _random_states(rng, 1, 8)[0]
    rho = np.outer(psi, psi.conj())
    kraus = depolarizing_channel(0.1)
    reference = sum(
        d @ rho @ d.conj().T for d in (_dense(k, (1,), 3) for k in kraus)
    )
    via_xp = xp.to_numpy(apply_kraus(xp.to_device(rho), kraus, [1], xp=xp))
    assert np.abs(via_xp - reference).max() < 1e-12


def test_run_circuit_density_matches_reference(xp):
    """The per-gate Kraus walk against the stacked superoperator walk."""
    circuit = _bound_circuit()
    noise = NoiseModel.depolarizing(0.01)
    program = compile_density_template(circuit, noise)
    reference = run_batched_density(program, np.zeros((1, 0)))[0]
    via_xp = run_circuit_density(circuit, noise_model=noise, xp=xp)
    assert np.abs(via_xp - reference).max() < 1e-12


def test_apply_unitary_rejects_non_square_rho(xp):
    """The one kernel body validates rho under every namespace (the removed
    device copy skipped the check and returned a (4, 2) array)."""
    for shape in [(4, 2), (4,)]:
        rho = xp.to_device(np.zeros(shape, dtype=np.complex128))
        with pytest.raises(ValueError, match="rho must be square"):
            apply_unitary(rho, H, (0,), xp=xp)


# --------------------------------------------------------- cache partition
def test_density_cache_partitions_by_backend_and_noise():
    """Ideal and noisy templates never share an entry (the key carries the
    noise model's content hash)."""
    cache = CompileCache(maxsize=8)
    template = encoding_template(2, 2)
    noise = NoiseModel.depolarizing(0.01)
    ideal = compile_density_template(template, None, cache=cache)
    noisy = compile_density_template(template, noise, cache=cache)
    assert ideal is not noisy
    assert compile_density_template(template, None, cache=cache) is ideal
    assert compile_density_template(template, noise, cache=cache) is noisy


# ------------------------------------------------------------- end to end
def test_sweep_results_identical_across_spellings():
    """"numpy" and "auto" (resolving to numpy here) are one device path:
    two devices in one process produce bit-identical feature matrices."""
    rng = np.random.default_rng(9)
    angles = rng.uniform(0, 2 * np.pi, size=(5, 2, 2))
    strategy = ObservableConstruction(qubits=2, locality=1)
    explicit = generate_features(
        strategy, angles,
        config=ExecutionConfig(vectorize="auto", array_backend="numpy"),
    )
    auto = generate_features(
        strategy, angles,
        config=ExecutionConfig(vectorize="auto", array_backend="auto"),
    )
    assert np.array_equal(explicit, auto)


@pytest.mark.skipif(not backend_available("torch"), reason="torch not installed")
@pytest.mark.parametrize(
    ("backend", "mode"),
    [
        ("statevector", "batched"),
        ("density", "batched"),
        ("statevector", "shared_encoder"),
        ("statevector", "pauli"),
        ("statevector", "prepared"),
    ],
)
def test_torch_sweep_matches_numpy(backend, mode):
    """Every sweep mode under torch matches NumPy.  The shared-encoder and
    prepared modes evolve through ``CompiledCircuit.apply`` under torch on
    the very programs the NumPy sweep just cached: compiled programs carry
    no namespace.  The Pauli engine is NumPy-only whatever the namespace."""
    rng = np.random.default_rng(10)
    angles = rng.uniform(0, 2 * np.pi, size=(6, 2, 2))
    exec_backend = (
        DensityMatrixBackend(NoiseModel.depolarizing(0.01))
        if backend == "density"
        else None
    )
    if mode == "batched":
        strategy = ObservableConstruction(qubits=2, locality=1)
        knobs = {"vectorize": "auto"}
    else:
        # Nonzero base parameters make the instances non-Clifford, which
        # keeps the shared-encoder ensemble off the Pauli engine.
        base = np.array([0.3, -0.2]) if mode == "shared_encoder" else None
        strategy = AnsatzExpansion(
            circuit=fig8_ansatz(2, 1), order=1, base_parameters=base
        )
        knobs = (
            {"vectorize": "off", "compile": "auto"}
            if mode == "prepared"
            else {"vectorize": "auto"}
        )
    reference_cfg = ExecutionConfig(
        backend=exec_backend, array_backend="numpy", **knobs
    )
    assert sweep_mode(strategy, reference_cfg) == mode
    reference = generate_features(strategy, angles, config=reference_cfg)
    via_torch = generate_features(
        strategy, angles, config=reference_cfg.merged(array_backend="torch")
    )
    assert np.abs(via_torch - reference).max() < 1e-10
