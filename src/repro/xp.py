"""Array-namespace shim: one tensor abstraction over NumPy / CuPy / torch.

Every hot kernel (fused-block matmuls, the batched structure-shared
engine, Kraus application, the stacked density walker) has one body,
written against an optional ``xp`` namespace.  ``xp=None`` means the
process-wide NumPy namespace (``get_namespace("numpy")``), whose ops are
NumPy's own, so the default path computes exactly what plain NumPy code
would.  Any other namespace runs the same body through that library's ops
(``torch.matmul``, ``cupy.einsum``, ...), with device transfer at the
edges: constant gate matrices move host->device once per namespace via an
id-keyed memo (:meth:`ArrayNamespace.to_device_cached`; NumPy has nothing
to transfer and keeps no memo), angles move once per chunk at the job
boundary, and results come back as NumPy so the rest of the pipeline never
sees a foreign array.  Compiled programs hold only host NumPy arrays, so
one program serves every namespace.

Backend selection is a config knob
(``ExecutionConfig(array_backend="numpy"|"cupy"|"torch"|"auto")``,
``--array-backend``), validated at config construction
(:func:`validate_array_backend`: unknown names and not-installed libraries
raise ``ValueError`` before any worker starts).  ``"auto"`` prefers CuPy,
then torch *with* CUDA, else NumPy -- a CPU-only torch install is not
faster than NumPy, so auto never picks it
(:func:`resolve_array_backend`).

CuPy and torch are detected lazily and imported only when actually
selected; the shim itself depends on nothing beyond NumPy.
"""

from __future__ import annotations

import importlib.util
import threading
from collections import OrderedDict
from collections.abc import Sequence
from typing import Any

import numpy as np

__all__ = [
    "ARRAY_BACKENDS",
    "ArrayNamespace",
    "backend_available",
    "get_namespace",
    "resolve_array_backend",
    "validate_array_backend",
]

#: Legal values of the ``array_backend`` knob, in documentation order.
ARRAY_BACKENDS = ("auto", "numpy", "cupy", "torch")

#: Entries kept in each device namespace's host->device constant-matrix memo.
#: One sweep can hold more distinct block matrices (an order-2 expansion of
#: the 4-qubit Fig. 8 Ansatz compiles to 774), so entries are evicted
#: mid-sweep.  Strong references to the source arrays keep ids stable (an
#: id-keyed cache on a dead object could alias a new one).
_DEVICE_CACHE_SIZE = 512


def backend_available(name: str) -> bool:
    """Whether ``name``'s library is importable (cheap: spec lookup only)."""
    if name == "numpy":
        return True
    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):
        return False


def validate_array_backend(knob: Any) -> str:
    """Validate the ``array_backend`` config knob (raises ``ValueError``).

    Runs at :class:`~repro.api.config.ExecutionConfig` construction so an
    unknown name or a not-installed explicit backend fails at the call
    site, not deep inside a worker process.
    """
    if not isinstance(knob, str) or knob not in ARRAY_BACKENDS:
        raise ValueError(
            f"array_backend must be one of {ARRAY_BACKENDS}, got {knob!r}"
        )
    if knob in ("cupy", "torch") and not backend_available(knob):
        raise ValueError(
            f"array_backend={knob!r} requested but {knob} is not installed "
            f"(install it, or use \"auto\" to fall back to numpy)"
        )
    return knob


def _torch_has_cuda() -> bool:
    try:
        import torch

        return bool(torch.cuda.is_available())
    except Exception:  # pragma: no cover - import/runtime probe failure
        return False


def resolve_array_backend(knob: Any) -> str:
    """Resolve the knob to a concrete namespace name.

    ``"auto"`` prefers CuPy (GPU by construction), then torch when it can
    reach a CUDA device, else NumPy.  Resolution happens once in the parent
    process and the concrete *name* ships to workers, so a pool never mixes
    namespaces within one sweep.
    """
    knob = validate_array_backend(knob)
    if knob != "auto":
        return knob
    if backend_available("cupy"):
        return "cupy"
    if backend_available("torch") and _torch_has_cuda():
        return "torch"
    return "numpy"


class ArrayNamespace:
    """Minimal array-API surface the quantum kernels contract against.

    Concrete subclasses adapt one library; every kernel runs the same body
    under any of them.
    """

    name: str

    def __init__(self, name: str, device_cache_size: int = _DEVICE_CACHE_SIZE) -> None:
        if device_cache_size < 1:
            raise ValueError(
                f"device_cache_size={device_cache_size} must be >= 1"
            )
        self.name = name
        self.device_cache_size = int(device_cache_size)
        self._device_cache: OrderedDict[int, tuple[Any, Any]] = OrderedDict()
        self._device_cache_lock = threading.Lock()

    # ------------------------------------------------------------ transfer
    def to_device(self, array: Any) -> Any:
        raise NotImplementedError

    def to_numpy(self, array: Any) -> np.ndarray:
        raise NotImplementedError

    def to_device_cached(self, array: np.ndarray) -> Any:
        """Memoized host->device transfer for constant matrices.

        Keyed by ``id`` with a strong reference to the source array and an
        identity re-check on hit, so a recycled id can never serve a stale
        device copy.  NumPy arrays are unhashable and must not be compared
        by value here (that would cost the copy we are avoiding).  A lock
        guards the memo -- sweeps on a thread pool share one namespace and
        evict each other's entries -- while the transfer itself runs
        outside it.
        """
        key = id(array)
        with self._device_cache_lock:
            hit = self._device_cache.get(key)
            if hit is not None and hit[0] is array:
                self._device_cache.move_to_end(key)
                return hit[1]
        device = self.to_device(array)
        with self._device_cache_lock:
            self._device_cache[key] = (array, device)
            self._device_cache.move_to_end(key)
            while len(self._device_cache) > self.device_cache_size:
                self._device_cache.popitem(last=False)
        return device

    # ------------------------------------------------------------ dtype/alloc
    def ascomplex(self, array: Any) -> Any:
        """``array`` as a complex128 tensor of this namespace."""
        raise NotImplementedError

    def zeros(self, shape: Sequence[int]) -> Any:
        """Complex128 zeros of ``shape`` on this namespace's device."""
        raise NotImplementedError

    # ------------------------------------------------------------ kernels
    def einsum(self, subscripts: str, *operands: Any) -> Any:
        raise NotImplementedError

    def moveaxis(self, array: Any, source: Any, destination: Any) -> Any:
        raise NotImplementedError

    def matmul(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def conj(self, array: Any) -> Any:
        raise NotImplementedError

    def ascontiguous(self, array: Any) -> Any:
        raise NotImplementedError

    def cos(self, array: Any) -> Any:
        raise NotImplementedError

    def sin(self, array: Any) -> Any:
        raise NotImplementedError

    def exp(self, array: Any) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrayNamespace({self.name!r})"


class _NumpyNamespace(ArrayNamespace):
    """NumPy adapter: the namespace every kernel runs under for ``xp=None``."""

    def to_device(self, array):
        return np.asarray(array)

    def to_device_cached(self, array: np.ndarray) -> Any:
        # Host arrays need no transfer, so there is nothing to memoise.
        return array

    def to_numpy(self, array):
        return np.asarray(array)

    def ascomplex(self, array):
        return np.asarray(array, dtype=np.complex128)

    def zeros(self, shape):
        return np.zeros(tuple(shape), dtype=np.complex128)

    def einsum(self, subscripts, *operands):
        return np.einsum(subscripts, *operands)

    def moveaxis(self, array, source, destination):
        return np.moveaxis(array, source, destination)

    def matmul(self, a, b):
        return np.matmul(a, b)

    def conj(self, array):
        return np.conj(array)

    def ascontiguous(self, array):
        return np.ascontiguousarray(array)

    def cos(self, array):
        return np.cos(array)

    def sin(self, array):
        return np.sin(array)

    def exp(self, array):
        return np.exp(array)


class _CupyNamespace(ArrayNamespace):
    """CuPy adapter: NumPy-compatible API, arrays live on the GPU."""

    def __init__(self) -> None:
        import cupy

        super().__init__("cupy")
        self._cp = cupy

    def to_device(self, array):
        return self._cp.asarray(array)

    def to_numpy(self, array):
        return self._cp.asnumpy(array)

    def ascomplex(self, array):
        return self._cp.asarray(array, dtype=self._cp.complex128)

    def zeros(self, shape):
        return self._cp.zeros(tuple(shape), dtype=self._cp.complex128)

    def einsum(self, subscripts, *operands):
        return self._cp.einsum(subscripts, *operands)

    def moveaxis(self, array, source, destination):
        return self._cp.moveaxis(array, source, destination)

    def matmul(self, a, b):
        return self._cp.matmul(a, b)

    def conj(self, array):
        return self._cp.conj(array)

    def ascontiguous(self, array):
        return self._cp.ascontiguousarray(array)

    def cos(self, array):
        return self._cp.cos(array)

    def sin(self, array):
        return self._cp.sin(array)

    def exp(self, array):
        return self._cp.exp(array)


class _TorchNamespace(ArrayNamespace):
    """Torch adapter (CUDA when available, else CPU tensors).

    Differences papered over here so kernels stay library-agnostic: the
    ``movedim`` spelling, and conjugation via the lazy conj bit
    (``resolve_conj`` before handing a tensor back to NumPy).
    """

    def __init__(self) -> None:
        import torch

        super().__init__("torch")
        self._torch = torch
        self._device = torch.device("cuda" if torch.cuda.is_available() else "cpu")

    def to_device(self, array):
        return self._torch.as_tensor(
            np.ascontiguousarray(array), device=self._device
        )

    def to_numpy(self, array):
        return array.resolve_conj().cpu().numpy()

    def ascomplex(self, array):
        if not self._torch.is_tensor(array):
            array = self.to_device(np.asarray(array))
        return array.to(self._torch.complex128)

    def zeros(self, shape):
        return self._torch.zeros(
            tuple(shape), dtype=self._torch.complex128, device=self._device
        )

    def einsum(self, subscripts, *operands):
        return self._torch.einsum(subscripts, *operands)

    def moveaxis(self, array, source, destination):
        if not isinstance(source, int):
            source, destination = tuple(source), tuple(destination)
        return self._torch.movedim(array, source, destination)

    def matmul(self, a, b):
        return self._torch.matmul(a, b)

    def conj(self, array):
        return self._torch.conj(array)

    def ascontiguous(self, array):
        return array.contiguous()

    def cos(self, array):
        return self._torch.cos(array)

    def sin(self, array):
        return self._torch.sin(array)

    def exp(self, array):
        return self._torch.exp(array)


#: One namespace per library per process.  NumPy's always exists: it is
#: what ``xp=None`` means in every kernel.
_NAMESPACES: dict[str, ArrayNamespace] = {"numpy": _NumpyNamespace("numpy")}


def get_namespace(name: str) -> ArrayNamespace:
    """The process-wide namespace for ``name`` (resolving ``"auto"``).

    One instance per library per process, so the device-constant memo is
    shared by every kernel call on that backend.  A concrete name already
    in use costs one dict lookup (kernels call ``get_namespace("numpy")``
    for ``xp=None``).
    """
    namespace = _NAMESPACES.get(name)
    if namespace is None:
        resolved = resolve_array_backend(name)
        namespace = _NAMESPACES.get(resolved)
        if namespace is None:
            namespace = _CupyNamespace() if resolved == "cupy" else _TorchNamespace()
            _NAMESPACES[resolved] = namespace
    return namespace
