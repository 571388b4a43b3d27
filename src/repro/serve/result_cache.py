"""Bounded LRU (+ optional TTL) cache for served feature responses.

The service keys entries on the full request identity -- template group
(fingerprints + config-minus-seed), the exact input bytes, and the request
seed -- so a hit is *bit-identical* to recomputing.  There is no tolerance
matching: a cache that substitutes "close" features would silently change
results, which the serving layer's bit-equality contract forbids.

Stored and returned arrays are defensive copies: a caller mutating its
response can never poison later hits.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["ResultCacheInfo", "ResultCache", "result_key"]


def result_key(group_key: Any, x: np.ndarray, seed: Any) -> tuple:
    """Cache identity of one request.

    The payload hash runs over the raw bytes of the C-contiguous array, so
    two inputs collide only when they are bit-identical (same shape, dtype
    and every byte).  ``seed`` enters the key so stochastic estimators
    never alias responses across seeds; exact requests pass ``None``.
    """
    arr = np.ascontiguousarray(x)
    digest = hashlib.sha256(arr.tobytes()).hexdigest()
    return (group_key, arr.shape, str(arr.dtype), digest, seed)


@dataclass(frozen=True)
class ResultCacheInfo:
    """Snapshot of result-cache statistics (mirrors ``CompileCache.info``)."""

    hits: int
    misses: int
    currsize: int
    maxsize: int
    evictions: int
    expirations: int

    def to_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "currsize": self.currsize,
            "maxsize": self.maxsize,
            "evictions": self.evictions,
            "expirations": self.expirations,
        }


class ResultCache:
    """Thread-safe LRU with optional per-entry TTL.

    ``maxsize=0`` disables storage entirely (every ``get`` misses, every
    ``put`` is dropped); a service configured with
    ``result_cache_size=0`` skips the cache altogether.  ``ttl_s`` bounds
    entry age against ``clock`` (injectable for tests; defaults to the
    monotonic clock).
    """

    def __init__(
        self,
        maxsize: int,
        ttl_s: float | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize={maxsize} must be >= 0")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError(f"ttl_s={ttl_s} must be > 0 or None")
        self.maxsize = int(maxsize)
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[Any, tuple[np.ndarray, float]] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0

    def get(self, key: Any) -> np.ndarray | None:
        """The cached response (a copy), or ``None`` on miss/expiry."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self.ttl_s is not None:
                if self._clock() - entry[1] > self.ttl_s:
                    del self._entries[key]
                    self._expirations += 1
                    entry = None
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0].copy()

    def put(self, key: Any, value: np.ndarray) -> None:
        """Store a response (LRU-evicting); no-op when storage is disabled."""
        if self.maxsize == 0:
            return
        stored = np.array(value, copy=True)
        with self._lock:
            self._entries[key] = (stored, self._clock())
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def info(self) -> ResultCacheInfo:
        """Statistics snapshot (feeds the service metrics)."""
        with self._lock:
            return ResultCacheInfo(
                hits=self._hits,
                misses=self._misses,
                currsize=len(self._entries),
                maxsize=self.maxsize,
                evictions=self._evictions,
                expirations=self._expirations,
            )
