"""In-memory span recorder and the wrappers that feed it (traced runs only).

The benchmark never edits the program to trace it: :func:`install` rebinds
the public functions and methods each layer exposes -- on the module
attribute its caller resolves -- to thin wrappers that record a span
(name, start, end, parent, op id) and put the original back on
:meth:`Tracer.uninstall`.  Spans stay in memory until the run ends.

Parenthood travels in a context variable.  Context variables do not cross
``ThreadPoolExecutor.submit``, so the runtime wrappers hand each pool task
its parent span and op id explicitly.  A span's *self* time is its length
minus the part of it covered by its children.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import time
from collections import defaultdict
from functools import partial
from collections.abc import Iterable
from types import MappingProxyType
from typing import Any

# (span id, op id) of the innermost open span in this context.
_CURRENT: contextvars.ContextVar[tuple[int | None, Any]] = contextvars.ContextVar(
    "perfbench_current", default=(None, None)
)

# Spans whose intervals count as attributed work in ``unattributed_share``:
# the leaves of the layer tree (containers such as a whole sweep or a pool
# task would cover everything).
LEAF_SPANS = (
    "quantum.compile.apply",
    "quantum.compile.lookup",
    "quantum.batched.apply_batch",
    "core.features.measure",
    "analysis.preflight",
    "ml.logistic.fit",
    "ml.logistic.predict",
)


_NO_ATTRS = MappingProxyType({})


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, sid, name, start, parent, op, attrs):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = _NO_ATTRS if attrs is None else attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            **({"attrs": dict(self.attrs)} if self.attrs else {}),
        }


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []

    # ------------------------------------------------------------ recording
    def open(self, name: str, attrs: dict | None = None) -> tuple[Span, Any]:
        parent, op = _CURRENT.get()
        span = Span(next(self._ids), name, time.perf_counter(), parent, op, attrs)
        return span, _CURRENT.set((span.sid, op))

    def close(self, span: Span, token: Any) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        # list.append is atomic under the interpreter lock: no extra lock.
        self.spans.append(span)

    def record(self, name: str, start: float, end: float, parent, op, attrs=None) -> Span:
        """Add a finished span whose interval was measured elsewhere."""
        span = Span(next(self._ids), name, start, parent, op, attrs)
        span.end = end
        self.spans.append(span)
        return span

    def begin_op(self, op: Any) -> Any:
        return _CURRENT.set((None, op))

    def end_op(self, token: Any) -> None:
        _CURRENT.reset(token)

    def span_fn(self, name: str, fn, attrs_of=None):
        """``fn`` wrapped in a span; ``attrs_of(args, kwargs)`` adds attrs."""
        tracer = self

        def wrapper(*args, **kwargs):
            span, token = tracer.open(name, attrs_of(args, kwargs) if attrs_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span, token)

        wrapper.__wrapped__ = fn
        return wrapper

    # -------------------------------------------------------------- patching
    def patch(self, owner_path: str, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``; absent targets are
        listed in :attr:`missing` instead of failing the run, so a refactor
        of the program loses a metric rather than the benchmark."""
        module_path, _, class_name = owner_path.partition(":")
        label = f"{owner_path}.{attr}"
        try:
            owner = importlib.import_module(module_path)
            if class_name:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr] if class_name else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(label)
            return
        setattr(owner, attr, make(original))
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


# ---------------------------------------------------------------- runtime
class _Box:
    """One pool task plus the time the runtime handed it to its pool."""

    __slots__ = ("task", "handoff")

    def __init__(self, task: Any) -> None:
        self.task = task
        self.handoff: float | None = None


def _run_task(tracer: Tracer, parent, op, handoff: float | None, fn, *args):
    """Run one pool task as an ``hpc.runtime.task`` span under ``parent``."""
    start = time.perf_counter()
    if handoff is None:  # run inline by a serial runtime: it never met a pool
        span = tracer.record("hpc.runtime.inline", start, start, parent, op)
    else:
        span = tracer.record("hpc.runtime.task", start, start, parent, op,
                             {"queue_wait": start - handoff})
    token = _CURRENT.set((span.sid, op))
    try:
        return fn(*args)
    finally:
        _CURRENT.reset(token)
        span.end = time.perf_counter()


def _run_boxed_task(tracer: Tracer, parent, op, fn, box: _Box):
    return _run_task(tracer, parent, op, box.handoff, fn, box.task)


def _traced_stream(tracer: Tracer, original):
    def stream(self, fn, tasks, **kwargs):
        parent, op = _CURRENT.get()
        start = time.perf_counter()
        span = tracer.record("hpc.runtime.stream", start, start, parent, op)
        traced = partial(_run_boxed_task, tracer, span.sid, op, fn)
        inner = original(self, traced, [_Box(t) for t in tasks], **kwargs)

        # Not a span context: the consumer runs between yields, so the
        # interval is closed when the stream is exhausted or dropped.
        def iterate():
            try:
                yield from inner
            finally:
                span.end = time.perf_counter()

        return iterate()

    return stream


def _traced_submit(tracer: Tracer, original):
    def submit(self, fn, *args):
        parent, op = _CURRENT.get()
        return original(self, partial(_run_task, tracer, parent, op, time.perf_counter(), fn),
                        *args)

    return submit


def _stamp_handoff(original):
    # The single point where the runtime hands work to its pool: stamp the
    # boxes a stream task carries so the worker can compute its queue wait.
    def pool_submit(self, fn, *args):
        now = time.perf_counter()
        for arg in args:
            if isinstance(arg, _Box):
                arg.handoff = now
        return original(self, fn, *args)

    return pool_submit


def _traced_lookup(tracer: Tracer, original):
    def get_by_key(self, key, factory):
        span, token = tracer.open("quantum.compile.lookup", {"miss": False})

        def build():
            span.attrs["miss"] = True
            return factory()

        try:
            return original(self, key, build)
        finally:
            tracer.close(span, token)

    return get_by_key


def _rows(args, kwargs):
    angles = args[1] if len(args) > 1 else kwargs["angles"]
    return {"rows": int(len(angles))}


# ------------------------------------------------------------------- serve
class _BusyCoroutine:
    """Awaitable proxy that times only the steps its coroutine runs, not
    the time it sits suspended (``read_frame`` waits for the next frame)."""

    def __init__(self, coro) -> None:
        self.coro = coro
        self.busy = 0.0

    def __await__(self):
        it = self.coro.__await__()
        value, error = None, None
        while True:
            start = time.perf_counter()
            try:
                yielded = it.send(value) if error is None else it.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self.busy += time.perf_counter() - start
            value, error = None, None
            try:
                value = yield yielded
            except BaseException as exc:  # noqa: B036 - forwarded into the coroutine
                error = exc


def _traced_read_frame(tracer: Tracer, original):
    async def read_frame(*args, **kwargs):
        proxy = _BusyCoroutine(original(*args, **kwargs))
        frame = await proxy
        end = time.perf_counter()
        attrs = {"busy": proxy.busy, "bytes": 0, "kind": None}
        if frame is not None:
            header, payload = frame
            # 13-byte prefix (magic, version, two lengths) + header + payload.
            attrs["bytes"] = 13 + len(json.dumps(header, sort_keys=True)) + len(payload)
            attrs["kind"] = header.get("type")
        tracer.record("serve.protocol.decode", end - proxy.busy, end, None, None, attrs)
        return frame

    return read_frame


def _traced_pack_frame(tracer: Tracer, original):
    def pack_frame(*args, **kwargs):
        span, token = tracer.open("serve.protocol.encode")
        try:
            frame = original(*args, **kwargs)
            span.attrs = {"bytes": len(frame)}
            return frame
        finally:
            tracer.close(span, token)

    return pack_frame


def _traced_cache_get(tracer: Tracer, original):
    def get(self, key):
        span, token = tracer.open("serve.result_cache.get")
        try:
            value = original(self, key)
            span.attrs = {"hit": value is not None}
            return value
        finally:
            tracer.close(span, token)

    return get


def _traced_try_acquire(tracer: Tracer, original):
    def try_acquire(self, tenant, cost=0.0):
        span, token = tracer.open("serve.fairness.try_acquire", {"rejected": True})
        try:
            original(self, tenant, cost)
            span.attrs["rejected"] = False
        finally:
            tracer.close(span, token)

    return try_acquire


def _traced_flush(tracer: Tracer, original):
    def execute_flush(artifacts, requests):
        attrs = {"requests": len(requests), "fast_path": bool(artifacts.fast_path)}
        span, token = tracer.open("serve.engine.flush", attrs)
        try:
            return original(artifacts, requests)
        finally:
            tracer.close(span, token)

    return execute_flush


def _traced_batcher_add(tracer: Tracer, added: dict[int, float], original):
    def add(self, key, request):
        added[id(request)] = time.perf_counter()
        span, token = tracer.open("serve.batcher.add")
        try:
            return original(self, key, request)
        finally:
            tracer.close(span, token)

    return add


def _traced_batcher_init(tracer: Tracer, added: dict[int, float], original):
    # The flush callable the service injects is wrapped where it is handed
    # to the batcher: a flush's start ends the window of every request in it.
    def __init__(self, *args, flush, **kwargs):
        async def flush_traced(key, batch):
            now = time.perf_counter()
            waits = [now - added.pop(id(r), now) for r in batch]
            tracer.record("serve.batcher.flush", now, now, None, None,
                          {"requests": len(batch), "window_waits": waits})
            return await flush(key, batch)

        original(self, *args, flush=flush_traced, **kwargs)

    return __init__


# ----------------------------------------------------------------- install
def start(*, serve: bool = False) -> Tracer:
    """A tracer wrapping every traced layer boundary (``serve`` adds the
    server's); :meth:`Tracer.uninstall` puts the originals back."""
    t = Tracer()
    span = t.span_fn
    t.patch("repro.quantum.compile:CompiledCircuit", "apply",
            lambda f: span("quantum.compile.apply", f))
    t.patch("repro.quantum.compile:CompileCache", "get_by_key",
            lambda f: _traced_lookup(t, f))
    t.patch("repro.quantum.batched:ParametricCompiledCircuit", "apply_batch",
            lambda f: span("quantum.batched.apply_batch", f, _rows))
    for module in ("repro.core.features", "repro.serve.engine"):
        t.patch(module, "measure_block", lambda f: span("core.features.measure", f))
    for module in ("repro.core.features", "repro.core.pipeline", "repro.serve.engine"):
        t.patch(module, "generate_features",
                lambda f: span("core.features.generate", f))
    t.patch("repro.hpc.runtime:ExecutionRuntime", "stream", lambda f: _traced_stream(t, f))
    t.patch("repro.hpc.runtime:ExecutionRuntime", "submit", lambda f: _traced_submit(t, f))
    t.patch("repro.hpc.runtime:ExecutionRuntime", "_pool_submit", _stamp_handoff)
    for name in ("run_preflight", "run_serve_preflight"):
        t.patch("repro.analysis.preflight", name, lambda f: span("analysis.preflight", f))
    t.patch("repro.ml.logistic:LogisticRegression", "fit",
            lambda f: span("ml.logistic.fit", f))
    t.patch("repro.ml.logistic:LogisticRegression", "predict",
            lambda f: span("ml.logistic.predict", f))
    if not serve:
        return t
    # When each request entered the batcher, keyed by object identity.
    added: dict[int, float] = {}
    t.patch("repro.serve.batcher:MicroBatcher", "add",
            lambda f: _traced_batcher_add(t, added, f))
    t.patch("repro.serve.batcher:MicroBatcher", "__init__",
            lambda f: _traced_batcher_init(t, added, f))
    t.patch("repro.serve.service", "execute_flush", lambda f: _traced_flush(t, f))
    t.patch("repro.serve.result_cache:ResultCache", "get", lambda f: _traced_cache_get(t, f))
    t.patch("repro.serve.fairness:AdmissionController", "try_acquire",
            lambda f: _traced_try_acquire(t, f))
    t.patch("repro.serve.transport", "read_frame", lambda f: _traced_read_frame(t, f))
    t.patch("repro.serve.transport", "pack_frame", lambda f: _traced_pack_frame(t, f))
    t.patch("repro.serve.transport", "decode_array",
            lambda f: span("serve.protocol.decode", f))
    t.patch("repro.serve.transport", "encode_array",
            lambda f: span("serve.protocol.encode", f))
    return t


# ---------------------------------------------------------------- analysis
def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its length minus the union of its children inside it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(s.sid, ())]
        out[s.sid] = s.seconds - _union_length((lo, hi) for lo, hi in kids if hi > lo)
    return out


def unattributed_seconds(window: tuple[float, float], spans: list[Span]) -> float:
    """Part of ``window`` during which no thread was inside a leaf span."""
    lo, hi = window
    covered = _union_length(
        (max(s.start, lo), min(s.end, hi))
        for s in spans
        if s.name in LEAF_SPANS and s.end > lo and s.start < hi
    )
    return (hi - lo) - covered
