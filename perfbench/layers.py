"""Per-layer metrics from recorded spans.

Times are self times in ms, counts are calls; for sweep-ensemble and
fit-hybrid both are per op and the median over the traced ops.  In
serve-tcp one flush serves many requests, so there a layer's figure is its
total over the traced phases divided by the requests the server read.
Ratios are pooled over the whole traced phase and reported with their
numerator and denominator.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from spans import Span, self_times, unattributed_seconds

#: Every per-layer metric, in BENCHMARK.json order, with its unit.
PER_LAYER = {
    "quantum.compile.apply_ms": "ms",
    "quantum.compile.apply_calls": "count",
    "quantum.compile.lookup_ms": "ms",
    "quantum.compile.cache_hit_ratio": "ratio",
    "quantum.batched.apply_batch_ms": "ms",
    "quantum.batched.apply_batch_calls": "count",
    "quantum.batched.rows_per_call": "rows",
    "core.features.measure_ms": "ms",
    "core.features.measure_calls": "count",
    "core.features.self_ms": "ms",
    "hpc.runtime.queue_wait_ms": "ms",
    "hpc.runtime.busy_ms": "ms",
    "hpc.runtime.tasks": "count",
    "analysis.preflight_ms": "ms",
    "ml.logistic.fit_ms": "ms",
    "ml.logistic.predict_ms": "ms",
    "serve.batcher.window_wait_ms": "ms",
    "serve.batcher.coalesce_ratio": "ratio",
    "serve.engine.flush_ms": "ms",
    "serve.engine.fallback_share": "ratio",
    "serve.result_cache.hit_ratio": "ratio",
    "serve.fairness.rejected_share": "ratio",
    "serve.protocol.encode_ms": "ms",
    "serve.protocol.decode_ms": "ms",
    "serve.protocol.bytes_per_request": "bytes",
    "trace.unattributed_share": "ratio",
    "loadgen.late_p99_ms": "ms",
    "host.calib_ms": "ms",
}

# Self time (ms) and call count of one span name.
_TIMED = {
    "quantum.compile.apply_ms": "quantum.compile.apply",
    "quantum.compile.lookup_ms": "quantum.compile.lookup",
    "quantum.batched.apply_batch_ms": "quantum.batched.apply_batch",
    "core.features.measure_ms": "core.features.measure",
    "core.features.self_ms": "core.features.generate",
    "analysis.preflight_ms": "analysis.preflight",
    "ml.logistic.fit_ms": "ml.logistic.fit",
    "ml.logistic.predict_ms": "ml.logistic.predict",
    "serve.engine.flush_ms": "serve.engine.flush",
}
_COUNTED = {
    "quantum.compile.apply_calls": "quantum.compile.apply",
    "quantum.batched.apply_batch_calls": "quantum.batched.apply_batch",
    "core.features.measure_calls": "core.features.measure",
}


def _ratio(num: float, den: float) -> dict:
    return {"value": num / den if den else 0.0, "num": num, "den": den}


def _figures(spans: list[Span], selfs: dict[int, float]) -> dict[str, float]:
    """Additive figures (times in ms, counts) over one set of spans."""
    out = {key: 0.0 for key in list(_TIMED) + list(_COUNTED)}
    out.update({"hpc.runtime.queue_wait_ms": 0.0, "hpc.runtime.busy_ms": 0.0,
                "hpc.runtime.tasks": 0.0})
    by_name = {name: key for key, name in _TIMED.items()}
    counted = {name: key for key, name in _COUNTED.items()}
    for s in spans:
        key = by_name.get(s.name)
        if key is not None:
            out[key] += selfs[s.sid] * 1e3
        key = counted.get(s.name)
        if key is not None:
            out[key] += 1
        if s.name == "hpc.runtime.task":
            out["hpc.runtime.queue_wait_ms"] += s.attrs["queue_wait"] * 1e3
            out["hpc.runtime.busy_ms"] += s.seconds * 1e3
            out["hpc.runtime.tasks"] += 1
    return out


def _pooled_ratios(spans: list[Span]) -> dict[str, dict]:
    lookups = [s for s in spans if s.name == "quantum.compile.lookup"]
    batches = [s for s in spans if s.name == "quantum.batched.apply_batch"]
    return {
        "quantum.compile.cache_hit_ratio": _ratio(
            sum(not s.attrs["miss"] for s in lookups), len(lookups)
        ),
        "quantum.batched.rows_per_call": _ratio(
            sum(s.attrs["rows"] for s in batches), len(batches)
        ),
    }


def per_op(spans: list[Span], ops: list[tuple[int, float, float]]) -> tuple[dict, dict]:
    """Layer metrics for closed-loop workloads: ``ops`` is (op id, start,
    end) of every traced op.  Returns (metric -> value, ratio bases)."""
    selfs = self_times(spans)
    by_op: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.op is not None:
            by_op[s.op].append(s)
    rows, unattributed, walls = [], 0.0, 0.0
    for op, start, end in ops:
        rows.append(_figures(by_op[op], selfs))
        unattributed += unattributed_seconds((start, end), by_op[op])
        walls += end - start
    values = {key: float(np.median([row[key] for row in rows])) for key in rows[0]}
    traced = [s for s in spans if s.op is not None]
    ratios = _pooled_ratios(traced)
    ratios["trace.unattributed_share"] = _ratio(unattributed, walls)
    for key, ratio in ratios.items():
        values[key] = ratio["value"]
    for key in ("serve.batcher.window_wait_ms", "serve.protocol.encode_ms",
                "serve.protocol.decode_ms", "serve.protocol.bytes_per_request"):
        values[key] = 0.0
    for key in ("serve.batcher.coalesce_ratio", "serve.engine.fallback_share",
                "serve.result_cache.hit_ratio", "serve.fairness.rejected_share"):
        ratios[key] = _ratio(0, 0)
        values[key] = 0.0
    return values, ratios


def per_request(spans: list[Span], window: tuple[float, float]) -> tuple[dict, dict]:
    """Layer metrics for serve-tcp over the traced phase ``window``."""
    lo, hi = window
    inside = [s for s in spans if s.start >= lo and s.end <= hi]
    selfs = self_times(inside)
    reads = [s for s in inside if s.name == "serve.protocol.decode" and "busy" in s.attrs]
    requests = sum(s.attrs["kind"] in ("submit", "predict") for s in reads)
    per = 1.0 / requests if requests else 0.0
    values = {key: value * per for key, value in _figures(inside, selfs).items()}

    ratios = _pooled_ratios(inside)
    flushes = [s for s in inside if s.name == "serve.batcher.flush"]
    waits = [w for s in flushes for w in s.attrs["window_waits"]]
    engine = [s for s in inside if s.name == "serve.engine.flush"]
    gets = [s for s in inside if s.name == "serve.result_cache.get"]
    admits = [s for s in inside if s.name == "serve.fairness.try_acquire"]
    ratios["serve.batcher.coalesce_ratio"] = _ratio(len(waits), len(flushes))
    ratios["serve.engine.fallback_share"] = _ratio(
        sum(s.attrs["requests"] for s in engine if not s.attrs["fast_path"]),
        sum(s.attrs["requests"] for s in engine),
    )
    ratios["serve.result_cache.hit_ratio"] = _ratio(sum(s.attrs["hit"] for s in gets), len(gets))
    ratios["serve.fairness.rejected_share"] = _ratio(
        sum(s.attrs["rejected"] for s in admits), len(admits)
    )
    # How much of the engine's flush time no finer layer accounts for.
    children: dict[int, list[Span]] = defaultdict(list)
    for s in inside:
        children[s.parent].append(s)

    def descendants(sid: int) -> list[Span]:
        out, stack = [], [sid]
        while stack:
            for child in children.get(stack.pop(), ()):
                out.append(child)
                stack.append(child.sid)
        return out

    ratios["trace.unattributed_share"] = _ratio(
        sum(unattributed_seconds((s.start, s.end), descendants(s.sid)) for s in engine),
        sum(s.seconds for s in engine),
    )
    for key, ratio in ratios.items():
        values[key] = ratio["value"]

    values["serve.batcher.window_wait_ms"] = float(np.mean(waits)) * 1e3 if waits else 0.0
    encode = [s for s in inside if s.name == "serve.protocol.encode"]
    decode = [s for s in inside if s.name == "serve.protocol.decode"]
    values["serve.protocol.encode_ms"] = sum(selfs[s.sid] for s in encode) * 1e3 * per
    values["serve.protocol.decode_ms"] = (
        sum(s.attrs["busy"] if "busy" in s.attrs else selfs[s.sid] for s in decode) * 1e3 * per
    )
    frame_bytes = sum(s.attrs["bytes"] for s in reads) + sum(
        s.attrs["bytes"] for s in encode if "bytes" in s.attrs
    )
    values["serve.protocol.bytes_per_request"] = frame_bytes * per
    ratios["requests"] = {"value": requests}
    return values, ratios
