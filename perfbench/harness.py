"""Shared pieces of every workload: environment record, host-drift probe,
memory, statistics and the result line."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import sys
import time
import tracemalloc

import numpy as np

import layers

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Pools are sized to the host this benchmark was tuned on (2 cores), never
#: "auto", so a bigger runner does not silently measure another program.
POOL_WORKERS = 2


def environment(seed: int) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


# ------------------------------------------------------------- host drift
def _numpy_kernel() -> None:
    rng = np.random.default_rng(0)
    tensor = rng.standard_normal((64,) + (2,) * 8) + 0j
    gate = (rng.standard_normal((8, 8)) + 0j).reshape((2,) * 6)
    for _ in range(300):
        tensor = np.tensordot(gate, tensor, axes=([3, 4, 5], [1, 2, 3]))
        tensor = np.moveaxis(tensor, (0, 1, 2), (1, 2, 3))


def _python_loop() -> None:
    total = 0
    for i in range(400_000):
        total += i * i


def _median_ms(fn, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


def calibrate() -> dict:
    """A fixed numpy kernel and a fixed pure-Python loop, in ms (median of
    five): taken before and after a run, they show a slow host as such."""
    return {"numpy_ms": _median_ms(_numpy_kernel), "python_ms": _median_ms(_python_loop)}


# ------------------------------------------------------------------ memory
def rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced_peak_mb(fn) -> float:
    """Peak heap growth while ``fn`` runs, as tracemalloc sees it (Python
    objects and numpy buffers).  Unlike peak RSS it does not move with the
    allocator's per-thread arenas, which on a 2-core host spread run to run
    by more than a workload's own growth."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# -------------------------------------------------------------- statistics
def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def tail_percentile(n: int) -> float | None:
    """The highest of p99/p90 with at least ten samples beyond it."""
    for q in (99.0, 90.0):
        if n * (1 - q / 100) >= 10:
            return q
    return None


def timing(values_s, scale: float = 1e3) -> dict:
    """Median and supported tail of a list of seconds, with the count."""
    n = len(values_s)
    out = {"n": n, "p50": percentile(values_s, 50) * scale if n else None}
    q = tail_percentile(n)
    if q is not None:
        out[f"p{int(q)}"] = percentile(values_s, q) * scale
    return out


# ------------------------------------------------------------ closed loops
def timed_ops(op, seconds: float, check, tracer=None):
    """Back-to-back calls of ``op`` for ``seconds`` (at least one).

    Returns per-op seconds, ``(op id, start, end)`` windows and whether
    ``check`` accepted every output; checks run outside the timed calls.
    """
    times, windows, ok = [], [], True
    gc.collect()
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        op_id = len(times)
        token = tracer.begin_op(op_id) if tracer else None
        start = time.perf_counter()
        out = op()
        end = time.perf_counter()
        if tracer:
            tracer.end_op(token)
        times.append(end - start)
        windows.append((op_id, start, end))
        ok = check(out) and ok
    return times, windows, ok


def op_summary(times, walls, circuits_per_op: int) -> dict:
    """Op latency, and circuits per second over the timed stretches."""
    return {
        "op_ms": timing(times),
        "circuits_per_s": len(times) * circuits_per_op / sum(walls),
        "ops": len(times),
    }


# ---------------------------------------------------------------- results
class Run:
    """One benchmark run: what it measured and how to print it."""

    def __init__(self, args, workload: str) -> None:
        self.args = args
        self.workload = workload
        self.env = environment(args.seed)
        self.baseline_rss_mb = rss_mb()
        self.calib_before = calibrate()
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.layers: dict[str, float] = {}
        self.report: dict = {}
        self.gates: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def gate(self, name: str, ok: bool, **detail) -> None:
        self.gates[name] = {"ok": bool(ok), **detail}

    @property
    def correct(self) -> bool:
        return bool(self.gates) and all(g["ok"] for g in self.gates.values())

    def closed_loop_metrics(self, setups, mem_mb: float, plain: dict) -> None:
        """The end-to-end metrics of a workload run one op at a time."""
        self.attempted = plain["ops"]
        self.metric("setup_s", float(np.median(setups)), "s", len(setups))
        self.metric("mem_peak_mb", mem_mb, "MB", 1)
        self.metric("op_p50_ms", plain["op_ms"]["p50"], "ms", plain["ops"])
        self.metric("circuits_per_s", plain["circuits_per_s"], "1/s", plain["ops"])
        self.report["untraced"] = plain
        self.report["setup_s"] = setups

    def closed_loop_layers(self, tracer, windows, plain: dict, traced: dict) -> None:
        """Per-layer metrics and tracing overhead of a traced stretch."""
        values, bases = layers.per_op(tracer.spans, windows)
        self.layers.update(values)
        self.layers["loadgen.late_p99_ms"] = 0.0  # no open-loop generator here
        self.report["layers"] = {"ratios": bases, "hooks_missing": tracer.missing}
        self.report["tracing_overhead"] = {
            "op_p50_ms": traced["op_ms"]["p50"] - plain["op_ms"]["p50"],
            "circuits_per_s": traced["circuits_per_s"] - plain["circuits_per_s"],
        }
        self.report["traced"] = traced
        if self.args.spans:
            tracer.dump(self.args.spans)

    def finish(self, end_to_end: list[str]) -> int:
        """Print the report line and the result line; the exit code."""
        gc.collect()
        calib_after = calibrate()
        self.layers["host.calib_ms"] = float(
            np.median([self.calib_before["numpy_ms"], calib_after["numpy_ms"]])
        )
        trace = self.args.trace == 1
        if trace:
            source = {
                k: (self.layers[k], unit) for k, unit in layers.PER_LAYER.items() if k in self.layers
            }
            names = list(layers.PER_LAYER)
        else:
            source = {k: v[:2] for k, v in self.metrics.items()}
            names = end_to_end
        missing = [name for name in names if name not in source]
        report = {
            "workload": self.workload,
            "trace": trace,
            "env": self.env,
            "calib": {"before": self.calib_before, "after": calib_after},
            "gates": self.gates,
            "rss_growth_mb": peak_rss_mb() - self.baseline_rss_mb,
            "end_to_end": {
                k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in self.metrics.items()
            },
            **self.report,
        }
        if missing:
            report["missing_metrics"] = missing
        print(json.dumps({"report": report}, default=float), flush=True)
        if missing:
            print(f"metrics not measured: {missing}", file=sys.stderr)
            return 1
        result = {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": source[name][0], "unit": source[name][1]} for name in names},
        }
        print(json.dumps(result), flush=True)
        if not self.correct:
            failed = [k for k, g in self.gates.items() if not g["ok"]]
            print(f"correctness gates failed: {failed}", file=sys.stderr)
            return 1
        return 0
