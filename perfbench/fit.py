"""fit-hybrid: the Table III post-variational classifier.

Coat vs shirt (400 train / 100 test, 4x4 angles), ``HybridStrategy(order=1,
locality=2)`` = 17 Ansatz instances x 67 local Paulis = 1139 features,
estimated with seeded finite shots, preflight on, on the serial runtime.
At 4 qubits kernels are tiny and measurement, the convex head and
per-sweep preflight dominate -- the same feature sweep as sweep-ensemble
used the opposite way.  One op is ``fit(train)`` + ``score(test)``.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from repro.api import QuantumDevice
from repro.core.features import generate_features
from repro.core.pipeline import PIPELINE_DEFAULT_CONFIG, HybridPipeline
from repro.core.strategies import HybridStrategy
from repro.data.datasets import binary_coat_vs_shirt
from repro.quantum.batched import clear_parametric_cache
from repro.quantum.compile import clear_compile_cache

import spans
from harness import Run, op_summary, timed_ops, traced_peak_mb

COLD_STARTS = 4
GATE_ROWS = 40


def config(seed: int):
    return PIPELINE_DEFAULT_CONFIG.merged(estimator="shots", seed=seed, preflight="error")


def cold_start(seed: int):
    """Dataset, strategy, device and pipeline on emptied compile caches,
    then the first fit + score: everything before the first result."""
    clear_compile_cache()
    clear_parametric_cache()
    split = binary_coat_vs_shirt(seed=seed)
    strategy = HybridStrategy(order=1, locality=2)
    device = QuantumDevice(config(seed), pool="serial", max_workers=1).warm()
    pipe = HybridPipeline(strategy=strategy, device=device)
    pipe.fit(split.x_train, split.y_train)
    pipe.score(split.x_test, split.y_test)
    return split, strategy, pipe, device


def _peak_mb(seed: int) -> float:
    return traced_peak_mb(lambda: cold_start(seed)[3].close())


def _head(pipe) -> np.ndarray:
    return np.append(pipe.head_.coef_, pipe.head_.intercept_)


def _fit_and_score(pipe, split) -> np.ndarray:
    """One op; the fitted head, which pins the seeded shot Q."""
    pipe.fit(split.x_train, split.y_train)
    pipe.score(split.x_test, split.y_test)
    return _head(pipe)


def _gates(run: Run, strategy, split, seed: int) -> None:
    x = split.x_train[:GATE_ROWS]
    cfg = config(seed)
    shots_q = generate_features(strategy, x, config=cfg)
    exact_q = generate_features(strategy, x, config=cfg.merged(estimator="exact"))
    oracle_q = generate_features(
        strategy, x, config=cfg.merged(estimator="exact", vectorize="off")
    )
    rms = float(np.sqrt(np.mean((shots_q - exact_q) ** 2)))
    bound = 1 / np.sqrt(cfg.shots)
    run.gate("shots_rms_vs_exact", rms <= bound, value=rms, bound=bound, rows=GATE_ROWS)
    err = float(np.max(np.abs(exact_q - oracle_q)))
    run.gate("exact_q_vs_vectorize_off", err <= 1e-10, value=err, bound=1e-10, rows=GATE_ROWS)


def main(args) -> Run:
    run = Run(args, "fit-hybrid")
    seconds = args.seconds / 2 if args.trace else args.seconds
    # Cold starts alternate with stretches of timed ops, so set-up is
    # sampled across the run rather than in one burst of host state.
    setups, times, walls, same_head, device = [], [], [], True, None
    for i in range(COLD_STARTS):
        if device is not None:
            device.close()
        start = time.perf_counter()
        split, strategy, pipe, device = cold_start(args.seed)
        setups.append(time.perf_counter() - start)
        if i == 0:
            first_head = _head(pipe)
            _gates(run, strategy, split, args.seed)
            run.report["test_accuracy"] = pipe.score(split.x_test, split.y_test)
        same = partial(np.array_equal, first_head)
        same_head = same_head and same(_head(pipe))
        fit_and_score = partial(_fit_and_score, pipe, split)
        seg_times, seg_windows, seg_same = timed_ops(fit_and_score, seconds / COLD_STARTS, same)
        times += seg_times
        walls.append(seg_windows[-1][2] - seg_windows[0][1])
        same_head = same_head and seg_same
    circuits_per_op = (split.num_train + split.num_test) * strategy.num_ansatze
    plain = op_summary(times, walls, circuits_per_op)
    with device:
        if args.trace:
            tracer = spans.start()
            t_times, t_windows, t_same = timed_ops(fit_and_score, seconds, same, tracer)
            tracer.uninstall()
            same_head = same_head and t_same
            traced = op_summary(t_times, [t_windows[-1][2] - t_windows[0][1]], circuits_per_op)
            run.closed_loop_layers(tracer, t_windows, plain, traced)
    # Seeded shots: every round must reproduce the same Q, hence the same
    # fitted head, bit for bit.
    run.gate("shot_q_identical_every_round", same_head, rounds=plain["ops"] + COLD_STARTS)
    run.closed_loop_metrics(setups, _peak_mb(args.seed), plain)
    return run
