"""sweep-ensemble: one ``generate_features`` ensemble sweep (Algorithm 1).

An order-1 Ansatz expansion of ``hardware_efficient_ansatz(8, 1)`` runs 17
shifted instances (Eq. 16) of the same Ansatz, measured on Z0, over 256
seeded (4, 8) angle rows on a 2-thread device: the multi-instance case
where per-instance evolution dominates and there is no head, wire or
batch window.  One op is one sweep.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from repro.api import ExecutionConfig, QuantumDevice
from repro.core.ansatz import hardware_efficient_ansatz
from repro.core.features import generate_features
from repro.core.strategies import AnsatzExpansion
from repro.quantum.batched import clear_parametric_cache
from repro.quantum.compile import clear_compile_cache

import spans
from harness import POOL_WORKERS, Run, op_summary, timed_ops, traced_peak_mb

ROWS, ENCODER_ROWS, QUBITS = 256, 4, 8
CONFIG = ExecutionConfig(compile="auto", vectorize="auto", chunk_size=64)
REFERENCE = ExecutionConfig(compile="off", vectorize="off")
COLD_STARTS = 9


def cold_start(seed: int):
    """Seeded inputs, strategy, device and pool warm-up on emptied compile
    caches, then the first sweep: everything a user waits for before the
    first Q matrix."""
    clear_compile_cache()
    clear_parametric_cache()
    angles = np.random.default_rng(seed).uniform(0, 2 * np.pi, (ROWS, ENCODER_ROWS, QUBITS))
    strategy = AnsatzExpansion(circuit=hardware_efficient_ansatz(QUBITS, 1), order=1)
    device = QuantumDevice(CONFIG, pool="thread", max_workers=POOL_WORKERS).warm()
    q, _ = device.run(strategy, angles)
    return strategy, angles, device, q


def _peak_mb(seed: int) -> float:
    return traced_peak_mb(lambda: cold_start(seed)[2].close())


def _sweep(device, strategy, angles) -> np.ndarray:
    return device.run(strategy, angles)[0]


def main(args) -> Run:
    run = Run(args, "sweep-ensemble")
    seconds = args.seconds / 2 if args.trace else args.seconds
    # Cold starts alternate with stretches of timed sweeps, so set-up is
    # sampled across the run rather than in one burst of host state.
    setups, times, walls, equal, device = [], [], [], True, None
    for i in range(COLD_STARTS):
        if device is not None:
            device.close()
        start = time.perf_counter()
        strategy, angles, device, q = cold_start(args.seed)
        setups.append(time.perf_counter() - start)
        if i == 0:
            expected = q
            reference = generate_features(strategy, angles, config=REFERENCE)
            err = float(np.max(np.abs(expected - reference)))
            run.gate("q_vs_reference_max_abs_err", err <= 1e-10, value=err, bound=1e-10)
        sweep = partial(_sweep, device, strategy, angles)
        same = partial(np.array_equal, expected)
        seg_times, seg_windows, seg_equal = timed_ops(sweep, seconds / COLD_STARTS, same)
        times += seg_times
        walls.append(seg_windows[-1][2] - seg_windows[0][1])
        equal = equal and seg_equal and same(q)
    circuits_per_op = ROWS * strategy.num_ansatze
    plain = op_summary(times, walls, circuits_per_op)
    with device:
        if args.trace:
            tracer = spans.start()
            t_times, t_windows, t_equal = timed_ops(sweep, seconds, same, tracer)
            tracer.uninstall()
            equal = equal and t_equal
            traced = op_summary(t_times, [t_windows[-1][2] - t_windows[0][1]], circuits_per_op)
            run.closed_loop_layers(tracer, t_windows, plain, traced)
    run.gate("q_identical_every_sweep", equal)
    run.closed_loop_metrics(setups, _peak_mb(args.seed), plain)
    return run
