"""SPMD (rank-parallel) feature generation and head training.

The production deployment pattern for the hybrid HPC-QC system: every rank
owns a block of the data, drives its own QPU (simulator) through the fixed
ensemble, and the classical head is trained *data-parallel* with gradient
allreduce -- no rank ever materialises the full Q matrix unless asked to.

Two entry points, both collective over a :class:`Communicator`:

* :func:`generate_features_spmd` -- block-partitioned Algorithm 1; returns
  each rank's local block (optionally allgathers the full matrix);
* :func:`fit_logistic_spmd` -- synchronous data-parallel logistic
  regression: local BCE gradients, ``allreduce`` sum, identical updates on
  every rank (deterministic: every rank ends with bit-identical weights).

Verified against the serial implementations in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.config import ExecutionConfig, resolve_call
from repro.core.features import generate_features
from repro.core.strategies import Strategy
from repro.hpc.comm import Communicator
from repro.hpc.partition import block_partition
from repro.ml.losses import sigmoid

__all__ = ["generate_features_spmd", "fit_logistic_spmd", "SpmdFitResult"]


def generate_features_spmd(
    comm: Communicator,
    strategy: Strategy,
    angles: np.ndarray,
    *,
    allgather: bool = False,
    config: ExecutionConfig | None = None,
    device=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Collective Algorithm 1: rank r computes rows ``block_partition[r]``.

    Returns ``(row_indices, q_block)`` for this rank; with ``allgather=True``
    every rank instead receives the full ``(arange(d), Q)``.

    Execution is configured by ``config=``/``device=`` exactly as in
    :func:`~repro.core.features.generate_features`; the config must be
    identical on every rank.  The config's ``seed`` must be an int:
    stochastic estimators derive per-rank seeds from it and the block's
    first global row, making runs deterministic for a *fixed* rank count
    (shot noise realisations differ across rank counts, as they would on a
    real cluster with per-node RNGs).  The exact estimator is independent
    of the rank count.

    A device (``QuantumDevice(cfg, pool=...)``, or ``runtime=`` for a
    caller-owned pool) lets each rank drive a *persistent* node-local
    runtime (hybrid MPI x pool parallelism): the pool survives across
    repeated collective sweeps instead of being rebuilt per call, and
    ``config.dispatch_policy`` orders the rank-local submission queue.
    """
    cfg, _ = resolve_call(config, device, owner="generate_features_spmd")
    if not isinstance(cfg.seed, (int, np.integer)):
        raise ValueError(
            f"generate_features_spmd derives per-rank seeds and needs an int "
            f"config seed, got {cfg.seed!r}"
        )
    angles = np.asarray(angles, dtype=float)
    rows = block_partition(angles.shape[0], comm.size)[comm.rank]
    if rows.size:
        seed = int(cfg.seed) + int(rows[0])
        source = (
            {"config": cfg.merged(seed=seed)}
            if device is None
            else {"device": device.reconfigured(seed=seed)}
        )
        block = generate_features(strategy, angles[rows], **source)
    else:
        block = np.empty((0, strategy.num_features))
    if not allgather:
        return rows, block
    gathered = comm.allgather((rows, block))
    d = angles.shape[0]
    full = np.empty((d, strategy.num_features))
    for idx, blk in gathered:
        if idx.size:
            full[idx] = blk
    return np.arange(d), full


@dataclass
class SpmdFitResult:
    """Outcome of a data-parallel head fit (identical on every rank)."""

    coef: np.ndarray
    intercept: float
    iterations: int
    final_loss: float


def fit_logistic_spmd(
    comm: Communicator,
    q_local: np.ndarray,
    y_local: np.ndarray,
    l2: float = 1.0,
    lr: float = 0.5,
    iterations: int = 500,
    tol: float = 1e-8,
) -> SpmdFitResult:
    """Synchronous data-parallel logistic regression (collective).

    Each rank holds rows ``(q_local, y_local)``; the global objective is the
    *sum* NLL + (l2/2)||w||^2, its gradient assembled by one allreduce per
    step.  Plain gradient descent with a fixed step over the 1/4-smooth BCE
    keeps every rank's update bit-identical (no rank-dependent branching).
    """
    q_local = np.asarray(q_local, dtype=float)
    y_local = np.asarray(y_local, dtype=float).ravel()
    m = q_local.shape[1]
    d_total = int(comm.allreduce(q_local.shape[0]))
    if d_total == 0:
        raise ValueError("no training rows across ranks")

    # Lipschitz bound of the summed objective: L <= ||Q||^2/4 + l2;
    # bound ||Q||^2 <= sum of squared entries (cheap, allreduce-able).
    local_sq = float(np.sum(q_local**2))
    total_sq = float(comm.allreduce(local_sq))
    step = lr / (total_sq / 4.0 + l2 + 1.0)

    w = np.zeros(m)
    b = 0.0
    loss = np.inf
    for _it in range(iterations):
        z = q_local @ w + b
        p = sigmoid(z)
        local_grad_w = q_local.T @ (p - y_local)
        local_grad_b = float(np.sum(p - y_local))
        local_nll = float(np.sum(np.logaddexp(0.0, z) - y_local * z))
        grad_w, grad_b, nll = comm.allreduce(
            (local_grad_w, local_grad_b, local_nll),
            op=lambda a, c: (a[0] + c[0], a[1] + c[1], a[2] + c[2]),
        )
        grad_w = grad_w + l2 * w
        new_loss = nll + 0.5 * l2 * float(w @ w)
        w = w - step * grad_w
        b = b - step * grad_b
        if abs(loss - new_loss) < tol * max(1.0, abs(new_loss)):
            loss = new_loss
            break
        loss = new_loss
    return SpmdFitResult(coef=w, intercept=b, iterations=_it + 1, final_loss=float(loss))
