"""Flush execution: one stacked pass for a coalesced micro-batch.

The serving layer's correctness contract is *per-request bit-equality*:
every response must equal ``generate_features(strategy, x,
config=execution.merged(seed=request_seed))`` bit for bit, no matter which
requests happened to share its flush.  Two properties make that possible:

* every program step is **row-stable**: a row's bits never depend on which
  rows, or how many, share its pass;
* each request carries the :class:`~repro.core.features.SweepPlan` a
  standalone sweep of its rows builds (its jobs, and per-job seeds spawned
  from the *request* seed), and every job is measured with the sweep
  worker's own measurement step
  (:meth:`~repro.core.features.BlockWorker.measure`).

So a flush builds the template's :class:`~repro.core.features.SweepRoute`
payload once over the requests' stacked angles, runs each program ONCE over
it with the sweep worker's program step
(:meth:`~repro.core.features.BlockWorker.run`) -- the coalescing payoff --
then measures each request's jobs on its rows under their own seeds and
places them as the sweep does (:meth:`~repro.core.features.BlockWorker.place`;
for ``"pauli"``, the ensemble program's signed gather, or with shots its
per-column draws).  That holds for every
:func:`~repro.core.features.sweep_mode`: a ``"prepared"`` template
(``vectorize="off"``, or a backend without ``supports_vectorize``) prepares
the stacked rows once and evolves them once per program.  Admission always
prices the standalone sweep's own programs.

Everything here is plain picklable data + a module-level function, so a
flush ships to thread *or process* pool workers unchanged.  Flush workers
never dispatch nested pool work (a ``"prepared"`` payload is prepared
inline): the flush itself is the pool's unit of parallelism, and nesting
could deadlock a saturated pool.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.api.config import ExecutionConfig
from repro.core.features import BlockWorker, SweepPlan, SweepRoute, bound_ansatz

# Flushes call neither name (they run ``BlockWorker``'s steps); both stay
# importable because perfbench's tracer (``perfbench/spans.py``) wraps them here.
from repro.core.features import generate_features, measure_block  # noqa: F401
from repro.core.strategies import Strategy
from repro.data.encoding import encoding_template
from repro.quantum.batched import extend_template, template_fingerprint

__all__ = [
    "FlushRequest",
    "TemplateArtifacts",
    "build_artifacts",
    "execute_flush",
]


@dataclass(frozen=True)
class FlushRequest:
    """One request's share of a flush: its angles and its sweep plan,
    whose per-job seeds were spawned from the request's seed."""

    angles: np.ndarray
    plan: SweepPlan


@dataclass(frozen=True)
class TemplateArtifacts:
    """Sweep-wide artifacts for one registered template, built once.

    ``route`` is the standalone sweep's own
    :class:`~repro.core.features.SweepRoute`, whose programs price every
    request's plan and run every flush.
    ``group_key`` is the coalescing identity: fingerprints, observables and
    config-minus-seed (the per-request seed lives in each
    :class:`FlushRequest`'s plan, never in the key).
    """

    strategy: Strategy
    cfg: ExecutionConfig
    route: SweepRoute
    group_key: tuple

    @property
    def fast_path(self) -> bool:
        """Always True: flushes of every sweep mode coalesce.  Read-only, and
        still read by perfbench's ``serve.engine.fallback_share``."""
        return True


def _config_key(cfg: ExecutionConfig) -> str:
    """Canonical config identity *minus the seed* (JSON, sorted keys)."""
    payload = cfg.to_dict()
    payload.pop("seed", None)
    return json.dumps(payload, sort_keys=True)


def build_artifacts(
    strategy: Strategy, rows: int, cfg: ExecutionConfig
) -> TemplateArtifacts:
    """Compile one registration's artifacts (programs via the global
    fingerprint-keyed parametric cache, so identical templates across
    registrations -- or service restarts in one process -- hit)."""
    template = encoding_template(rows, strategy.num_qubits)
    fingerprints = tuple(
        template_fingerprint(extend_template(template, bound_ansatz(strategy, params)))
        for params in strategy.parameter_sets()
    )
    group_key = (
        fingerprints,
        tuple(repr(obs) for obs in strategy.observables()),
        _config_key(cfg),
    )
    return TemplateArtifacts(
        strategy=strategy,
        cfg=cfg,
        route=SweepRoute.build(strategy, cfg, template),
        group_key=group_key,
    )


def execute_flush(
    artifacts: TemplateArtifacts, requests: Sequence[FlushRequest]
) -> list[np.ndarray]:
    """Run one coalesced flush; returns one ``(k_r, p*q)`` block per request.

    The route's payload once over the stacked angles, the worker's program
    step once per program, then each request's jobs measured on its rows
    by the worker's measurement step under their plan seeds and placed into
    its block.  A ``"pauli"`` route has one program: its step yields every
    row's distinct-string expectations, and each job writes all ``p*q``
    columns of its rows, by the signed gather or, with shots, by drawing
    every instance's columns under that job's seeds.  A ``"prepared"``
    route's payload is the stacked rows' prepared states, built inline (see
    the module docstring on nesting).
    """
    route = artifacts.route
    worker = BlockWorker(artifacts.strategy, route.programs, artifacts.cfg)
    payload = route.payload(np.concatenate([r.angles for r in requests], axis=0))
    offsets = np.cumsum([0] + [len(r.angles) for r in requests])
    columns = artifacts.strategy.num_ansatze * len(worker.observables)
    outputs = [np.empty((len(r.angles), columns)) for r in requests]
    for a in range(len(route.programs)):
        evolved = worker.run(a, payload)
        for request, offset, out in zip(requests, offsets[:-1], outputs, strict=True):
            for job, seed in zip(request.plan.jobs, request.plan.seeds, strict=True):
                if job.ansatz_index != a:
                    continue
                block = evolved[offset + job.lo : offset + job.hi]
                worker.place(job, worker.measure(job, seed, block), out)
    return outputs
