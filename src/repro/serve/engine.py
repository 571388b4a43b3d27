"""Flush execution: one stacked pass for a coalesced micro-batch.

The serving layer's correctness contract is *per-request bit-equality*:
every response must equal ``generate_features(strategy, x,
config=execution.merged(seed=request_seed))`` bit for bit, no matter which
requests happened to share its flush.  Two properties make that possible:

* every program step is **row-stable**: a row's bits never depend on which
  rows, or how many, share its pass;
* each request carries the :class:`~repro.core.features.SweepPlan` a
  standalone sweep of its rows builds (its jobs, and per-job seeds spawned
  from the *request* seed), and every job is measured with
  :func:`repro.core.features.measure_block`, the sweep's own measurement.

So a flush builds the template's :class:`~repro.core.features.SweepRoute`
payload once over the requests' stacked angles, runs each program ONCE over
it with the sweep worker's program step
(:meth:`~repro.core.features.BlockWorker.run`) -- the coalescing payoff --
then measures each request's jobs on its rows under their own seeds and
places them as the sweep does (:meth:`~repro.core.features.BlockWorker.place`;
for ``"pauli"``, the ensemble program's signed gather).  That
holds for every :func:`~repro.core.features.sweep_mode` but ``"prepared"``
(``vectorize="off"``, or a backend without ``supports_vectorize``), which
runs per-request ``generate_features`` inside its flush: trivially
bit-equal, just without cross-request sharing (RPA113 lints the window
then).  Admission always prices the standalone sweep's own programs.

Everything here is plain picklable data + a module-level function, so a
flush ships to thread *or process* pool workers unchanged.  Flush workers
never dispatch nested pool work (``generate_features`` runs with its
inline serial runtime): the flush itself is the pool's unit of
parallelism, and nesting could deadlock a saturated pool.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.api.config import ExecutionConfig
from repro.core.features import (
    BlockWorker,
    SweepPlan,
    SweepRoute,
    bound_ansatz,
    generate_features,
    measure_block,
)
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
    """One request's share of a flush: its angles, seed, and sweep plan."""

    angles: np.ndarray
    seed: int | None
    plan: SweepPlan


@dataclass(frozen=True)
class TemplateArtifacts:
    """Sweep-wide artifacts for one registered template, built once.

    ``route`` is the standalone sweep's own
    :class:`~repro.core.features.SweepRoute`, whose programs price every
    request's plan and run every flush but a ``"prepared"`` one.
    ``group_key`` is the coalescing identity: fingerprints, observables and
    config-minus-seed (the per-request seed lives in each
    :class:`FlushRequest`, never in the key).
    """

    strategy: Strategy
    cfg: ExecutionConfig
    route: SweepRoute
    group_key: tuple

    @property
    def fast_path(self) -> bool:
        """Whether flushes coalesce: every mode but ``"prepared"``."""
        return self.route.mode != "prepared"


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
    under their plan seeds and placed into its block.  A ``"pauli"`` route
    has one program: its step yields every row's distinct-string
    expectations, and each job's signed gather writes all ``p*q`` columns
    of its rows.  A ``"prepared"`` template runs per-request
    :func:`generate_features` instead (inline serial; see the module
    docstring on nesting).
    """
    cfg, route = artifacts.cfg, artifacts.route
    if not artifacts.fast_path:
        return [
            generate_features(
                artifacts.strategy, r.angles, config=cfg.merged(seed=r.seed, preflight="off")
            )
            for r in requests
        ]
    worker = BlockWorker(artifacts.strategy, route.programs, cfg)
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
                # The Pauli program's step already yields expectations.
                if route.mode != "pauli":
                    rng = None if seed is None else np.random.default_rng(seed)
                    block = measure_block(
                        block, worker.observables, cfg.estimator, cfg.shots,
                        cfg.snapshots, rng, cfg.backend,
                    )
                worker.place(job, block, out)
    return outputs
