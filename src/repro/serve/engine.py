"""Flush execution: one stacked pass for a coalesced micro-batch.

The serving layer's correctness contract is *per-request bit-equality*:
every response must equal ``generate_features(strategy, x,
config=execution.merged(seed=request_seed))`` bit for bit, no matter which
requests happened to share its flush.  Two properties make that possible:

* the evolution kernels are **row-stable**: ``evolve_batch`` over a
  concatenated angle stack produces, for each row, the same bits as
  evolving that row in any other batch composition (einsum/matmul over
  axis 0 never mixes rows);
* each request carries the :class:`~repro.core.features.SweepPlan` a
  standalone sweep of its rows builds -- the same
  :meth:`~repro.core.features.SweepPlan.build` over the same programs,
  so its jobs and per-job seeds (spawned from the *request* seed) are the
  standalone sweep's by construction -- and every job is measured with
  :func:`repro.core.features.measure_block`, the sweep's own measurement.

So a flush concatenates the requests' angle batches, runs ONE
``evolve_batch`` per Ansatz program over the stack (this is the coalescing
payoff -- compile-cache hits plus one stacked kernel pass instead of N),
then splits the evolved rows back per request and measures each request's
jobs under their own seeds.

The fast path applies exactly when :func:`generate_features` itself would
run the single-batched-program path
(``sweep_mode(strategy, cfg) == "batched"``).  Any other configuration
falls back to per-request ``generate_features`` inside the flush worker --
trivially bit-equal, still async and admitted, just without cross-request
sharing (RPA113 lints the window in that case).  A ``"pauli"`` template
(an exact ensemble of Clifford instances) is such a fallback: each request
runs the Pauli engine, which compiles and evolves nothing, and is priced
by the Pauli programs it runs.

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
    SweepPlan,
    bound_ansatz,
    generate_features,
    measure_block,
    sweep_programs,
    sweep_route,
    unbound_programs,
)
from repro.core.strategies import Strategy
from repro.data.encoding import encoding_template
from repro.quantum.batched import extend_template, template_fingerprint
from repro.quantum.circuit import Circuit
from repro.xp import get_namespace

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

    ``programs`` are what each request's plan is priced with: the
    standalone sweep's own batched programs on the fast path (and what the
    flush runs), its Pauli programs for a ``"pauli"`` template, and the
    unbound Ansatz (:func:`~repro.core.features.unbound_programs`) on any
    other fallback.  None of the fallbacks compiles anything at
    registration.  ``group_key`` is the coalescing
    identity: two registrations whose batched templates share fingerprints,
    observables and config-minus-seed coalesce into the same flushes (the
    per-request seed lives in each :class:`FlushRequest`, never in the key).
    """

    strategy: Strategy
    template: Circuit
    cfg: ExecutionConfig
    fast_path: bool
    programs: tuple
    observables: tuple
    group_key: tuple


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
    mode, programs = sweep_route(strategy, cfg)
    fast_path = mode == "batched"
    if fast_path:
        programs = sweep_programs(strategy, cfg, template)
    elif programs is None:
        programs = unbound_programs(strategy)
    observables = tuple(strategy.observables())
    fingerprints = tuple(
        template_fingerprint(extend_template(template, bound_ansatz(strategy, params)))
        for params in strategy.parameter_sets()
    )
    group_key = (
        fingerprints,
        tuple(repr(obs) for obs in observables),
        _config_key(cfg),
        fast_path,
    )
    return TemplateArtifacts(
        strategy=strategy,
        template=template,
        cfg=cfg,
        fast_path=fast_path,
        programs=tuple(programs),
        observables=observables,
        group_key=group_key,
    )


def execute_flush(
    artifacts: TemplateArtifacts, requests: Sequence[FlushRequest]
) -> list[np.ndarray]:
    """Run one coalesced flush; returns one ``(k_r, p*q)`` block per request.

    Fast path: concatenate every request's angles, ONE
    ``backend.evolve_batch`` per Ansatz program over the stack, then
    measure each request's jobs on their rows of the stack under their
    plan seeds -- bit-equal to standalone sweeps by kernel row-stability.
    Fallback: per-request :func:`generate_features` under the request's
    seed (the inline serial runtime; see the module docstring on nesting).
    """
    cfg = artifacts.cfg
    if not artifacts.fast_path:
        return [
            np.asarray(
                generate_features(
                    artifacts.strategy,
                    request.angles,
                    config=cfg.merged(seed=request.seed, preflight="off"),
                )
            )
            for request in requests
        ]
    backend = cfg.backend
    name = cfg.resolved_array_backend
    xp = None if name == "numpy" else get_namespace(name)
    stacked = np.concatenate([request.angles for request in requests], axis=0)
    offsets = np.cumsum([0] + [len(request.angles) for request in requests])
    q = len(artifacts.observables)
    observables = list(artifacts.observables)
    outputs = [
        np.empty((len(request.angles), len(artifacts.programs) * q))
        for request in requests
    ]
    for a, program in enumerate(artifacts.programs):
        evolve = backend.evolve_batch
        evolved = (
            evolve(stacked, program) if xp is None else evolve(stacked, program, xp=xp)
        )
        for request, offset, out in zip(requests, offsets[:-1], outputs, strict=True):
            for job, seed in zip(request.plan.jobs, request.plan.seeds, strict=True):
                if job.ansatz_index != a:
                    continue
                block = measure_block(
                    evolved[offset + job.lo : offset + job.hi],
                    observables,
                    cfg.estimator,
                    cfg.shots,
                    cfg.snapshots,
                    None if seed is None else np.random.default_rng(seed),
                    backend,
                )
                out[job.lo : job.hi, a * q : (a + 1) * q] = block
    return outputs
