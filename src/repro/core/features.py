"""Post-variational feature generation -- paper Algorithm 1.

Builds the Q matrix ``Q_ij = tr(O_j rho_theta(x_i))`` (Eq. 26): every data
point is encoded (Fig. 7), pushed through each fixed Ansatz instance of the
strategy, and measured against each observable.  Feature columns are ordered
Ansatz-major: column ``a * q + b`` holds (parameter set a, observable b),
matching Definition 1's (p, q) indexing.

Three estimators exercise the paper's three measurement models:

* ``exact``   -- analytic expectations (ideal simulator, Tables III/IV);
* ``shots``   -- finite-sample direct measurement (Proposition 1 regime);
* ``shadows`` -- classical-shadow estimation, one shadow batch per
  (data point, Ansatz) reused across all q observables (Proposition 2).

The work grid (Ansatz instance x data chunk) is embarrassingly parallel and
is dispatched through the persistent
:class:`repro.hpc.runtime.ExecutionRuntime`.  Dispatch is *streaming*: a
per-task cost model (chunk size x Ansatz depth x shot budget, priced by
:func:`repro.hpc.cluster.task_costs`) orders submission via the scheduling
policies, and each completed block is scattered into the preallocated Q
matrix as its future resolves -- no end-of-sweep barrier.
:func:`iter_feature_blocks` exposes the same stream to incremental
consumers.

Execution is configured through the unified API (:mod:`repro.api`): every
entry point takes ``config=`` (an
:class:`~repro.api.config.ExecutionConfig`) or ``device=`` (a
:class:`~repro.api.device.QuantumDevice` session).  The regime itself is a
:class:`~repro.quantum.backends.QuantumBackend` (``config.backend``): ideal
statevector (default, compiled engine), noisy density-matrix (gate-level
Kraus) or ZNE-mitigated -- every backend runs through the *same* job grid,
cost model (density evolution priced ~4^n vs 2^n) and streaming dispatch,
so the noisy Q-matrix sweep parallelises exactly like the ideal one.

Execution is per-sample-oracle or batched: with ``config.vectorize="auto"``
on a backend that supports it, :func:`generate_features` skips the separate
preparation pass entirely -- each (Ansatz instance, chunk) job encodes and
evolves its raw angle chunk through one
:class:`~repro.quantum.batched.ParametricCompiledCircuit` stacked pass
(shared fused blocks + per-sample angle chains).  The job grid and per-task
seed derivation are identical to the per-sample path, which remains the
reference oracle (``tests/integration/test_batched_features.py``).

All executor backends and policies produce identical matrices for
``exact`` and seed-deterministic matrices otherwise (child RNG streams are
derived per task index, independent of schedule).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Iterator

import numpy as np

from repro.api.config import (
    ESTIMATORS,
    ExecutionConfig,
    resolve_call,
    resolve_chunk_size,
)
from repro.core.strategies import Strategy
from repro.hpc.cluster import CircuitTask, stacked_pass_flops, task_costs
from repro.hpc.partition import chunk_ranges
from repro.hpc.runtime import DispatchReport, ExecutionRuntime, TaskCompletion
from repro.quantum.backends import QuantumBackend, resolve_backend
from repro.quantum.batched import (
    ParametricCompiledCircuit,
    compile_parametric,
)
from repro.quantum.circuit import Circuit
from repro.quantum.compile import (
    DEFAULT_FUSION_WIDTH,
    CompiledCircuit,
    compile_circuit,
    resolve_fusion_width,
)
from repro.quantum.observables import PauliString
from repro.utils.rng import spawn_rngs
from repro.xp import get_namespace

__all__ = [
    "FeatureJob",
    "feature_jobs",
    "generate_features",
    "evaluate_features",
    "iter_feature_blocks",
    "feature_circuit_tasks",
    "measure_block",
    "prepare_states",
    "resolve_chunk_size",
]


@dataclass(frozen=True)
class FeatureJob:
    """One schedulable unit: Ansatz instance ``a`` on data rows [lo, hi)."""

    ansatz_index: int
    lo: int
    hi: int


def feature_jobs(num_ansatze: int, num_samples: int, chunk_size: int) -> list[FeatureJob]:
    """The sweep's work grid: one job per (Ansatz instance, data chunk).

    The single source of truth for job enumeration -- both the live
    dispatch path and :meth:`HybridPipeline.circuit_tasks`' analytic
    projection build on it, so the two can never silently diverge.
    """
    return [
        FeatureJob(a, lo, hi)
        for a in range(num_ansatze)
        for (lo, hi) in chunk_ranges(num_samples, chunk_size)
    ]


def _bound_ansatz(strategy: Strategy, params: np.ndarray) -> Circuit | None:
    """The bound Ansatz instance, or None only when there is nothing to run.

    A circuit with gates but zero *parameters* (e.g. a fixed entangling
    layer) is still a real Ansatz and must be composed -- dropping it on
    ``num_parameters == 0`` silently produced encoder-only features (the
    bug this guard replaces).
    """
    circuit = strategy.ansatz
    if circuit is None or circuit.num_gates == 0:
        return None
    return circuit.bind(params)


def _parametric_programs(
    strategy: Strategy,
    compile: str | int,
    template: Circuit,
    backend: QuantumBackend,
    array_backend: str = "numpy",
) -> list:
    """One batched template program per Ansatz instance (``vectorize`` path).

    Each program covers the *whole* per-sample circuit ``U(theta_a) S(x)``:
    the encoder template's rotations stay as angle slots while the bound
    Ansatz joins it, so one compile per parameter set serves every data
    chunk (and, being picklable, every process worker).  The program *kind*
    is the backend's choice (:meth:`QuantumBackend.batch_program`): fused
    :class:`ParametricCompiledCircuit` for statevectors, fusion-free
    batched density programs (per-scale folded stacks for ZNE) where Kraus
    insertion points must survive.
    """
    return [
        backend.batch_program(
            template, _bound_ansatz(strategy, params), compile, array_backend
        )
        for params in strategy.parameter_sets()
    ]


def _use_vectorized(cfg: ExecutionConfig) -> bool:
    """Whether this config routes raw-angle sweeps through ``apply_batch``."""
    return cfg.vectorize == "auto" and cfg.backend.supports_vectorize


def _run_preflight(
    strategy: Strategy,
    angles: np.ndarray | None,
    cfg: ExecutionConfig,
    owner: str,
) -> None:
    """Static analysis at job-build time, per ``cfg.preflight``.

    Lints what the sweep will actually run: the *unbound* encoder template
    (its rotation slots are exactly what the batched engine must chain) and
    the first bound Ansatz instance -- Ansatz gates are bound before
    execution, so linting them unbound would spuriously flag RPA003.  In
    mode ``"error"`` this raises before any state is prepared or any job
    is submitted.
    """
    from repro.analysis.preflight import run_preflight

    circuits = []
    if angles is not None:
        from repro.data.encoding import encoding_template

        circuits.append(encoding_template(angles.shape[1], angles.shape[2]))
    for params in strategy.parameter_sets():
        bound = _bound_ansatz(strategy, params)
        if bound is not None:
            circuits.append(bound)
        break
    run_preflight(
        cfg, num_qubits=strategy.num_qubits, circuits=circuits, owner=owner
    )


def _ansatz_programs(
    strategy: Strategy, compile: str | int, backend: QuantumBackend
) -> list[Circuit | CompiledCircuit | None]:
    """One executable program per Ansatz instance, prepared once per sweep.

    Binding (and, when ``compile`` is on, fusion) happens here -- up front
    and once per parameter set -- instead of once per (Ansatz, chunk) job,
    so the Q-matrix sweep reuses each artifact across every data chunk and,
    because :class:`CompiledCircuit` pickles, across process workers too.

    Backends with gate-level noise insertion evolve raw circuits only
    (``supports_compile=False``); the compile knob is a no-op for them, but
    it is still validated so a typo fails identically on every backend.
    """
    width = resolve_fusion_width(compile)
    if not backend.supports_compile:
        width = None
    programs: list[Circuit | CompiledCircuit | None] = []
    for params in strategy.parameter_sets():
        bound = _bound_ansatz(strategy, params)
        if bound is not None and width is not None:
            bound = compile_circuit(bound, max_width=width)
        programs.append(bound)
    return programs


def _program_ops(program: Circuit | CompiledCircuit | ParametricCompiledCircuit | None) -> int:
    """Kernel launches one program costs: gate count, fused-block count,
    batched segment count (blocks + angle chains), stacked density passes
    (gates + Kraus operators, folded copies included), or 0."""
    if program is None:
        return 0
    passes = getattr(program, "num_kernel_passes", None)
    if passes is not None:
        return passes
    if isinstance(program, ParametricCompiledCircuit):
        return program.num_segments
    if isinstance(program, CompiledCircuit):
        return program.num_blocks
    return program.num_gates


def _evaluate_block(
    states: np.ndarray,
    program: Circuit | CompiledCircuit | ParametricCompiledCircuit | None,
    observables: list[PauliString],
    estimator: str,
    shots: int,
    snapshots: int,
    rng: np.random.Generator | None,
    backend: QuantumBackend,
    xp=None,
) -> np.ndarray:
    """Feature block for one Ansatz instance on a chunk of prepared states
    (or, for a batched template program, of raw encoding angles).

    Returns (chunk, q).  This is the module-level worker so the process
    executor backend can pickle it via functools.partial-free closures.
    ``xp`` is the resolved array namespace; ``None`` (the default config)
    never reaches backend signatures, so third-party backends without the
    keyword keep working.
    """
    # vectorize="auto" templates consume raw (chunk, rows, cols) angles and
    # run encoding + Ansatz evolution in one stacked pass (evolve_batch).
    evolve = (
        backend.evolve_batch
        if getattr(program, "consumes_angles", False)
        else backend.evolve
    )
    evolved = (
        evolve(states, program) if xp is None else evolve(states, program, xp=xp)
    )
    return measure_block(
        evolved, observables, estimator, shots, snapshots, rng, backend
    )


def measure_block(
    evolved: np.ndarray,
    observables: list[PauliString],
    estimator: str,
    shots: int,
    snapshots: int,
    rng: np.random.Generator | None,
    backend: QuantumBackend,
) -> np.ndarray:
    """Feature block from *already-evolved* states: the measurement half of
    :func:`_evaluate_block`, shared verbatim with the serving layer
    (:mod:`repro.serve.engine`), whose coalesced flushes must measure
    exactly like a standalone sweep to stay bit-equal per request.

    ``evolved`` has data points on axis 0 in the backend's evolved
    representation (statevectors, density matrices, or a mitigated
    ``(d, scales, ...)`` fold stack); returns ``(d, q)``.
    """
    q = len(observables)
    d = int(evolved.shape[0])
    if estimator == "exact":
        block = np.empty((d, q))
        for b, obs in enumerate(observables):
            block[:, b] = backend.expectation(evolved, obs)
    elif estimator == "shots":
        block = np.empty((d, q))
        for b, obs in enumerate(observables):
            block[:, b] = backend.sample(evolved, obs, shots, rng)
    elif estimator == "shadows":
        block = backend.shadow_block(evolved, observables, snapshots, rng)
    else:
        raise ValueError(f"unknown estimator {estimator!r}; choose from {ESTIMATORS}")
    return block


class _BlockWorker:
    """Picklable task callable for the process executor backend.

    Holds only the sweep-wide artifacts (programs, observables, seeds);
    each task carries its *own* state chunk, so a process pool ships
    O(chunk) state per submission rather than re-pickling the full
    (d, ...) prepared batch with every task -- which for density states
    (4^n entries each) would dominate the sweep.
    """

    def __init__(
        self,
        strategy: Strategy,
        estimator: str,
        shots: int,
        snapshots: int,
        seeds: list[int] | None,
        compile: str | int,
        backend: QuantumBackend,
        template: Circuit | None = None,
        array_backend: str = "numpy",
    ):
        self.observables = strategy.observables()
        self.backend = backend
        # The already-resolved concrete namespace *name* (never "auto"):
        # plain strings pickle to process workers, and each worker resolves
        # its own process-wide namespace singleton lazily on first use.
        self.array_backend = array_backend
        # Bind/compile each Ansatz instance exactly once for the whole sweep
        # (not per chunk); compiled programs pickle to process workers.
        # With an encoder ``template`` (the vectorize="auto" path) each
        # program is a batched template covering encoder + Ansatz, and tasks
        # carry raw angle chunks instead of states.
        if template is None:
            self.programs = _ansatz_programs(strategy, compile, self.backend)
        else:
            self.programs = _parametric_programs(
                strategy, compile, template, self.backend, array_backend
            )
        self.estimator = estimator
        self.shots = shots
        self.snapshots = snapshots
        self.seeds = seeds

    def __call__(
        self, task: tuple[int, FeatureJob, np.ndarray]
    ) -> tuple[FeatureJob, np.ndarray]:
        task_id, job, states = task
        rng = None if self.seeds is None else np.random.default_rng(self.seeds[task_id])
        xp = None if self.array_backend == "numpy" else get_namespace(self.array_backend)
        block = _evaluate_block(
            states,
            self.programs[job.ansatz_index],
            self.observables,
            self.estimator,
            self.shots,
            self.snapshots,
            rng,
            self.backend,
            xp,
        )
        return job, block


def feature_circuit_tasks(
    jobs: list[FeatureJob],
    programs: list[Circuit | CompiledCircuit | None],
    num_qubits: int,
    num_observables: int,
    estimator: str,
    shots: int,
    snapshots: int,
    backend: QuantumBackend | None = None,
) -> list[CircuitTask]:
    """Cost-model view of the sweep: one :class:`CircuitTask` per job.

    Chunk size, per-circuit shot budget and Ansatz depth (gate/fused-block
    count, scaled by the backend's state size -- 2**n statevector
    amplitudes, 4**n density-matrix entries, times the fold factor for
    mitigated sweeps) all enter the cost, so the scheduling policies see
    the same heterogeneity the real execution pays.  A sharded backend's
    slab count carries through as ``num_shards``, which divides the
    simulation flops but adds remap-synchronisation latency per circuit.
    """
    q = num_observables
    backend = resolve_backend(backend)
    dim = backend.evolution_cost_weight(num_qubits)
    # Sampling repeats per fold scale on mitigated backends, exactly like
    # the evolutions -- the projection must price both.
    reps = backend.circuit_repetitions
    num_shards = int(getattr(backend, "shards", 1))
    shots_per_circuit = 0 if estimator == "exact" else (
        shots * q * reps if estimator == "shots" else snapshots * reps
    )
    tasks = []
    for job in jobs:
        chunk = job.hi - job.lo
        program = programs[job.ansatz_index]
        ops = _program_ops(program)
        # Vectorized density programs count every stacked pass directly
        # (Kraus operators and folded ZNE copies included), so they are
        # priced at the raw density state size -- multiplying by the
        # mitigated backend's fold weight too would double-count.
        flops = (
            stacked_pass_flops(chunk, num_qubits, ops, q)
            if getattr(program, "num_kernel_passes", None) is not None
            else float(chunk * dim * (4 * ops + q))
        )
        tasks.append(
            CircuitTask(
                num_circuits=chunk,
                shots=shots_per_circuit,
                result_bytes=8 * chunk * q,
                classical_flops=flops,
                num_shards=num_shards,
            )
        )
    return tasks


def _resolve_runtime(executor: ExecutionRuntime | None) -> ExecutionRuntime:
    """The caller's runtime, or an inline serial one for ``None``."""
    return ExecutionRuntime() if executor is None else executor


class _PrepareWorker:
    """Picklable chunked state preparation for expensive backends."""

    def __init__(self, backend: QuantumBackend):
        self.backend = backend

    def __call__(self, angles_chunk: np.ndarray) -> np.ndarray:
        return self.backend.prepare(angles_chunk)


def prepare_states(
    backend: QuantumBackend | None,
    angles: np.ndarray,
    executor: ExecutionRuntime | None = None,
    chunk_size: int | None = None,
) -> np.ndarray:
    """Encode ``angles`` into the backend's prepared representation.

    Backends whose preparation evolves a circuit per sample (density,
    mitigated: O(4^n) Kraus work each) fan the encoder stage out over the
    same executor as the sweep itself, chunked like the job grid -- the
    parallelism the retired noisy fork had, kept.  The statevector
    backend's vectorised ``encode_batch`` stays a single in-process call.
    """
    backend = resolve_backend(backend)
    chunk_size = resolve_chunk_size(chunk_size, backend)
    chunks = chunk_ranges(angles.shape[0], chunk_size)
    if not backend.parallel_prepare or len(chunks) <= 1:
        return backend.prepare(angles)
    parts = _resolve_runtime(executor).map(
        _PrepareWorker(backend), [angles[lo:hi] for lo, hi in chunks]
    )
    return np.concatenate(parts, axis=0)


def _sweep_stream(
    strategy: Strategy,
    states: np.ndarray,
    cfg: ExecutionConfig,
    executor: ExecutionRuntime | None,
    records: list[TaskCompletion] | None,
    template: Circuit | None = None,
) -> tuple[Iterator[TaskCompletion], np.ndarray, ExecutionRuntime]:
    """Shared sweep setup: completion stream, cost vector, runtime.

    ``cfg`` is already validated (backend resolved, regime checked) -- the
    :class:`~repro.api.config.ExecutionConfig` constructor guarantees it.
    ``template`` switches the sweep to batched structure-shared execution:
    ``states`` is then the raw ``(d, rows, cols)`` angle batch and every
    job evolves its chunk through one
    :class:`~repro.quantum.batched.ParametricCompiledCircuit` pass.  The
    job grid and the per-task seed derivation are identical either way, so
    the two paths are directly comparable estimator by estimator.
    """
    runtime = _resolve_runtime(executor)
    jobs = feature_jobs(
        strategy.num_ansatze, states.shape[0], cfg.resolved_chunk_size
    )
    # Per-task independent RNG streams, keyed by task *index*: results do
    # not depend on the executor backend, policy or completion order.
    if cfg.estimator == "exact":
        seeds = None
    else:
        children = spawn_rngs(cfg.seed, len(jobs))
        seeds = [int(c.integers(0, 2**63)) for c in children]

    worker = _BlockWorker(
        strategy,
        cfg.estimator,
        cfg.shots,
        cfg.snapshots,
        seeds,
        cfg.compile,
        cfg.backend,
        template=template,
        array_backend=cfg.resolved_array_backend,
    )
    costs = task_costs(
        feature_circuit_tasks(
            jobs,
            worker.programs,
            strategy.num_qubits,
            strategy.num_observables,
            cfg.estimator,
            cfg.shots,
            cfg.snapshots,
            cfg.backend,
        )
    )
    # Each task ships its own chunk (a view in-process; O(chunk) pickled
    # bytes for process pools) instead of the whole prepared batch.
    stream = runtime.stream(
        worker,
        [(i, job, states[job.lo : job.hi]) for i, job in enumerate(jobs)],
        costs=costs,
        policy=cfg.dispatch_policy,
        records=records,
    )
    return stream, costs, runtime


def generate_features(
    strategy: Strategy,
    angles: np.ndarray,
    *,
    executor: ExecutionRuntime | None = None,
    out: np.ndarray | None = None,
    return_report: bool = False,
    config: ExecutionConfig | None = None,
    device=None,
) -> np.ndarray | tuple[np.ndarray, DispatchReport]:
    """Algorithm 1: the full Q matrix for pooled-angle images ``angles``.

    ``angles`` is (d, rows, cols) with cols == strategy.num_qubits; returns
    (d, m).  Execution is configured by ``config=`` (an
    :class:`~repro.api.config.ExecutionConfig`) or ``device=`` (a
    :class:`~repro.api.device.QuantumDevice`, which also supplies the
    runtime); with neither, the config defaults apply (exact estimator,
    ideal statevector backend, ``compile="off"`` -- the naive reference
    semantics bit-for-bit).

    ``executor`` binds the dispatch runtime (None for inline serial) and
    may accompany ``config=``; the runtime belongs to the caller and is
    never shut down here.  With ``return_report=True`` the
    measured-vs-projected :class:`~repro.hpc.runtime.DispatchReport` is
    returned alongside Q.

    With ``config.vectorize="auto"`` (and a backend that supports it) the
    sweep runs batched: encoding and Ansatz evolution happen in one
    structure-shared stacked pass per (Ansatz instance, chunk) job instead
    of sample at a time -- same job grid, same per-task seeds, numerically
    equal to the per-sample oracle to <= 1e-10.
    """
    cfg, executor = resolve_call(config, device, executor, owner="generate_features")
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 3:
        raise ValueError("angles must be (d, rows, cols)")
    if angles.shape[2] != strategy.num_qubits:
        raise ValueError(
            f"angles encode {angles.shape[2]} qubits, strategy expects {strategy.num_qubits}"
        )
    if cfg.preflight != "off":
        _run_preflight(strategy, angles, cfg, owner="generate_features")
    if _use_vectorized(cfg):
        from repro.data.encoding import encoding_template

        template = encoding_template(angles.shape[1], angles.shape[2])
        if strategy.num_ansatze == 1 or cfg.backend.representation == "density":
            # Encoder + Ansatz compile into ONE batched program per
            # instance, and each job encodes *and* evolves its raw angle
            # chunk in stacked passes -- no separate preparation, no
            # intermediate prepared-state array.  Density-representation
            # backends take this path even with many instances: their
            # encoder stage carries gate-level noise (and ZNE folding), so
            # the noiseless shared-encoder shortcut below cannot apply.
            return _assemble_features(
                strategy, angles, cfg, executor, out, return_report, template
            )
        # Multiple statevector instances share the encoding work: one
        # batched-encoder pass (per-qubit angle chains: ~rows fewer
        # state-sized kernels than the per-gate encode_batch), then the
        # standard chunked sweep reuses the prepared batch across every
        # Ansatz instance.  The batched engine is fusion by construction,
        # so evolution is pinned to a concrete fusion width even under
        # compile="off".
        width = resolve_fusion_width(cfg.compile) or DEFAULT_FUSION_WIDTH
        name = cfg.resolved_array_backend
        xp = None if name == "numpy" else get_namespace(name)
        states = compile_parametric(
            template, max_width=width, array_backend=name
        ).apply_batch(angles, xp=xp)
        return _assemble_features(
            strategy, states, cfg.merged(compile=width), executor, out, return_report
        )
    states = prepare_states(cfg.backend, angles, executor, cfg.chunk_size)
    return evaluate_features(
        strategy,
        states,
        executor=executor,
        out=out,
        return_report=return_report,
        # Preflight already ran above; don't lint (and warn) twice.
        config=cfg.merged(preflight="off"),
    )


def evaluate_features(
    strategy: Strategy,
    states: np.ndarray,
    *,
    executor: ExecutionRuntime | None = None,
    out: np.ndarray | None = None,
    return_report: bool = False,
    config: ExecutionConfig | None = None,
    device=None,
) -> np.ndarray | tuple[np.ndarray, DispatchReport]:
    """Q matrix from prepared states ``states``.

    ``states`` is either pre-encoded ``(d, 2**n)`` statevectors -- lifted
    into the backend's representation noiselessly -- or an array obtained
    from ``backend.prepare(angles)`` (which, for noisy backends, applies
    encoder-stage noise too).

    Execution is configured exactly as in :func:`generate_features`
    (``config=`` / ``device=``, optional caller-owned ``executor=``).

    Assembly is streaming: blocks land in the (optionally caller-supplied)
    preallocated ``out`` matrix as their futures resolve, in completion
    order.  ``out`` must be float64 of shape (d, p*q).

    ``config.vectorize`` is a no-op here: prepared states have already lost
    their encoding angles, so chunk evolution is batched exactly as before
    (one :class:`CompiledCircuit` pass per job); only the raw-angle entry
    point :func:`generate_features` can fold encoding into the stacked pass.
    """
    cfg, executor = resolve_call(config, device, executor, owner="evaluate_features")
    if cfg.preflight != "off":
        # Prepared states have already lost their encoding template, so
        # only the config/plan layer (+ the bound Ansatz) can be linted.
        _run_preflight(strategy, None, cfg, owner="evaluate_features")
    states = cfg.backend.coerce_states(np.asarray(states))
    return _assemble_features(strategy, states, cfg, executor, out, return_report)


def _assemble_features(
    strategy: Strategy,
    payload: np.ndarray,
    cfg: ExecutionConfig,
    executor: ExecutionRuntime | None,
    out: np.ndarray | None,
    return_report: bool,
    template: Circuit | None = None,
) -> np.ndarray | tuple[np.ndarray, DispatchReport]:
    """Streaming Q-matrix assembly shared by both execution paths.

    ``payload`` is prepared states (per-sample path) or the raw angle batch
    (batched path, signalled by ``template``); either way axis 0 indexes
    data points and blocks scatter into ``out`` as futures resolve.
    """
    d = payload.shape[0]
    p = strategy.num_ansatze
    q = strategy.num_observables
    if out is None:
        out = np.empty((d, p * q))
    elif out.shape != (d, p * q) or out.dtype != np.float64:
        raise ValueError(f"out must be float64 of shape {(d, p * q)}, got {out.dtype} {out.shape}")

    # Timing records are only collected when a report is requested; they
    # are result-free (index + seconds), so nothing pins completed blocks.
    records: list[TaskCompletion] | None = [] if return_report else None
    stream, costs, runtime = _sweep_stream(
        strategy, payload, cfg, executor, records, template
    )
    # Timed window covers dispatch + assembly only: binding/compilation,
    # RNG spawning and (via warm()) pool construction are one-time setup
    # the replayed makespan never models, so including them would inflate
    # wall_over_replay.
    runtime.warm()
    start = time.perf_counter()
    for completion in stream:
        job, block = completion.result
        out[job.lo : job.hi, job.ansatz_index * q : (job.ansatz_index + 1) * q] = block
    wall = time.perf_counter() - start

    if return_report:
        report = DispatchReport.from_records(
            cfg.dispatch_policy, runtime.backend, runtime.max_workers, costs,
            records or (), wall,
        )
        return out, report
    return out


def iter_feature_blocks(
    strategy: Strategy,
    states: np.ndarray,
    *,
    executor: ExecutionRuntime | None = None,
    config: ExecutionConfig | None = None,
    device=None,
) -> Iterator[tuple[FeatureJob, np.ndarray]]:
    """Stream Q-matrix blocks as ``(FeatureJob, (chunk, q) block)`` pairs.

    Blocks arrive in *completion* order (submission order for serial
    runtimes) -- the incremental-consumer view of Algorithm 1: online
    learners, progress reporting, or out-of-core assembly can consume
    features without ever materialising the full matrix.  Every job is
    yielded exactly once; the union of blocks tiles the full Q matrix.
    Identical numerics to :func:`evaluate_features` (same per-task seeds,
    same ``config=``/``device=`` resolution, same preflight).

    Setup (validation, preflight, binding/compilation, cost model) runs
    eagerly at the call, so bad arguments raise here rather than at the
    first ``next()``.
    """
    cfg, executor = resolve_call(config, device, executor, owner="iter_feature_blocks")
    if cfg.preflight != "off":
        _run_preflight(strategy, None, cfg, owner="iter_feature_blocks")
    states = cfg.backend.coerce_states(np.asarray(states))
    stream, _, _ = _sweep_stream(strategy, states, cfg, executor, None)
    return (completion.result for completion in stream)
