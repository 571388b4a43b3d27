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

The work grid (program x data chunk) is embarrassingly parallel: one
program per Ansatz instance, or a Pauli sweep's single ensemble program,
whose job covers every column of its rows.  :class:`SweepPlan` plans it once
per sweep -- the jobs, one RNG seed and one dispatch cost (chunk size x
Ansatz depth x shot budget, priced by :func:`repro.hpc.cluster.task_costs`)
per job -- and is the package's only planner: the serving layer
(:mod:`repro.serve.engine`) plans each request with the same
:meth:`SweepPlan.build` and runs it through the same :class:`SweepRoute`,
so a served response and a standalone sweep share programs, jobs and seeds
by construction.  Dispatch runs through the
persistent :class:`repro.hpc.runtime.ExecutionRuntime` and is *streaming*:
the plan's costs order submission via the scheduling policies, and each
completed block is scattered into the preallocated Q matrix as its future
resolves -- no end-of-sweep barrier.  :func:`iter_feature_blocks` exposes
the same stream to incremental consumers.

Execution is configured through the unified API (:mod:`repro.api`): every
entry point takes ``config=`` (an
:class:`~repro.api.config.ExecutionConfig`, run inline serial) or
``device=`` (a :class:`~repro.api.device.QuantumDevice` session, run on
its pool; ``QuantumDevice(cfg, runtime=rt)`` binds a runtime the caller
already holds).  The regime itself is a
:class:`~repro.quantum.backends.QuantumBackend` (``config.backend``): ideal
statevector (default, compiled engine), noisy density-matrix (gate-level
Kraus) or ZNE-mitigated -- every backend runs through the *same* job grid,
cost model (density evolution priced ~4^n vs 2^n) and streaming dispatch,
so the noisy Q-matrix sweep parallelises exactly like the ideal one.

:func:`sweep_mode` makes the one execution-path choice for raw angles, and
:class:`SweepRoute` turns it into programs and the payload they consume.
With ``config.vectorize="auto"`` on a backend that supports it,
:func:`generate_features` skips the separate preparation pass entirely
(``"batched"``): each (Ansatz instance, chunk) job encodes and evolves its
raw angle chunk through one
:class:`~repro.quantum.batched.ParametricCompiledCircuit` stacked pass
(shared fused blocks + per-sample angle chains).  An exact or finite-shot
ideal-statevector ensemble whose every instance is Clifford -- the paper's
shifts at theta = 0 -- evolves no state at all (``"pauli"``): Appendix A's
Heisenberg picture turns each feature into a signed product of the
encoder's per-qubit Bloch components (:mod:`repro.quantum.pauli`), so each
row chunk is one job that multiplies out the ensemble's distinct Pauli
strings; assembly fills every exact column from them by a signed gather,
and a shots job draws every column's binomial estimate from its signed
value under the seeds the per-instance grid gives its rows.  The job grid
and per-task seeds are the plan's either way, and the per-sample path
remains the reference oracle (``tests/integration/test_batched_features.py``).

All executor backends and policies produce identical matrices for
``exact`` and seed-deterministic matrices otherwise (child RNG streams are
derived per task index, independent of schedule).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Iterator, Sequence

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
from repro.quantum.pauli import PauliProgram, bloch_vectors, propagate
from repro.utils.rng import spawn_rngs
from repro.xp import get_namespace

__all__ = [
    "BlockWorker",
    "FeatureJob",
    "SweepPlan",
    "SweepRoute",
    "bound_ansatz",
    "feature_jobs",
    "generate_features",
    "evaluate_features",
    "iter_feature_blocks",
    "feature_circuit_tasks",
    "measure_block",
    "preflight_circuits",
    "prepare_states",
    "resolve_chunk_size",
    "sweep_mode",
    "sweep_programs",
    "sweep_route",
    "unbound_programs",
]


@dataclass(frozen=True)
class FeatureJob:
    """One schedulable unit: program ``ansatz_index`` on data rows [lo, hi).

    A program is one Ansatz instance, whose job yields its ``q`` columns --
    except a ``"pauli"`` sweep's single ensemble program (index 0), whose
    job yields every column of its rows.
    """

    ansatz_index: int
    lo: int
    hi: int


def feature_jobs(num_programs: int, num_samples: int, chunk_size: int) -> list[FeatureJob]:
    """A work grid: one job per (program, data chunk), program-major.

    :meth:`SweepPlan.build` (and so every sweep and every served request)
    enumerates its jobs here, one program per Ansatz instance -- or, for a
    ``"pauli"`` sweep, its one ensemble program, so one job per chunk --
    and :meth:`HybridPipeline.circuit_tasks`' analytic projection asks for
    the per-instance grid.
    """
    return [
        FeatureJob(a, lo, hi)
        for a in range(num_programs)
        for (lo, hi) in chunk_ranges(num_samples, chunk_size)
    ]


def sweep_mode(strategy: Strategy, cfg: ExecutionConfig) -> str:
    """How :func:`generate_features` runs a raw-angle sweep under ``cfg``.

    * ``"batched"`` -- encoder + Ansatz compile into ONE batched program
      per instance and each job encodes *and* evolves its raw angle chunk
      in stacked passes (``vectorize="auto"`` on a supporting backend, with
      one Ansatz instance or a density representation, whose encoder stage
      carries gate-level noise and ZNE folding);
    * ``"pauli"`` -- several instances, the exact or shots estimator, a
      backend with ``supports_pauli`` (the ideal statevector) and every
      bound instance Clifford: each observable conjugates to one signed
      Pauli string and each row-chunk job multiplies the encoder's Bloch
      components for the ensemble's distinct strings
      (:mod:`repro.quantum.pauli`) -- no state is evolved or measured, and
      shots are one binomial draw per column from its exact value, draw for
      draw what ``vectorize="off"`` samples;
    * ``"shared_encoder"`` -- several statevector instances share one
      batched-encoder pass, then every instance evolves the prepared batch;
    * ``"prepared"`` -- per-sample preparation, then per-instance evolution
      (the reference oracle; always under ``vectorize="off"``).

    The serving layer coalesces every mode (:mod:`repro.serve.engine`).
    """
    return sweep_route(strategy, cfg)[0]


def sweep_route(strategy: Strategy, cfg: ExecutionConfig) -> tuple[str, list | None]:
    """:func:`sweep_mode` plus the programs its Clifford check built.

    Deciding ``"pauli"`` means propagating every (instance, observable) row
    through the Ansatz; the ensemble's one
    :class:`~repro.quantum.pauli.PauliProgram` falls out of that same pass,
    so it is returned with the mode (``None`` for every other mode) instead
    of being rebuilt.  Exact and shots sweeps take it alike: every shot
    estimate is one binomial draw from an exact expectation
    (:func:`~repro.quantum.sampling.sample_expectations`), whichever path
    computed it.  Shadows need a state to snapshot and never do.
    """
    backend = cfg.backend
    if cfg.vectorize != "auto" or not backend.supports_vectorize:
        return "prepared", None
    if strategy.num_ansatze == 1 or backend.representation == "density":
        return "batched", None
    if cfg.estimator in ("exact", "shots") and backend.supports_pauli:
        program = propagate(
            strategy.ansatz, strategy.parameter_sets(), strategy.observables()
        )
        if program is not None:
            return "pauli", [program]
    return "shared_encoder", None


def bound_ansatz(strategy: Strategy, params: np.ndarray) -> Circuit | None:
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


def unbound_programs(strategy: Strategy) -> list[Circuit | None]:
    """The cost model's view of every Ansatz instance, with nothing compiled.

    Gate count is binding-independent, so the unbound Ansatz prices every
    instance for projections and admission.  Only a genuinely empty circuit
    is skipped by the sweep; a parameterless circuit with gates still runs
    (and costs).
    """
    ansatz = strategy.ansatz
    if ansatz is not None and ansatz.num_gates == 0:
        ansatz = None
    return [ansatz] * strategy.num_ansatze


def sweep_programs(
    strategy: Strategy, cfg: ExecutionConfig, template: Circuit | None = None
) -> list:
    """One executable program per Ansatz instance, built once per sweep.

    Binding (and, when ``cfg.compile`` is on, fusion) happens here -- up
    front and once per parameter set -- instead of once per (Ansatz, chunk)
    job, so the sweep reuses each artifact across every data chunk and,
    because the programs pickle, across process workers too.

    With an encoder ``template`` (the ``"batched"`` mode) each program
    covers the *whole* per-sample circuit ``U(theta_a) S(x)``: the
    template's rotations stay as angle slots while the bound Ansatz joins
    it.  The program *kind* is the backend's choice
    (:meth:`QuantumBackend.batch_program`): fused
    :class:`ParametricCompiledCircuit` for statevectors, fusion-free batched
    density programs (per-scale folded stacks for ZNE) where Kraus insertion
    points must survive.  Without a template, backends with gate-level noise
    insertion evolve raw bound circuits (``supports_compile=False``); the
    compile knob is still validated so a typo fails identically on every
    backend.
    """
    backend = cfg.backend
    width = resolve_fusion_width(cfg.compile)
    if not backend.supports_compile:
        width = None
    programs: list = []
    for params in strategy.parameter_sets():
        program = bound_ansatz(strategy, params)
        if template is not None:
            program = backend.batch_program(template, program, cfg.compile)
        elif program is not None and width is not None:
            program = compile_circuit(program, max_width=width)
        programs.append(program)
    return programs


@dataclass(frozen=True)
class SweepRoute:
    """A raw-angle sweep's :func:`sweep_mode`, its programs (one per Ansatz
    instance, or one ensemble program for ``"pauli"``) and, by
    :meth:`payload`, what they consume: routed once per sweep, or once per
    served template and then per flush
    (:mod:`repro.serve.engine`).  ``cfg`` built the programs: the sweep's
    own, its fusion width pinned for ``"shared_encoder"``.
    """

    mode: str
    template: Circuit
    cfg: ExecutionConfig
    programs: tuple

    @classmethod
    def build(cls, strategy: Strategy, cfg: ExecutionConfig, template: Circuit) -> SweepRoute:
        """Route a sweep of ``strategy`` over the encoder ``template``."""
        mode, programs = sweep_route(strategy, cfg)
        if mode == "shared_encoder":
            # The batched encoder is fusion by construction, so evolution is
            # pinned to a concrete fusion width even under compile="off".
            cfg = cfg.merged(compile=resolve_fusion_width(cfg.compile) or DEFAULT_FUSION_WIDTH)
        if programs is None:
            programs = sweep_programs(strategy, cfg, template if mode == "batched" else None)
        return cls(mode, template, cfg, tuple(programs))

    def payload(self, angles: np.ndarray, runtime: ExecutionRuntime | None = None) -> np.ndarray:
        """What :attr:`programs` consume for raw ``(d, rows, cols)`` angles,
        data points still on axis 0; ``runtime`` fans out a ``"prepared"``
        backend's per-sample preparation (:func:`prepare_states`)."""
        if self.mode == "pauli":
            # The encoder prepares a product state: its Bloch vectors are all
            # the Pauli programs read, and no state is evolved or measured.
            return bloch_vectors(self.template, angles)
        if self.mode == "batched":
            return angles  # every job encodes and evolves its own chunk
        if self.mode == "shared_encoder":
            # One batched-encoder pass, reused by every Ansatz instance.
            encoder = compile_parametric(self.template, max_width=self.cfg.compile)
            return encoder.apply_batch(angles, xp=get_namespace(self.cfg.resolved_array_backend))
        return _prepare(angles, self.cfg, runtime)


def preflight_circuits(strategy: Strategy, template: Circuit | None) -> list[Circuit]:
    """What preflight lints for one sweep of ``strategy``.

    The *unbound* encoder ``template`` (its rotation slots are exactly what
    the batched engine must chain; ``None`` for prepared states, which have
    already lost it) and the first bound Ansatz instance -- Ansatz gates
    are bound before execution, so linting them unbound would spuriously
    flag RPA003.
    """
    circuits = [] if template is None else [template]
    for params in strategy.parameter_sets()[:1]:
        bound = bound_ansatz(strategy, params)
        if bound is not None:
            circuits.append(bound)
    return circuits


@dataclass(frozen=True)
class SweepPlan:
    """Algorithm 1's work grid for one sweep (Eq. 26), built by :meth:`build`.

    ``jobs`` enumerate (program x data chunk), program-major: one program
    per Ansatz instance, or a ``"pauli"`` sweep's one ensemble program, so
    one job per chunk covering every column;
    ``seeds`` hold one RNG seed per job (``None`` throughout for exact
    estimation), keyed by job *index* so results do not depend on the
    executor backend, policy or completion order.  Seeds are spawned over
    the per-instance (instance x chunk) grid whatever the route, so a
    ``"pauli"`` shots job holds a tuple: instance ``a``'s seed for its
    chunk, the seed that instance's own job would draw under.  ``costs``
    price each job in the scheduler's units.  Plain picklable data: the
    serving layer ships one plan per request to thread or process flush
    workers.
    """

    jobs: tuple[FeatureJob, ...]
    seeds: tuple[int | tuple[int, ...] | None, ...]
    costs: tuple[float, ...]

    @classmethod
    def build(
        cls,
        strategy: Strategy,
        cfg: ExecutionConfig,
        num_samples: int,
        programs: Sequence,
        seed: int | np.random.Generator | None,
    ) -> SweepPlan:
        """Plan ``num_samples`` rows of ``strategy`` under ``cfg``.

        ``programs`` (a :class:`SweepRoute`'s) shape and price the jobs and
        ``seed`` roots the per-job RNG streams (a sweep passes ``cfg.seed``;
        a served request its own seed).
        """
        jobs = feature_jobs(len(programs), num_samples, cfg.resolved_chunk_size)
        seeds: tuple[int | tuple[int, ...] | None, ...] = (None,) * len(jobs)
        if cfg.estimator != "exact":
            # One seed per (instance, chunk) of the instance-major grid.
            chunks = len(jobs) // len(programs)
            grid = spawn_rngs(seed, strategy.num_ansatze * chunks)
            seeds = tuple(int(c.integers(0, 2**63)) for c in grid)
            if isinstance(programs[0], PauliProgram):
                # One job per chunk: chunk c's instance seeds stride by the
                # chunk count.
                seeds = tuple(seeds[c::chunks] for c in range(chunks))
        tasks = feature_circuit_tasks(
            jobs,
            programs,
            strategy.num_qubits,
            strategy.num_observables,
            cfg.estimator,
            cfg.shots,
            cfg.snapshots,
            cfg.backend,
        )
        return cls(tuple(jobs), seeds, tuple(task_costs(tasks).tolist()))


def _run_preflight(
    strategy: Strategy,
    template: Circuit | None,
    cfg: ExecutionConfig,
    owner: str,
) -> None:
    """Static analysis at job-build time, per ``cfg.preflight``.

    Lints :func:`preflight_circuits`; in mode ``"error"`` this raises
    before any state is prepared or any job is submitted.
    """
    if cfg.preflight == "off":
        return
    from repro.analysis.preflight import run_preflight

    circuits = preflight_circuits(strategy, template)
    run_preflight(cfg, num_qubits=strategy.num_qubits, circuits=circuits, owner=owner)


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
    every Ansatz-instance job (:meth:`BlockWorker.measure`), shared verbatim
    with the serving layer (:mod:`repro.serve.engine`), whose coalesced
    flushes must measure exactly like a standalone sweep to stay bit-equal
    per request.

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


class BlockWorker:
    """Picklable task callable for the process executor backend.

    Holds only the sweep-wide artifacts (programs, observables, measurement
    settings); each task carries its *own* ``(job, seed, chunk)``, so a
    process pool ships O(chunk) state per submission rather than
    re-pickling the full (d, ...) prepared batch with every task -- which
    for density states (4^n entries each) would dominate the sweep.

    A job is :meth:`run` then :meth:`measure` -- the program and
    measurement steps a serve flush also runs, the first once over its
    stacked requests, the second per request job -- and the host writes the
    block into Q with :meth:`place`.
    """

    def __init__(self, strategy: Strategy, programs: list, cfg: ExecutionConfig):
        self.programs = programs
        self.observables = strategy.observables()
        self.backend = cfg.backend
        self.estimator = cfg.estimator
        self.shots = cfg.shots
        self.snapshots = cfg.snapshots
        # The already-resolved concrete namespace *name* (never "auto"):
        # plain strings pickle to process workers, and each worker resolves
        # its own process-wide namespace singleton lazily on first use.
        self.array_backend = cfg.resolved_array_backend

    def run(self, ansatz_index: int, payload: np.ndarray) -> np.ndarray:
        """The program step: one program over any number of payload rows,
        row-stably -- an Ansatz instance's evolved states, or the Pauli
        ensemble program's ``(rows, S)`` distinct-string expectations."""
        program = self.programs[ansatz_index]
        if isinstance(program, PauliProgram):
            return program.expectations(payload)
        # Batched templates consume raw (chunk, rows, cols) angles and run
        # encoding + Ansatz evolution in one stacked pass (evolve_batch).
        evolve = (
            self.backend.evolve_batch
            if getattr(program, "consumes_angles", False)
            else self.backend.evolve
        )
        # ``xp=None`` (the default numpy namespace) never reaches backend
        # signatures, so third-party backends without the keyword keep working.
        xp = None if self.array_backend == "numpy" else get_namespace(self.array_backend)
        return evolve(payload, program) if xp is None else evolve(payload, program, xp=xp)

    def measure(
        self, job: FeatureJob, seed: int | tuple[int, ...] | None, block: np.ndarray
    ) -> np.ndarray:
        """The measurement step: ``job``'s rows of :meth:`run`'s output,
        measured under the plan's ``seed`` for the job.

        An Ansatz instance's evolved states go through
        :func:`measure_block`.  The Pauli program's distinct-string
        expectations are already exact (:meth:`place` gathers them); with
        shots, every column draws its own estimate, each instance under its
        seed of the tuple (:meth:`~repro.quantum.pauli.PauliProgram.sample`).
        """
        program = self.programs[job.ansatz_index]
        if not isinstance(program, PauliProgram):
            rng = None if seed is None else np.random.default_rng(seed)
            return measure_block(
                block, self.observables, self.estimator, self.shots,
                self.snapshots, rng, self.backend,
            )
        if self.estimator == "exact":
            return block
        return program.sample(block, self.shots, seed)

    def __call__(
        self, task: tuple[FeatureJob, int | tuple[int, ...] | None, np.ndarray]
    ) -> tuple[FeatureJob, np.ndarray]:
        job, seed, payload = task
        return job, self.measure(job, seed, self.run(job.ansatz_index, payload))

    def place(self, job: FeatureJob, block: np.ndarray, out: np.ndarray) -> None:
        """Write ``job``'s finished block into its rows of Q-shaped ``out``:
        its instance's ``q`` columns, or every column -- by the Pauli
        program's signed gather when exact, as drawn with shots."""
        rows = out[job.lo : job.hi]
        program = self.programs[job.ansatz_index]
        if not isinstance(program, PauliProgram):
            q = len(self.observables)
            rows[:, job.ansatz_index * q : (job.ansatz_index + 1) * q] = block
        elif self.estimator == "exact":
            program.gather(block, rows)
        else:
            rows[...] = block


def feature_circuit_tasks(
    jobs: list[FeatureJob],
    programs: Sequence[Circuit | CompiledCircuit | None],
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
    the same heterogeneity the real execution pays.  A
    :class:`~repro.quantum.pauli.PauliProgram` job costs what it runs:
    chunk x S x n products over the ensemble's ``S`` distinct strings, no
    state.  Exact, it ships back its ``(chunk, S)`` values; with shots, each
    row stands for all ``p`` instances, so it is priced at ``p * q * shots``
    per row and ships back its ``(chunk, p * q)`` estimates -- the shots
    and bytes of the per-instance jobs it replaces.  A sharded backend's
    slab count carries through as ``num_shards``, which divides the
    simulation flops but adds remap-synchronisation latency per circuit.
    """
    q = num_observables
    backend = resolve_backend(backend)
    dim = backend.evolution_cost_weight(num_qubits)
    # Sampling repeats per fold scale on mitigated backends, exactly like
    # the evolutions -- the projection must price both.
    reps = backend.circuit_repetitions
    shots_per_circuit = 0 if estimator == "exact" else (
        shots * q * reps if estimator == "shots" else snapshots * reps
    )
    tasks = []
    for job in jobs:
        chunk = job.hi - job.lo
        program = programs[job.ansatz_index]
        width, shots_per_row = q, shots_per_circuit
        if isinstance(program, PauliProgram):
            flops = float(chunk * len(program.letters) * num_qubits)
            width = len(program.letters) if estimator == "exact" else len(program.index)
            shots_per_row = shots_per_circuit * len(program.index) // q
        elif getattr(program, "num_kernel_passes", None) is not None:
            # Vectorized density programs count every stacked pass directly
            # (Kraus operators and folded ZNE copies included), so they are
            # priced at the raw density state size -- multiplying by the
            # mitigated backend's fold weight too would double-count.
            flops = stacked_pass_flops(chunk, num_qubits, _program_ops(program), q)
        else:
            flops = float(chunk * dim * (4 * _program_ops(program) + q))
        tasks.append(
            CircuitTask(
                num_circuits=chunk,
                shots=shots_per_row,
                result_bytes=8 * chunk * width,
                classical_flops=flops,
                num_shards=backend.shards,
            )
        )
    return tasks


class _PrepareWorker:
    """Picklable chunked state preparation for expensive backends."""

    def __init__(self, backend: QuantumBackend):
        self.backend = backend

    def __call__(self, angles_chunk: np.ndarray) -> np.ndarray:
        return self.backend.prepare(angles_chunk)


def prepare_states(
    angles: np.ndarray,
    *,
    config: ExecutionConfig | None = None,
    device=None,
) -> np.ndarray:
    """Encode ``angles`` into ``config.backend``'s prepared representation.

    Configured like :func:`generate_features` (``config=`` / ``device=``).
    Backends whose preparation evolves a circuit per sample (density,
    mitigated: O(4^n) Kraus work each) fan the encoder stage out over the
    device's runtime, chunked like the job grid.  The statevector
    backend's vectorised ``encode_batch`` stays a single in-process call.
    """
    cfg, runtime = resolve_call(config, device, owner="prepare_states")
    return _prepare(np.asarray(angles, dtype=float), cfg, runtime)


def _prepare(
    angles: np.ndarray, cfg: ExecutionConfig, runtime: ExecutionRuntime | None
) -> np.ndarray:
    """:func:`prepare_states` for an already-resolved call."""
    backend = cfg.backend
    chunks = chunk_ranges(angles.shape[0], cfg.resolved_chunk_size)
    if not backend.parallel_prepare or len(chunks) <= 1:
        return backend.prepare(angles)
    if runtime is None:  # config= runs inline serial
        runtime = ExecutionRuntime()
    parts = runtime.map(_PrepareWorker(backend), [angles[lo:hi] for lo, hi in chunks])
    return np.concatenate(parts, axis=0)


def _sweep_stream(
    strategy: Strategy,
    payload: np.ndarray,
    cfg: ExecutionConfig,
    worker: BlockWorker,
    runtime: ExecutionRuntime | None,
    records: list[TaskCompletion] | None,
) -> tuple[Iterator[TaskCompletion], tuple[float, ...], ExecutionRuntime]:
    """Shared sweep setup: completion stream, cost vector, runtime.

    ``cfg`` is already validated (backend resolved, regime checked) -- the
    :class:`~repro.api.config.ExecutionConfig` constructor guarantees it.
    The ``worker``'s programs decide what ``payload`` is: prepared states
    for plain or compiled circuits, the raw ``(d, rows, cols)`` angle batch
    for batched programs, per-qubit Bloch vectors for the Pauli program.
    The :class:`SweepPlan` is built the same way every time, so the paths
    are directly comparable estimator by estimator.
    """
    if runtime is None:  # config= runs inline serial
        runtime = ExecutionRuntime()
    plan = SweepPlan.build(strategy, cfg, payload.shape[0], worker.programs, cfg.seed)
    # Each task ships its own chunk (a view in-process; O(chunk) pickled
    # bytes for process pools) instead of the whole prepared batch.
    stream = runtime.stream(
        worker,
        [
            (job, seed, payload[job.lo : job.hi])
            for job, seed in zip(plan.jobs, plan.seeds, strict=True)
        ],
        costs=plan.costs,
        policy=cfg.dispatch_policy,
        records=records,
    )
    return stream, plan.costs, runtime


def generate_features(
    strategy: Strategy,
    angles: np.ndarray,
    *,
    out: np.ndarray | None = None,
    return_report: bool = False,
    config: ExecutionConfig | None = None,
    device=None,
) -> np.ndarray | tuple[np.ndarray, DispatchReport]:
    """Algorithm 1: the full Q matrix for pooled-angle images ``angles``.

    ``angles`` is (d, rows, cols) with cols == strategy.num_qubits; returns
    (d, m).  Execution is configured by ``config=`` (an
    :class:`~repro.api.config.ExecutionConfig`; the sweep runs inline
    serial) or ``device=`` (a :class:`~repro.api.device.QuantumDevice`,
    which also supplies the runtime: ``QuantumDevice(cfg, runtime=rt)``
    binds a caller-owned pool, never shut down here); with neither, the
    config defaults apply (exact estimator, ideal statevector backend,
    ``compile="off"`` -- the naive reference semantics bit-for-bit).  A
    batch with no rows (d == 0) or a non-finite angle is rejected.  With
    ``return_report=True`` the measured-vs-projected
    :class:`~repro.hpc.runtime.DispatchReport` is returned alongside Q.

    With ``config.vectorize="auto"`` (and a backend that supports it) the
    sweep runs batched: encoding and Ansatz evolution happen in one
    structure-shared stacked pass per (Ansatz instance, chunk) job instead
    of sample at a time, or -- for an exact or finite-shot ensemble of
    Clifford instances -- on the Pauli engine with no state at all
    (:func:`sweep_mode`).  Same per-task seeds, numerically equal to the
    per-sample oracle to <= 1e-10 (exact) or draw for draw (shots).
    """
    cfg, runtime = resolve_call(config, device, owner="generate_features")
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 3:
        raise ValueError("angles must be (d, rows, cols)")
    if angles.shape[2] != strategy.num_qubits:
        raise ValueError(
            f"angles encode {angles.shape[2]} qubits, strategy expects {strategy.num_qubits}"
        )
    if angles.shape[0] == 0:
        raise ValueError(f"angles has no rows: got shape {angles.shape}")
    if not np.isfinite(angles).all():
        raise ValueError("angles must be finite: got NaN or inf")
    from repro.data.encoding import encoding_template

    template = encoding_template(angles.shape[1], angles.shape[2])
    _run_preflight(strategy, template, cfg, owner="generate_features")
    route = SweepRoute.build(strategy, cfg, template)
    return _assemble_features(
        strategy, route.payload(angles, runtime), cfg, route.programs, runtime,
        out, return_report,
    )


def evaluate_features(
    strategy: Strategy,
    states: np.ndarray,
    *,
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
    (``config=`` / ``device=``).

    Assembly is streaming: blocks land in the (optionally caller-supplied)
    preallocated ``out`` matrix as their futures resolve, in completion
    order.  ``out`` must be float64 of shape (d, p*q).

    ``config.vectorize`` is a no-op here: prepared states have already lost
    their encoding angles, so chunk evolution is batched exactly as before
    (one :class:`CompiledCircuit` pass per job); only the raw-angle entry
    point :func:`generate_features` can fold encoding into the stacked pass.
    """
    cfg, runtime = resolve_call(config, device, owner="evaluate_features")
    _run_preflight(strategy, None, cfg, owner="evaluate_features")
    states = cfg.backend.coerce_states(np.asarray(states))
    return _assemble_features(
        strategy, states, cfg, sweep_programs(strategy, cfg), runtime, out, return_report
    )


def _assemble_features(
    strategy: Strategy,
    payload: np.ndarray,
    cfg: ExecutionConfig,
    programs: list,
    runtime: ExecutionRuntime | None,
    out: np.ndarray | None,
    return_report: bool,
) -> np.ndarray | tuple[np.ndarray, DispatchReport]:
    """Streaming Q-matrix assembly shared by every execution path.

    ``payload`` is whatever ``programs`` consume (see :func:`_sweep_stream`);
    axis 0 indexes data points and blocks scatter into ``out`` as futures
    resolve (:meth:`BlockWorker.place`).
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
    worker = BlockWorker(strategy, programs, cfg)
    stream, costs, runtime = _sweep_stream(strategy, payload, cfg, worker, runtime, records)
    # Timed window covers dispatch + assembly only: binding/compilation,
    # RNG spawning and (via warm()) pool construction are one-time setup
    # the replayed makespan never models, so including them would inflate
    # wall_over_replay.
    runtime.warm()
    start = time.perf_counter()
    for completion in stream:
        worker.place(*completion.result, out)
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
    same ``config=``/``device=`` resolution, same preflight).  Prepared
    states never take the Pauli engine, so every job is one Ansatz
    instance's block.

    Setup (validation, preflight, binding/compilation, cost model) runs
    eagerly at the call, so bad arguments raise here rather than at the
    first ``next()``.
    """
    cfg, runtime = resolve_call(config, device, owner="iter_feature_blocks")
    _run_preflight(strategy, None, cfg, owner="iter_feature_blocks")
    states = cfg.backend.coerce_states(np.asarray(states))
    worker = BlockWorker(strategy, sweep_programs(strategy, cfg), cfg)
    stream, _, _ = _sweep_stream(strategy, states, cfg, worker, runtime, None)
    return (completion.result for completion in stream)
