"""Unified quantum execution backends for the Q-matrix sweep.

The paper treats noisy execution as a first-class regime (Table II,
Sec. IV.B), but the original code base forked it into a separate function
that bypassed the compiled engine, the persistent runtime and the scheduler
cost model.  This module collapses the fork: a :class:`QuantumBackend` is
the single substrate abstraction the feature pipeline talks to, and every
implementation streams through the same ``FeatureJob`` grid,
:class:`~repro.hpc.cluster.CircuitTask` cost model and
:class:`~repro.hpc.runtime.ExecutionRuntime` dispatch.

Three implementations cover the paper's regimes:

* :class:`StatevectorBackend` -- ideal pure-state simulation; wraps the
  compiled-circuit engine (the default, bit-for-bit the historical path);
* :class:`DensityMatrixBackend` -- exact Kraus evolution under a gate-level
  :class:`~repro.quantum.noise.NoiseModel` (O(4^n) state, the NISQ
  deployment path);
* :class:`MitigatedBackend` -- zero-noise extrapolation layered over any
  other backend: circuits are unitarily folded per noise scale
  (:func:`~repro.quantum.mitigation.fold_circuit`) and expectations are
  Richardson-extrapolated to zero
  (:func:`~repro.quantum.mitigation.richardson_weights`).

Backends are small frozen dataclasses of plain NumPy payloads, hence
picklable -- the property that lets one parent-side backend instance be
shipped to every process-pool worker.  The prepared-state *representation*
is backend-specific (``(d, 2^n)`` statevectors, ``(d, 2^n, 2^n)`` density
matrices, ``(d, scales, 2^n, 2^n)`` folded stacks); ``coerce_states`` lifts
plain statevectors into it so pre-encoded data keeps working everywhere.

Noise placement is gate-level, so density-based backends refuse fused
:class:`~repro.quantum.compile.CompiledCircuit` programs
(``supports_compile = False``): fusing gates would silently move the Kraus
insertion points.  The feature pipeline honours the flag by disabling
compilation for such backends.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.hpc.cluster import simulation_dim
from repro.quantum.batched import (
    GLOBAL_PARAMETRIC_CACHE,
    ParametricCompiledCircuit,
    compile_parametric,
    extend_template,
)
from repro.quantum.circuit import Circuit
from repro.quantum.compile import (
    DEFAULT_FUSION_WIDTH,
    CompiledCircuit,
    resolve_fusion_width,
)
from repro.quantum.density import (
    BatchedDensityProgram,
    compile_density_template,
    concat_density_programs,
    fold_density_program,
    pure_density,
    run_batched_density,
    run_circuit_density,
)
from repro.quantum.mitigation import fold_circuit, richardson_weights
from repro.quantum.noise import NoiseModel
from repro.quantum.observables import PauliString, expectation
from repro.quantum.sampling import sample_expectations
from repro.quantum.shadows import collect_shadows, estimate_pauli
from repro.quantum.statevector import run_circuit
from repro.xp import get_namespace

__all__ = [
    "QuantumBackend",
    "StatevectorBackend",
    "DistributedStatevectorBackend",
    "DensityMatrixBackend",
    "MitigatedBackend",
    "MitigatedBatchProgram",
    "resolve_backend",
    "backend_to_dict",
    "backend_from_dict",
]


class QuantumBackend(ABC):
    """One execution substrate: state preparation, evolution, measurement.

    The contract the feature pipeline relies on:

    * ``prepare(angles)`` / ``coerce_states(states)`` produce a batch-first
      prepared-state array (axis 0 indexes data points, whatever the
      trailing representation), so chunk slicing ``states[lo:hi]`` works for
      every backend;
    * ``evolve``/``expectation``/``sample`` are pure functions of their
      inputs -- no hidden state -- so results are independent of the
      dispatch schedule;
    * instances are picklable value objects, shipped once per sweep to
      process workers.
    """

    #: Identifier used in logs and error messages.
    name: str = "backend"
    #: State representation driving the dispatch cost model
    #: (see :func:`repro.hpc.cluster.simulation_dim`).
    representation: str = "statevector"
    #: Whether gate-fused ``CompiledCircuit`` programs preserve this
    #: backend's semantics (False for gate-level noise insertion).
    supports_compile: bool = True
    #: Whether the classical-shadow estimator is available (pure states only).
    supports_shadows: bool = False
    #: Whether :meth:`batch_program` builds a program :meth:`evolve` runs
    #: over a whole raw-angle chunk in stacked passes -- i.e. whether
    #: ``vectorize="auto"`` batches this backend's sweep.  The program *kind*
    #: is backend-specific (fused
    #: :class:`~repro.quantum.batched.ParametricCompiledCircuit` for
    #: statevectors, fusion-free
    #: :class:`~repro.quantum.density.BatchedDensityProgram` for gate-level
    #: noise, where the per-gate Kraus insertion points must survive).
    supports_vectorize: bool = False
    #: Whether exact and finite-shot multi-instance sweeps of Clifford
    #: instances may skip :meth:`evolve`, :meth:`expectation` and
    #: :meth:`sample` for the Heisenberg-picture Pauli engine
    #: (:mod:`repro.quantum.pauli`): true only where those methods compute
    #: ideal, noise-free, unsharded pure-state expectations.
    supports_pauli: bool = False
    #: Whether :meth:`prepare` is expensive enough (per-sample circuit
    #: evolution) to be worth fanning out across executor workers.  False
    #: for the statevector backend, whose ``encode_batch`` is already one
    #: vectorised kernel pass.
    parallel_prepare: bool = False
    #: Underlying circuit executions per logical circuit (1 except for
    #: mitigation, which runs one folded copy per noise scale).  Feeds the
    #: pipeline's resource accounting.
    circuit_repetitions: int = 1
    #: Statevector slabs one evolution is split across (1 except for the
    #: sharded :class:`DistributedStatevectorBackend`).  Read by the cost
    #: model (``CircuitTask.num_shards``) and the register-width lint
    #: (RPA101).
    shards: int = 1

    # ------------------------------------------------------------ preparation
    def prepare(self, angles: np.ndarray) -> np.ndarray:
        """Encode a ``(d, rows, cols)`` angle batch into prepared states.

        Default: run the explicit Fig. 7 encoder circuit per sample through
        :meth:`run_bound`, so encoder gates see the backend's full regime
        (Kraus noise, folding).  The statevector backend overrides this
        with the vectorised batch kernel.
        """
        from repro.data.encoding import encoding_circuit

        angles = np.asarray(angles, dtype=float)
        if angles.ndim != 3:
            raise ValueError("angles must be (d, rows, cols)")
        return np.stack([self.run_bound(encoding_circuit(a)) for a in angles])

    @abstractmethod
    def coerce_states(self, states: np.ndarray) -> np.ndarray:
        """Accept pre-encoded ``(d, 2^n)`` statevectors *or* an array already
        in this backend's representation; return the latter.

        Lifting pure statevectors happens noiselessly (the encoder already
        ran); use :meth:`prepare` to apply encoder-stage noise.
        """

    @abstractmethod
    def run_bound(self, circuit: Circuit) -> np.ndarray:
        """One prepared state: evolve ``circuit`` from ``|0...0>``."""

    # -------------------------------------------------------------- evolution
    @abstractmethod
    def evolve(self, payload: np.ndarray, program, *, xp=None) -> np.ndarray:
        """Run one program over a payload batch (data points on axis 0).

        The program decides what the payload is: a bound ``Circuit`` or a
        ``CompiledCircuit`` evolves prepared states (:meth:`prepare`), and
        the artifact :meth:`batch_program` built encodes *and* evolves a raw
        ``(chunk, rows, cols)`` angle slice in stacked passes.  ``None``
        returns the payload.  ``xp`` selects the array namespace
        (:mod:`repro.xp`; ``None`` is NumPy); results return as NumPy.
        """

    def batch_program(
        self,
        template: Circuit,
        ansatz: Circuit | None,
        compile: str | int = "auto",
    ):
        """Compile encoder ``template`` + bound ``ansatz`` into the program
        :meth:`evolve` runs on raw angle chunks (the ``vectorize="auto"``
        artifact).

        Backend-specific: the statevector backend fuses into a
        :class:`~repro.quantum.batched.ParametricCompiledCircuit`; density
        backends build a fusion-free
        :class:`~repro.quantum.density.BatchedDensityProgram` so Kraus
        insertion points stay per-gate; the mitigated backend stacks one
        folded density program per noise scale.
        """
        raise NotImplementedError(
            f"backend {self.name!r} has no batched structure-shared execution "
            f"(supports_vectorize=False)"
        )

    # ------------------------------------------------------------ measurement
    @abstractmethod
    def expectation(self, evolved: np.ndarray, observable: PauliString) -> np.ndarray:
        """Analytic ``tr(O rho_i)`` per batch entry; returns shape (batch,)."""

    def sample(
        self,
        evolved: np.ndarray,
        observable: PauliString,
        shots: int,
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        """Finite-shot estimates per batch entry (``shots == 0`` -> exact).

        One binomial draw per entry from this backend's own
        :meth:`expectation` (:func:`~repro.quantum.sampling.sample_expectations`,
        the sampler every backend shares); the identity is 1 with no draw.
        """
        if shots < 0:
            raise ValueError(f"shots={shots} must be >= 0")
        if observable.is_identity:
            return np.ones(evolved.shape[0])
        return sample_expectations(self.expectation(evolved, observable), shots, rng)

    def shadow_block(
        self,
        evolved: np.ndarray,
        observables: Sequence[PauliString],
        snapshots: int,
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        """Classical-shadow feature block; pure-state backends only.

        The pipeline rejects the combination up front with a detailed
        message (``repro.api.config.check_regime``); this guard covers
        direct calls only.
        """
        raise NotImplementedError(
            f"backend {self.name!r} has no classical-shadow support"
        )

    # ------------------------------------------------------------- cost model
    def evolution_cost_weight(self, num_qubits: int) -> float:
        """State-size factor entering the per-task dispatch cost.

        ``2^n`` amplitudes for statevectors, ``4^n`` entries for density
        matrices -- the scheduler prices noisy tasks accordingly.
        """
        return float(simulation_dim(num_qubits, self.representation))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


@dataclass(frozen=True)
class StatevectorBackend(QuantumBackend):
    """Ideal pure-state execution over the compiled-circuit engine.

    The historical default path, bit-for-bit: vectorised Fig. 7 encoding,
    fused-block (or naive) evolution, analytic/shot/shadow measurement.
    """

    name = "statevector"
    representation = "statevector"
    supports_compile = True
    supports_shadows = True
    supports_vectorize = True
    supports_pauli = True

    def prepare(self, angles: np.ndarray) -> np.ndarray:
        from repro.data.encoding import encode_batch

        return encode_batch(angles)

    def coerce_states(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=np.complex128)
        if states.ndim != 2:
            raise ValueError(
                f"statevector backend expects (d, 2**n) states, got shape {states.shape}"
            )
        return states

    def run_bound(self, circuit: Circuit) -> np.ndarray:
        return run_circuit(circuit)

    def evolve(
        self,
        payload: np.ndarray,
        program: Circuit | CompiledCircuit | ParametricCompiledCircuit | None,
        *,
        xp=None,
    ) -> np.ndarray:
        if program is None:
            return payload
        if isinstance(program, ParametricCompiledCircuit):
            return program.apply_batch(payload, xp=xp)
        if isinstance(program, CompiledCircuit):
            # Device arrays stay inside the kernel: callers measure NumPy.
            xp = xp or get_namespace("numpy")
            return xp.to_numpy(program.apply(payload, xp=xp))
        # Raw-circuit evolution is the naive reference walk and stays on the
        # host namespace regardless of ``xp`` (it is never the hot path).
        return run_circuit(program, state=payload)

    def batch_program(
        self,
        template: Circuit,
        ansatz: Circuit | None,
        compile: str | int = "auto",
    ) -> ParametricCompiledCircuit:
        # The batched engine is fusion by construction, so compile="off"
        # only means "no explicit width choice" -- the default applies.
        width = resolve_fusion_width(compile) or DEFAULT_FUSION_WIDTH
        return compile_parametric(extend_template(template, ansatz), max_width=width)

    def expectation(self, evolved: np.ndarray, observable: PauliString) -> np.ndarray:
        return np.asarray(expectation(evolved, observable))

    def shadow_block(
        self,
        evolved: np.ndarray,
        observables: Sequence[PauliString],
        snapshots: int,
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        block = np.empty((evolved.shape[0], len(observables)))
        for i in range(evolved.shape[0]):
            shadow = collect_shadows(evolved[i], snapshots, rng)
            for b, obs in enumerate(observables):
                block[i, b] = estimate_pauli(shadow, obs)
        return block


@dataclass(frozen=True)
class DistributedStatevectorBackend(StatevectorBackend):
    """Sharded pure-state execution: the statevector slab-split across ranks.

    Semantically identical to :class:`StatevectorBackend` (the property the
    tests pin to <=1e-10) but every Ansatz evolution runs through
    :func:`~repro.quantum.distributed.run_sharded`: the chunk's states are
    slab-partitioned over ``shards`` SPMD ranks, fused blocks execute in
    communication-free gate groups, and qubit remaps happen only at group
    boundaries.  Encoding and measurement stay node-local (encoding is one
    vectorised kernel pass; measurement sees the gathered states), matching
    the paper's split where only the state evolution outgrows one node.

    ``supports_vectorize`` and ``supports_pauli`` are False: the
    structure-shared batched engine and the Pauli engine are
    single-address-space fast paths, and sharding replaces them as the
    scale-out axis.  The scheduler prices the slab split through
    ``CircuitTask.num_shards`` instead of a changed cost weight, so the
    speedup and its sync overhead stay visible to dispatch.
    """

    shards: int = 2

    name = "distributed"
    supports_vectorize = False
    supports_pauli = False

    def __post_init__(self) -> None:
        shards = self.shards
        if not isinstance(shards, (int, np.integer)) or isinstance(shards, bool):
            raise ValueError(f"shards must be an int, got {shards!r}")
        shards = int(shards)
        if shards < 1 or shards & (shards - 1):
            raise ValueError(f"shards={shards} must be a power of two >= 1")
        object.__setattr__(self, "shards", shards)

    def run_bound(self, circuit: Circuit) -> np.ndarray:
        from repro.quantum.statevector import zero_state

        return self.evolve(zero_state(circuit.num_qubits), circuit)

    def evolve(
        self,
        payload: np.ndarray,
        program: Circuit | CompiledCircuit | ParametricCompiledCircuit | None,
        *,
        xp=None,
    ) -> np.ndarray:
        # The inherited batched program runs unsharded; otherwise ``xp`` is
        # unused: the sharded SPMD kernels are a host-NumPy scale-out axis.
        if program is None or isinstance(program, ParametricCompiledCircuit):
            return super().evolve(payload, program, xp=xp)
        from repro.quantum.distributed import run_sharded

        return run_sharded(program, payload, self.shards)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DistributedStatevectorBackend(shards={self.shards})"


@dataclass(frozen=True)
class DensityMatrixBackend(QuantumBackend):
    """Exact gate-level Kraus evolution: the NISQ deployment path.

    ``noise_model = None`` gives ideal (but O(4^n)) evolution -- the
    equivalence oracle the property suite checks against the statevector
    backend.  Preparation runs the explicit Fig. 7 encoder circuit per
    sample so encoder gates pick up noise too.

    ``vectorize="auto"`` runs the sweep through the fusion-free batched
    engine (:class:`~repro.quantum.density.BatchedDensityProgram`): the
    whole chunk evolves gate by gate as one stacked tensor, so every
    gate/Kraus operator costs one ``(B, 4^n)`` kernel pass instead of ``B``
    Python-level walks -- same insertion points, same numerics to 1e-10
    (``benchmarks/test_density_batched_speedup.py``).
    """

    noise_model: NoiseModel | None = None

    name = "density"
    representation = "density"
    supports_compile = False
    supports_shadows = False
    supports_vectorize = True
    parallel_prepare = True

    def coerce_states(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=np.complex128)
        if states.ndim == 2:  # pre-encoded pure statevectors: lift noiselessly
            return np.stack([pure_density(s) for s in states])
        if states.ndim == 3 and states.shape[1] == states.shape[2]:
            return states
        raise ValueError(
            f"density backend expects (d, 2**n) statevectors or (d, 2**n, 2**n) "
            f"density matrices, got shape {states.shape}"
        )

    def run_bound(self, circuit: Circuit) -> np.ndarray:
        return run_circuit_density(circuit, noise_model=self.noise_model)

    def evolve(
        self, payload: np.ndarray, program: Circuit | BatchedDensityProgram | None, *, xp=None
    ) -> np.ndarray:
        if program is None:
            return payload
        if isinstance(program, BatchedDensityProgram):
            return run_batched_density(program, payload, xp=xp)
        if isinstance(program, CompiledCircuit):
            raise TypeError(
                "density backends evolve raw circuits only: gate fusion would "
                "move the per-gate Kraus insertion points (supports_compile=False)"
            )
        return np.stack(
            [
                run_circuit_density(
                    program, rho=rho, noise_model=self.noise_model, xp=xp
                )
                for rho in payload
            ]
        )

    def batch_program(
        self,
        template: Circuit,
        ansatz: Circuit | None,
        compile: str | int = "auto",
    ) -> BatchedDensityProgram:
        # Validate the knob so a typo fails identically on every backend;
        # fusion itself never applies here (supports_compile=False).
        resolve_fusion_width(compile)
        return compile_density_template(
            extend_template(template, ansatz),
            self.noise_model,
            cache=GLOBAL_PARAMETRIC_CACHE,
        )

    def expectation(self, evolved: np.ndarray, observable: PauliString) -> np.ndarray:
        # tr(O rho) batched: one einsum over the whole chunk.
        matrix = observable.to_matrix()
        return np.real(np.einsum("ij,bji->b", matrix, evolved))


@dataclass(frozen=True)
class MitigatedBatchProgram:
    """One folded :class:`BatchedDensityProgram` per ZNE noise scale.

    The ``vectorize="auto"`` artifact of :class:`MitigatedBackend` over a
    density backend: ``programs[k]`` is the *whole* per-sample circuit
    (encoder and Ansatz folded separately, then concatenated -- the same
    per-segment folding the per-sample path applies via ``fold_circuit``)
    at ``scales[k]``.  Evolving all of them yields the ``(d, scales, ...)``
    stack the mitigated estimators extrapolate over.
    """

    programs: tuple[BatchedDensityProgram, ...]

    @property
    def num_qubits(self) -> int:
        return self.programs[0].num_qubits

    @property
    def num_slots(self) -> int:
        return self.programs[0].num_slots

    @property
    def num_kernel_passes(self) -> int:
        """Total stacked passes across all fold scales (the cost model's
        per-evolution count; folded copies are already included, so this
        must be priced at the *wrapped* backend's state size)."""
        return sum(p.num_kernel_passes for p in self.programs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MitigatedBatchProgram(scales={len(self.programs)}, "
            f"passes={self.num_kernel_passes})"
        )


@dataclass(frozen=True)
class MitigatedBackend(QuantumBackend):
    """Zero-noise extrapolation layered over another backend.

    Every circuit segment (encoder during :meth:`prepare`, Ansatz during
    :meth:`evolve`) is unitarily folded at each scale in ``scales`` and
    executed on the wrapped ``backend``; expectations (and shot estimates)
    are Richardson-extrapolated to scale 0 across the stack.  Per-segment
    folding amplifies each segment's gate noise by its scale, the local
    variant of the global ``C (C^dag C)^k`` scheme in
    :func:`~repro.quantum.mitigation.zne_expectation`.

    Prepared states carry one copy per scale -- shape
    ``(d, len(scales), *inner)`` -- so memory is ``len(scales)`` times the
    wrapped backend's.  Mitigated values are extrapolations and may leave
    the raw expectation's [-1, 1] range slightly.
    """

    backend: QuantumBackend = field(default_factory=DensityMatrixBackend)
    scales: tuple[int, ...] = (1, 3, 5)

    name = "mitigated"
    supports_compile = False
    supports_shadows = False
    parallel_prepare = True

    def __post_init__(self) -> None:
        if not isinstance(self.backend, QuantumBackend):
            raise TypeError(f"backend must be a QuantumBackend, got {self.backend!r}")
        if isinstance(self.backend, MitigatedBackend):
            raise TypeError("cannot nest MitigatedBackend inside MitigatedBackend")
        scales = tuple(int(s) for s in self.scales)
        if len(scales) < 2 or len(set(scales)) != len(scales):
            raise ValueError(f"scales={scales} must hold >= 2 distinct values")
        if any(s < 1 or s % 2 == 0 for s in scales):
            raise ValueError(f"scales={scales} must be odd positive integers")
        object.__setattr__(self, "scales", scales)
        # Extrapolation weights depend only on the (frozen) scales, so they
        # are computed once here rather than per chunk x observable.
        object.__setattr__(
            self, "_zne_weights", richardson_weights(np.asarray(scales, dtype=float))
        )

    @property
    def representation(self) -> str:  # type: ignore[override]
        return self.backend.representation

    @property
    def supports_vectorize(self) -> bool:  # type: ignore[override]
        # Folding happens at density-step level, so the batched mitigated
        # path exists exactly when the wrapped backend is the density engine
        # (statevector wrapping keeps the per-sample fold_circuit path).
        return isinstance(self.backend, DensityMatrixBackend)

    @property
    def circuit_repetitions(self) -> int:  # type: ignore[override]
        return len(self.scales) * self.backend.circuit_repetitions

    @property
    def shards(self) -> int:  # type: ignore[override]
        # Every folded copy runs on the wrapped backend's slabs.
        return self.backend.shards

    def evolution_cost_weight(self, num_qubits: int) -> float:
        # One evolution per scale, each `scale` times the gates.
        return float(sum(self.scales)) * self.backend.evolution_cost_weight(num_qubits)

    def coerce_states(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=np.complex128)
        num_scales = len(self.scales)
        # A per-scale stack from prepare() has exactly two more axes than a
        # single inner-representation state (batch + scale); matching on
        # the scale axis alone would misread e.g. 1-qubit (d, 2, 2) density
        # batches as stacks whenever 2**n happens to equal len(scales).
        inner_state_ndim = 2 if self.backend.representation == "density" else 1
        if states.ndim == inner_state_ndim + 2 and states.shape[1] == num_scales:
            return states
        # Pure statevectors (or inner-representation states): lift through
        # the wrapped backend, then replicate across scales -- a noiseless
        # input state is the same at every fold scale.
        inner = self.backend.coerce_states(states)
        return np.repeat(inner[:, None, ...], num_scales, axis=1)

    def run_bound(self, circuit: Circuit) -> np.ndarray:
        return np.stack(
            [self.backend.run_bound(fold_circuit(circuit, s)) for s in self.scales]
        )

    def evolve(
        self, payload: np.ndarray, program: Circuit | MitigatedBatchProgram | None, *, xp=None
    ) -> np.ndarray:
        if program is None:
            return payload
        if isinstance(program, MitigatedBatchProgram):
            # (d, scales, 2^n, 2^n): the same stack shape prepare()+evolve()
            # produce, so the extrapolating estimators index it unchanged.
            return np.stack(
                [run_batched_density(p, payload, xp=xp) for p in program.programs],
                axis=1,
            )
        if isinstance(program, CompiledCircuit):
            raise TypeError(
                "mitigated backends fold raw circuits; compiled programs are "
                "not foldable (supports_compile=False)"
            )
        return np.stack(
            [
                self.backend.evolve(payload[:, k], fold_circuit(program, s), xp=xp)
                for k, s in enumerate(self.scales)
            ],
            axis=1,
        )

    def batch_program(
        self,
        template: Circuit,
        ansatz: Circuit | None,
        compile: str | int = "auto",
    ) -> MitigatedBatchProgram:
        if not isinstance(self.backend, DensityMatrixBackend):
            raise NotImplementedError(
                "batched mitigated execution requires a wrapped "
                "DensityMatrixBackend (supports_vectorize is False otherwise)"
            )
        resolve_fusion_width(compile)  # validate the knob; fusion never applies
        noise = self.backend.noise_model
        encoder = compile_density_template(template, noise, cache=GLOBAL_PARAMETRIC_CACHE)
        suffix = None
        if ansatz is not None:
            suffix = compile_density_template(ansatz, noise, cache=GLOBAL_PARAMETRIC_CACHE)
        programs = []
        for s in self.scales:
            # Per-segment folding, exactly as the per-sample path: encoder
            # folds during prepare(), Ansatz folds during evolve().
            parts = [fold_density_program(encoder, s)]
            if suffix is not None:
                parts.append(fold_density_program(suffix, s))
            programs.append(concat_density_programs(*parts))
        return MitigatedBatchProgram(programs=tuple(programs))

    def _extrapolate(self, values: list[np.ndarray]) -> np.ndarray:
        """Richardson-extrapolate per-scale ``(d,)`` values to scale 0.

        A weighted sum accumulated elementwise in scale order, so a row's
        bits never depend on how many rows share the call (a matrix product
        over the stack runs as a dot for one row and a gemv for more).
        """
        total = self._zne_weights[0] * values[0]
        for weight, value in zip(self._zne_weights[1:], values[1:], strict=True):
            total = total + weight * value
        return total

    def expectation(self, evolved: np.ndarray, observable: PauliString) -> np.ndarray:
        return self._extrapolate(
            [
                self.backend.expectation(evolved[:, k], observable)
                for k in range(len(self.scales))
            ]
        )

    def sample(
        self,
        evolved: np.ndarray,
        observable: PauliString,
        shots: int,
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        """The wrapped backend's draws at every fold scale, in scale order
        from one stream, extrapolated like :meth:`expectation`."""
        from repro.utils.rng import as_rng

        rng = as_rng(rng) if shots else rng
        return self._extrapolate(
            [
                self.backend.sample(evolved[:, k], observable, shots, rng)
                for k in range(len(self.scales))
            ]
        )


def backend_to_dict(backend: QuantumBackend | str | None) -> dict:
    """JSON-safe description of a backend (the ``ExecutionConfig`` wire form).

    Covers the three built-in regimes; a custom backend participates by
    providing its own ``to_dict`` returning a dict with a distinct
    ``kind`` (and a matching branch in a custom loader).
    """
    backend = resolve_backend(backend)
    # Exact-type matches only: a *subclass* of a built-in must provide its
    # own to_dict (below) rather than being silently flattened to the base
    # kind and losing its behavior on the round trip.
    if type(backend) is StatevectorBackend:
        return {"kind": "statevector"}
    if type(backend) is DistributedStatevectorBackend:
        return {"kind": "distributed", "shards": int(backend.shards)}
    if type(backend) is DensityMatrixBackend:
        noise = backend.noise_model
        return {
            "kind": "density",
            "noise_model": None if noise is None else noise.to_dict(),
        }
    if type(backend) is MitigatedBackend:
        return {
            "kind": "mitigated",
            "scales": [int(s) for s in backend.scales],
            "backend": backend_to_dict(backend.backend),
        }
    to_dict = getattr(backend, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    raise TypeError(
        f"backend {type(backend).__name__} is not serializable; "
        f"implement a to_dict() returning a JSON-safe dict"
    )


def backend_from_dict(data: dict | None) -> QuantumBackend:
    """Inverse of :func:`backend_to_dict` (``None`` -> the ideal default)."""
    if data is None:
        return StatevectorBackend()
    kind = data.get("kind")
    if kind == "statevector":
        return StatevectorBackend()
    if kind == "distributed":
        return DistributedStatevectorBackend(shards=int(data.get("shards", 2)))
    if kind == "density":
        noise = data.get("noise_model")
        return DensityMatrixBackend(
            noise_model=None if noise is None else NoiseModel.from_dict(noise)
        )
    if kind == "mitigated":
        return MitigatedBackend(
            backend=backend_from_dict(data.get("backend")),
            scales=tuple(int(s) for s in data.get("scales", (1, 3, 5))),
        )
    raise ValueError(
        f"unknown backend kind {kind!r}; expected one of "
        f"('statevector', 'distributed', 'density', 'mitigated')"
    )


def resolve_backend(backend: QuantumBackend | str | None) -> QuantumBackend:
    """Coerce the user-facing ``backend`` knob to an instance.

    ``None`` and ``"statevector"`` give the ideal default; other regimes
    need configuration (a noise model, fold scales), so they must be passed
    as instances.
    """
    if backend is None or backend == "statevector":
        return StatevectorBackend()
    if isinstance(backend, QuantumBackend):
        return backend
    raise ValueError(
        f'backend must be a QuantumBackend instance, "statevector" or None, '
        f"got {backend!r}"
    )
