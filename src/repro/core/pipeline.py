"""End-to-end hybrid HPC-QC pipeline orchestrator.

This is the SC-track system layer: it stages the post-variational workflow
(encode -> dispatch circuit ensemble -> gather Q -> convex fit) through the
HPC substrate, instruments every stage (profiling guide: measure first), and
-- because real quantum hardware is replaced by the simulator -- also
projects wall-clock onto the deterministic cluster model so dispatch
policies can be compared reproducibly.

The quantum workload dispatched per node is exactly what a real deployment
would ship: (fixed circuit, data chunk, shot budget) triples returning
Q-matrix blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.api.config import ExecutionConfig, resolve_call
from repro.core.features import (
    feature_circuit_tasks,
    feature_jobs,
    generate_features,
    unbound_programs,
)
from repro.core.strategies import Strategy
from repro.hpc.cluster import CircuitTask, ClusterModel
from repro.hpc.profiling import Counter, StageTimer, dispatch_summary
from repro.hpc.runtime import DispatchReport
from repro.ml.logistic import LogisticRegression, SoftmaxRegression
from repro.ml.metrics import accuracy

__all__ = ["PipelineReport", "HybridPipeline", "PIPELINE_DEFAULT_CONFIG"]

#: The system-layer defaults: the ensemble circuits are fixed, so each is
#: fused once and reused for every chunk/worker (``compile="auto"``), the
#: Q-matrix sweep runs batched where the backend allows it
#: (``vectorize="auto"``), and the analytic projection's default policy
#: (LPT) also orders live dispatch.
PIPELINE_DEFAULT_CONFIG = ExecutionConfig(
    compile="auto", dispatch_policy="lpt", vectorize="auto"
)


@dataclass
class PipelineReport:
    """Everything a run log needs: sizes, timings, projected makespan.

    ``dispatch`` carries the live runtime's measured per-task wall-clock,
    reconciling the analytic makespan projection against reality (see
    :meth:`repro.hpc.runtime.DispatchReport.reconcile`).
    """

    num_features: int
    num_ansatze: int
    num_observables: int
    num_train: int
    timer: StageTimer
    counter: Counter
    projected_makespan: float | None = None
    scheduling_policy: str | None = None
    dispatch: DispatchReport | None = None

    def summary(self) -> str:
        lines = [
            f"ensemble: p={self.num_ansatze} x q={self.num_observables} "
            f"= m={self.num_features} features, d={self.num_train} samples",
            self.timer.report(),
        ]
        if self.projected_makespan is not None:
            lines.append(
                f"projected cluster makespan ({self.scheduling_policy}): "
                f"{self.projected_makespan:.4f}s"
            )
        if self.dispatch is not None:
            lines.append(dispatch_summary(self.dispatch))
        return "\n".join(lines)


@dataclass
class HybridPipeline:
    """Strategy + config + device + classical head, fully instrumented.

    Execution is configured by ``config=`` (an :class:`ExecutionConfig`,
    run inline serial; :data:`PIPELINE_DEFAULT_CONFIG` -- compiled engine,
    LPT dispatch -- when omitted) or ``device=`` (a
    :class:`~repro.api.device.QuantumDevice` supplying both config and
    runtime; ``QuantumDevice(cfg, runtime=rt)`` shares a caller-owned
    pool).  Both are read at every fit/predict, so replacing either
    between fits takes effect and ``None`` restores the pipeline defaults;
    holding both at once is the construction-time ``TypeError``, raised by
    the next fit/predict.  The pipeline owns no runtime, so it has nothing
    to close.
    """

    strategy: Strategy = None  # type: ignore[assignment]
    num_classes: int = 2
    l2: float = 1.0
    cluster: ClusterModel | None = None
    config: ExecutionConfig | None = None
    device: Any = None
    report_: PipelineReport | None = field(default=None, repr=False)
    head_: object = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.strategy is None:
            raise ValueError("strategy is required")
        self._execution()

    def _execution(self) -> tuple[ExecutionConfig, dict[str, Any]]:
        """The current config and the ``config=`` / ``device=`` keyword
        that runs it, re-read at every sweep."""
        cfg, _ = resolve_call(
            self.config, self.device, owner="HybridPipeline", defaults=PIPELINE_DEFAULT_CONFIG
        )
        return cfg, {"config": cfg} if self.device is None else {"device": self.device}

    # ------------------------------------------------------------ workload
    def circuit_tasks(self, num_samples: int) -> list[CircuitTask]:
        """The dispatch units a real cluster would receive.

        Priced by the same cost model (chunk x Ansatz depth x shot budget)
        that orders live dispatch, so the analytic projection and the real
        submission order agree by construction; the unbound Ansatz
        (:func:`~repro.core.features.unbound_programs`) prices every
        instance without compiling anything just for a projection.  It runs
        nothing, so a closed device still prices it.
        """
        cfg = self.device.config if self.device is not None else self._execution()[0]
        jobs = feature_jobs(
            self.strategy.num_ansatze, num_samples, cfg.resolved_chunk_size
        )
        return feature_circuit_tasks(
            jobs,
            unbound_programs(self.strategy),
            self.strategy.num_qubits,
            self.strategy.num_observables,
            cfg.estimator,
            cfg.shots,
            cfg.snapshots,
            cfg.backend,
        )

    # ----------------------------------------------------------------- fit
    def fit(self, angles: np.ndarray, y: np.ndarray) -> HybridPipeline:
        timer = StageTimer()
        counter = Counter()
        angles = np.asarray(angles, dtype=float)
        y = np.asarray(y)

        cfg, source = self._execution()
        with timer.stage("generate_features"):
            q_matrix, dispatch = generate_features(
                self.strategy, angles, return_report=True, **source
            )
        d, p = angles.shape[0], self.strategy.num_ansatze
        # Mitigated backends execute every logical circuit once per fold
        # scale (and draw shots at each scale), so resource accounting
        # multiplies by the backend's repetition factor.
        repetitions = cfg.backend.circuit_repetitions
        counter.add("circuits_executed", p * d * repetitions)
        # Measurement budgets differ by estimator: direct measurement pays
        # ``shots`` per (data point, Ansatz, observable) = shots * Q.size,
        # while classical shadows pay ``snapshots`` per (data point, Ansatz)
        # -- the batch is reused across all q observables (Proposition 2).
        if cfg.estimator == "exact":
            shots_fired = 0
        elif cfg.estimator == "shots":
            shots_fired = cfg.shots * q_matrix.size * repetitions
        else:
            shots_fired = cfg.snapshots * d * p * repetitions
        counter.add("shots_fired", shots_fired)

        with timer.stage("fit_head"):
            if self.num_classes == 2:
                self.head_ = LogisticRegression(l2=self.l2).fit(q_matrix, y)
            else:
                self.head_ = SoftmaxRegression(
                    num_classes=self.num_classes, l2=self.l2
                ).fit(q_matrix, y)

        projected = None
        if self.cluster is not None:
            with timer.stage("cluster_projection"):
                projected, _ = self.cluster.makespan(
                    self.circuit_tasks(angles.shape[0]), cfg.dispatch_policy
                )

        self.report_ = PipelineReport(
            num_features=self.strategy.num_features,
            num_ansatze=self.strategy.num_ansatze,
            num_observables=self.strategy.num_observables,
            num_train=angles.shape[0],
            timer=timer,
            counter=counter,
            projected_makespan=projected,
            scheduling_policy=cfg.dispatch_policy if projected is not None else None,
            dispatch=dispatch,
        )
        return self

    # ------------------------------------------------------------- predict
    def _features(self, angles: np.ndarray) -> np.ndarray:
        _, source = self._execution()
        return generate_features(self.strategy, np.asarray(angles, dtype=float), **source)

    def predict(self, angles: np.ndarray) -> np.ndarray:
        if self.head_ is None:
            raise RuntimeError("pipeline is not fitted")
        return self.head_.predict(self._features(angles))

    def score(self, angles: np.ndarray, y: np.ndarray) -> float:
        return accuracy(np.asarray(y), self.predict(angles))

    def loss(self, angles: np.ndarray, y: np.ndarray) -> float:
        if self.head_ is None:
            raise RuntimeError("pipeline is not fitted")
        return self.head_.loss(self._features(angles), np.asarray(y))
