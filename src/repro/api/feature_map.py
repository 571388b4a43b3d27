"""``QuantumFeatureMap`` -- the Q-matrix sweep as a sklearn transformer.

The post-variational method *is* a feature map (Definition 1: ``Q_ij =
tr(O_j rho_theta(x_i))``) followed by a classical convex head.  This module
exposes exactly that split in the sklearn transformer idiom -- ``fit`` /
``transform`` / ``fit_transform`` / ``get_params`` -- so the quantum
features compose with any classical estimator or ``Pipeline`` without the
head baked in::

    fmap = QuantumFeatureMap(strategy, config=ExecutionConfig(compile="auto"))
    q_train = fmap.fit_transform(x_train)       # (d, p*q) feature matrix
    q_test = fmap.transform(x_test)
    head = LogisticRegression().fit(q_train, y_train)

``X`` may be the raw ``(d, rows, cols)`` angle batch or its 2-D flattened
form ``(d, rows*cols)`` (the sklearn convention); columns are grouped
``cols == strategy.num_qubits`` wide, matching the Fig. 7 encoder layout.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.api.config import ExecutionConfig
from repro.api.device import QuantumDevice
from repro.core.features import generate_features
from repro.hpc.runtime import DispatchReport

__all__ = ["QuantumFeatureMap"]


class QuantumFeatureMap:
    """sklearn-style transformer over the :func:`generate_features` sweep.

    Exactly one of ``config`` / ``device`` configures execution (neither
    means the ideal-statevector defaults), read at every ``transform``.  A
    ``config`` sweep runs inline serial; a :class:`QuantumDevice` runs on
    its session pool and stays the caller's to close.
    """

    def __init__(
        self,
        strategy: Any = None,
        *,
        config: ExecutionConfig | None = None,
        device: QuantumDevice | None = None,
    ) -> None:
        if strategy is None:
            raise ValueError("strategy is required")
        if config is not None and device is not None:
            raise TypeError("pass config= or device=, not both")
        self.strategy = strategy
        self.config = config
        self.device = device
        self.n_features_in_: int | None = None
        self.last_report_: DispatchReport | None = None

    # --------------------------------------------------------- sklearn plumbing
    def get_params(self, deep: bool = True) -> dict:
        return {"strategy": self.strategy, "config": self.config, "device": self.device}

    def set_params(self, **params: Any) -> QuantumFeatureMap:
        unknown = [k for k in params if k not in ("strategy", "config", "device")]
        if unknown:
            raise ValueError(
                f"invalid parameter {unknown[0]!r} for QuantumFeatureMap"
            )
        # Validate the *prospective* state before mutating anything: a
        # caller catching the error must not be left with a transformer
        # holding both config and device (where transform() would silently
        # prefer the device).
        prospective = {
            k: params.get(k, getattr(self, k))
            for k in ("strategy", "config", "device")
        }
        if prospective["strategy"] is None:
            raise ValueError("strategy is required")
        if prospective["config"] is not None and prospective["device"] is not None:
            raise TypeError("pass config= or device=, not both")
        for key, value in params.items():
            setattr(self, key, value)
        return self

    def get_feature_names_out(self, input_features: Any = None) -> np.ndarray:
        """Ansatz-major feature names, matching Definition 1's (p, q) order."""
        q = self.strategy.num_observables
        return np.asarray(
            [
                f"ansatz{a}_obs{b}"
                for a in range(self.strategy.num_ansatze)
                for b in range(q)
            ],
            dtype=object,
        )

    # ------------------------------------------------------------- validation
    def _as_angles(self, X: np.ndarray) -> np.ndarray:
        """Coerce 2-D (sklearn) or 3-D (native) input to ``(d, rows, cols)``."""
        X = np.asarray(X, dtype=float)
        n = self.strategy.num_qubits
        if X.ndim == 3:
            if X.shape[2] != n:
                raise ValueError(
                    f"angles encode {X.shape[2]} qubits, strategy expects {n}"
                )
            return X
        if X.ndim == 2:
            if X.shape[1] == 0 or X.shape[1] % n != 0:
                raise ValueError(
                    f"2-D input must have a column count divisible by "
                    f"num_qubits={n}, got {X.shape[1]}"
                )
            return X.reshape(X.shape[0], -1, n)
        raise ValueError(f"X must be 2-D or 3-D, got shape {X.shape}")

    # ------------------------------------------------------------ fit/transform
    def fit(self, X: np.ndarray, y: Any = None) -> QuantumFeatureMap:
        """Validate ``X`` and freeze the input width (the ensemble is fixed,
        so fitting performs no quantum work)."""
        angles = self._as_angles(X)
        self.n_features_in_ = int(angles.shape[1] * angles.shape[2])
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """The Q matrix for ``X``: shape ``(d, strategy.num_features)``."""
        if self.n_features_in_ is None:
            raise RuntimeError("QuantumFeatureMap is not fitted; call fit(X) first")
        angles = self._as_angles(X)
        width = int(angles.shape[1] * angles.shape[2])
        if width != self.n_features_in_:
            raise ValueError(
                f"X has {width} features per sample, but QuantumFeatureMap was "
                f"fitted with {self.n_features_in_}"
            )
        q_matrix, self.last_report_ = generate_features(
            self.strategy, angles, return_report=True, config=self.config, device=self.device
        )
        return q_matrix

    def fit_transform(self, X: np.ndarray, y: Any = None) -> np.ndarray:
        return self.fit(X, y).transform(X)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        source = (
            "device" if self.device is not None
            else "config" if self.config is not None
            else "default"
        )
        return f"QuantumFeatureMap({self.strategy!r}, {source})"
