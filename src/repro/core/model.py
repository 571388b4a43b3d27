"""Post-variational quantum neural network models (paper Sec. V).

The model is a quantum feature map (the strategy's ensemble, Algorithm 1)
followed by a classical convex head, and the classes are exactly that
composition: the :func:`~repro.core.features.generate_features` sweep
(the one :class:`~repro.api.feature_map.QuantumFeatureMap` runs) plus

* :class:`PostVariationalRegressor` -- linear regression head (closed-form
  ``alpha = Q^+ Y``, Eq. 29; optionally ridge or the l2-ball-constrained
  program of Theorem 4);
* :class:`PostVariationalClassifier` -- logistic head ("adding an extra
  sigmoid ... at the end of the output"), binary or softmax multiclass.

Execution is configured by ``config=`` (an
:class:`~repro.api.config.ExecutionConfig`) or ``device=`` (a
:class:`~repro.api.device.QuantumDevice` session), and by nothing else.
Both are read at every fit/predict, so replacing either between fits takes
effect; ``None`` means the default :class:`ExecutionConfig`.  Setting both
is the same ``TypeError`` as at construction, raised by the next sweep, so
clear one (``model.config = None``) before assigning the other.

Both models cache the generated feature matrix and expose it
(``q_train_``) so the error-propagation benches can perturb it in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Literal

import numpy as np

from repro.api.config import ExecutionConfig, resolve_call
from repro.core.features import generate_features
from repro.core.strategies import Strategy
from repro.ml.convex import ConstrainedLeastSquares, ConstrainedLogistic
from repro.ml.linear import LinearRegression, RidgeRegression
from repro.ml.logistic import LogisticRegression, SoftmaxRegression
from repro.ml.metrics import accuracy

__all__ = ["PostVariationalRegressor", "PostVariationalClassifier"]


class _FeatureMapModel:
    """The feature-map half both models share: validation and Q matrices."""

    strategy: Strategy
    config: ExecutionConfig | None
    device: Any

    def _check_execution(self) -> None:
        if self.strategy is None:
            raise ValueError("strategy is required")
        resolve_call(self.config, self.device, owner=type(self).__name__)

    def _features(self, angles: np.ndarray) -> np.ndarray:
        return generate_features(
            self.strategy, angles, config=self.config, device=self.device
        )


@dataclass
class PostVariationalRegressor(_FeatureMapModel):
    """Quantum features + linear-regression head.

    ``head``: 'pinv' (paper closed form), 'ridge' (Tikhonov, Sec. VI.B) or
    'constrained' (l2-ball, Theorem 4).
    """

    strategy: Strategy = None  # type: ignore[assignment]
    head: Literal["pinv", "ridge", "constrained"] = "pinv"
    ridge_lambda: float = 1e-3
    config: ExecutionConfig | None = None
    device: Any = None
    q_train_: np.ndarray | None = field(default=None, repr=False)
    model_: object = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._check_execution()

    def _make_head(self):
        if self.head == "pinv":
            return LinearRegression()
        if self.head == "ridge":
            return RidgeRegression(lambda_=self.ridge_lambda)
        if self.head == "constrained":
            return ConstrainedLeastSquares()
        raise ValueError(f"unknown head {self.head!r}")

    def fit(self, angles: np.ndarray, y: np.ndarray) -> PostVariationalRegressor:
        self.q_train_ = self._features(angles)
        self.model_ = self._make_head().fit(self.q_train_, np.asarray(y, dtype=float))
        return self

    def predict(self, angles: np.ndarray) -> np.ndarray:
        if self.model_ is None:
            raise RuntimeError("model is not fitted")
        return self.model_.predict(self._features(angles))

    def loss(self, angles: np.ndarray, y: np.ndarray) -> float:
        """RMSE on fresh features for ``angles``."""
        if self.model_ is None:
            raise RuntimeError("model is not fitted")
        return self.model_.loss(self._features(angles), np.asarray(y, dtype=float))


@dataclass
class PostVariationalClassifier(_FeatureMapModel):
    """Quantum features + logistic head (binary or softmax multiclass).

    ``l2`` is the logistic L2 penalty; ``head='constrained'`` switches the
    binary head to the l2-ball-constrained logistic program (Theorem 4's
    BCE extension).
    """

    strategy: Strategy = None  # type: ignore[assignment]
    num_classes: int = 2
    l2: float = 1.0
    head: Literal["logistic", "constrained"] = "logistic"
    config: ExecutionConfig | None = None
    device: Any = None
    q_train_: np.ndarray | None = field(default=None, repr=False)
    model_: object = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._check_execution()
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.head == "constrained" and self.num_classes != 2:
            raise ValueError("constrained head supports binary tasks only")

    def _make_head(self):
        if self.head == "constrained":
            return ConstrainedLogistic(fit_intercept=True)
        if self.num_classes == 2:
            # The identity observable already provides a bias column where
            # present; a free intercept is harmless and matches sklearn.
            return LogisticRegression(l2=self.l2)
        return SoftmaxRegression(num_classes=self.num_classes, l2=self.l2)

    def fit(self, angles: np.ndarray, y: np.ndarray) -> PostVariationalClassifier:
        self.q_train_ = self._features(angles)
        self.model_ = self._make_head().fit(self.q_train_, np.asarray(y))
        return self

    def features(self, angles: np.ndarray) -> np.ndarray:
        """Expose the quantum feature map (used by benches and examples)."""
        return self._features(angles)

    def predict(self, angles: np.ndarray) -> np.ndarray:
        if self.model_ is None:
            raise RuntimeError("model is not fitted")
        return self.model_.predict(self._features(angles))

    def predict_proba(self, angles: np.ndarray) -> np.ndarray:
        if self.model_ is None:
            raise RuntimeError("model is not fitted")
        return self.model_.predict_proba(self._features(angles))

    def loss(self, angles: np.ndarray, y: np.ndarray) -> float:
        """BCE / cross-entropy, the quantity in paper Tables III-IV."""
        if self.model_ is None:
            raise RuntimeError("model is not fitted")
        return self.model_.loss(self._features(angles), np.asarray(y))

    def score(self, angles: np.ndarray, y: np.ndarray) -> float:
        """Accuracy."""
        return accuracy(np.asarray(y), self.predict(angles))
