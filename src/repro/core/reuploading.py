"""Data re-uploading variational classifier (paper Sec. III.B, ref. [47]).

The paper notes that variational models with *alternating* data-encoding
layers and trainable Ansaetze (Perez-Salinas et al.) map exactly onto the
simple encode-once construction it analyses, at the cost of more qubits.
This module ships the re-uploading model itself so the repository covers
the full baseline family: ``r`` repetitions of [Fig. 7 encoder -> trainable
Fig. 8 layer], trained with exact parameter-shift gradients.

Frequency-spectrum intuition (Schuld et al. [40]): each re-upload doubles
the reachable Fourier spectrum of the decision function, which the tests
verify on a synthetic frequency-discrimination task.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.ansatz import hardware_efficient_ansatz
from repro.ml.metrics import accuracy
from repro.quantum.observables import PauliString, expectation
from repro.quantum.statevector import run_circuit, zero_state
from repro.quantum.statevector import apply_matrix_batch
from repro.quantum.gates import H

__all__ = ["ReuploadingClassifier"]

_SHIFT = np.pi / 2


@dataclass
class ReuploadingClassifier:
    """``r`` x [encode + trainable layer] variational classifier.

    ``reuploads`` = r; the trainable block per repetition is one RY layer +
    CNOT ring (num_qubits parameters), so k = r * n parameters total.
    Binary labels; readout ``<Z_0>``; squared loss on +-1 targets.
    """

    num_qubits: int = 4
    reuploads: int = 2
    learning_rate: float = 0.2
    epochs: int = 30
    theta_: np.ndarray | None = field(default=None, repr=False)
    history_: list[float] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.reuploads < 1:
            raise ValueError("reuploads must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        self._block = hardware_efficient_ansatz(
            self.num_qubits, 1, rotation="ry", mirror=False
        )
        self._observable = PauliString("Z" + "I" * (self.num_qubits - 1))

    @property
    def num_parameters(self) -> int:
        return self.reuploads * self.num_qubits

    # ----------------------------------------------------------- forward
    def _forward(self, angles: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """<Z_0> after r alternations of encode / trainable block.

        Re-encoding applies the Fig. 7 rotations to the *current* state (no
        reset): implemented by re-running the batched encoder kernels.
        """
        d = angles.shape[0]
        n = self.num_qubits
        states = zero_state(n, batch=d)
        for q in range(n):
            states = apply_matrix_batch(states, H, (q,))
        blocks = theta.reshape(self.reuploads, n)
        from repro.quantum.gates import rotation_batch

        for r in range(self.reuploads):
            for row in range(angles.shape[1]):
                kind = "rz" if row % 2 == 0 else "rx"
                for q in range(n):
                    states = apply_matrix_batch(
                        states, rotation_batch(kind, angles[:, row, q]), (q,)
                    )
            states = run_circuit(self._block.bind(blocks[r]), state=states)
        return np.asarray(expectation(states, self._observable))

    # ------------------------------------------------------------- train
    def fit(self, angles: np.ndarray, y: np.ndarray) -> ReuploadingClassifier:
        angles = np.asarray(angles, dtype=float)
        y = np.asarray(y).ravel().astype(int)
        targets = 2.0 * y - 1.0
        k = self.num_parameters
        theta = np.zeros(k)
        self.history_ = []
        for _ in range(self.epochs):
            pred = self._forward(angles, theta)
            self.history_.append(float(np.mean((pred - targets) ** 2)))
            residual = 2.0 * (pred - targets) / targets.size
            grad = np.zeros(k)
            for u in range(k):
                e = np.zeros(k)
                e[u] = _SHIFT
                grad[u] = float(
                    residual
                    @ (0.5 * (self._forward(angles, theta + e) - self._forward(angles, theta - e)))
                )
            theta = theta - self.learning_rate * grad
        self.theta_ = theta
        return self

    # ------------------------------------------------------------ predict
    def predict(self, angles: np.ndarray) -> np.ndarray:
        if self.theta_ is None:
            raise RuntimeError("model is not fitted")
        return (self._forward(np.asarray(angles, dtype=float), self.theta_) >= 0).astype(int)

    def score(self, angles: np.ndarray, y: np.ndarray) -> float:
        return accuracy(np.asarray(y), self.predict(angles))
