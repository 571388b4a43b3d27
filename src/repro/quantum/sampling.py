"""Finite-shot estimation of Pauli expectation values.

Implements the *direct measurement* column of paper Table II: each quantum
neuron ``tr(O_j rho(x_i))`` is estimated by averaging ``shots`` +-1
eigenvalue outcomes of the Pauli string (sample mean; Hoeffding analysis in
Proposition 1).  That mean depends on the outcomes only through the number
``k`` of +1s, which is ``Binomial(shots, (1 + <P>) / 2)``, so every backend
shares one sampler, :func:`sample_expectations`: one binomial draw per
estimate from the exact expectation, the distribution of rotating into the
eigenbasis, drawing a ``2^n``-way multinomial and summing the signs.
"""

from __future__ import annotations

import numpy as np

from repro.quantum.observables import PauliString, PauliSum, expectation
from repro.utils.rng import as_rng
from repro.utils.validation import check_power_of_two

__all__ = [
    "measure_pauli",
    "measure_pauli_batch",
    "measure_pauli_sum",
    "sample_expectations",
    "hoeffding_shots",
]

#: Exact expectations this close to -1, 0 or +1 are sampled at that value.
_SNAP_TOLERANCE = 1e-12


def sample_expectations(
    values: np.ndarray,
    shots: int,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Finite-shot estimates of exact Pauli expectations ``values``.

    Each entry ``v`` draws ``k ~ Binomial(shots, (1 + v) / 2)`` and
    estimates ``(2k - shots) / shots``; ``shots == 0`` returns ``values``
    unchanged.  Draws run in C order over ``values``, one per entry, so a
    batched call consumes the stream exactly like a loop of per-entry calls.

    A ``v`` within 1e-12 of -1, 0 or +1 is snapped to that value first.
    NumPy's binomial is not continuous in ``p`` there: it draws on
    ``1 - p`` above ``p = 0.5`` and uses no random number at ``p = 0``, so
    two paths whose exact values differ by roundoff at those points would
    otherwise draw differently, or shift every later draw in the stream.
    """
    if shots < 0:
        raise ValueError(f"shots={shots} must be >= 0")
    values = np.asarray(values, dtype=float)
    if shots == 0:
        return values
    nearest = np.rint(values)
    values = np.where(np.abs(values - nearest) <= _SNAP_TOLERANCE, nearest, values)
    # Kraus roundoff can leave a mixed-state value just outside [-1, 1].
    plus = as_rng(seed).binomial(shots, np.clip((1.0 + values) / 2.0, 0.0, 1.0))
    return (2 * plus - shots) / shots


def measure_pauli(
    state: np.ndarray,
    pauli: PauliString,
    shots: int,
    seed: int | np.random.Generator | None = None,
) -> float:
    """Shot-based estimate of ``<psi|P|psi>`` (single state)."""
    est = measure_pauli_batch(np.asarray(state)[None, :], pauli, shots, seed)
    return float(est[0])


def measure_pauli_batch(
    states: np.ndarray,
    pauli: PauliString,
    shots: int,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Shot-based estimates for a batch of states; returns shape (batch,).

    One binomial draw per state from its exact expectation
    (:func:`sample_expectations`); the identity is 1 with no draw, and
    ``shots == 0`` returns the exact expectation (useful for estimator
    interchangeability in the pipeline).
    """
    states = np.asarray(states, dtype=np.complex128)
    if states.ndim != 2:
        raise ValueError("measure_pauli_batch expects a (batch, dim) array")
    n = check_power_of_two(states.shape[1], "state dimension")
    if pauli.num_qubits != n:
        raise ValueError("Pauli width mismatch")
    if shots < 0:
        raise ValueError(f"shots={shots} must be >= 0")
    if pauli.is_identity:
        return np.ones(states.shape[0])
    return sample_expectations(expectation(states, pauli), shots, seed)


def measure_pauli_sum(
    state: np.ndarray,
    observable: PauliSum,
    shots_per_term: int,
    seed: int | np.random.Generator | None = None,
) -> float:
    """Estimate ``<psi|sum_j c_j P_j|psi>`` term by term.

    Each term gets its own ``shots_per_term`` budget (the naive allocation;
    :mod:`repro.hpc.shotalloc` provides smarter splits).
    """
    rng = as_rng(seed)
    total = 0.0
    for coeff, pauli in observable.items():
        total += float(np.real(coeff)) * measure_pauli(state, pauli, shots_per_term, rng)
    return total


def hoeffding_shots(epsilon: float, delta: float) -> int:
    """Shots so one +-1-bounded mean is within ``epsilon`` w.p. >= 1-delta.

    Hoeffding for variables in [-1, 1]: ``t >= (2/eps^2) ln(2/delta)``
    (paper Appendix B uses exactly this bound before the union bound).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return int(np.ceil(2.0 / epsilon**2 * np.log(2.0 / delta)))
