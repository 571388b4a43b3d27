"""Lightweight argument validation helpers.

These raise early with actionable messages instead of letting NumPy broadcast
errors surface deep inside simulator kernels.
"""

from __future__ import annotations

import numpy as np

__all__ = ["require", "check_power_of_two", "check_probability", "check_square"]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def check_power_of_two(value: int, name: str = "value") -> int:
    """Return ``log2(value)`` after asserting ``value`` is a power of two."""
    if value <= 0 or value & (value - 1) != 0:
        raise ValueError(f"{name}={value} must be a positive power of two")
    return int(value).bit_length() - 1


def check_probability(value: float, name: str = "probability") -> float:
    """Validate that ``value`` lies in [0, 1]."""
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name}={value} must lie in [0, 1]")
    return float(value)


def check_square(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``matrix`` is 2-D and square; returns it unchanged.

    Reads only ``.ndim`` / ``.shape``, so device arrays (CuPy, torch)
    validate without a host copy.
    """
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be square, got shape {tuple(matrix.shape)}")
    return matrix
