"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import warnings

import numpy as np
import pytest

# A failing hypothesis property makes the plugin import
# ``hypothesis.extra._patching``, whose libcst import warns that
# ``mypy_extensions.TypedDict`` is deprecated; under ``filterwarnings =
# error`` that warning became an INTERNALERROR that hid the falsifying
# example.  Import it once here with only that warning ignored; without
# libcst there is nothing to import.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.filterwarnings(
        "ignore",
        message="mypy_extensions.TypedDict is deprecated",
        category=DeprecationWarning,
    )
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def random_state(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-ish random pure state (normalised complex Gaussian)."""
    vec = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return vec / np.linalg.norm(vec)


@pytest.fixture
def random_state_3q(rng: np.random.Generator) -> np.ndarray:
    return random_state(3, rng)
