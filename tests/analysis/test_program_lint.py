"""Program lint: every RPA0xx code pinned by a trigger AND a pass case."""

import numpy as np
import pytest

from repro.analysis.program import lint_circuit, lint_noise_model
from repro.quantum.circuit import Circuit, Operation, Parameter
from repro.quantum.noise import NoiseModel, bit_flip_channel, depolarizing_channel


def clean_circuit() -> Circuit:
    c = Circuit(2, name="clean")
    c.append("h", 0)
    c.append("rx", 0, "theta_0")
    c.append("cnot", (0, 1))
    return c


def test_clean_circuit_is_clean():
    assert lint_circuit(clean_circuit()).clean


# --------------------------------------------------------- RPA001 (wires)
def test_rpa001_wire_out_of_range():
    c = Circuit(2, name="bad-wire")
    # Circuit.append validates; the linter guards the open IR path.
    c.operations.append(Operation("h", (5,), None))
    report = lint_circuit(c)
    assert "RPA001" in report.codes()
    assert not report.ok


def test_rpa001_duplicate_wire():
    c = Circuit(2, name="dup-wire")
    c.operations.append(Operation("cnot", (1, 1), None))
    assert "RPA001" in lint_circuit(c).codes()


def test_rpa001_not_on_valid_wires():
    assert "RPA001" not in lint_circuit(clean_circuit()).codes()


# ----------------------------------------------------- RPA002 (malformed)
@pytest.mark.parametrize(
    "op",
    [
        Operation("warp", (0,), None),  # unknown gate
        Operation("cnot", (0,), None),  # wrong arity
        Operation("rx", (0,), None),  # parametric without angle/slot
        Operation("h", (0,), 0.5),  # fixed gate with a parameter
        Operation("rx", (0,), Parameter("t", -1)),  # negative slot
    ],
)
def test_rpa002_malformed_operations(op):
    c = Circuit(2, name="malformed")
    c.operations.append(op)
    report = lint_circuit(c)
    assert "RPA002" in report.codes()
    assert not report.ok


def test_rpa002_not_on_wellformed():
    assert "RPA002" not in lint_circuit(clean_circuit()).codes()


# ----------------------------------------- RPA003 (vectorize-defeating op)
def test_rpa003_unbound_nonrotation_defeats_batching():
    c = Circuit(2, name="template")
    c.append("crx", (0, 1), "theta_0")  # unbound 2q rotation: not chainable
    report = lint_circuit(c)
    assert "RPA003" in report.codes()
    assert report.ok  # warning, not error


def test_rpa003_not_on_chainable_or_bound():
    c = Circuit(2, name="ok")
    c.append("rx", 0, "theta_0")  # unbound single-qubit rotation: chainable
    c.append("crx", (0, 1), 0.3)  # bound: binds before compilation
    assert "RPA003" not in lint_circuit(c).codes()


# --------------------------------------------------- RPA005 (dead channel)
def test_rpa005_channel_that_never_fires():
    c = Circuit(2, name="oneq-only")
    c.append("h", 0)
    model = NoiseModel(two_qubit=depolarizing_channel(0.01))
    report = lint_circuit(c, noise_model=model)
    assert "RPA005" in report.codes()
    assert report.ok  # warning


def test_rpa005_not_when_channel_fires():
    model = NoiseModel(
        one_qubit=bit_flip_channel(0.1), two_qubit=depolarizing_channel(0.01)
    )
    assert "RPA005" not in lint_circuit(clean_circuit(), noise_model=model).codes()


# ------------------------------------------------ RPA006 (non-TP Kraus set)
@pytest.mark.parametrize(
    "kraus",
    [
        [np.eye(2) * 0.5],  # sum K^dag K != I
        [],  # annihilates every state
        [np.eye(2), np.eye(4)],  # mixed shapes
    ],
)
def test_rpa006_bad_kraus(kraus):
    model = NoiseModel(one_qubit=kraus)
    report = lint_noise_model(model)
    assert "RPA006" in report.codes()
    assert not report.ok


def test_rpa006_not_on_valid_channels():
    model = NoiseModel(
        one_qubit=bit_flip_channel(0.25), two_qubit=depolarizing_channel(0.05)
    )
    assert lint_noise_model(model).clean
    assert lint_noise_model(None).clean
