"""AST codebase lint: every RPA3xx code pinned on source snippets, plus the
CLI surface and the repo-is-clean gate CI relies on."""

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis.astlint import (
    KERNEL_BASENAMES,
    TYPED_SCOPES,
    iter_python_files,
    lint_paths,
    lint_source,
    main,
)

KERNEL_PATH = "src/repro/quantum/statevector.py"  # any KERNEL_BASENAMES name
PLAIN_PATH = "src/repro/core/helper.py"  # neither kernel nor typed scope
TYPED_PATH = "src/repro/api/surface.py"  # inside a TYPED_SCOPES fragment


# ------------------------------------------- RPA301 (xp-hardwired NumPy)
RPA301_TRIGGER = """
import numpy as np

def evolve(states, xp):
    return np.einsum("ij,bj->bi", states, states)
"""

# A second, NumPy-only copy of the body behind a branch is still a finding:
# one body serves every namespace.
RPA301_TRIGGER_BRANCHED = """
import numpy as np

def evolve(states, xp):
    if xp is None or xp.native:
        return np.einsum("ij,bj->bi", states, states)
    return xp.einsum("ij,bj->bi", states, states)
"""

RPA301_PASS = """
from repro.xp import get_namespace

def evolve(states, xp=None):
    xp = xp or get_namespace("numpy")
    return xp.einsum("ij,bj->bi", states, states)
"""


def test_rpa301_trigger_and_pass():
    assert "RPA301" in lint_source(RPA301_TRIGGER, KERNEL_PATH).codes()
    assert "RPA301" in lint_source(RPA301_TRIGGER_BRANCHED, KERNEL_PATH).codes()
    assert "RPA301" not in lint_source(RPA301_PASS, KERNEL_PATH).codes()
    # Only kernel modules are held to the xp-routing invariant.
    assert "RPA301" not in lint_source(RPA301_TRIGGER, PLAIN_PATH).codes()


def test_rpa301_fix_hint_names_a_namespace_op():
    """The namespaces carry no ``tensordot``: its hint spells the fix with
    ``xp.einsum``, and every other hint keeps the call's own name."""
    from repro.xp import ArrayNamespace

    call = 'np.einsum("ij,bj->bi", states, states)'
    for np_call, op in (
        ("np.tensordot(states, states, 1)", "einsum"),
        ("np.matmul(states, states)", "matmul"),
    ):
        (finding,) = lint_source(RPA301_TRIGGER.replace(call, np_call), KERNEL_PATH)
        assert finding.code == "RPA301"
        assert f"call xp.{op}()" in finding.fix_hint
        assert hasattr(ArrayNamespace, op)
    assert not hasattr(ArrayNamespace, "tensordot")


# ------------------------------------- RPA302 (frozen mutation escape hatch)
RPA302_TRIGGER = """
def retune(config, shards):
    object.__setattr__(config, "shards", shards)
"""

RPA302_PASS = """
class Config:
    def __post_init__(self):
        object.__setattr__(self, "shards", int(self.shards))
"""


def test_rpa302_trigger_and_pass():
    # Applies to every module, not just kernels or typed scopes.
    assert "RPA302" in lint_source(RPA302_TRIGGER, PLAIN_PATH).codes()
    assert "RPA302" not in lint_source(RPA302_PASS, PLAIN_PATH).codes()


# --------------------------------------- RPA303 (typed public surface)
RPA303_TRIGGER = """
def run(circuit, shots):
    return None
"""

RPA303_PASS = """
def run(circuit: object, shots: int) -> None:
    return None

def _private(untyped):
    return untyped

class Public:
    def method(self, x: int) -> int:
        return x

class _Private:
    def method(self, x):
        return x
"""


def test_rpa303_trigger_and_pass():
    report = lint_source(RPA303_TRIGGER, TYPED_PATH)
    assert "RPA303" in report.codes()
    (finding,) = report
    assert "circuit" in finding.message and "return" in finding.message
    assert "RPA303" not in lint_source(RPA303_PASS, TYPED_PATH).codes()
    # Out-of-scope modules may stay untyped.
    assert "RPA303" not in lint_source(RPA303_TRIGGER, PLAIN_PATH).codes()


def test_rpa303_syntax_error_aborts_file():
    report = lint_source("def broken(:\n", TYPED_PATH)
    assert not report.ok
    assert "does not parse" in report.diagnostics[0].message


# ------------------------------------ RPA304 (direct accelerator import)
def test_rpa304_trigger_and_pass():
    assert "RPA304" in lint_source("import torch\n", KERNEL_PATH).codes()
    assert "RPA304" in lint_source("from cupy import asarray\n", KERNEL_PATH).codes()
    assert "RPA304" not in lint_source("from repro import xp\n", KERNEL_PATH).codes()
    assert "RPA304" not in lint_source("import torch\n", "src/repro/xp.py").codes()


# -------------------------------------- RPA305 (global randomness in kernel)
def test_rpa305_trigger_and_pass():
    trigger = "import numpy as np\n\ndef f():\n    return np.random.normal()\n"
    clean = "import numpy as np\n\ndef f(rng):\n    return rng.normal()\n"
    assert "RPA305" in lint_source(trigger, KERNEL_PATH).codes()
    assert "RPA305" not in lint_source(clean, KERNEL_PATH).codes()
    assert "RPA305" not in lint_source(trigger, PLAIN_PATH).codes()


# ------------------------------------------------------- file plumbing
def test_iter_python_files_and_lint_paths(tmp_path):
    tree = tmp_path / "repro" / "api"
    tree.mkdir(parents=True)
    (tree / "good.py").write_text("def f(x: int) -> int:\n    return x\n")
    (tree / "bad.py").write_text("def f(x):\n    return x\n")
    (tmp_path / "notes.txt").write_text("not python")

    files = list(iter_python_files([tmp_path]))
    assert [f.name for f in files] == ["bad.py", "good.py"]

    report = lint_paths([tmp_path])
    assert report.codes() == ("RPA303",)
    assert "bad.py" in report.diagnostics[0].location


def test_main_exit_codes_and_json(tmp_path, capsys):
    clean = tmp_path / "repro" / "analysis"
    clean.mkdir(parents=True)
    (clean / "mod.py").write_text("def f(x: int) -> int:\n    return x\n")
    assert main([str(tmp_path)]) == 0
    assert main([str(tmp_path), "--strict"]) == 0
    capsys.readouterr()

    (clean / "untyped.py").write_text("def f(x):\n    return x\n")
    assert main([str(tmp_path), "--json"]) == 1  # RPA303 is error severity
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["code"] == "RPA303"


def test_repo_source_tree_is_clean():
    """The CI gate: the shipped src/ tree passes its own AST lint."""
    root = Path(__file__).resolve().parents[2]
    report = lint_paths([root / "src"])
    assert report.clean, report.render()


def test_astlint_runs_as_module():
    root = Path(__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.astlint", "src/"],
        cwd=root,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_scope_tables_are_sane():
    assert "statevector.py" in KERNEL_BASENAMES
    assert any("repro/api/" in fragment for fragment in TYPED_SCOPES)
