"""The ``repro lint`` subcommand: text/JSON output, exit codes, and the
no-spurious-fires gate over the shipped examples."""

import json
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]


def test_lint_default_plan_is_clean(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_lint_flags_bad_plan_json(capsys):
    code = main(["lint", "--shards", "8", "--num-qubits", "2", "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    codes = {entry["code"] for entry in payload}
    assert "RPA101" in codes
    assert all(entry["severity"] in ("error", "warning", "info") for entry in payload)


def test_lint_strict_counts_any_finding(capsys):
    # A chunk below the dispatch crossover is warning-only RPA104: exit 0
    # normally, 1 under --strict.
    args = ["lint", "--chunk-size", "2"]
    assert main(args) == 0
    assert main(args + ["--strict"]) == 1
    capsys.readouterr()


def test_lint_runs_astlint_over_paths(tmp_path, capsys):
    bad = tmp_path / "repro" / "api" / "mod.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(x):\n    return x\n")
    assert main(["lint", str(tmp_path)]) == 1
    assert "RPA303" in capsys.readouterr().out


def test_lint_examples_and_src_stay_clean(capsys):
    """The CI gate: no registered code fires on the shipped source trees."""
    assert main(["lint", str(ROOT / "examples"), str(ROOT / "src"), "--strict"]) == 0
    capsys.readouterr()


def test_lint_rejects_invalid_flags(capsys):
    with pytest.raises(SystemExit):
        main(["lint", "--shards", "3"])  # not a power of two
    capsys.readouterr()
