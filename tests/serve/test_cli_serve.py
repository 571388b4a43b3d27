"""CLI surface: ``repro serve`` load test and ``repro lint --serve``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def test_serve_command_emits_load_and_metrics(capsys):
    code = main([
        "serve",
        "--requests", "16",
        "--concurrency", "8",
        "--samples", "1",
        "--templates", "2",
        "--tenants", "2",
        "--qubits", "2",
        "--window-ms", "10",
        "--pool", "serial",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["load"]["completed"] == 16
    assert payload["load"]["rejected"] == 0
    assert payload["metrics"]["coalesce_ratio"] >= 1.0
    assert set(payload["metrics"]["tenants"]) == {"tenant-0", "tenant-1"}


def test_serve_listen_drives_load_over_tcp(capsys):
    code = main([
        "serve",
        "--listen",  # bare form: 127.0.0.1 with an OS-picked port
        "--requests", "16",
        "--concurrency", "8",
        "--samples", "1",
        "--templates", "2",
        "--tenants", "2",
        "--qubits", "2",
        "--window-ms", "10",
        "--pool", "serial",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["load"]["completed"] == 16
    assert payload["load"]["rejected"] == 0
    # Coalescing survives the socket hop.
    assert payload["metrics"]["coalesce_ratio"] > 1.0
    assert payload["transport"]["host"] == "127.0.0.1"
    assert payload["transport"]["port"] > 0


def test_serve_listen_rejects_malformed_address():
    with pytest.raises(SystemExit):
        main(["serve", "--listen", "no-port-here"])
    with pytest.raises(SystemExit):
        main(["serve", "--listen", "127.0.0.1:notaport"])


def test_lint_serve_flags_finds_transport_codes(capsys):
    code = main([
        "lint", "--serve", "--json",
        "--window-ms", "50",
        "--request-timeout", "0.01",
        "--max-frame-bytes", "8",
    ])
    out = capsys.readouterr().out
    assert code == 1  # RPA115 is an error
    codes = {d["code"] for d in json.loads(out)}
    assert {"RPA114", "RPA115"} <= codes


@pytest.mark.parametrize(
    "flags", [["--no-cache"], ["--no-stream"], ["--stream-threshold", "4"]]
)
def test_removed_serve_flags_rejected(flags, capsys):
    """Size 0 turns the cache off and the frame bound decides streaming:
    the mirrored flags are gone."""
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--serve", *flags])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_lint_serve_flags_finds_rpa11x(capsys):
    code = main([
        "lint", "--serve", "--json", "--window-ms", "0",
        "--tenant-weight", "free=0",
    ])
    out = capsys.readouterr().out
    assert code == 1  # RPA112 is an error
    codes = {d["code"] for d in json.loads(out)}
    assert {"RPA110", "RPA112"} <= codes


def test_lint_without_serve_ignores_serve_flags(capsys):
    code = main(["lint", "--window-ms", "0"])
    assert code == 0
    assert "RPA110" not in capsys.readouterr().out


def test_serve_rejects_bad_tenant_weight():
    with pytest.raises(SystemExit):
        main(["serve", "--tenant-weight", "nonsense"])
