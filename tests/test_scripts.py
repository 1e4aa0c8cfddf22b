"""Smoke tests of the experiment scripts: each `main(argv)` runs to its exit code."""
from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import source_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("run_boundary_connection", ["--n-points", "3", "--settle-time", "300"]),
    ],
)
def test_script_runs(name, argv, capsys):
    assert load_script(name).main(argv) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("settle_time", ["nan", "inf"])
def test_script_errors_end_in_one_typed_line(settle_time):
    """As on the command line: exit with the error's code, one stderr line.
    A fresh interpreter with a timeout makes a hang fail instead of stall."""
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_boundary_connection.py"), "--settle-time", settle_time],
        capture_output=True,
        text=True,
        check=False,
        env=source_env(),
        timeout=60,
    )
    assert result.returncode == 64, result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr


def test_boundary_connection_stops_when_an_assumption_fails(capsys):
    """The former defaults lie on the admissibility boundary 1 - 2 lam = alpha2,
    where a4 and a5 fail: the script names them and exits 1 without continuing."""
    script = load_script("run_boundary_connection")
    assert script.main(["--lam", "0.4", "--alpha1", "0.1", "--alpha2", "0.2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "standing assumptions failed: a4_nondegeneracy, a5_drift\n"
    assert "mu" not in captured.out
