"""Smoke tests of the experiment scripts: each `main(argv)` runs to its exit code."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

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
