"""End-to-end command-line behavior: exit codes, report files, determinism."""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import hybridhopf
from hybridhopf.cli import main

INTERIOR = {
    "builtin": "predator_prey",
    "params": {"delta1": 1.0, "delta2": 1.0, "lam": 0.3, "alpha1": 0.2, "alpha2": 0.6},
}
SYNTHETIC = {
    "builtin": "synthetic_nf",
    "params": {"a": -1.0, "b": 1.0, "c": 1.0, "d": 1.0, "omega": 2.0},
}
SYNTHETIC_DEGENERATE = {
    "builtin": "synthetic_nf",
    "params": {"a": -1.0, "b": 1.0, "c": 1.0, "d": 0.0, "omega": 1.0},
}
CLASSICAL = {"builtin": "classical_hopf"}
PLANTED_ES = {
    "builtin": "toy_cylindrical",
    "params": {"beta2": -1.0, "beta3": -0.5, "beta5": 1.0, "gamma5": -1.0},
    "seed_state": [0.01, -0.02, 0.015],
}
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture
def workspace(tmp_path):
    """Write configs on demand and hand out fresh output directories."""

    class Workspace:
        def config(self, doc, name="model.json"):
            path = tmp_path / name
            path.write_text(json.dumps(doc))
            return str(path)

        def outdir(self, name):
            path = tmp_path / name
            return str(path)

        def path(self, name):
            return tmp_path / name

    return Workspace()


def read_json(ws, out, name):
    return json.loads((ws.path(out) / name).read_text())


def read_table(ws, out, name):
    lines = (ws.path(out) / name).read_text().splitlines()
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:]]


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_interior_sample(workspace, capsys):
    cfg = workspace.config(INTERIOR)
    assert main(["classify", "--config", cfg, "--out", workspace.outdir("a")]) == 0
    stdout = capsys.readouterr().out
    assert "type ES" in stdout
    assumptions = read_json(workspace, "a", "assumptions.json")
    assert assumptions["all_pass"] is True
    assert assumptions["point"] == pytest.approx([0.125, 0.405, 0.3], abs=1e-9)
    classification = read_json(workspace, "a", "classification.json")
    assert classification["label"] == "ES"
    assert classification["xi"] == -1
    assert classification["direction"] == 1
    assert classification["sigma"] < 0
    coefficients = read_json(workspace, "a", "coefficients.json")
    assert coefficients["omega"] == pytest.approx(np.sqrt(0.3), rel=1e-9)


def test_classify_is_deterministic(workspace):
    cfg = workspace.config(INTERIOR)
    assert main(["classify", "--config", cfg, "--out", workspace.outdir("d1")]) == 0
    assert main(["classify", "--config", cfg, "--out", workspace.outdir("d2")]) == 0
    for name in ("assumptions.json", "coefficients.json", "classification.json"):
        first = (workspace.path("d1") / name).read_bytes()
        second = (workspace.path("d2") / name).read_bytes()
        assert first == second


def test_polynomial_config_outputs_are_deterministic(workspace):
    cfg = workspace.config(PLANTED_ES)
    for run in ("p1", "p2"):
        assert main(["classify", "--config", cfg, "--out", workspace.outdir(f"{run}c")]) == 0
        code = main(["verify", "--config", cfg, "--mu", "0.005", "--out", workspace.outdir(f"{run}v")])
        assert code == 0
    for step in ("c", "v"):
        first, second = workspace.path(f"p1{step}"), workspace.path(f"p2{step}")
        names = sorted(p.name for p in first.iterdir())
        assert names and names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
    assert read_json(workspace, "p1c", "classification.json")["label"] == "ES"


def test_classify_rejects_plain_hopf(workspace, capsys):
    cfg = workspace.config(CLASSICAL)
    assert main(["classify", "--config", cfg, "--out", workspace.outdir("c")]) == 2
    stdout = capsys.readouterr().out
    assert "a4_nondegeneracy" in stdout
    assumptions = read_json(workspace, "c", "assumptions.json")
    assert assumptions["all_pass"] is False
    assert not (workspace.path("c") / "coefficients.json").exists()
    assert not (workspace.path("c") / "classification.json").exists()


def test_classify_degenerate_focus(workspace):
    cfg = workspace.config(SYNTHETIC_DEGENERATE)
    assert main(["classify", "--config", cfg, "--out", workspace.outdir("g")]) == 3
    classification = read_json(workspace, "g", "classification.json")
    assert classification["label"] == "degenerate"
    # the assumption and coefficient stages still succeeded and left reports
    assert read_json(workspace, "g", "assumptions.json")["all_pass"] is True
    assert (workspace.path("g") / "coefficients.json").exists()


def test_classify_finite_difference_mode(workspace):
    exact_cfg = workspace.config(INTERIOR, "exact.json")
    fd_cfg = workspace.config({**INTERIOR, "jets": "finite_difference"}, "fd.json")
    assert main(["classify", "--config", exact_cfg, "--out", workspace.outdir("e")]) == 0
    assert main(["classify", "--config", fd_cfg, "--out", workspace.outdir("f")]) == 0
    exact = read_json(workspace, "e", "classification.json")
    approx = read_json(workspace, "f", "classification.json")
    assert approx["label"] == exact["label"] == "ES"
    assert approx["sigma"] == pytest.approx(exact["sigma"], rel=1e-4)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_interior_orbit(workspace):
    cfg = workspace.config(INTERIOR)
    code = main(
        ["verify", "--config", cfg, "--mu", "0.005", "--out", workspace.outdir("v")]
    )
    assert code == 0
    doc = read_json(workspace, "v", "verify.json")
    assert doc["classification"] == "ES"
    assert doc["period"] == pytest.approx(11.455279540078301, rel=1e-8)
    assert doc["residual"] < 1e-9
    assert doc["stability"]["stable"] is True
    assert doc["stability_consistent"] is True
    header, rows = read_table(workspace, "v", "orbit.tsv")
    assert header == ["t", "x1", "x2", "s"]
    assert len(rows) >= 100
    values = np.array(rows, dtype=float)
    assert np.all(np.isfinite(values))
    assert np.all(values[:, 1] > 0) and np.all(values[:, 2] > 0)


def test_verify_wrong_side_exits_numerical(workspace, capsys):
    cfg = workspace.config(INTERIOR)
    code = main(
        ["verify", "--config", cfg, "--mu", "-0.005", "--out", workspace.outdir("w")]
    )
    assert code == 1
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# continue
# ---------------------------------------------------------------------------


def test_continue_square_root_branch(workspace):
    cfg = workspace.config(INTERIOR)
    grid = ",".join(format(m, ".17g") for m in np.geomspace(5e-4, 2e-2, 8))
    code = main(
        [
            "continue",
            "--config",
            cfg,
            "--mu-grid",
            grid,
            "--out",
            workspace.outdir("b"),
        ]
    )
    assert code == 0
    header, rows = read_table(workspace, "b", "branch.tsv")
    assert header[:4] == ["mu", "period", "amplitude", "residual"]
    assert len(rows) == 8
    summary = read_json(workspace, "b", "summary.json")
    assert summary["n_converged"] == 8
    assert summary["lost_at"] is None
    assert abs(summary["fit"]["exponent"] - 0.5) < 0.05
    amplitudes = [float(r[2]) for r in rows]
    assert amplitudes == sorted(amplitudes)
    for i in range(8):
        assert (workspace.path("b") / f"orbit_{i:03d}.tsv").exists()


def test_continue_wrong_direction_grid(workspace):
    cfg = workspace.config(INTERIOR)
    code = main(
        [
            "continue",
            "--config",
            cfg,
            "--mu-grid=-0.005,-0.01",
            "--out",
            workspace.outdir("wd"),
        ]
    )
    assert code == 1
    _, rows = read_table(workspace, "wd", "branch.tsv")
    assert rows == []
    summary = read_json(workspace, "wd", "summary.json")
    assert summary["n_converged"] == 0
    assert summary["lost_at"] == -0.005


def test_continue_single_point_skips_fit(workspace):
    cfg = workspace.config({**INTERIOR, "mu_grid": [0.005]})
    code = main(["continue", "--config", cfg, "--out", workspace.outdir("s")])
    assert code == 0
    summary = read_json(workspace, "s", "summary.json")
    assert summary["n_converged"] == 1
    assert summary["fit"] is None
    _, rows = read_table(workspace, "s", "branch.tsv")
    assert len(rows) == 1


def test_continue_needs_a_grid(workspace):
    cfg = workspace.config(INTERIOR)
    assert main(["continue", "--config", cfg, "--out", workspace.outdir("n")]) == 64


# ---------------------------------------------------------------------------
# eco-sweep
# ---------------------------------------------------------------------------


def test_eco_sweep_finds_only_stable_elliptic_type(workspace, capsys):
    out = workspace.outdir("sweep")
    code = main(["eco-sweep", "--samples", "1000", "--seed", "7", "--out", out])
    assert code == 0
    assert "non-ES rows: 0/1000" in capsys.readouterr().out
    header, rows = read_table(workspace, "sweep", "sweep.tsv")
    assert header[-2:] == ["margin", "type"]
    assert len(rows) == 1000
    assert all(row[-1] == "ES" for row in rows)
    assert all(float(row[-2]) < 0 for row in rows)


def test_eco_sweep_single_row_and_determinism(workspace):
    assert main(["eco-sweep", "--samples", "1", "--out", workspace.outdir("one")]) == 0
    _, rows = read_table(workspace, "one", "sweep.tsv")
    assert len(rows) == 1
    assert main(["eco-sweep", "--samples", "40", "--seed", "3", "--out", workspace.outdir("r1")]) == 0
    assert main(["eco-sweep", "--samples", "40", "--seed", "3", "--out", workspace.outdir("r2")]) == 0
    assert (workspace.path("r1") / "sweep.tsv").read_bytes() == (
        workspace.path("r2") / "sweep.tsv"
    ).read_bytes()


# ---------------------------------------------------------------------------
# truncated
# ---------------------------------------------------------------------------


def test_truncated_run_with_comparison(workspace):
    cfg = workspace.config(SYNTHETIC)
    code = main(
        [
            "truncated",
            "--config",
            cfg,
            "--epsilon",
            "0.1",
            "--mu-tilde",
            "-0.25",
            "--r0",
            "0.55",
            "--compare",
            "--out",
            workspace.outdir("t"),
        ]
    )
    assert code == 0
    doc = read_json(workspace, "t", "truncated.json")
    assert doc["r0"] == pytest.approx(0.5, rel=1e-12)  # sqrt(0.25 * 1 / 1)
    assert doc["equilibrium_residual"] < 1e-12
    assert 0.02 < doc["deviation"] < 0.2
    header, rows = read_table(workspace, "t", "truncated.tsv")
    assert header == ["tau", "r", "z"]
    assert len(rows) > 100


# ---------------------------------------------------------------------------
# usage errors and plumbing
# ---------------------------------------------------------------------------


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 64


def test_missing_config_flag_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["classify"])
    assert excinfo.value.code == 64


@pytest.mark.parametrize(
    "doc",
    [
        {"builtin": "no_such_model"},
        {"builtin": "predator_prey"},  # missing params
        {**INTERIOR, "extra_key": 1},
        {"builtin": "predator_prey", "polynomial": {"y1": [], "y2": [], "z": []}},
        {"builtin": "synthetic_nf", "params": {"a": 1, "b": 1, "c": 1, "d": 1, "omega": 1}, "jets": "symbolic"},
        *(
            {"polynomial": {"y1": [[bad, 0, 1, 0, 0]], "y2": [[1.0, 1, 0, 0, 0]], "z": []}}
            for bad in (float("nan"), float("inf"), float("-inf"))
        ),
    ],
)
def test_bad_configs_are_usage_errors(workspace, doc):
    cfg = workspace.config(doc)
    assert main(["classify", "--config", cfg, "--out", workspace.outdir("u")]) == 64


def test_unreadable_and_malformed_configs(workspace):
    assert main(["classify", "--config", str(workspace.path("absent.json")), "--out", workspace.outdir("m")]) == 64
    bad = workspace.path("bad.json")
    bad.write_text("[1, 2, 3]")
    assert main(["classify", "--config", str(bad), "--out", workspace.outdir("m")]) == 64
    worse = workspace.path("worse.json")
    worse.write_text("{not json")
    assert main(["classify", "--config", str(worse), "--out", workspace.outdir("m")]) == 64


def test_bad_mu_grid_is_usage_error(workspace):
    cfg = workspace.config(INTERIOR)
    code = main(
        ["continue", "--config", cfg, "--mu-grid", "0.01,abc", "--out", workspace.outdir("bg")]
    )
    assert code == 64


def test_output_dir_from_environment(workspace, monkeypatch):
    target = workspace.outdir("env_out")
    monkeypatch.setenv("HYBRIDHOPF_OUT", target)
    cfg = workspace.config(INTERIOR)
    assert main(["classify", "--config", cfg]) == 0
    assert (workspace.path("env_out") / "classification.json").exists()


def source_env():
    """Environment of a child that must run the code this test imported,
    not an installed copy."""
    src = str(Path(hybridhopf.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, inherited]))}


def check_console_script(exe, workspace, env=None):
    """Run ``--version`` and ``classify`` through ``exe``; return the version line."""
    version = subprocess.run(
        [exe, "--version"], capture_output=True, text=True, check=False, env=env
    )
    assert version.returncode == 0
    assert "hybridhopf" in version.stdout
    cfg = workspace.config(INTERIOR)
    result = subprocess.run(
        [exe, "classify", "--config", cfg, "--out", workspace.outdir("cp")],
        capture_output=True,
        text=True,
        check=False,
        env=env,
    )
    assert result.returncode == 0
    assert "type ES" in result.stdout
    return version.stdout


def test_console_entry_point(workspace, tmp_path):
    """The ``hybridhopf`` script declared in pyproject.toml is a working command.

    Builds the launcher an installer generates for the declared entry point,
    so the check needs no installation; ``test_installed_console_script``
    checks a real one.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["hybridhopf"]
    entry = EntryPoint(name="hybridhopf", value=spec, group="console_scripts")
    assert entry.load() is main

    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / "hybridhopf"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        f"sys.exit({entry.attr}())\n"
    )
    launcher.chmod(0o755)
    exe = shutil.which("hybridhopf", path=str(bindir))
    assert exe == str(launcher)

    check_console_script(exe, workspace, env=source_env())


@pytest.mark.skipif(
    shutil.which("hybridhopf") is None, reason="hybridhopf console script not on PATH"
)
def test_installed_console_script(workspace):
    version = check_console_script(shutil.which("hybridhopf"), workspace)
    assert version.split() == ["hybridhopf", hybridhopf.__version__]


# Runs in a fresh interpreter: records which of the integration modules each
# step has loaded, then prints the record as the last stdout line.
IMPORT_BUDGET_CHILD = """
import json, sys

WATCHED = ("scipy.integrate", "hybridhopf.verify")
loaded, codes = {}, {}

def record(step):
    loaded[step] = [m for m in WATCHED if m in sys.modules]

import hybridhopf
record("import hybridhopf")
import hybridhopf.cli
record("import hybridhopf.cli")
from hybridhopf.cli import main

config, out = sys.argv[1:3]
try:
    main(["--version"])
except SystemExit as exc:
    codes["--version"] = exc.code
record("--version")
codes["classify"] = main(["classify", "--config", config, "--out", out + "/classify"])
record("classify")
codes["eco-sweep"] = main(["eco-sweep", "--samples", "5", "--out", out + "/eco"])
record("eco-sweep")
codes["verify"] = main(["verify", "--config", config, "--mu", "0.005", "--out", out + "/verify"])
record("verify")
unresolved = [n for n in hybridhopf.__all__ if getattr(hybridhopf, n, None) is None]
print(json.dumps({"loaded": loaded, "codes": codes, "unresolved": unresolved}))
"""


def test_only_integrating_commands_import_scipy_integrate(workspace):
    """`import hybridhopf`, `--version`, `classify` and `eco-sweep` never load
    `verify` or `scipy.integrate`; `verify` loads both on demand."""
    cfg = workspace.config(INTERIOR)
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_BUDGET_CHILD, cfg, workspace.outdir("budget")],
        capture_output=True,
        text=True,
        check=False,
        env=source_env(),
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == {"--version": 0, "classify": 0, "eco-sweep": 0, "verify": 0}
    for step in ("import hybridhopf", "import hybridhopf.cli", "--version", "classify", "eco-sweep"):
        assert report["loaded"][step] == [], step
    assert report["loaded"]["verify"] == ["scipy.integrate", "hybridhopf.verify"]
    assert report["unresolved"] == []
