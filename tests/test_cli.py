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
from hybridhopf import errors, models
from hybridhopf.cli import main

INTERIOR = {
    "builtin": "predator_prey",
    "params": {"delta1": 1.0, "delta2": 1.0, "lam": 0.3, "alpha1": 0.2, "alpha2": 0.6},
}
#: the quadratic normal form: beta2, beta5, gamma5 and gamma7 planted alone
SYNTHETIC = {
    "builtin": "toy_cylindrical",
    "params": {"omega": 2.0, "beta2": -1.0, "beta5": 1.0, "gamma5": 1.0, "gamma7": 1.0},
}
SYNTHETIC_DEGENERATE = {
    "builtin": "toy_cylindrical",
    "params": {"omega": 1.0, "beta2": -1.0, "beta5": 1.0, "gamma5": 1.0, "gamma7": 0.0},
}
#: the classical Hopf normal form: a Hopf point, but no line of equilibria
CLASSICAL = {"builtin": "toy_cylindrical", "params": {"beta2": 1.0, "beta3": -1.0, "gamma5": 1.0}}
PLANTED_ES = {
    "builtin": "toy_cylindrical",
    "params": {"beta2": -1.0, "beta3": -0.5, "beta5": 1.0, "gamma5": -1.0},
    "seed_state": [0.01, -0.02, 0.015],
}
ES_NORMAL_FORM = {
    "polynomial": {
        "y1": [[-1, 0, 1, 0, 0], [-1, 1, 0, 1, 0]],
        "y2": [[1, 1, 0, 0, 0], [-1, 0, 1, 1, 0]],
        "z": [[1, 2, 0, 0, 0], [1, 0, 2, 0, 0], [-1, 0, 0, 0, 1], [-1, 0, 0, 1, 1]],
    }
}
#: the Hopf point is (0, 0, 1), where the term 1e308 mu z^3 and its state
#: derivatives vanish at mu = 0, so neither Jacobian sees it; the jet entry
#: d_mu d_z F = 3e308 overflows
STEEP_DRIFT = {
    "polynomial": {
        "y1": [[-1, 0, 1, 0, 0], [1, 1, 0, 1, 0], [-1, 1, 0, 0, 0]],
        "y2": [[1, 1, 0, 0, 0], [1, 0, 1, 1, 0], [-1, 0, 1, 0, 0]],
        "z": [[-1, 2, 0, 0, 0], [-1, 0, 2, 0, 0], [1, 0, 0, 0, 1], [1e308, 0, 0, 3, 1]],
    },
    "name": "steep_drift",
    "seed_state": [0.0, 0.0, 1.0],
}
#: steep_drift with 1.5e308 z^2 for its last term: d_z F_z = 3e308 overflows
#: at the seed
STEEP_JACOBIAN = {
    **STEEP_DRIFT,
    "polynomial": {
        **STEEP_DRIFT["polynomial"],
        "z": [*STEEP_DRIFT["polynomial"]["z"][:3], [1.5e308, 0, 0, 2, 0]],
    },
    "name": "steep_jacobian",
}
#: three points with |mu| growing 6.3-fold (ROADMAP item 3)
COARSE_GRID = "0.0005,0.0031622776601683794,0.02"
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


@pytest.mark.parametrize(
    "argv, written",
    [
        (["verify", "--mu", "0.005"], ["assumptions.json"]),
        (["continue", "--mu-grid", "0.001,0.002"], ["assumptions.json"]),
        (["truncated", "--epsilon", "0.1", "--mu-tilde", "0.25", "--r0", "0.8"], []),
    ],
)
def test_integrating_commands_reject_plain_hopf(workspace, capsys, argv, written):
    cfg = workspace.config(CLASSICAL)
    assert main([*argv, "--config", cfg, "--out", workspace.outdir("c")]) == 2
    assert capsys.readouterr().out == "assumption check failed: a4_nondegeneracy\n"
    assert sorted(p.name for p in workspace.path("c").iterdir()) == written


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


def test_interior_guard_follows_the_builtin_entry_not_the_name(workspace):
    """The predator-prey interior guard belongs to the builtin model: a
    polynomial model named "predator_prey" is shot without it, so its orbit,
    which leaves the positive octant, is found as under its default name."""
    named = {**ES_NORMAL_FORM, "name": "predator_prey"}
    for out, doc in (("plain", ES_NORMAL_FORM), ("named", named)):
        cfg = workspace.config(doc, f"{out}.json")
        argv = ["verify", "--config", cfg, "--mu", "0.01", "--out", workspace.outdir(out)]
        assert main(argv) == 0, out
    assert read_json(workspace, "named", "verify.json") == read_json(
        workspace, "plain", "verify.json"
    )


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


def test_continue_tracks_a_coarse_grid(workspace):
    """|mu| grows 6.3-fold per point; seeds extrapolated linearly in mu lost
    the branch at mu = 0.02, seeds extrapolated in sqrt|mu| keep it."""
    cfg = workspace.config(INTERIOR)
    code = main(["continue", "--config", cfg, "--mu-grid", COARSE_GRID, "--out", workspace.outdir("c")])
    assert code == 0
    summary = read_json(workspace, "c", "summary.json")
    assert summary["n_converged"] == 3
    assert summary["lost_at"] is None


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


def test_branch_and_sweep_outputs_keep_their_documented_shape(workspace):
    """The README's columns for branch.tsv and sweep.tsv, the fit keys of
    summary.json, and each summary point equal to its branch.tsv row."""
    cfg = workspace.config(INTERIOR)
    code = main(["continue", "--config", cfg, "--mu-grid", "0.002,0.005,0.01", "--out", workspace.outdir("b")])
    assert code == 0
    header, rows = read_table(workspace, "b", "branch.tsv")
    assert header == "mu period amplitude residual m1_re m1_im m2_re m2_im m3_re m3_im".split()
    summary = read_json(workspace, "b", "summary.json")
    assert sorted(summary["fit"]) == ["exponent", "n_points", "prefactor"]
    assert len(summary["points"]) == len(rows) == 3
    for point, row in zip(summary["points"], rows):
        assert sorted(point) == sorted(header[:4])
        assert [format(point[key], ".12g") for key in header[:4]] == row[:4]

    assert main(["eco-sweep", "--samples", "5", "--out", workspace.outdir("s")]) == 0
    header, rows = read_table(workspace, "s", "sweep.tsv")
    assert header == (
        "delta1 delta2 lambda alpha1 alpha2 l1 l2 omega beta2 beta5 gamma5 gamma7 sigma type"
    ).split()
    assert len(rows) == 5 and all(len(row) == len(header) for row in rows)


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
    assert capsys.readouterr().out.endswith("non-ES rows: 0/1000\n")
    header, rows = read_table(workspace, "sweep", "sweep.tsv")
    assert header[-2:] == ["sigma", "type"]
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


#: eco-sweep runs that end in a numerical failure, with the one line each
#: prints: the closed forms overflow to inf and nan, which classify rejects,
#: or a denominator underflows to 0
SWEEP_NUMERICAL_FAILURES = {
    ("--samples", "1", "--seed", "2884", "--delta-bounds", "1e306,1.7e308"):
        "numerical failure: cannot classify non-finite coefficients: beta2 = -0.17177876162010228, "
        "beta5 = inf, gamma5 = -inf, sigma = nan\n",
    ("--samples", "1", "--delta-bounds", "1e-162,1e-161"):
        "numerical failure: closed forms underflow: a denominator is 0 (omega^2 = 1.74e-162)\n",
    # gamma5 is finite and sigma is not
    ("--samples", "1", "--seed", "960", "--delta-bounds", "5.5e154,7.5e154"):
        "numerical failure: cannot classify non-finite coefficients: beta2 = -0.004115357298150496, "
        "beta5 = 1.2145605973406412e+153, gamma5 = -1.4385463281683558e+154, sigma = nan\n",
    # draw 0's sigma is nan, and it decides the error
    ("--samples", "50", "--seed", "7", "--delta-bounds", "5.5e154,7.5e154"):
        "numerical failure: cannot classify non-finite coefficients: beta2 = -0.09280783384125468, "
        "beta5 = inf, gamma5 = -inf, sigma = nan\n",
}


def test_eco_sweep_overflowing_closed_forms_are_numerical_failures(workspace, capsys):
    # deltas near 1e308 overflow the closed forms to inf and nan; deltas near
    # 1e-170 underflow omega^4 to zero
    for bounds in ("1,1e308", "1e-170,1e-160"):
        assert main(["eco-sweep", "--delta-bounds", bounds, "--out", workspace.outdir("far")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
    for argv, line in SWEEP_NUMERICAL_FAILURES.items():
        assert main(["eco-sweep", *argv, "--out", workspace.outdir("far")]) == 1
        assert capsys.readouterr().err == line


#: an eco-sweep run whose one draw has a focus quantity (-5.983) below the
#: resolution of its largest term (4.791e3)
SWEEP_DEGENERATE = ("--samples", "1", "--seed", "25", "--delta-bounds", "1,1e200")


def test_eco_sweep_degenerate_draw_is_exit_3(workspace, capsys):
    assert main(["eco-sweep", *SWEEP_DEGENERATE, "--out", workspace.outdir("deg")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("degenerate: ") and err.count("\n") == 1, err


def test_failed_eigen_decomposition_is_a_numerical_failure(workspace):
    """At omega = 1e308 LAPACK cannot converge on the Jacobian's eigenvalues;
    the command exits with a numerical failure, not a LinAlgError traceback,
    and the stalled Hopf-point search names that failure."""
    doc = {
        "builtin": "toy_cylindrical",
        "params": {"omega": 1e308, "beta2": -0.7, "beta3": 0.2, "beta5": 0.9, "gamma5": -1.1},
    }
    result = subprocess.run(
        [sys.executable, "-m", "hybridhopf.cli", "classify", "--config", workspace.config(doc),
         "--out", workspace.outdir("eig")],
        capture_output=True, text=True, check=False, env=source_env(), timeout=60,
    )
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    last = result.stderr.splitlines()[-1]
    assert last.startswith("numerical failure: "), result.stderr
    assert "(last failed trial: eigenvalues of the Jacobian failed:" in last, result.stderr


@pytest.mark.parametrize(
    "doc, line",
    [
        *(
            (doc, "model 'steep_drift' has a non-finite jet entry at state=[0.0, 0.0, 1.0], mu=0.0")
            for doc in (STEEP_DRIFT, {**STEEP_DRIFT, "jets": "finite_difference"})
        ),
        (
            STEEP_JACOBIAN,
            "model 'steep_jacobian' has a non-finite Jacobian at state=[0.0, 0.0, 1.0], mu=0.0",
        ),
    ],
    ids=["exact", "finite_difference", "jacobian"],
)
def test_overflowing_steep_drift_is_a_numerical_failure(workspace, doc, line, capsys):
    assert main(["classify", "--config", workspace.config(doc), "--out", workspace.outdir("j")]) == 1
    assert capsys.readouterr().err == f"numerical failure: {line}\n"


@pytest.mark.parametrize(
    "doc, argv, line",
    [
        (
            INTERIOR,
            ["truncated", "--epsilon", "0.1", "--mu-tilde", "1e300", "--r0", "0.8"],
            "numerical failure: integration failed: Required step size is less than "
            "spacing between numbers.",
        ),
        (
            PLANTED_ES,
            ["verify", "--mu", "1e308"],
            "numerical failure: model 'toy_cylindrical' produced non-finite output at ",
        ),
    ],
    ids=["truncated", "verify"],
)
def test_overflow_ends_in_one_typed_line_without_numpy_warnings(workspace, doc, argv, line):
    """No numpy RuntimeWarning, which names the checkout's source paths and
    line numbers, comes ahead of the typed line of an overflowing run."""
    result = subprocess.run(
        [sys.executable, "-m", "hybridhopf.cli", *argv, "--config", workspace.config(doc),
         "--out", workspace.outdir("overflow")],
        capture_output=True, text=True, check=False, env=source_env(), timeout=60,
    )
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith(line) and result.stderr.count("\n") == 1, result.stderr


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
        {"builtin": "toy_cylindrical", "params": {"omega": 1, "beta2": 1, "beta5": 1, "gamma5": 1, "gamma7": 1}, "jets": "symbolic"},
        *(
            {"polynomial": {"y1": [[bad, 0, 1, 0, 0]], "y2": [[1.0, 1, 0, 0, 0]], "z": []}}
            for bad in (float("nan"), float("inf"), float("-inf"))
        ),
        {"builtin": "toy_cylindrical", "params": {"beta2": "abc"}},
        {"builtin": "toy_cylindrical", "params": {"omega": "x"}},
        {"builtin": "toy_cylindrical", "params": {"beta2": float("nan"), "beta5": 1.0, "gamma5": -1.0}},
        {**INTERIOR, "params": {**INTERIOR["params"], "delta1": float("nan")}},
        {**SYNTHETIC, "params": {**SYNTHETIC["params"], "beta2": float("nan")}},
        {**INTERIOR, "params": [1.0]},
        {**INTERIOR, "seed_state": "abc"},
        {**INTERIOR, "seed_state": [0.1, float("nan"), 0.3]},
        {"polynomial": {"y1": 5, "y2": [], "z": []}},
        {"polynomial": [1, 2, 3]},
        {**INTERIOR, "seed_state": []},
        {**INTERIOR, "seed_state": 0},
        {**ES_NORMAL_FORM, "params": {"a": 1.0}},
        {**SYNTHETIC, "params": {**SYNTHETIC["params"], "e": 1.0}},
    ],
)
def test_bad_configs_are_usage_errors(workspace, doc, capsys):
    cfg = workspace.config(doc)
    assert main(["classify", "--config", cfg, "--out", workspace.outdir("u")]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _interior_with(name, value):
    return {**INTERIOR, "params": {**INTERIOR["params"], name: value}}


@pytest.mark.parametrize(
    "doc, line",
    [
        (_interior_with("delta1", 0), "error: predator_prey needs positive growth-rate ratios delta1, delta2\n"),
        (_interior_with("alpha2", -0.1), "error: predator_prey needs positive half-saturation constants\n"),
        (_interior_with("lam", 1.0), "error: predator_prey needs break-even concentration 0 < lam < 1\n"),
    ],
    ids=["delta1", "alpha2", "lam"],
)
def test_predator_prey_bounds_are_usage_errors(workspace, doc, line, capsys):
    cfg = workspace.config(doc)
    assert main(["classify", "--config", cfg, "--out", workspace.outdir("u")]) == 64
    assert capsys.readouterr().err == line


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


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["continue", "--mu-grid", "0.001,nan"], INTERIOR),
        (["continue"], {**INTERIOR, "mu_grid": ["a"]}),
        (["continue"], {**INTERIOR, "mu_grid": 5}),
        (["continue", "--mu-grid", "0.001", "--seed-state", "0.1,inf,0.3"], INTERIOR),
        (["verify", "--mu", "0.005", "--samples", "0"], INTERIOR),
        (["verify", "--mu", "0.005", "--samples", "-3"], INTERIOR),
        (["verify", "--mu", "nan"], INTERIOR),
        (["verify", "--mu", "0.005", "--tol", "-1"], INTERIOR),
        (["eco-sweep", "--delta-bounds", "0.1,inf"], None),
        (["truncated", "--epsilon", "0.1", "--mu-tilde", "0.25", "--r0", "inf"], INTERIOR),
        (["truncated", "--epsilon", "0.1", "--mu-tilde", "0.25", "--r0", "0.8", "--t-final", "0"], INTERIOR),
        (["eco-sweep", "--samples", "0"], None),
        (["eco-sweep", "--samples", "-3"], None),
        (["eco-sweep", "--seed", "-1"], None),
    ],
)
def test_malformed_numbers_are_usage_errors(workspace, capsys, argv, doc):
    config = ["--config", workspace.config(doc)] if doc is not None else []
    assert main([*argv, *config, "--out", workspace.outdir("mn")]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        ["truncated", "--epsilon", "nan", "--mu-tilde", "0.25", "--r0", "0.8"],
        ["truncated", "--epsilon", "0.1", "--mu-tilde", "nan", "--r0", "0.8"],
        ["verify", "--mu", "0.005", "--tol", "nan"],
    ],
)
def test_non_finite_inputs_exit_instead_of_hanging(workspace, argv):
    """Unchecked, each of these inputs keeps the integrator spinning without
    end; a fresh interpreter with a timeout makes a hang fail the suite
    instead of stalling it."""
    cfg = workspace.config(INTERIOR)
    result = subprocess.run(
        [sys.executable, "-m", "hybridhopf.cli", *argv, "--config", cfg, "--out", workspace.outdir("h")],
        capture_output=True,
        text=True,
        check=False,
        env=source_env(),
        timeout=60,
    )
    assert result.returncode == 64, result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


# Exit code and stderr prefix of every error class (README, "Exit codes").
EXIT_TABLE = {
    **dict.fromkeys(("InvalidParams", "InvalidBounds", "UnknownModel", "NotAdmissible", "UsageError"), (64, "error")),
    **dict.fromkeys(
        (
            "NoConvergence", "SingularShooting", "StepFailure", "NonFinite", "LeftDomain",
            "NotHopf", "WrongDirection", "NumericalFailure",
        ),
        (1, "numerical failure"),
    ),
    "AssumptionViolation": (2, "assumption violation"),
    "Degenerate": (3, "degenerate"),
    **dict.fromkeys(
        ("DefectiveSpectrum", "DegenerateAlphas", "HybridHopfError"),
        (1, "error"),
    ),
}


def test_exit_table_names_every_error_class():
    classes = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.HybridHopfError)
    }
    assert classes == set(EXIT_TABLE)


@pytest.mark.parametrize("name", sorted(EXIT_TABLE))
def test_each_error_class_maps_to_its_exit_code(workspace, monkeypatch, capsys, name):
    code, prefix = EXIT_TABLE[name]

    def fail(config):
        raise getattr(errors, name)("planted failure")

    monkeypatch.setattr(models, "from_config", fail)
    assert main(["classify", "--config", workspace.config(INTERIOR), "--out", workspace.outdir("x")]) == code
    assert capsys.readouterr().err == f"{prefix}: planted failure\n"


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


# Runs in a fresh interpreter: records the scipy modules each step has loaded,
# whether it has loaded `verify` and the package modules `import hybridhopf`
# loads, then prints the record as the last stdout line.
IMPORT_BUDGET_CHILD = """
import json, sys

loaded, codes = {}, {}

def record(step):
    loaded[step] = {
        "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
        "verify": "hybridhopf.verify" in sys.modules,
    }

import hybridhopf
record("import hybridhopf")
package = sorted(m for m in sys.modules if m.startswith("hybridhopf"))
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
print(json.dumps({"loaded": loaded, "codes": codes, "package": package}))
"""


def test_no_command_imports_scipy_and_only_verify_loads_verify(workspace):
    """No step, `verify` included, loads any scipy module; `import hybridhopf`
    loads no module of the package, and `--version`, `classify` and
    `eco-sweep` never load `verify`, which `verify` loads on demand."""
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
    assert report["package"] == ["hybridhopf"]
    for step in ("import hybridhopf", "import hybridhopf.cli", "--version", "classify", "eco-sweep"):
        assert report["loaded"][step] == {"scipy": [], "verify": False}, step
    assert report["loaded"]["verify"] == {"scipy": [], "verify": True}


@pytest.mark.parametrize(
    "old, new, flag",
    [
        (
            '{"period": 11.4552795400, "residual": 6.8e-14}',
            '{"period": 11.4552795412, "residual": 2.1e-13}',
            None,
        ),
        ("0\n", "1\n", "integer 0 -> 1"),
        ('{"n_converged": 6}', '{"n_converged": 5}', "integer 6 -> 5"),
        ('{"lost_at": null}', '{"lost_at": 0.02}', "text "),
        ("standing assumptions      : all pass\n", "FAILED ['a4_nondegeneracy']\n", "text "),
        ("mu\tperiod\n0.001\t11.46\n", "mu\tperiod\n", "2 -> 0 numbers"),
        ("amplitude 0.25\n", "amplitude nan\n", "non-finite 0.25 -> nan"),
    ],
)
def test_matrix_compare_separates_numbers_from_everything_else(old, new, flag):
    """`tests/cli_matrix.py --compare` lets floats move, leaves those below
    1e-9 out of the largest change, and flags text, integers, a changed count
    of numbers and non-finite values."""
    import cli_matrix

    got, change, _ = cli_matrix.compare_text(old, new)
    if flag is None:
        assert got is None and change == pytest.approx(1.2e-9 / 11.4552795412, rel=1e-6)
    else:
        assert got.startswith(flag) and change == 0.0


def _assumption_row(value: str, verdict: str = "pass") -> str:
    return f"{'a1_line':<18}{value:>16}  {'< 1e-10':<14}{verdict}\n"


@pytest.mark.parametrize(
    "old, new, flag, where",
    [
        # a value wider than its 16-character column shifts the rest of the row
        (_assumption_row("8.9e-16"), _assumption_row("2.6101217871994e-44"), None, "realigned"),
        (_assumption_row("0.25"), _assumption_row("0.2500000000000001"), None, "0.25 -> "),
        (_assumption_row("8.9e-16"), _assumption_row("2.6101217871994e-44", "FAIL"), "text ", ""),
        ("a1 8.9e-16\n", "a1\n2.6e-44\n", "text ", ""),
    ],
)
def test_matrix_compare_reports_a_realigned_column_as_numbers(old, new, flag, where):
    """Text that differs only in spaces and tabs next to a changed number is
    a number change, noted ``realigned``; a changed word or line break next
    to it is still flagged."""
    import cli_matrix

    got, change, pair = cli_matrix.compare_text(old, new)
    if flag is None:
        assert got is None and pair.startswith(where) and pair.endswith("realigned")
    else:
        assert got.startswith(flag) and pair == ""
    assert change < 1e-15


def test_matrix_compare_flags_a_file_in_one_tree_only(tmp_path, capsys):
    import cli_matrix

    for tree, value in (("a", "1.0"), ("b", "1.5")):
        (tmp_path / tree / "run").mkdir(parents=True)
        (tmp_path / tree / "run" / "stdout").write_text(f"x = {value}\n")
    (tmp_path / "b" / "run" / "extra").write_text("")
    assert cli_matrix.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("FLAGGED  run/extra: only in ")
    assert out[1] == "numbers  run/stdout: largest relative change 0.33 (1.0 -> 1.5)"
    assert out[2] == "2 files differ, 1 flagged; largest relative change 0.33 in run/stdout"
