"""Run a fixed matrix of command-line runs and keep everything each one leaves.

    PYTHONPATH=<checkout>/src python tests/cli_matrix.py OUT

For every run the script writes, under ``OUT/<run>/``, the command's output
directory (``out/``), its ``stdout``, ``stderr`` and ``exit_code``; the
configs the runs read go to ``OUT/configs/``.  Every run starts a fresh
``python -m hybridhopf.cli`` in ``OUT`` with relative paths, so two
checkouts can be compared with ``diff -r OUT_A OUT_B``.  The one script run
starts ``scripts/run_boundary_connection.py`` of the checkout whose
``hybridhopf`` is imported, the same way.

The matrix: the five subcommands on the README predator-prey config, with
exact and finite-difference jets; ``continue`` on ROADMAP item 3's coarse
grid; ``verify``, ``continue`` and ``truncated --compare`` (after
``classify``) on four planted ``toy_cylindrical`` sets, each named for what
it plants: ``synthetic_nf`` the quadratic normal form (beta2, beta5, gamma5,
gamma7 only), ``toy_es`` an ES set, ``toy_beta1`` ROADMAP item 2's set with
beta1 != 0, read back as planted, and ``classical_hopf`` the classical Hopf
normal form, which has no line of equilibria; ``classify`` and ``verify``
on the ES set, and ``classify`` and ``continue`` on the beta1 != 0 set
(``toy_beta1_fd_classify``, ``toy_beta1_fd_continue``: jets by Taylor
arithmetic on the polynomial's ``field``, shooting by central differences
of its ``rhs``), with finite-difference jets; a jet entry
that overflows, in both jet modes, and a Jacobian that overflows; a
degenerate ``eco-sweep`` draw; the typed-error rows of
``tests/test_cli.py``, read from its parametrize marks and test bodies; and
``scripts/run_boundary_connection.py`` on three points, seeded from the
prediction, with its TSV.

    python tests/cli_matrix.py --compare OUT_A OUT_B

compares two such trees file by file.  For each file that differs it says
whether only numbers changed, and gives the largest relative change
|b - a| / max(|a|, |b|) over the number pairs of which one has magnitude
1e-9 or more (residuals and defects near rounding are left out).  Text
that differs only in spaces and tabs, as where a table re-pads its column
to a number of another width, counts as numbers, with ``realigned`` after
the pair.  Any other difference is flagged: text (labels, verdicts, null
against a number), a changed integer (exit codes, counts such as
``n_converged``; ``lost_at`` is a grid value, so moving it changes the
point count), a non-finite number on one side only, or a file present in
one tree only.  It exits 1 when anything is flagged.
pytest does not collect this file.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

README_GRID = "0.0005,0.001,0.002,0.005,0.01,0.02"
PLANTED_GRID = "0.002,0.005,0.01"
TRUNCATED = ["truncated", "--epsilon", "0.1", "--mu-tilde", "0.25", "--r0", "0.8", "--compare"]
#: ROADMAP item 2's set with beta1 != 0, shot on the side `classify` predicts
TOY_BETA1 = {
    "builtin": "toy_cylindrical",
    "params": {
        "omega": 1.3, "beta1": 0.4, "beta2": 0.7, "beta4": 0.3, "beta5": -0.9,
        "beta6": 0.25, "gamma5": 0.8, "gamma7": -0.35,
    },
}
EIGEN_FAILURE = {
    "builtin": "toy_cylindrical",
    "params": {"omega": 1e308, "beta2": -0.7, "beta3": 0.2, "beta5": 0.9, "gamma5": -1.1},
}


def _cases(test) -> list:
    """The argument values of a test's parametrize mark."""
    (mark,) = [m for m in test.pytestmark if m.name == "parametrize"]
    return list(mark.args[1])


def _fd(doc: dict) -> dict:
    return {**doc, "jets": "finite_difference"}


def runs() -> list[tuple[str, list[str], object]]:
    """(name, argv, config) per run; ``{config}`` in argv is the config's path,
    and a config that is a string is written as it is.  Only run mode needs
    ``hybridhopf`` and ``tests/test_cli.py``, so only it imports them."""
    import hybridhopf
    import test_cli
    from test_cli import (
        CLASSICAL, COARSE_GRID, INTERIOR, PLANTED_ES, STEEP_DRIFT, STEEP_JACOBIAN,
        SWEEP_DEGENERATE, SYNTHETIC, SYNTHETIC_DEGENERATE,
    )

    # the scripts directory of the checkout whose ``src`` is on PYTHONPATH
    scripts = Path(hybridhopf.__file__).resolve().parents[2] / "scripts"
    matrix = []
    for tag, doc in (("pp", INTERIOR), ("pp_fd", _fd(INTERIOR))):
        matrix += [
            (f"{tag}_classify", ["classify", "--config", "{config}"], doc),
            (f"{tag}_verify", ["verify", "--config", "{config}", "--mu", "0.005"], doc),
            (f"{tag}_continue", ["continue", "--config", "{config}", "--mu-grid", README_GRID], doc),
            (f"{tag}_truncated", [*TRUNCATED, "--config", "{config}"], doc),
        ]
    matrix += [
        ("pp_eco_sweep_seed7", ["eco-sweep", "--samples", "1000", "--seed", "7"], None),
        ("pp_eco_sweep_seed1", ["eco-sweep", "--samples", "10000", "--seed", "1"], None),
        ("pp_continue_coarse", ["continue", "--config", "{config}", "--mu-grid", COARSE_GRID], INTERIOR),
    ]
    planted = {
        "synthetic_nf": (SYNTHETIC, "-"),
        "toy_es": (PLANTED_ES, ""),
        "toy_beta1": (TOY_BETA1, ""),
        "classical_hopf": (CLASSICAL, ""),
    }
    for tag, (doc, sign) in planted.items():
        grid = ",".join(sign + mu for mu in PLANTED_GRID.split(","))
        matrix += [
            (f"{tag}_classify", ["classify", "--config", "{config}"], doc),
            (f"{tag}_verify", ["verify", "--config", "{config}", f"--mu={sign}0.005"], doc),
            (f"{tag}_continue", ["continue", "--config", "{config}", f"--mu-grid={grid}"], doc),
            (f"{tag}_truncated", [*TRUNCATED, "--config", "{config}"], doc),
        ]
    matrix += [
        ("toy_es_fd_classify", ["classify", "--config", "{config}"], _fd(PLANTED_ES)),
        ("toy_es_fd_verify", ["verify", "--config", "{config}", "--mu=0.005"], _fd(PLANTED_ES)),
        ("toy_beta1_fd_classify", ["classify", "--config", "{config}"], _fd(TOY_BETA1)),
        (
            "toy_beta1_fd_continue",
            ["continue", "--config", "{config}", f"--mu-grid={PLANTED_GRID}"],
            _fd(TOY_BETA1),
        ),
    ]

    # typed errors, as tests/test_cli.py runs them
    for i, doc in enumerate(_cases(test_cli.test_bad_configs_are_usage_errors)):
        matrix.append((f"err_bad_config_{i:02d}", ["classify", "--config", "{config}"], doc))
    for i, (doc, _) in enumerate(_cases(test_cli.test_predator_prey_bounds_are_usage_errors)):
        matrix.append((f"err_pp_bounds_{i}", ["classify", "--config", "{config}"], doc))
    for i, (argv, doc) in enumerate(_cases(test_cli.test_malformed_numbers_are_usage_errors)):
        config = ["--config", "{config}"] if doc is not None else []
        matrix.append((f"err_malformed_{i:02d}", [*argv, *config], doc))
    for i, argv in enumerate(_cases(test_cli.test_non_finite_inputs_exit_instead_of_hanging)):
        matrix.append((f"err_non_finite_{i}", [*argv, "--config", "{config}"], INTERIOR))
    for i, (doc, argv, _) in enumerate(
        _cases(test_cli.test_overflow_ends_in_one_typed_line_without_numpy_warnings)
    ):
        matrix.append((f"err_overflow_{i}", [*argv, "--config", "{config}"], doc))
    for i, (argv, _) in enumerate(_cases(test_cli.test_integrating_commands_reject_plain_hopf)):
        matrix.append((f"err_plain_hopf_{i}", [*argv, "--config", "{config}"], CLASSICAL))
    matrix += [
        ("err_degenerate", ["classify", "--config", "{config}"], SYNTHETIC_DEGENERATE),
        ("err_wrong_side", ["verify", "--config", "{config}", "--mu", "-0.005"], INTERIOR),
        ("err_no_grid", ["continue", "--config", "{config}"], INTERIOR),
        ("err_bad_mu_grid", ["continue", "--config", "{config}", "--mu-grid", "0.01,abc"], INTERIOR),
        ("err_eigen", ["classify", "--config", "{config}"], EIGEN_FAILURE),
        ("err_exact_overflow", ["classify", "--config", "{config}"], STEEP_DRIFT),
        ("err_fd_overflow", ["classify", "--config", "{config}"], _fd(STEEP_DRIFT)),
        ("err_jacobian_overflow", ["classify", "--config", "{config}"], STEEP_JACOBIAN),
        ("err_sweep_overflow", ["eco-sweep", "--delta-bounds", "1,1e308"], None),
        ("err_sweep_underflow", ["eco-sweep", "--delta-bounds", "1e-170,1e-160"], None),
        *(
            (f"err_sweep_float_{i}", ["eco-sweep", *argv], None)
            for i, argv in enumerate(test_cli.SWEEP_NUMERICAL_FAILURES)
        ),
        ("err_sweep_degenerate", ["eco-sweep", *SWEEP_DEGENERATE], None),
        # the first draw the classification rejects decides the error: draw 0
        # here, draw 14 in the second
        ("err_sweep_first_row", ["eco-sweep", "--delta-bounds", "1e-300,1"], None),
        (
            "err_sweep_later_row",
            ["eco-sweep", "--samples", "20000", "--seed", "3", "--delta-bounds", "1e-6,1e6"],
            None,
        ),
        ("err_absent_config", ["classify", "--config", "configs/absent.json"], None),
        ("err_list_config", ["classify", "--config", "{config}"], "[1, 2, 3]"),
        ("err_malformed_json", ["classify", "--config", "{config}"], "{not json"),
        ("err_unknown_subcommand", ["frobnicate"], None),
        ("err_missing_config", ["classify"], None),
    ]
    matrix.append((
        "script_boundary_connection",
        [str(scripts / "run_boundary_connection.py"), "--n-points", "3", "--settle-time", "300",
         "--out", "script_boundary_connection/out/connection.tsv"],
        None,
    ))
    return matrix


#: a number standing alone: not part of a name such as ``orbit_000`` or ``a4``
NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf(?:inity)?|nan)(?!\w)", re.I
)
#: magnitude below which a number takes no part in the largest relative change
COMPARE_FLOOR = 1e-9


#: spaces and tabs, which a table pads a number with to its column width
PADDING = re.compile(r"[ \t]+")


def compare_text(a: str, b: str) -> tuple[str | None, float, str]:
    """(flag or None, largest relative change, the pair where it occurs)
    between two versions of one file.  Text that differs only in spaces and
    tabs is a column re-padded to a number of another width: the numbers
    are compared, and the pair reads ``realigned``."""
    text_a, text_b = NUMBER.split(a), NUMBER.split(b)
    realigned = text_a != text_b
    if realigned and [PADDING.sub("", x) for x in text_a] != [PADDING.sub("", y) for y in text_b]:
        for x, y in zip(text_a, text_b):
            if x != y:
                x, y = (x.strip() or x)[:60], (y.strip() or y)[:60]
                return f"text {x!r} -> {y!r}", 0.0, ""
        return f"{len(text_a) - 1} -> {len(text_b) - 1} numbers", 0.0, ""
    largest, where = 0.0, ""
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        if x == y:
            continue
        if re.fullmatch(r"[-+]?\d+", x) and re.fullmatch(r"[-+]?\d+", y):
            return f"integer {x} -> {y}", 0.0, ""
        u, v = float(x), float(y)
        if not (math.isfinite(u) and math.isfinite(v)):
            return f"non-finite {x} -> {y}", 0.0, ""
        scale = max(abs(u), abs(v))
        if scale >= COMPARE_FLOOR and abs(v - u) / scale > largest:
            largest, where = abs(v - u) / scale, f"{x} -> {y}"
    if realigned:
        where = f"{where}; realigned" if where else "realigned"
    return None, largest, where


def compare(old: Path, new: Path) -> int:
    """Print one line per file that differs between two matrix trees and a
    summary; 1 when a difference is flagged."""
    files = sorted(
        {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
        | {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    )
    differing = flagged = 0
    largest, largest_at = 0.0, ""
    for rel in files:
        a, b = old / rel, new / rel
        if not (a.is_file() and b.is_file()):
            flag, change, where = f"only in {old if a.is_file() else new}", 0.0, ""
        elif a.read_bytes() == b.read_bytes():
            continue
        else:
            flag, change, where = compare_text(
                a.read_text(errors="replace"), b.read_text(errors="replace")
            )
        differing += 1
        if flag is not None:
            flagged += 1
            print(f"FLAGGED  {rel}: {flag}")
            continue
        print(f"numbers  {rel}: largest relative change {change:.2g} ({where})")
        if change > largest:
            largest, largest_at = change, str(rel)
    print(
        f"{differing} files differ, {flagged} flagged; largest relative change "
        f"{largest:.2g}{f' in {largest_at}' if largest_at else ''}"
    )
    return int(flagged > 0)


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1:
        print(
            "usage: python tests/cli_matrix.py OUT\n"
            "       python tests/cli_matrix.py --compare OUT_A OUT_B",
            file=sys.stderr,
        )
        return 64
    root = Path(argv[0])
    (root / "configs").mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "HYBRIDHOPF_OUT"}
    # the runs start in OUT, so a relative PYTHONPATH must not change meaning
    paths = env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(str(Path(p).resolve()) for p in paths if p)
    matrix = runs()
    for name, args, config in matrix:
        if config is not None:
            path = root / "configs" / f"{name}.json"
            path.write_text(config if isinstance(config, str) else json.dumps(config))
        args = [a.replace("{config}", f"configs/{name}.json") for a in args]
        if args[0].endswith(".py"):
            (root / name / "out").mkdir(parents=True, exist_ok=True)
            command = [sys.executable, *args]
        else:
            if args[0] in ("classify", "verify", "continue", "eco-sweep", "truncated"):
                args += ["--out", f"{name}/out"]
            command = [sys.executable, "-m", "hybridhopf.cli", *args]
        result = subprocess.run(
            command,
            cwd=root, env=env, capture_output=True, text=True, check=False, timeout=600,
        )
        (root / name).mkdir(exist_ok=True)
        (root / name / "stdout").write_text(result.stdout)
        (root / name / "stderr").write_text(result.stderr)
        (root / name / "exit_code").write_text(f"{result.returncode}\n")
        print(f"{result.returncode:3d}  {name}", flush=True)
    print(f"{len(matrix)} runs under {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
