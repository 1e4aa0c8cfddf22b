"""Command-line interface.

Subcommands
-----------
classify   locate the Hopf point, check assumptions, emit coefficients + type
verify     classify, then shoot for the periodic orbit at one mu and test it
continue   track the orbit branch over a mu grid
eco-sweep  classify random admissible predator-prey parameter sets
truncated  integrate the truncated reduced dynamics, optionally vs. the model

Exit codes: 0 success; 1 numerical failure (lost branch, no convergence,
validity exit, requested mu on the orbit-free side, non-finite coefficients);
2 assumption violation; 3 degenerate classification; 64 configuration or
usage errors.

Model configuration files are JSON documents of one of two shapes::

    {"builtin": "predator_prey", "params": {...}, "seed_state": [...]}
    {"polynomial": {"y1": [[coef, i, j, k, m], ...], "y2": [...], "z": [...]}}

All file outputs are deterministic: identical configuration and seed produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import itertools
import json
import math
import operator
import os
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# Only the subcommands that integrate (verify, continue, truncated) import
# `verify` and its integrator; classify and eco-sweep never load them.
from . import __version__, classifier, eco, frame as frame_mod, models
from .coefficients import compute_coefficients
from .errors import (
    AssumptionViolation, Degenerate, HybridHopfError, InvalidParams, UsageError, WrongDirection,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(UsageError.exit_code)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _out_dir(args: argparse.Namespace) -> Path:
    out = args.out or os.environ.get("HYBRIDHOPF_OUT", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_table(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Header and rows, tab-separated, written as they come.  Numbers are
    written as `_fmt` writes them (``"%.12g" % x`` is
    ``format(float(x), ".12g")``); a column holds strings or numbers
    throughout, as the first row shows."""
    rows = iter(rows)
    first = next(rows, None)
    with path.open("w") as f:
        f.write("\t".join(header) + "\n")
        if first is not None:
            row_format = "\t".join("%s" if isinstance(c, str) else "%.12g" for c in first) + "\n"
            f.writelines(row_format % tuple(row) for row in itertools.chain([first], rows))


def _write_orbit(path: Path, orbit) -> None:
    _write_table(path, ("t", "x1", "x2", "s"), np.column_stack([orbit.times, orbit.states]))


def _load_config(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InvalidParams(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidParams(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidParams("config must be a JSON object")
    return doc


def _numbers(value, what: str, n: int | None = None) -> list[float]:
    """Finite numbers from a JSON list or a comma-separated string."""
    parts = value.replace(",", " ").split() if isinstance(value, str) else value
    try:
        numbers = [float(p) for p in parts]
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"{what} must be numeric: {value!r}") from exc
    if not numbers or (n is not None and len(numbers) != n):
        raise InvalidParams(f"{what} needs {n or 'some'} comma-separated numbers, got {value!r}")
    if not all(map(math.isfinite, numbers)):
        raise InvalidParams(f"{what} must be finite: {value!r}")
    return numbers


# ---------------------------------------------------------------------------
# shared pipeline
# ---------------------------------------------------------------------------


def _pipeline(config: dict, out: Path | None = None):
    """Model -> Hopf point -> assumptions (with frame and standard jet) ->
    coefficients, and the guard shooting keeps iterates in: the interior of
    the coexistence region for predator-prey, none otherwise.

    Writes ``assumptions.json`` into ``out`` when given.  Frame and
    coefficients are None when an assumption fails.
    """
    model = models.from_config(config)
    guard = eco.interior_guard() if config.get("builtin") == "predator_prey" else None
    seed = config.get("seed_state", model.metadata.get("hopf_seed") or (0.1, 0.1, 0.1))
    X_H = frame_mod.locate_hopf_point(model, np.array(_numbers(seed, "seed_state", 3)))
    report = frame_mod.check_assumptions(model, X_H)
    frame = coeffs = None
    if report.all_pass():
        frame = report.frame
        coeffs = compute_coefficients(report.standard_jet)
    if out is not None:
        _write_json(out / "assumptions.json", {
            "model": model.name, "point": [float(v) for v in X_H],
            "all_pass": report.all_pass(), "report": report.to_document(),
        })
    return model, report, frame, coeffs, guard


def _assumptions_failed(report: frame_mod.AssumptionReport) -> int:
    print(f"assumption check failed: {', '.join(report.failed())}")
    return AssumptionViolation.exit_code


def _print_assumptions(report: frame_mod.AssumptionReport) -> None:
    doc = report.to_document()
    rows = [
        ("a1_line", doc["a1_line_residual"], f"< {frame_mod.A1_THRESHOLD:g}"),
        ("a2_spectrum", doc["a2_defect"], f"< {frame_mod.A2_THRESHOLD:g}"),
        ("a3_crossing", doc["a3_crossing"], f"|.| > {frame_mod.NONZERO_THRESHOLD:g}"),
        ("a4_nondegeneracy", doc["a4_nondegeneracy"], f"|.| > {frame_mod.NONZERO_THRESHOLD:g}"),
        ("a5_drift", doc["a5_drift"], f"|.| > {frame_mod.NONZERO_THRESHOLD:g}"),
    ]
    print(f"{'assumption':<18}{'value':>16}  {'requirement':<14}verdict")
    for name, value, req in rows:
        verdict = "pass" if report.verdicts[name] else "FAIL"
        print(f"{name:<18}{_fmt(value):>16}  {req:<14}{verdict}")


def _classification_doc(classification, coeffs) -> dict:
    doc = dataclasses.asdict(classification)
    doc["predicted_period"] = 2.0 * float(np.pi) / classification.omega
    doc["amplitude_coefficient"] = float(
        np.sqrt(abs(coeffs.gamma5 / coeffs.beta5))
    )
    return doc


def _describe(classification) -> str:
    names = {
        "H": "hyperbolic: orbit with a two-dimensional unstable manifold",
        "ES": "elliptic, stable: orbit attracts",
        "EU": "elliptic, unstable: orbit with a three-dimensional unstable manifold",
    }
    return (
        f"type {classification.label} ({names[classification.label]}); "
        f"branch on {classifier.direction_label(classification.direction)}; "
        f"sigma = {_fmt(classification.sigma)}; "
        f"|mu| validity hint {_fmt(classification.mu_validity_hint)}"
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_classify(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    _, report, _, coeffs, _ = _pipeline(_load_config(args.config), out)
    _print_assumptions(report)
    if not report.all_pass():
        return _assumptions_failed(report)
    _write_json(out / "coefficients.json", dataclasses.asdict(coeffs))
    try:
        classification = classifier.classify(coeffs)
    except Degenerate as exc:
        _write_json(
            out / "classification.json",
            {"label": "degenerate", "detail": str(exc)},
        )
        print(f"degenerate: {exc}")
        return exc.exit_code
    _write_json(out / "classification.json", _classification_doc(classification, coeffs))
    print(_describe(classification))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify
    out = _out_dir(args)
    model, report, frame, coeffs, guard = _pipeline(_load_config(args.config), out)
    if not report.all_pass():
        return _assumptions_failed(report)
    classification = classifier.classify(coeffs)
    prediction = classifier.predict_orbit(coeffs, args.mu, frame)
    tol = args.tol if args.tol is not None else verify.ORBIT_NEWTON_TOL
    orbit = verify.find_periodic_orbit(
        model,
        args.mu,
        prediction,
        rtol=min(tol, verify.ORBIT_RTOL * 100),
        newton_tol=tol,
        guard=guard,
        n_samples=args.samples,
    )
    stability = verify.floquet_stability(orbit)
    doc = {
        "mu": args.mu,
        "classification": classification.label,
        "period": orbit.period,
        "predicted_period": prediction.period,
        "anchor": [float(v) for v in orbit.anchor],
        "residual": orbit.residual,
        "liouville_defect": orbit.liouville_defect,
        "multipliers": [[z.real, z.imag] for z in orbit.multipliers],
        "stability": dataclasses.asdict(stability),
        "prediction": {"r0": prediction.r0, "amplitude_scale": prediction.scale},
        "stability_consistent": stability.stable == classification.orbit_stable,
    }
    _write_json(out / "verify.json", doc)
    _write_orbit(out / "orbit.tsv", orbit)
    print(
        f"orbit at mu = {_fmt(args.mu)}: period {_fmt(orbit.period)} "
        f"(predicted {_fmt(prediction.period)}), residual {orbit.residual:.2e}, "
        f"{'stable' if stability.stable else 'unstable'} "
        f"(classification says {'stable' if classification.orbit_stable else 'unstable'})"
    )
    return 0


#: branch.tsv's leading columns, which are also the keys of each summary.json
#: point, with the `BranchPoint` attribute each one reads
_POINT_COLUMNS = {
    "mu": "mu", "period": "orbit.period", "amplitude": "amplitude", "residual": "orbit.residual",
}
_point_values = operator.attrgetter(*_POINT_COLUMNS.values())


def _cmd_continue(args: argparse.Namespace) -> int:
    from . import verify
    out = _out_dir(args)
    config = _load_config(args.config)
    grid = args.mu_grid or config.get("mu_grid")
    if grid is None:
        raise InvalidParams("continue needs --mu-grid or a mu_grid config entry")
    grid = _numbers(grid, "mu grid")
    model, report, frame, coeffs, guard = _pipeline(config, out)
    if not report.all_pass():
        return _assumptions_failed(report)
    try:
        branch = verify.continue_branch(
            model,
            grid,
            coeffs=coeffs,
            frame=frame,
            guard=guard,
            n_samples=args.samples,
        )
    except WrongDirection as exc:
        # The whole grid sits on the orbit-free side: report an empty branch.
        branch = verify.Branch(points=(), lost_at=grid[0], fit=None)
        print(exc)

    points = [dict(zip(_POINT_COLUMNS, _point_values(pt))) for pt in branch.points]
    rows = [
        [*point.values(), *(v for z in pt.orbit.multipliers for v in (z.real, z.imag))]
        for point, pt in zip(points, branch.points)
    ]
    multipliers = [f"m{k}_{part}" for k in (1, 2, 3) for part in ("re", "im")]
    _write_table(out / "branch.tsv", [*_POINT_COLUMNS, *multipliers], rows)
    for i, pt in enumerate(branch.points):
        _write_orbit(out / f"orbit_{i:03d}.tsv", pt.orbit)
    summary = {
        "mu_grid": grid,
        "n_converged": len(branch.points),
        "lost_at": branch.lost_at,
        "fit": None if branch.fit is None else dataclasses.asdict(branch.fit),
        "points": points,
    }
    _write_json(out / "summary.json", summary)
    if branch.fit is not None:
        print(
            f"tracked {len(branch.points)}/{len(grid)} points; amplitude ~ "
            f"{_fmt(branch.fit.prefactor)} * |mu|^{_fmt(branch.fit.exponent)}"
        )
    else:
        print(f"tracked {len(branch.points)}/{len(grid)} points")
    if not branch.complete():
        print(f"branch lost at mu = {_fmt(branch.lost_at)}")
        return 1
    return 0


#: sweep.tsv's columns: `EcoParams` attributes (``lam`` is headed "lambda"),
#: then `eco.classify_region` closed forms, then the type
_SWEEP_PARAMS = ("delta1", "delta2", "lam", "alpha1", "alpha2", "l1", "l2")
_SWEEP_CLOSED_FORMS = ("omega", "beta2", "beta5", "gamma5", "gamma7", "sigma")
_sweep_params = operator.attrgetter(*_SWEEP_PARAMS)
_sweep_closed_forms = operator.itemgetter(*_SWEEP_CLOSED_FORMS)


def _cmd_eco_sweep(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    bounds = eco.DELTA_BOUNDS
    if args.delta_bounds:
        bounds = tuple(_numbers(args.delta_bounds, "--delta-bounds", 2))
    draws, cf, types = eco.classify_region(args.samples, args.seed, bounds)
    table = np.column_stack([*_sweep_params(draws), *_sweep_closed_forms(cf)])
    rows = ([*row.tolist(), label] for row, label in zip(table, types))
    header = ["lambda" if name == "lam" else name for name in _SWEEP_PARAMS]
    _write_table(out / "sweep.tsv", [*header, *_SWEEP_CLOSED_FORMS, "type"], rows)
    n = len(types)
    labels = dict(collections.Counter(types))
    non_es = n - labels.get("ES", 0)
    print(f"{n} samples: types {labels}; non-ES rows: {non_es}/{n}")
    return 0 if non_es == 0 else 1


def _cmd_truncated(args: argparse.Namespace) -> int:
    from . import verify
    out = _out_dir(args)
    model, report, frame, coeffs, _ = _pipeline(_load_config(args.config))
    if not report.all_pass():
        return _assumptions_failed(report)
    run = verify.simulate_truncated(
        coeffs,
        args.epsilon,
        args.mu_tilde,
        (args.r0, args.z0),
        t_final=args.t_final,
    )
    doc = {
        "epsilon": run.epsilon,
        "mu_tilde": run.mu_tilde,
        "r0": run.r0,
    }
    if args.compare:
        doc |= dataclasses.asdict(verify.compare_with_full_model(model, frame, run))
    _write_json(out / "truncated.json", doc)
    _write_table(
        out / "truncated.tsv",
        ("tau", "r", "z"),
        np.column_stack([run.tau, run.r, run.z]),
    )
    print(f"truncated run to tau = {_fmt(run.tau[-1])}")
    if args.compare:
        print(f"sup deviation from full model: {_fmt(doc['deviation'])}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hybridhopf",
        description="Detect, classify, and verify periodic orbits born from a "
        "destroyed line of equilibria.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, config: bool = True) -> None:
        if config:
            p.add_argument("--config", required=True, help="JSON model configuration")
        p.add_argument("--out", default=None, help="output directory (default: $HYBRIDHOPF_OUT or .)")

    p = sub.add_parser("classify", help="assumptions, coefficients, and type")
    add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="shoot for the orbit at one mu and test stability")
    add_common(p)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--tol", type=float, default=None, help="shooting tolerance")
    p.add_argument("--samples", type=int, default=256, help="orbit sample count")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("continue", help="track the orbit branch over a mu grid")
    add_common(p)
    p.add_argument("--mu-grid", default=None, help="comma-separated mu values")
    p.add_argument("--samples", type=int, default=256, help="orbit sample count")
    p.set_defaults(func=_cmd_continue)

    p = sub.add_parser("eco-sweep", help="classify random admissible predator-prey samples")
    add_common(p, config=False)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta-bounds", default=None, help="lo,hi bounds for the deltas")
    p.set_defaults(func=_cmd_eco_sweep)

    p = sub.add_parser("truncated", help="integrate the truncated reduced dynamics")
    add_common(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--mu-tilde", type=float, required=True)
    p.add_argument("--r0", type=float, required=True, help="initial scaled radius")
    p.add_argument("--z0", type=float, default=0.0, help="initial scaled drift coordinate")
    p.add_argument("--t-final", type=float, default=None, help="slow-time horizon (default 10/epsilon)")
    p.add_argument(
        "--compare",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="also integrate the full model and report the deviation",
    )
    p.set_defaults(func=_cmd_truncated)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # overflow and nan end in a typed error, not numpy's warnings on stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except HybridHopfError as exc:  # each error base carries its exit code
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
