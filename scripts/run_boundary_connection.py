"""Track the orbit branch toward the invariant boundary plane x2 = 0.

For parameter sets near the admissibility boundary the branch born at the
equilibrium-line point grows quickly and its minimum x2 approaches zero,
suggesting a connection to the boundary cycle of the x2-free subsystem.
The defaults (lambda = 0.39, alpha1 = 0.15, alpha2 = 0.3) sit strictly inside
the admissible region 0 < alpha1 < 1 - 2 lambda = 0.22 < alpha2 < 1, where all
five standing assumptions pass; their branch comes within about 0.006 of
x2 = 0 before shooting loses it.  A parameter set that fails an assumption
ends the run with exit code 1.

This driver seeds the first orbit by settling onto the attractor (the
asymptotic prediction is only valid for small mu), continues outward over a
mu grid, and reports amplitude and boundary distance per orbit.  It then
settles a long trajectory at the largest requested mu and reports where the
flow actually ends up once shooting has lost the orbit.

Usage:
    python3 scripts/run_boundary_connection.py
    python3 scripts/run_boundary_connection.py --mu-max 0.05 --n-points 10 \
        --out connection.tsv
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from hybridhopf import eco
from hybridhopf.errors import HybridHopfError
from hybridhopf.frame import check_assumptions
from hybridhopf.verify import continue_branch, integrate


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delta1", type=float, default=0.8)
    parser.add_argument("--delta2", type=float, default=0.5)
    parser.add_argument("--lam", type=float, default=0.39)
    parser.add_argument("--alpha1", type=float, default=0.15)
    parser.add_argument("--alpha2", type=float, default=0.3)
    parser.add_argument("--mu-min", type=float, default=5e-4)
    parser.add_argument("--mu-max", type=float, default=5e-2)
    parser.add_argument("--n-points", type=int, default=10)
    parser.add_argument("--settle-time", type=float, default=2500.0)
    parser.add_argument("--out", type=str, default=None, help="optional TSV path")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run the driver; a package error ends in the command line's one
    ``prefix: message`` line on stderr and its exit code."""
    args = parse_args(argv)
    try:
        return run(args)
    except HybridHopfError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code


def run(args: argparse.Namespace) -> int:
    p = eco.EcoParams(
        delta1=args.delta1,
        delta2=args.delta2,
        lam=args.lam,
        alpha1=args.alpha1,
        alpha2=args.alpha2,
    )
    if not p.admissible():
        print(f"parameters {p.to_dict()} are outside the admissible region")
        return 2

    model = eco.model(p)
    X_H = eco.hopf_point(p)
    report = check_assumptions(model, X_H)
    print(f"point on equilibrium line : {np.array2string(X_H, precision=6)}")
    if not report.all_pass():
        print(f"standing assumptions failed: {', '.join(report.failed())}", file=sys.stderr)
        return 1
    print("standing assumptions      : all pass")

    # Start the settling trajectory between the line point and the interior
    # equilibrium of the x2-free subsystem, safely off both.
    E1 = np.array(eco.boundary_equilibrium(p))
    seed_state = 0.6 * X_H + 0.4 * (E1 + np.array([0.0, 0.05, 0.0]))

    grid = [float(m) for m in np.geomspace(args.mu_min, args.mu_max, args.n_points)]
    branch = continue_branch(
        model,
        grid,
        seed_state=seed_state,
        settle_time=args.settle_time,
        guard=eco.interior_guard(),
    )

    print(f"\n{'mu':>10} {'amplitude':>12} {'period':>12} {'min x2':>12}")
    rows = []
    for point in branch.points:
        min_x2 = float(np.min(point.orbit.states[:, 1]))
        print(f"{point.mu:>10.5g} {point.amplitude:>12.6g} "
              f"{point.orbit.period:>12.6g} {min_x2:>12.6g}")
        rows.append((point.mu, point.amplitude, point.orbit.period, min_x2))
    if branch.lost_at is not None:
        print(f"shooting lost the orbit at mu = {branch.lost_at:g} "
              f"(expected once the loop grazes the boundary plane)")

    amplitudes = [r[1] for r in rows]
    min_x2s = [r[3] for r in rows]
    if len(rows) >= 2:
        grows = all(a < b for a, b in zip(amplitudes, amplitudes[1:]))
        shrinks = all(a > b for a, b in zip(min_x2s, min_x2s[1:]))
        print(f"\namplitude growing monotonically : {grows}")
        print(f"min x2 shrinking monotonically  : {shrinks}  "
              f"(closest approach {min(min_x2s):.4g})")

    # Where does the flow go at the largest mu, orbit or not?
    mu_top = grid[-1]
    tail = integrate(model, mu_top, seed_state, (0.0, args.settle_time))
    late = tail.sol(np.linspace(0.0, args.settle_time, 4000)).T[-1000:]
    print(f"\nsettled flow at mu = {mu_top:g} (last quarter of t <= "
          f"{args.settle_time:g}):")
    print(f"  x2 range [{late[:, 1].min():.4g}, {late[:, 1].max():.4g}], "
          f"x1 range [{late[:, 0].min():.4g}, {late[:, 0].max():.4g}]")
    if late[:, 1].max() < 1e-3:
        print("  the second consumer has collapsed onto the boundary plane")
    elif late[:, 1].min() < 1e-3:
        print("  the attractor repeatedly grazes the boundary plane")

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("mu\tamplitude\tperiod\tmin_x2\n")
            for row in rows:
                fh.write("\t".join(format(v, ".17g") for v in row) + "\n")
        print(f"\nwrote {len(rows)} rows to {args.out}")

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
