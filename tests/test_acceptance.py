"""Acceptance gate: twelve end-to-end criteria, each at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion; each test also prints its measured numbers.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from hybridhopf import eco
from hybridhopf.classifier import classify, predict_orbit
from hybridhopf.coefficients import compute_coefficients
from hybridhopf.errors import Degenerate, HybridHopfError
from hybridhopf.frame import StandardFrame, check_assumptions, locate_hopf_point, standard_jet
from hybridhopf.models import builtin, jet
from hybridhopf.verify import (
    ShootingSeed,
    compare_with_full_model,
    continue_branch,
    find_periodic_orbit,
    floquet_stability,
    simulate_truncated,
)
from oracles import FD_TOLERANCE, closed_form_frame, finite_difference_jet_loop

PERIOD_LIMIT = 2.0 * math.pi / math.sqrt(0.3)


# ---------------------------------------------------------------------------
# shared heavy fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def thousand_samples():
    """Criteria 3 and 4 share one admissible-region sample set."""
    samples = eco.sample_region(1000, seed=20240703)
    records = [eco.classification_record(p) for p in samples]
    return samples, records


@pytest.fixture(scope="module")
def interior_branch(interior_pipeline):
    """Criteria 5 and 6 share one continuation over the specified grid."""
    grid = [float(m) for m in np.geomspace(5e-4, 2e-2, 8)]
    t0 = time.monotonic()
    branch = continue_branch(
        interior_pipeline.model,
        grid,
        coeffs=interior_pipeline.coeffs,
        frame=interior_pipeline.frame,
        guard=eco.interior_guard(),
    )
    return branch, time.monotonic() - t0


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_closed_form_equivalence():
    """The coefficients from the model's jet and from an independent
    finite-difference jet of its RHS both reproduce the closed forms."""
    names = ("omega", "beta2", "beta5", "gamma5", "gamma7", "beta6")
    t0 = time.monotonic()
    samples = eco.sample_region(100, seed=20240817)
    worst = {"field": 0.0, "finite_difference": 0.0}
    for p in samples:
        reference = eco.closed_form_coefficients(p)
        chart = closed_form_frame(p)
        model = eco.model(p)
        point = eco.hopf_point(p)
        jets = {
            "field": jet(model, point, 0.0),
            "finite_difference": finite_difference_jet_loop(model, point, 0.0),
        }
        for route, table in jets.items():
            got = compute_coefficients(standard_jet(table, chart))
            for name in names:
                want = reference[name]
                rel = abs(getattr(got, name) - want) / max(abs(want), 1e-30)
                worst[route] = max(worst[route], rel)
    elapsed = time.monotonic() - t0
    print(
        f"criterion 1: worst relative error {worst['field']:.3e} (jets from the field), "
        f"{worst['finite_difference']:.3e} (finite-difference jets of the RHS), {elapsed:.1f}s"
    )
    assert worst["field"] < 1e-6
    assert worst["finite_difference"] < FD_TOLERANCE
    assert elapsed < 30.0


def test_criterion_02_synthetic_oracle(synthetic_pipeline):
    t0 = time.monotonic()
    rng = np.random.default_rng(20240818)
    worst_planted = worst_zero = 0.0
    for _ in range(200):
        a, b, c, d = (
            float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)) for _ in range(4)
        )
        omega = float(rng.uniform(0.5, 3.0))
        pipe = synthetic_pipeline(a, b, c, d, omega)
        got = pipe.coeffs
        for value, want in (
            (got.beta2, a),
            (got.beta5, b),
            (got.gamma5, c),
            (got.gamma7, d),
            (got.omega, omega),
            (got.gamma3.c0, math.pi * a * c / omega),
        ):
            worst_planted = max(worst_planted, abs(value - want))
        zeros = [got.beta1, got.beta3, got.beta4, got.beta6]
        zeros += [
            component
            for scalar in (got.gamma1, got.gamma2, got.gamma4, got.gamma6)
            for component in (scalar.c0, scalar.cos1, scalar.sin1, scalar.cos2, scalar.sin2)
        ]
        zeros += [got.gamma3.cos1, got.gamma3.sin1, got.gamma3.cos2, got.gamma3.sin2]
        worst_zero = max(worst_zero, max(abs(v) for v in zeros))

        cls = classify(got)
        assert cls.xi == (1 if a * b > 0 else -1)
        assert cls.direction == (-1 if b * c > 0 else 1)
        sigma_hand = -b * c * d
        assert cls.sigma == pytest.approx(sigma_hand, rel=1e-6)
        expected = "H" if a * b > 0 else ("ES" if sigma_hand < 0 else "EU")
        assert cls.label == expected
    elapsed = time.monotonic() - t0
    print(
        f"criterion 2: worst planted-value error {worst_planted:.3e}, "
        f"worst spurious coefficient {worst_zero:.3e}, {elapsed:.1f}s"
    )
    assert worst_planted < 1e-10
    assert worst_zero < 1e-10
    assert elapsed < 10.0


def test_criterion_03_elliptic_everywhere(thousand_samples):
    t0 = time.monotonic()
    _, records = thousand_samples
    xis = {record.xi for record in records}
    elapsed = time.monotonic() - t0
    print(f"criterion 3: xi values over 1000 samples: {sorted(xis)}, {elapsed:.1f}s")
    assert xis == {-1}
    assert elapsed < 10.0


def test_criterion_04_type_es_everywhere(thousand_samples):
    t0 = time.monotonic()
    samples, records = thousand_samples
    for p, record in zip(samples, records):
        assert record.label == "ES"
        assert record.sigma < 0
        assert record.direction == 1
        h1, h2 = eco.h_polynomials(p)
        assert h1 < 0
        assert h2 > 0
        swapped = eco.EcoParams(
            delta1=p.delta1,
            delta2=p.delta2,
            lam=p.lam,
            alpha1=p.alpha2,
            alpha2=p.alpha1,
        )
        h1_swapped, _ = eco.h_polynomials(swapped)
        assert h2 == -h1_swapped
    elapsed = time.monotonic() - t0
    print(f"criterion 4: 1000 samples all type ES with H1 < 0 < H2, {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_05_branch_and_square_root_scaling(interior_branch, interior_pipeline):
    """The exponent 1/2 and both leading-order laws: the intercept a of
    A / sqrt|mu| = a + b sqrt|mu| is sqrt|gamma5 / beta5|, and that of the
    period T = T0 + c mu is 2 pi / omega.  The laws are fitted over the 4
    smallest |mu|, the points of the exponent fit: over all 8 the branch
    bends, giving a = 1.4867 and T0 = 11.4584 against 1.5 and 11.4715."""
    branch, elapsed = interior_branch
    assert branch.complete()
    assert len(branch.points) == 8
    assert branch.fit is not None
    smallest = branch.points[0]
    period_error = abs(smallest.orbit.period - PERIOD_LIMIT) / PERIOD_LIMIT
    coeffs = interior_pipeline.coeffs
    chosen = sorted(branch.points, key=lambda point: abs(point.mu))[: branch.fit.n_points]
    root_mu = np.sqrt([abs(point.mu) for point in chosen])
    _, a = np.polyfit(root_mu, [point.amplitude for point in chosen] / root_mu, 1)
    _, T0 = np.polyfit([point.mu for point in chosen], [point.orbit.period for point in chosen], 1)
    prefactor = math.sqrt(abs(coeffs.gamma5 / coeffs.beta5))
    prefactor_error = abs(a - prefactor) / prefactor
    T0_error = abs(T0 - 2.0 * math.pi / coeffs.omega) / (2.0 * math.pi / coeffs.omega)
    print(
        f"criterion 5: amplitude exponent {branch.fit.exponent:.4f}, period at "
        f"mu={smallest.mu:g} off the limit by {period_error:.2%}, prefactor {a:.5f} "
        f"against {prefactor:.5f}, period limit {T0:.6f} off by {T0_error:.1e}, {elapsed:.1f}s"
    )
    assert branch.fit.n_points == 4
    assert abs(branch.fit.exponent - 0.5) < 0.05
    assert period_error < 0.01
    assert prefactor_error < 0.01
    assert T0_error < 1e-4
    assert elapsed < 120.0


def test_criterion_06_floquet_stability_along_branch(interior_branch):
    branch, _ = interior_branch
    worst_modulus = 0.0
    worst_trivial = 0.0
    worst_liouville = 0.0
    for point in branch.points:
        verdict = floquet_stability(point.orbit)
        worst_modulus = max(worst_modulus, verdict.nontrivial_moduli[0])
        worst_trivial = max(worst_trivial, verdict.trivial_defect)
        worst_liouville = max(worst_liouville, point.orbit.liouville_defect)
        assert verdict.nontrivial_moduli[0] < 1.0
        assert verdict.nontrivial_moduli[1] < 1.0
    print(
        f"criterion 6: largest nontrivial modulus {worst_modulus:.6f}, trivial "
        f"defect {worst_trivial:.2e}, Liouville defect {worst_liouville:.2e}"
    )
    assert worst_trivial < 1e-3
    assert worst_liouville < 1e-6


def test_criterion_07_no_orbit_on_wrong_side(interior_pipeline, interior_hopf):
    prediction = predict_orbit(
        interior_pipeline.coeffs, 0.005, frame=interior_pipeline.frame
    )
    radius = 2.0 * prediction.scale
    period0 = 2.0 * math.pi / interior_pipeline.coeffs.omega
    rng = np.random.default_rng(20240819)
    guard = eco.interior_guard()
    converged_in_window = []
    failures = 0
    for _ in range(20):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        offset = radius * rng.uniform() ** (1.0 / 3.0) * direction
        seed = ShootingSeed(
            anchor=interior_hopf + offset,
            period=period0,
            scale=prediction.scale,
        )
        try:
            orbit = find_periodic_orbit(interior_pipeline.model, -0.005, seed, guard=guard)
        except HybridHopfError:
            failures += 1
            continue
        if 0.5 * period0 <= orbit.period <= 2.0 * period0:
            converged_in_window.append(orbit.period)
    print(
        f"criterion 7: {failures}/20 shooting attempts failed outright; periods "
        f"found inside [0.5, 2] x {period0:.4f}: {converged_in_window}"
    )
    assert converged_in_window == []


def test_criterion_08_classical_hopf_rejected():
    model = builtin("toy_cylindrical", {"beta2": 1, "beta3": -1, "gamma5": 1})
    point = locate_hopf_point(model, np.array([0.1, 0.1, 0.1]))
    report = check_assumptions(model, point)
    print(
        f"criterion 8: failed assumptions {report.failed()}, "
        f"a4 value {report.to_document()['a4_nondegeneracy']:.3e}"
    )
    assert not report.all_pass()
    assert report.failed() == ["a4_nondegeneracy"]
    # the pipeline stops here: no frame, no coefficients, no classification


def test_criterion_09_degenerate_flag(synthetic_pipeline):
    pipe = synthetic_pipeline(-1.0, 1.0, 1.0, 0.0)
    with pytest.raises(Degenerate) as excinfo:
        classify(pipe.coeffs)
    print(f"criterion 9: classify raised Degenerate: {excinfo.value}")


def test_criterion_10_frame_invariance(interior_pipeline, interior_hopf):
    base = classify(interior_pipeline.coeffs)
    raw = jet(interior_pipeline.model, interior_hopf, 0.0)
    frame = interior_pipeline.frame
    omega = frame.omega
    rng = np.random.default_rng(20240820)
    for _ in range(50):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        zeta = math.exp(rng.uniform(math.log(0.4), math.log(2.5)))
        rho = math.exp(rng.uniform(math.log(0.4), math.log(2.5)))
        rotation = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        basis = np.column_stack(
            [frame.basis[:, :2] @ rotation * zeta, rho * frame.basis[:, 2]]
        )
        f_mu = np.linalg.solve(basis, raw.mu_derivs[0])
        mu_shift = np.array([-f_mu[1] / omega, f_mu[0] / omega, 0.0])
        perturbed = StandardFrame(
            origin=frame.origin, basis=basis, mu_shift=mu_shift, omega=omega
        )
        cls = classify(compute_coefficients(standard_jet(raw, perturbed)))
        assert cls.xi == base.xi
        assert cls.direction == base.direction
        assert math.copysign(1.0, cls.sigma) == math.copysign(1.0, base.sigma)
    print(
        "criterion 10: xi, direction, sign(sigma) stable over 50 rotated/scaled frames"
    )


def test_criterion_11_averaging_error_scales_with_epsilon(synthetic_pipeline):
    pipe = synthetic_pipeline(-1.0, 1.0, 1.0, 1.0, 2.0)
    deviations = {}
    for epsilon in (0.1, 0.05):
        run = simulate_truncated(pipe.coeffs, epsilon, -0.25, (0.55, 0.0))
        report = compare_with_full_model(pipe.model, pipe.frame, run)
        deviations[epsilon] = report.deviation
    ratio = deviations[0.1] / deviations[0.05]
    print(
        f"criterion 11: deviation {deviations[0.1]:.5f} at eps=0.1, "
        f"{deviations[0.05]:.5f} at eps=0.05, ratio {ratio:.3f}"
    )
    assert 1.5 <= ratio <= 3.0


def test_criterion_12_boundary_bound_branch_best_effort():
    # The boundary script's defaults: strictly inside the admissible region
    # 0 < alpha1 < 1 - 2 lam = 0.22 < alpha2 < 1, where all five standing
    # assumptions pass, so the branch is seeded from the prediction.  It grows
    # toward the invariant plane x2 = 0 until shooting loses it.
    params = eco.EcoParams(delta1=0.8, delta2=0.5, lam=0.39, alpha1=0.15, alpha2=0.3)
    model = eco.model(params)
    report = check_assumptions(model, eco.hopf_point(params))
    assert report.all_pass()
    grid = [0.0005, 0.001, 0.002, 0.004, 0.007, 0.011, 0.017, 0.025, 0.035, 0.05]
    branch = continue_branch(
        model,
        grid,
        coeffs=compute_coefficients(report.standard_jet),
        frame=report.frame,
        guard=eco.interior_guard(),
    )
    amplitudes = [pt.amplitude for pt in branch.points]
    min_x2 = [-pt.orbit.peak(lambda X: -X[..., 1]) for pt in branch.points]
    print(
        f"criterion 12: tracked {len(branch.points)}/{len(grid)} points "
        f"(lost at {branch.lost_at}), amplitudes {np.round(amplitudes, 4).tolist()}, "
        f"smallest x2 per orbit {np.round(min_x2, 4).tolist()}"
    )
    assert len(branch.points) >= 4
    assert all(b > a for a, b in zip(amplitudes, amplitudes[1:]))
    assert all(b < a for a, b in zip(min_x2, min_x2[1:]))
    assert min_x2[-1] < 0.05
