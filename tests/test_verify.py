"""Numerical verification: shooting, Floquet analysis, branches, reduced flows."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from hybridhopf import dop853, eco, models, verify
from hybridhopf.classifier import ORBIT_SAMPLES, classify, predict_orbit
from hybridhopf.coefficients import compute_coefficients
from hybridhopf.errors import InvalidBounds, LeftDomain, NoConvergence, NonFinite, StepFailure
from hybridhopf.frame import build_standard_frame, standard_jet
from hybridhopf.models import ModelDefinition, builtin, jet
from hybridhopf.verify import (
    ShootingSeed,
    compare_with_full_model,
    continue_branch,
    find_periodic_orbit,
    floquet_stability,
    integrate,
    simulate_truncated,
)
from conftest import build_pipeline
from oracles import (
    averaged_drift_check,
    coexistence_line,
    polynomial_linearization,
    predator_prey_linearization,
)

INTERIOR_PERIOD = 2.0 * math.pi / math.sqrt(0.3)


# ---------------------------------------------------------------------------
# integration basics
# ---------------------------------------------------------------------------


def test_pure_rotation_returns_to_start(rotation_model):
    x0 = np.array([1.0, 0.0, 0.0])
    sol = integrate(rotation_model, 0.0, x0, (0.0, 2.0 * math.pi), rtol=1e-12)
    assert np.allclose(sol.y[:, -1], x0, atol=1e-9)


def test_equilibrium_line_is_stationary(interior, interior_model):
    start = coexistence_line(interior, [0.2])[0]
    sol = integrate(interior_model, 0.0, start, (0.0, 100.0), rtol=1e-11)
    states = sol.sol(np.linspace(0.0, 100.0, 1000)).T
    assert np.max(np.abs(states - start)) < 1e-8


def test_integrate_solution_spans_steps_and_dense_end(interior_model):
    start = np.array([0.2, 0.3, 0.35])
    sol = integrate(interior_model, 0.0, start, (0.0, 10.0), rtol=1e-11)
    dense = sol.sol(np.linspace(0.0, 10.0, 1000))
    assert dense.shape == (3, 1000)
    assert sol.y.shape == (3, len(sol.t))
    assert sol.t[0] == 0.0 and sol.t[-1] == 10.0
    assert np.allclose(sol.y[:, -1], dense[:, -1], rtol=0.0, atol=1e-12)


def test_integrate_is_dop853_on_the_bound_rhs(interior_model):
    start, mu, t_span = np.array([0.2, 0.3, 0.35]), 0.005, (0.0, 10.0)
    got = integrate(interior_model, mu, start, t_span)
    ref = dop853.solve(lambda t, X: interior_model.rhs(X, mu), t_span, start, verify.SWEEP_RTOL)
    assert np.array_equal(got.t, ref.t)
    assert np.array_equal(got.y, ref.y)
    grid = np.linspace(*t_span, 97)
    assert np.array_equal(got.sol(grid), ref.sol(grid))


def test_lyapunov_value_monotone_along_flow(interior, interior_model):
    start = np.array([0.2, 0.3, 0.35])
    sol = integrate(interior_model, 0.0, start, (0.0, 200.0), rtol=1e-11)
    states = sol.sol(np.linspace(0.0, 200.0, 400)).T
    values = np.array([eco.lyapunov_value(interior, X) for X in states])
    assert np.all(np.diff(values) <= 1e-9)
    rates = np.array([eco.lyapunov_rate(interior, X) for X in states])
    assert np.all(rates <= 1e-15)


# ---------------------------------------------------------------------------
# single shooting on planted orbits
# ---------------------------------------------------------------------------


def test_planted_circle_orbit_synthetic(synthetic_pipeline):
    # on z = 0 the radial velocity vanishes identically, so the first-order
    # circle is an exact periodic solution of the full polynomial field
    pipe = synthetic_pipeline(-1, 1, 1, 1, 2.0)
    mu = -0.01
    r0 = 0.1
    seed = ShootingSeed(anchor=np.array([0.105, 0.0, 0.004]), period=3.3, scale=r0)
    orbit = find_periodic_orbit(pipe.model, mu, seed)
    assert orbit.period == pytest.approx(math.pi, abs=1e-8)
    assert math.hypot(orbit.anchor[0], orbit.anchor[1]) == pytest.approx(r0, abs=1e-9)
    assert abs(orbit.anchor[2]) < 1e-9
    assert orbit.residual < 1e-11
    verdict = floquet_stability(orbit)
    assert verdict.stable  # sigma = -bcd = -1 < 0
    assert verdict.unstable_count == 0


def test_planted_circle_orbit_toy_cylindrical():
    planted = {
        "omega": 1.3,
        "beta2": -0.7,
        "beta5": 0.9,
        "gamma5": 1.1,
        "gamma7": -0.4,
        "beta3": 0.0,
        "beta6": 0.0,
        "eps": 1.0,
    }
    model = builtin("toy_cylindrical", planted)
    mu = -0.005
    r0 = math.sqrt(-mu * planted["gamma5"] / planted["beta5"])
    seed = ShootingSeed(
        anchor=np.array([r0 * 1.04, 0.0, -0.002]),
        period=2.0 * math.pi / planted["omega"] * 1.05,
        scale=r0,
    )
    orbit = find_periodic_orbit(model, mu, seed)
    assert orbit.period == pytest.approx(2.0 * math.pi / planted["omega"], abs=1e-8)
    assert math.hypot(orbit.anchor[0], orbit.anchor[1]) == pytest.approx(r0, abs=1e-8)


@pytest.mark.parametrize("case", ["toy_cylindrical", "predator_prey"])
def test_shooting_with_the_former_linearization_gives_the_same_bits(case, interior, interior_pipeline):
    """The generated polynomial kernel and the fused predator-prey
    linearisation shoot the very orbit the evaluations they replaced shoot:
    the numpy evaluation of the polynomial layout, and ``field`` plus a
    separate hand-written derivative."""
    if case == "toy_cylindrical":
        # test_planted_circle_orbit_toy_cylindrical's set with beta1 != 0
        planted = {
            "omega": 1.3, "beta1": 0.3, "beta2": -0.7, "beta5": 0.9, "gamma5": 1.1, "gamma7": -0.4
        }
        model, mu, r0 = builtin("toy_cylindrical", planted), -0.005, math.sqrt(0.005 * 1.1 / 0.9)
        seed = ShootingSeed(anchor=np.array([r0 * 1.04, 0.0, -0.002]), period=5.1, scale=r0)
        former = polynomial_linearization(model.exact_jet.__self__)
        guard = None
    else:
        model, mu = interior_pipeline.model, 0.005
        seed = predict_orbit(interior_pipeline.coeffs, mu, frame=interior_pipeline.frame)
        former = predator_prey_linearization(interior)
        guard = eco.interior_guard()
    replaced = dataclasses.replace(model, linearization=former)
    assert models.linearization_fn(replaced) is former
    got = find_periodic_orbit(model, mu, seed, guard=guard)
    want = find_periodic_orbit(replaced, mu, seed, guard=guard)
    for name in ("anchor", "monodromy", "states"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.period.hex() == want.period.hex()
    assert got.collocation.samples.tobytes() == want.collocation.samples.tobytes()
    assert got.collocation.period.hex() == want.collocation.period.hex()
    assert got.collocation.steps == want.collocation.steps >= 2
    assert np.array(got.newton).tobytes() == np.array(want.newton).tobytes()
    assert len(got.newton) == 1 and got.residual < 1e-10


def test_hyperbolic_orbit_has_one_escaping_multiplier(synthetic_pipeline):
    pipe = synthetic_pipeline(1, 1, 1, 1)
    orbit = find_periodic_orbit(
        pipe.model,
        -0.01,
        ShootingSeed(anchor=np.array([0.102, 0.0, 0.003]), period=6.4, scale=0.1),
    )
    verdict = floquet_stability(orbit)
    assert not verdict.stable
    assert verdict.unstable_count == 1
    assert verdict.trivial_defect < 1e-6  # flow multiplier recognized and excluded
    assert verdict.nontrivial_moduli[0] > 1.0 > verdict.nontrivial_moduli[1]


def test_interior_orbit_verification(interior_pipeline):
    prediction = predict_orbit(interior_pipeline.coeffs, 0.005, frame=interior_pipeline.frame)
    orbit = find_periodic_orbit(
        interior_pipeline.model, 0.005, prediction, guard=eco.interior_guard()
    )
    assert orbit.period == pytest.approx(INTERIOR_PERIOD, rel=0.02)
    assert orbit.residual < 1e-9
    # amplitude agrees with the first-order radius to the asymptotic accuracy
    radii = [
        math.hypot(*interior_pipeline.frame.to_frame(X, 0.005)[:2]) for X in orbit.states
    ]
    assert max(radii) == pytest.approx(prediction.r0, rel=0.15)
    verdict = floquet_stability(orbit)
    assert verdict.stable
    assert verdict.trivial_defect < 1e-3
    assert orbit.liouville_defect < 1e-6


def test_wrong_side_shooting_fails(interior_pipeline):
    guess = predict_orbit(interior_pipeline.coeffs, 0.005, frame=interior_pipeline.frame)
    with pytest.raises(NoConvergence):
        find_periodic_orbit(
            interior_pipeline.model,
            -0.005,
            ShootingSeed(anchor=guess.anchor, period=guess.period, scale=guess.scale),
            guard=eco.interior_guard(),
        )


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_shooting_rejects_a_seed_scale_that_is_not_positive_and_finite(
    synthetic_pipeline, scale
):
    pipe = synthetic_pipeline(-1, 1, 1, 1, 2.0)
    seed = ShootingSeed(anchor=np.array([0.105, 0.0, 0.004]), period=3.3, scale=scale)
    with pytest.raises(InvalidBounds, match="seed scale"):
        find_periodic_orbit(pipe.model, -0.01, seed)


def test_shooting_an_infinite_seed_period_is_a_typed_error(synthetic_pipeline):
    """An infinite period passes the trust window; its integration span does not."""
    pipe = synthetic_pipeline(-1, 1, 1, 1, 2.0)
    seed = ShootingSeed(anchor=np.array([0.105, 0.0, 0.004]), period=math.inf, scale=0.1)
    with pytest.raises(InvalidBounds, match="finite"):
        find_periodic_orbit(pipe.model, -0.01, seed)


def test_prediction_without_frame_cannot_seed_shooting(interior_pipeline):
    guess = predict_orbit(interior_pipeline.coeffs, 0.005)
    assert guess.anchor is None
    with pytest.raises(NoConvergence, match="predict with a frame"):
        find_periodic_orbit(interior_pipeline.model, 0.005, guess)


# ---------------------------------------------------------------------------
# Fourier collocation
# ---------------------------------------------------------------------------


def _loop(frame, mu, r, n, z=0.0):
    """n samples of the frame circle of radius r at height z, from phase 0."""
    theta = 2.0 * math.pi * np.arange(n) / n
    return np.array([frame.from_frame((r * math.cos(t), r * math.sin(t), z), mu) for t in theta])


def test_collocation_returns_the_planted_circle():
    """With only omega, beta2, beta5 and gamma5 planted, `toy_cylindrical`
    has the exact orbit r = r0 = sqrt(-mu gamma5 / beta5), z = 0, period
    2 pi / omega; from a loop 4 % too wide, 0.002 below the plane and a
    period 5 % long, collocation returns it to 1e-12."""
    planted = {"omega": 1.3, "beta2": -0.7, "beta5": 0.9, "gamma5": 1.1}
    pipe = build_pipeline(builtin("toy_cylindrical", planted), np.zeros(3))
    mu = -0.005
    r0 = math.sqrt(-mu * planted["gamma5"] / planted["beta5"])
    samples = _loop(pipe.frame, mu, 1.04 * r0, ORBIT_SAMPLES, z=-0.002)
    seed = ShootingSeed(samples[0], 1.05 * 2.0 * math.pi / planted["omega"], r0, samples)
    loop = verify.collocate(pipe.model, mu, seed)
    X = loop.samples
    assert len(X) == ORBIT_SAMPLES and loop.steps >= 3
    assert np.max(np.abs(np.hypot(X[:, 0], X[:, 1]) - r0)) < 1e-12
    assert np.max(np.abs(X[:, 2])) < 1e-12
    assert loop.period == pytest.approx(2.0 * math.pi / planted["omega"], rel=1e-12, abs=0.0)
    turns = np.diff(np.unwrap(np.arctan2(X[:, 1], X[:, 0])))
    assert np.max(np.abs(turns - 2.0 * math.pi / ORBIT_SAMPLES)) < 1e-12
    assert loop.residual < 1e-12 and loop.tail < 1e-12


def test_the_spectral_tail_grows_a_loop_that_converges_wrong(interior_pipeline, monkeypatch):
    """README config at mu = 0.02 from a 17-sample circle: held at 17
    samples, collocation converges to a loop whose anchor is 1e-6 off the
    orbit and whose top harmonics read 2.5e-5 of its first; the tail rule
    grows it, to 37 samples when this was written, and lands on the orbit."""
    mu, frame = 0.02, interior_pipeline.frame
    prediction = predict_orbit(interior_pipeline.coeffs, mu, frame=frame)
    reference = find_periodic_orbit(
        interior_pipeline.model, mu, prediction, guard=eco.interior_guard()
    )
    samples = _loop(frame, mu, prediction.r0, 17)
    seed = ShootingSeed(prediction.anchor, prediction.period, prediction.scale, samples)
    grown = verify.collocate(interior_pipeline.model, mu, seed, eco.interior_guard())
    assert len(grown.samples) > 17 and grown.tail <= verify.COLLOCATION_TAIL
    assert np.max(np.abs(grown.samples[0] - reference.anchor)) < 1e-10
    assert grown.period == pytest.approx(reference.period, rel=1e-12)
    monkeypatch.setattr(verify, "COLLOCATION_TAIL", math.inf)
    held = verify.collocate(interior_pipeline.model, mu, seed, eco.interior_guard())
    assert len(held.samples) == 17 and held.tail > 1e-6
    assert np.max(np.abs(held.samples[0] - reference.anchor)) > 1e-7


@pytest.mark.parametrize(
    "violation, match",
    [
        ("drift", "trust radius"),
        ("period", "trust window"),
        ("guard", "collocated loop violated the interior guard"),
    ],
)
def test_collocation_trust_region_violations_are_typed(interior_pipeline, violation, match):
    """A seed scale 1e-6 of the prediction's, a seed period a sixth of the
    orbit's and a guard that no state passes each end the orbit search in
    `NoConvergence` naming what the loop violated."""
    mu = 0.005
    prediction = predict_orbit(interior_pipeline.coeffs, mu, frame=interior_pipeline.frame)
    seed, guard = prediction, None
    if violation == "drift":
        seed = dataclasses.replace(prediction, scale=1e-6 * prediction.scale)
    elif violation == "period":
        seed = dataclasses.replace(prediction, period=prediction.period / 6.0, scale=10.0)
    else:
        guard = lambda X: False  # noqa: E731
    with pytest.raises(NoConvergence, match=match):
        find_periodic_orbit(interior_pipeline.model, mu, seed, guard=guard)


#: planted `toy_cylindrical` sets of each type, shot on perfbench's 8-point grid
PLANTED_BRANCHES = [
    ("H", {"omega": 1.3, "beta2": 0.7, "beta5": 0.9, "gamma5": -1.1}),
    ("ES", {"beta2": -1.0, "beta3": -0.5, "beta5": 1.0, "gamma5": -1.0}),
    ("EU", {"omega": 1.3, "beta2": -0.7, "beta5": 0.9, "gamma5": 1.1, "gamma7": -0.4}),
]


@pytest.mark.parametrize("label, planted", PLANTED_BRANCHES)
def test_planted_branches_take_one_variational_solve_a_point(label, planted, integrations):
    """On perfbench's 8-point grid a planted branch closes every point in the
    one variational solve from its collocated loop (three a point with the
    loose seed solve before collocation)."""
    pipe = build_pipeline(builtin("toy_cylindrical", planted), np.zeros(3))
    classification = classify(pipe.coeffs)
    assert classification.label == label
    integrations.clear()
    branch = continue_branch(
        pipe.model,
        classification.direction * np.geomspace(5e-4, 2e-2, 8),
        coeffs=pipe.coeffs,
        frame=pipe.frame,
    )
    assert branch.complete()
    assert [dim for _, _, dim, _ in integrations] == [13] * 8
    assert all(len(p.orbit.newton) == 1 for p in branch.points)


@pytest.mark.parametrize("label, planted", PLANTED_BRANCHES)
def test_planted_branch_amplitudes_are_the_flow_maximum(label, planted):
    """On the near-circular planted orbits the frame radius varies by about
    1e-8 over the loop, with many local maxima, so the bracket on the
    collocated loop may refine another one than the highest: the amplitude
    lies within 1e-8 relative of the largest radius on a grid of 400 001
    times of `flow` (2.3e-9 measured)."""
    pipe = build_pipeline(builtin("toy_cylindrical", planted), np.zeros(3))
    direction = classify(pipe.coeffs).direction
    branch = continue_branch(
        pipe.model, direction * np.geomspace(5e-4, 2e-2, 8), coeffs=pipe.coeffs, frame=pipe.frame
    )
    assert branch.complete()
    for point in branch.points:
        orbit = point.orbit
        fine = orbit.flow(np.linspace(0.0, orbit.period, 400_001)).T
        radius = np.max(np.linalg.norm(pipe.frame.to_frame(fine, point.mu)[:, :2], axis=1))
        assert abs(point.amplitude - radius) <= 1e-8 * radius


def test_branch_points_build_only_the_interpolants_the_peak_reads(interior_pipeline, solutions):
    """Continuing the README branch builds the interpolant of two steps of
    each point's variational solve, where `PeriodicOrbit.peak` reads the
    amplitude, out of 16-24; reading `states` builds the rest."""
    branch = continue_branch(
        interior_pipeline.model,
        [0.0005, 0.001, 0.002, 0.005, 0.01, 0.02],
        coeffs=interior_pipeline.coeffs,
        frame=interior_pipeline.frame,
        guard=eco.interior_guard(),
    )
    assert branch.complete() and len(solutions) == len(branch.points)
    for sol, point in zip(solutions, branch.points):
        assert len(sol.steps) >= 16
        assert 1 <= sum(step.F is not None for step in sol.steps) <= 3
        assert point.orbit.states.shape == (256, 3)
        assert all(step.F is not None for step in sol.steps)


def test_branch_extremes_are_refined_on_the_interpolant(interior_pipeline):
    """The amplitude and min x2 are the extremes of the last solve's
    interpolant: no time on a grid of 400 001 reads beyond them, nor falls
    short by more than 1e-11 relative, where the 256 samples fall 2e-5 (the
    amplitude) and 2.5e-6 (min x2 at mu = 0.02) short."""
    frame = interior_pipeline.frame
    branch = continue_branch(
        interior_pipeline.model,
        [0.005, 0.02],
        coeffs=interior_pipeline.coeffs,
        frame=frame,
        guard=eco.interior_guard(),
    )
    for point in branch.points:
        orbit = point.orbit
        fine = orbit.flow(np.linspace(0.0, orbit.period, 400_001)).T
        radius = np.linalg.norm(frame.to_frame(fine, point.mu)[:, :2], axis=1)
        assert 0.0 <= point.amplitude - np.max(radius) <= 1e-11 * point.amplitude
        sampled = np.max(np.linalg.norm(frame.to_frame(orbit.states, point.mu)[:, :2], axis=1))
        assert point.amplitude - sampled > 1e-5 * point.amplitude
        low = -orbit.peak(lambda X: -X[..., 1])
        assert 0.0 <= np.min(fine[:, 1]) - low <= 1e-11 * low
    assert np.min(orbit.states[:, 1]) - low > 1e-6


@pytest.fixture
def integrations(monkeypatch):
    """(x0, T, dimension, DOP853 steps) of every integration `verify` makes."""
    made = []
    solve = dop853.solve

    def recording(fun, t_span, y0, *args, **kwargs):
        y0 = np.asarray(y0, dtype=float)
        sol = solve(fun, t_span, y0, *args, **kwargs)
        made.append((tuple(y0[:3]), float(t_span[1]), len(y0), len(sol.t) - 1))
        return sol

    monkeypatch.setattr(dop853, "solve", recording)
    return made


def test_shooting_integrates_no_point_twice(interior_pipeline, integrations):
    mu = 0.005
    prediction = predict_orbit(interior_pipeline.coeffs, mu, frame=interior_pipeline.frame)
    orbit = find_periodic_orbit(
        interior_pipeline.model, mu, prediction, guard=eco.interior_guard()
    )
    # the collocated loop closes below newton_tol in the one variational
    # solve at rtol from its anchor over its period
    assert [dim for _, _, dim, _ in integrations] == [13]
    assert integrations[0][:2] == (tuple(orbit.collocation.samples[0]), orbit.collocation.period)
    assert [rtol for rtol, _ in orbit.newton] == [verify.ORBIT_RTOL]
    assert orbit.newton[-1][1] < verify.ORBIT_NEWTON_TOL
    # the samples and monodromy are those of the converged iterate's own solve
    _, monodromy, _, dense = verify._flow_with_monodromy(
        interior_pipeline.model, mu, orbit.anchor, orbit.period, verify.ORBIT_RTOL
    )
    assert np.array_equal(orbit.monodromy, monodromy)
    assert np.array_equal(orbit.states, dense(orbit.times)[:3].T)


@pytest.mark.parametrize("newton_tol", [verify.ORBIT_NEWTON_TOL, 1e-3])
def test_a_point_seed_is_sampled_by_one_plain_integration(
    interior_pipeline, integrations, newton_tol
):
    """Seeded with a converged orbit's own anchor and period and no samples,
    collocation starts from one plain integration over that period, read at
    `ORBIT_SAMPLES` times, and the orbit is one variational solve at rtol
    from the collocated anchor, whatever ``newton_tol``."""
    mu = 0.005
    prediction = predict_orbit(interior_pipeline.coeffs, mu, frame=interior_pipeline.frame)
    first = find_periodic_orbit(
        interior_pipeline.model, mu, prediction, guard=eco.interior_guard()
    )
    integrations.clear()
    seed = ShootingSeed(anchor=first.anchor, period=first.period, scale=prediction.scale)
    orbit = find_periodic_orbit(
        interior_pipeline.model, mu, seed, newton_tol=newton_tol, guard=eco.interior_guard()
    )
    assert integrations[0][:3] == (tuple(first.anchor), first.period, 3)
    assert integrations[1][:3] == (
        tuple(orbit.collocation.samples[0]), orbit.collocation.period, 13
    )
    assert len(integrations) == 2 and len(orbit.collocation.samples) == ORBIT_SAMPLES
    assert [rtol for rtol, _ in orbit.newton] == [verify.ORBIT_RTOL]
    assert orbit.newton[-1][1] < min(newton_tol, verify.ORBIT_NEWTON_TOL)
    assert orbit.period == pytest.approx(first.period, rel=1e-11)
    assert np.max(np.abs(orbit.anchor - first.anchor)) < 1e-10


def test_shooting_builds_dense_output_only_where_it_is_read(interior_pipeline, integrations):
    """The orbit takes 646 model RHS calls: 247 in collocation (41 samples
    in each of its six residual evaluations, and the seed anchor's flow),
    398 in the one variational solve's 33 steps, and one more for the phase
    direction.  The window leaves 20 calls of margin either way; the lower
    bound also makes sure the solves call the counted ``rhs`` at all, not a
    linearisation built with the model's former one.  Reading `states` then
    builds the interpolant of every step of that solve: three calls a step,
    99 in all."""
    calls = []

    def rhs(x, mu, _rhs=interior_pipeline.model.rhs):
        calls.append(None)
        return _rhs(x, mu)

    model = dataclasses.replace(interior_pipeline.model, rhs=rhs)
    mu = 0.005
    prediction = predict_orbit(interior_pipeline.coeffs, mu, frame=interior_pipeline.frame)
    orbit = find_periodic_orbit(model, mu, prediction, guard=eco.interior_guard())
    assert 626 <= len(calls) <= 666
    built = len(calls)
    assert orbit.states.shape == (256, 3)
    assert len(calls) - built == 3 * integrations[-1][3] == 99


@pytest.mark.parametrize("replaced", ["rhs", "no_jacobian"])
def test_shooting_calls_the_functions_that_replaced_the_models_own(
    interior_pipeline, monkeypatch, replaced
):
    """A model's linearisation stands only for the ``rhs`` and ``jacobian``
    it was built with.  After `dataclasses.replace` shooting calls a new
    ``rhs`` at every stage, and without a ``jacobian`` it takes central
    differences of the RHS, as finite-difference configs ask."""
    model, calls = interior_pipeline.model, []

    def counted(fun):
        def wrapper(*args):
            calls.append(None)
            return fun(*args)

        return wrapper

    if replaced == "rhs":
        shot = dataclasses.replace(model, rhs=counted(model.rhs))
    else:
        monkeypatch.setattr(models, "central_difference", counted(models.central_difference))
        shot = dataclasses.replace(model, exact_jet=None, jacobian=None)
    mu = 0.005
    prediction = predict_orbit(interior_pipeline.coeffs, mu, frame=interior_pipeline.frame)

    def shoot(m):
        return find_periodic_orbit(
            m, mu, prediction, verify.SWEEP_RTOL, verify.BRANCH_NEWTON_TOL, eco.interior_guard()
        )

    orbit = shoot(shot)
    # one call a stage and a collocation sample: 574 and 662 calls; a stale
    # linearisation leaves only the few of `models.evaluate`
    assert len(calls) >= 500
    own = shoot(model)
    if replaced == "rhs":  # the same function, so the same bits
        assert np.array_equal(orbit.monodromy, own.monodromy)
        assert orbit.period == own.period
    else:
        assert not np.array_equal(orbit.monodromy, own.monodromy)
        assert orbit.period == pytest.approx(own.period, rel=1e-6)


def _reference_flow_with_monodromy(model, mu, x0, T, rtol, scale=2.0**-7):
    """The variational solve from the model's ``rhs`` and ``jacobian`` (or
    `central_difference` of the RHS), never its linearisation: the Jacobian
    through ``np.asarray``, each entry of J Phi a left-to-right sum of three
    products on Python floats.  Phi starts at ``scale`` times the identity;
    returns the solution and the monodromy, the final block over ``scale``."""

    def jac(X):
        if model.jacobian is not None:
            return np.asarray(model.jacobian(X, mu), dtype=float)
        return models.central_difference(lambda P: model.rhs(P, mu), X)

    def rhs(t, Y):
        x = Y[:3]
        Phi = Y[3:12].reshape(3, 3).tolist()
        J = jac(x).tolist()
        out = np.empty(13)
        out[:3] = model.rhs(x, mu)
        out[3:12] = [
            J[i][0] * Phi[0][j] + J[i][1] * Phi[1][j] + J[i][2] * Phi[2][j]
            for i in range(3)
            for j in range(3)
        ]
        out[12] = J[0][0] + J[1][1] + J[2][2]
        return out

    Y0 = np.concatenate([x0, scale * np.eye(3).ravel(), [0.0]])
    sol = dop853.solve(rhs, (0.0, T), Y0, rtol)
    return sol, sol.y[3:12, -1].reshape(3, 3) / scale


@pytest.mark.parametrize(
    "case", ["predator_prey", "predator_prey_finite_difference", "toy_cylindrical_es"]
)
def test_variational_closure_is_bit_identical_to_the_reference(interior_pipeline, case):
    if case == "toy_cylindrical_es":
        model = builtin(
            "toy_cylindrical", {"beta2": -1.0, "beta3": -0.5, "beta5": 1.0, "gamma5": -1.0}
        )
        mu, x0, T = 0.01, np.array([0.12, -0.03, 0.01]), 2.0 * math.pi
    else:
        model = interior_pipeline.model
        if case.endswith("finite_difference"):
            model = dataclasses.replace(model, exact_jet=None, jacobian=None)
        mu, x0, T = 0.005, interior_pipeline.point + [0.02, -0.01, 0.01], INTERIOR_PERIOD
    rtol = verify.SWEEP_RTOL  # finite-difference noise makes tighter ones slow
    xT, monodromy, divergence, dense = verify._flow_with_monodromy(model, mu, x0, T, rtol)
    ref, ref_monodromy = _reference_flow_with_monodromy(model, mu, x0, T, rtol)
    assert len(ref.t) > 10
    assert np.array_equal(xT, ref.y[:3, -1])
    assert np.array_equal(monodromy, ref_monodromy)
    assert divergence == ref.y[12, -1]
    grid = np.linspace(0.0, T, 97)
    assert np.array_equal(dense(grid), ref.sol(grid))


def test_non_finite_start_state_is_a_typed_error(interior_model):
    with pytest.raises(NonFinite):
        integrate(interior_model, 0.0, [math.nan, 0.3, 0.35], (0.0, 1.0))


@pytest.mark.parametrize("t_span", [(1.0, 0.0), (1.0, 1.0), (0.0, math.nan), (0.0, math.inf)])
def test_integration_spans_run_forward(interior_model, t_span):
    with pytest.raises(InvalidBounds):
        integrate(interior_model, 0.0, [0.2, 0.3, 0.35], t_span)


def test_nan_derivative_at_the_start_fails_instead_of_spinning():
    """A NaN derivative makes the initial step NaN; the step loop then ends
    with a step failure rather than retrying a NaN step forever."""
    model = ModelDefinition(name="nan_field", rhs=lambda X, mu: np.full(3, math.nan))
    with pytest.raises(StepFailure):
        integrate(model, 0.0, [0.1, 0.2, 0.3], (0.0, 1.0))


def test_branch_does_not_stagnate_near_tolerance(integrations):
    """Near newton_tol a plain-flow trial and the variational solve disagree
    by about the tolerance; judging trials with the latter keeps full steps,
    where plain-flow judging spent 1/64-scale trials on the last point and
    crept to a residual of 9.9e-11, just inside the tolerance.  The test
    asserts that failure's absence: no trial is rejected, so along each
    point's solves every residual reads below the one before (a rejected
    trial, or the halved one after it, reads above)."""
    params = eco.EcoParams(
        delta1=0.3232565097886279,
        delta2=0.5334320833177753,
        lam=0.3011848747806394,
        alpha1=0.139998904393472,
        alpha2=0.48652743109952873,
    )
    model = eco.model(params)
    raw = jet(model, eco.hopf_point(params), 0.0)
    frame = build_standard_frame(raw)
    coeffs = compute_coefficients(standard_jet(raw, frame))
    grid = classify(coeffs).direction * np.geomspace(5e-4, 2e-2, 8)
    branch = continue_branch(
        model, grid, coeffs=coeffs, frame=frame, guard=eco.interior_guard()
    )
    for p in branch.points:
        residuals = [r for _, r in p.orbit.newton]
        assert all(b < a for a, b in zip(residuals, residuals[1:])), (p.mu, residuals)
    assert branch.complete() and len(branch.points) == 8
    assert all(dim == 13 for _, _, dim, _ in integrations)
    assert len(integrations) <= 30
    assert all(p.orbit.residual <= verify.BRANCH_NEWTON_TOL for p in branch.points)


# ---------------------------------------------------------------------------
# branch continuation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "grid",
    [[], [0.0, 0.001], [0.001, -0.002], [0.002, 0.001]],
)
def test_continuation_rejects_bad_grids(interior_pipeline, grid):
    with pytest.raises(InvalidBounds):
        continue_branch(
            interior_pipeline.model,
            grid,
            coeffs=interior_pipeline.coeffs,
            frame=interior_pipeline.frame,
        )


def test_continuation_reports_lost_branch(interior_pipeline):
    branch = continue_branch(
        interior_pipeline.model,
        [0.005],
        coeffs=interior_pipeline.coeffs,
        frame=interior_pipeline.frame,
        guard=lambda X: False,
    )
    assert branch.points == ()
    assert branch.lost_at == 0.005
    assert not branch.complete()
    assert branch.fit is None


def test_continuation_monotone_amplitudes(interior_pipeline):
    branch = continue_branch(
        interior_pipeline.model,
        [0.002, 0.005, 0.008],
        coeffs=interior_pipeline.coeffs,
        frame=interior_pipeline.frame,
    )
    assert branch.complete()
    mus = [pt.mu for pt in branch.points]
    assert mus == sorted(mus)
    amps = [pt.amplitude for pt in branch.points]
    assert all(a > 0 for a in amps)
    assert all(b > a for a, b in zip(amps, amps[1:]))
    assert branch.points[1].orbit.period == pytest.approx(11.455279540078301, rel=1e-9)


def test_readme_branch_seeds_start_near_closure(interior_pipeline, integrations):
    """Loops extrapolated in s = sqrt|mu| through the Hopf point, collocated:
    the README 8-point branch takes one variational solve a point (27 when
    shooting started from the extrapolated anchor, 33 with a secant in mu)."""
    branch = continue_branch(
        interior_pipeline.model,
        np.geomspace(5e-4, 2e-2, 8),
        coeffs=interior_pipeline.coeffs,
        frame=interior_pipeline.frame,
        guard=eco.interior_guard(),
    )
    assert branch.complete() and len(branch.points) == 8
    assert [dim for _, _, dim, _ in integrations] == [13] * 8


def test_readme_continue_steps_resolve_phi_on_the_scale_of_the_identity(
    interior_pipeline, integrations
):
    """With Phi error-controlled to about 1.28 rtol of the identity it starts
    from, the README 6-point grid takes 117 DOP853 steps in its 6 variational
    solves, one a point; 140 in as many solves when Phi's entries crossing 0
    were held to the state's absolute tolerance, rtol / 100."""
    branch = continue_branch(
        interior_pipeline.model,
        [0.0005, 0.001, 0.002, 0.005, 0.01, 0.02],
        coeffs=interior_pipeline.coeffs,
        frame=interior_pipeline.frame,
        guard=eco.interior_guard(),
    )
    assert branch.complete() and len(branch.points) == 6
    assert [dim for _, _, dim, _ in integrations] == [13] * 6
    assert sum(steps for _, _, _, steps in integrations) <= 121


def _sweep_branch(case, interior_pipeline):
    """(model, branch) of an accuracy case: the README ``continue`` grid, a
    planted ES `toy_cylindrical` branch, or draw 6 of ``sample_region(30, 11)``
    on perfbench's 8-point grid, whose orbits `SWEEP_RTOL` resolves worst.
    Draw 6 runs without the interior guard: its orbit at mu = 0.02 comes
    within 1e-7 of x1 = 0, below `eco.INTERIOR_FLOOR`, and the guard holds
    every collocated sample."""
    if case == "readme":
        pipeline, guard = interior_pipeline, eco.interior_guard()
        grid = [0.0005, 0.001, 0.002, 0.005, 0.01, 0.02]
    elif case == "toy_cylindrical_es":
        planted = {"beta2": -1.0, "beta3": -0.5, "beta5": 1.0, "gamma5": -1.0}
        pipeline = build_pipeline(builtin("toy_cylindrical", planted), np.zeros(3))
        grid, guard = [0.002, 0.005, 0.01], None
    else:
        params = eco.sample_region(30, 11)[6]
        pipeline = build_pipeline(eco.model(params), eco.hopf_point(params))
        grid, guard = np.geomspace(5e-4, 2e-2, 8), None
    classification = classify(pipeline.coeffs)
    if case == "toy_cylindrical_es":
        assert classification.label == "ES"
    branch = continue_branch(
        pipeline.model,
        classification.direction * np.asarray(grid),
        coeffs=pipeline.coeffs,
        frame=pipeline.frame,
        guard=guard,
    )
    return pipeline.model, branch


@pytest.mark.parametrize(
    "case, liouville_tol, moduli_tol, reference_rtol",
    [
        pytest.param("readme", 1e-8, 1e-7, verify.ORBIT_RTOL, id="readme"),
        pytest.param("toy_cylindrical_es", 1e-8, 1e-7, verify.ORBIT_RTOL, id="toy_cylindrical_es"),
        pytest.param("region_draw_6", 1e-6, verify.FLOQUET_MARGIN, 1e-13, id="region_draw_6"),
    ],
)
def test_sweep_monodromy_matches_an_unscaled_solve(
    case, liouville_tol, moduli_tol, reference_rtol, interior_pipeline
):
    """What resolving Phi on the identity's scale trades, bounded: every
    Liouville defect stays below ``liouville_tol`` and the nontrivial Floquet
    moduli agree to ``moduli_tol`` with those of the reference integrator,
    Phi from the identity, at ``reference_rtol``, on the same anchor and
    period.  README and planted ES branch: 8.9e-10 and 6.6e-10, 3.0e-10 and
    4.8e-11 when this was written.  Region draw 6 at mu = 0.02 reads a
    Liouville defect of 1.3e-5 and moduli off by 4.8e-5 from the scaled block
    alone, so its converged solve is redone from the identity (5.3e-7 and
    1.2e-7), under the 1e-6 of the acceptance criteria and `FLOQUET_MARGIN`."""
    model, branch = _sweep_branch(case, interior_pipeline)
    assert branch.complete()
    for point in branch.points:
        orbit = point.orbit
        assert orbit.liouville_defect < liouville_tol, point.mu
        _, monodromy = _reference_flow_with_monodromy(
            model, point.mu, orbit.anchor, orbit.period, reference_rtol, scale=1.0
        )
        multipliers = list(np.linalg.eigvals(monodromy))
        del multipliers[int(np.argmin([abs(m - 1.0) for m in multipliers]))]
        reference = sorted((abs(m) for m in multipliers), reverse=True)
        moduli = floquet_stability(orbit).nontrivial_moduli
        assert moduli == pytest.approx(reference, abs=moduli_tol), point.mu


def test_a_converged_solve_failing_the_liouville_check_is_redone_from_the_identity(
    interior_pipeline,
):
    """Region draw 6 at mu = 0.02 converges on a scaled solve whose Liouville
    defect reads above `SCALED_LIOUVILLE_TOL`; the orbit it reports comes from
    a solve with Phi from the identity, bit for bit, and the README branch's
    from scaled solves throughout."""
    model, branch = _sweep_branch("region_draw_6", interior_pipeline)
    last = branch.points[-1].orbit
    assert branch.points[-1].mu == pytest.approx(0.02)
    assert 0.0 < np.min(last.states[:, 0]) < eco.INTERIOR_FLOOR
    flows = {
        scale: verify._flow_with_monodromy(
            model, last.mu, last.anchor, last.period, verify.SWEEP_RTOL, scale
        )
        for scale in (1.0, verify.VARIATIONAL_SCALE)
    }
    assert np.array_equal(last.monodromy, flows[1.0][1])
    scaled_defect = verify._liouville_defect(*flows[verify.VARIATIONAL_SCALE][1:3])
    assert scaled_defect > verify.SCALED_LIOUVILLE_TOL
    model, branch = _sweep_branch("readme", interior_pipeline)
    for point in branch.points:
        orbit = point.orbit
        _, monodromy, _, _ = verify._flow_with_monodromy(
            model, point.mu, orbit.anchor, orbit.period, verify.SWEEP_RTOL
        )
        assert np.array_equal(orbit.monodromy, monodromy)


def test_extrapolation_in_s_is_exact_for_cubics():
    rng = np.random.default_rng(16)
    a, c = rng.normal(size=(4, 3)), rng.normal(size=4)

    def anchor(s):
        return a[0] + s * a[1] + s**2 * a[2] + s**3 * a[3]

    def period(s):
        return c[0] + s * c[1] + s**2 * c[2] + s**3 * c[3]

    s = np.sqrt(np.geomspace(5e-4, 2e-2, 8))
    hopf = (0.0, anchor(0.0), period(0.0))
    orbits = [(si, anchor(si), period(si)) for si in s]
    for nodes, target in (([hopf, *orbits[:3]], s[3]), (orbits[3:7], s[7])):
        got_anchor, got_period = verify._extrapolate(nodes, target)
        assert np.max(np.abs(got_anchor - anchor(target))) < 1e-12
        assert abs(got_period - period(target)) < 1e-12

    # the Hopf node and one orbit: the secant in s
    (s1, a1, T1), target = orbits[0], s[1]
    got_anchor, got_period = verify._extrapolate([hopf, orbits[0]], target)
    ratio = (target - s1) / s1
    assert np.max(np.abs(got_anchor - (a1 + ratio * (a1 - hopf[1])))) < 1e-12
    assert abs(got_period - (T1 + ratio * (T1 - hopf[2]))) < 1e-12
    # one node: its own values
    got_anchor, got_period = verify._extrapolate([orbits[0]], target)
    assert np.array_equal(got_anchor, a1) and got_period == T1

    # loops of a cubic family sampled at 41 and at 61 points: the nodes are
    # brought to 61 on their Fourier series, exact for a band-limited loop
    def loop(s, n):
        theta = 2.0 * math.pi * np.arange(n)[:, None] / n
        return anchor(s) + np.cos(theta) * a[1] * (1.0 + s) + np.sin(2.0 * theta) * a[2] * s**2

    nodes = [(si, loop(si, 61 if k == 1 else 41), period(si)) for k, si in enumerate(s[:4])]
    got_loop, _ = verify._extrapolate(nodes, s[4])
    assert np.max(np.abs(got_loop - loop(s[4], 61))) < 1e-12


# ---------------------------------------------------------------------------
# averaged transverse drift
# ---------------------------------------------------------------------------


def test_drift_sign_on_circle_at_zero_mu(interior_pipeline):
    pipe = interior_pipeline
    report = averaged_drift_check(pipe.model, pipe.frame, pipe.coeffs, 0.0, 0.05)
    assert report.sign_match
    assert report.predicted == pytest.approx(
        interior_pipeline.coeffs.beta5 * 0.05**2, rel=1e-12
    )
    assert report.relative_error < 0.25


def test_drift_on_former_line_matches_first_order(interior_pipeline):
    pipe = interior_pipeline
    report = averaged_drift_check(pipe.model, pipe.frame, pipe.coeffs, 0.001, 0.0)
    assert report.sign_match
    assert report.predicted == pytest.approx(
        0.001 * interior_pipeline.coeffs.gamma5, rel=1e-12
    )
    assert report.relative_error < 0.05


def test_drift_vanishes_for_linear_field(rotation_model):
    raw = jet(rotation_model, np.zeros(3), 0.0)
    frame = build_standard_frame(raw)
    coeffs = compute_coefficients(standard_jet(raw, frame))
    report = averaged_drift_check(rotation_model, frame, coeffs, 0.002, 0.1)
    assert report.predicted == 0.0
    assert abs(report.measured) < 1e-12
    assert report.sign_match


# ---------------------------------------------------------------------------
# truncated reduced dynamics
# ---------------------------------------------------------------------------


def test_truncated_equilibrium_is_stationary_at_first_order(closed_chart):
    run = simulate_truncated(closed_chart.coeffs, 0.1, 0.25, (0.74, 0.0), t_final=5.0)
    # r0^2 = -mu_tilde gamma5 / beta5 zeroes the first-order drift of z
    assert run.r0 == pytest.approx(math.sqrt(0.25 * 0.225 / 0.1), rel=1e-12)


@pytest.mark.parametrize(
    "epsilon, mu_tilde, start, t_final",
    [
        (math.nan, 0.25, (0.5, 0.0), None),
        (0.1, math.nan, (0.5, 0.0), None),
        (0.1, 0.25, (math.inf, 0.0), None),
        (0.1, 0.25, (0.5, math.nan), None),
        (0.1, 0.25, (0.5, 0.0), math.nan),
        (0.1, 0.25, (0.5, 0.0), 0.0),
        (1e-320, 0.25, (0.5, 0.0), None),
        # starts outside the validity wedge |z| < r < 1
        (0.1, 0.25, (-0.3, 0.0), None),
        (0.1, 0.25, (1.5, 0.0), None),
        (0.1, 0.25, (0.0, 0.0), None),
        (0.1, 0.25, (0.5, 0.7), None),
    ],
)
def test_truncated_rejects_non_finite_input(synthetic_pipeline, epsilon, mu_tilde, start, t_final):
    coeffs = synthetic_pipeline(-1.0, 1.0, 1.0, 1.0).coeffs
    with pytest.raises(InvalidBounds):
        simulate_truncated(coeffs, epsilon, mu_tilde, start, t_final=t_final)


def test_truncated_exits_validity_wedge(synthetic_pipeline):
    coeffs = synthetic_pipeline(-1, 1, 1, 1).coeffs
    # start near the wedge boundary |z| < r with strong inward mu-drift
    with pytest.raises(LeftDomain):
        simulate_truncated(coeffs, 0.3, -3.0, (0.2, 0.15), t_final=80.0)


def test_truncated_comparison_small_deviation(synthetic_pipeline):
    pipe = synthetic_pipeline(-1, 1, 1, 1, 2.0)
    run = simulate_truncated(pipe.coeffs, 0.1, -0.25, (0.55, 0.0), t_final=100.0)
    report = compare_with_full_model(pipe.model, pipe.frame, run)
    assert report.tau_covered == pytest.approx(100.0, rel=0.01)
    assert report.deviation < 0.2  # O(epsilon) over a 1/epsilon horizon
