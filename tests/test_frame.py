"""Hopf-point location, standardizing frames, and assumption checks."""
from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybridhopf import eco, models
from hybridhopf import frame as frame_mod
from hybridhopf.errors import DefectiveSpectrum, InvalidParams, NoConvergence, NonFinite, NotHopf
from hybridhopf.frame import (
    StandardFrame,
    build_standard_frame,
    check_assumptions,
    locate_hopf_point,
    standard_jet,
)
from hybridhopf.models import ModelDefinition, builtin, from_config, jet, polynomial_model
from oracles import field_jet

OMEGA_INTERIOR = math.sqrt(0.3)


def standard_linear_part(omega: float) -> np.ndarray:
    return np.array([[0.0, -omega, 0.0], [omega, 0.0, 0.0], [0.0, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# locating the Hopf point
# ---------------------------------------------------------------------------


def test_locate_interior_sample_from_perturbed_seed(interior_model):
    X = locate_hopf_point(interior_model, np.array([0.14, 0.38, 0.32]))
    assert np.allclose(X, [0.125, 0.405, 0.3], atol=1e-10)


@pytest.mark.parametrize(
    "params",
    [
        {"omega": 1, "beta2": 1, "beta5": 1, "gamma5": 1, "gamma7": 0},
        {"omega": 2.5, "beta2": -2, "beta5": 0.5, "gamma5": 3, "gamma7": 1},
    ],
)
def test_locate_synthetic_returns_origin(params):
    model = builtin("toy_cylindrical", params)
    X = locate_hopf_point(model, np.array([0.1, 0.1, 0.1]))
    assert np.allclose(X, 0.0, atol=1e-10)


def test_locate_accepts_classical_hopf_spectrum():
    # the classical normal form passes the spectral test here; it is rejected
    # later by the nondegeneracy check, not by the locator
    model = builtin("toy_cylindrical", {"beta2": 1, "beta3": 1, "gamma5": 1})
    X = locate_hopf_point(model, np.array([0.1, 0.1, 0.1]))
    assert np.allclose(X, 0.0, atol=1e-10)


def test_locate_rejects_spectrum_without_rotation():
    # all-real spectrum: the oscillatory residual can never be satisfied, so
    # the search either stalls or lands on a point that fails the post-check
    model = polynomial_model(
        {"y1": [[1.0, 1, 0, 0, 0]], "y2": [[-1.0, 0, 1, 0, 0]], "z": []},
        name="saddle_line",
    )
    with pytest.raises((NotHopf, NoConvergence)):
        locate_hopf_point(model, np.array([0.1, 0.1, 0.1]))


def test_locate_rejects_a_non_finite_newton_matrix_before_lapack(monkeypatch):
    # at the seed F = (1e306, 0.1, 0) and DF are finite, so the residual is,
    # but d1 d1 F_1 = 2e308 = inf: the jet that builds the Newton matrix is
    # non-finite, in both jet modes, and numpy's lstsq did not return on
    # such a matrix.  A non-finite Jacobian is a row of tests/test_cli.py.
    def lstsq(*args, **kwargs):
        raise AssertionError("lstsq ran on the Newton matrix")

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    cliff = {"y1": [[-1.0, 0, 1, 0, 0], [1e308, 2, 0, 0, 0]], "y2": [[1.0, 1, 0, 0, 0]], "z": []}
    for jets in ("exact", "finite_difference"):
        model = from_config({"polynomial": cliff, "name": "cliff", "jets": jets})
        with pytest.raises(NonFinite) as excinfo:
            locate_hopf_point(model, np.array([0.1, 0.0, 0.0]))
        assert str(excinfo.value) == (
            "model 'cliff' has a non-finite jet entry at state=[0.1, 0.0, 0.0], mu=0.0"
        )


def test_locate_reports_a_non_finite_f_in_the_words_of_evaluate():
    # at the seed 1e308 x1^2 = 1e310 overflows: F and DF of the residual's
    # linearisation are both non-finite, and F, checked first, is named as
    # `models.evaluate` names it, in both jet modes; errstate as in the CLI
    spec = {"y1": [[1e308, 2, 0, 0, 0]], "y2": [[1.0, 1, 0, 0, 0]], "z": []}
    for jets in ("exact", "finite_difference"):
        model = from_config({"polynomial": spec, "name": "overflow", "jets": jets})
        with np.errstate(all="ignore"), pytest.raises(NonFinite) as excinfo:
            locate_hopf_point(model, np.array([10.0, 0.0, 0.0]))
        assert str(excinfo.value) == (
            "model 'overflow' produced non-finite output at state=[10.0, 0.0, 0.0], mu=0.0"
        )


def test_locate_needs_an_exact_jet_or_a_field():
    # the Newton matrix comes from the jet; F is not 0 at the seed, so the
    # search builds one
    J = standard_linear_part(1.0)
    model = ModelDefinition("bare", lambda X, mu: J @ X, jacobian=lambda X, mu: J)
    with pytest.raises(InvalidParams, match="model 'bare' has neither an exact jet nor a field"):
        locate_hopf_point(model, np.array([0.1, 0.1, 0.1]))


def test_locate_rejects_eigenvectors_that_do_not_span():
    # DF is a nilpotent Jordan block everywhere: its eigenvectors span one
    # direction, so the eigenvalue derivative of the Newton matrix is undefined
    model = polynomial_model(
        {"y1": [[1.0, 0, 1, 0, 0]], "y2": [[1.0, 0, 0, 1, 0]], "z": [[1.0, 0, 0, 0, 0]]},
        name="jordan",
    )
    with pytest.raises(NonFinite) as excinfo:
        locate_hopf_point(model, np.array([0.1, 0.1, 0.1]))
    assert str(excinfo.value) == (
        "model 'jordan' has a non-finite Newton matrix at state=[0.1, 0.1, 0.1], mu=0.0"
    )


#: planted sets whose Hopf point is the origin; ``beta1`` is ROADMAP item 2's
PLANTED_BETA1 = {
    "omega": 1.3, "beta1": 0.4, "beta2": 0.7, "beta4": 0.3, "beta5": -0.9,
    "beta6": 0.25, "gamma5": 0.8, "gamma7": -0.35,
}
PLANTED_ES = {
    "omega": 1.1, "beta2": -0.8, "beta3": 0.5, "beta5": 1.2, "beta6": -0.4,
    "gamma5": 0.9, "gamma7": 0.6,
}
#: largest |Newton matrix - central difference of the residual| over the
#: largest entry.  With a model Jacobian the difference quotient errs by
#: about eps |G| / h + h^2 |D^3 G| (7e-10 seen); without one the residual's
#: Jacobian is itself a central difference, so its rounding eps |F| / h is
#: divided by h once more (1.2e-3 seen on the predator-prey draw).  A factor
#: of 2 or a conjugated v or w in d nu errs by 0.5 or more.
NEWTON_ORACLE_TOL = {"exact": 1e-8, "finite_difference": 1e-2}


def _newton_oracle_cases():
    p = eco.sample_region(1, 7)[0]
    yield "toy_beta1", {"builtin": "toy_cylindrical", "params": PLANTED_BETA1}, np.zeros(3)
    yield "toy_es", {"builtin": "toy_cylindrical", "params": PLANTED_ES}, np.zeros(3)
    yield "region_draw", {"builtin": "predator_prey", "params": p.to_dict()}, eco.hopf_point(p)


@pytest.mark.parametrize("jets", ["exact", "finite_difference"])
@pytest.mark.parametrize("name, config, X_H", list(_newton_oracle_cases()))
def test_newton_matrix_is_the_derivative_of_the_residual(name, config, X_H, jets):
    """The jet-built Newton matrix of `locate_hopf_point` agrees with the
    central difference of its residual [F, Re nu] at points 0.01-0.05 from
    the Hopf point."""
    model = from_config(dict(config, jets=jets))
    linearize = models.linearization_fn(model)

    def residual(P):
        F, DF = linearize(*P.tolist(), 0.0)
        eigs = np.linalg.eigvals(DF)
        return np.append(F, eigs[np.argmax(np.abs(eigs.imag))].real)

    rng = np.random.default_rng(3)
    for radius in (0.01, 0.03, 0.05):
        direction = rng.normal(size=3)
        X = X_H + radius * direction / np.linalg.norm(direction)
        JG = frame_mod._newton_matrix(model, X)
        oracle = models.central_difference(residual, X)
        error = np.max(np.abs(JG - oracle)) / np.max(np.abs(JG))
        assert JG.shape == (4, 3) and error < NEWTON_ORACLE_TOL[jets], (name, X, JG, oracle)


# ---------------------------------------------------------------------------
# frame construction
# ---------------------------------------------------------------------------


def test_identity_frame_for_standard_form_model():
    model = builtin("toy_cylindrical", {"omega": 1, "beta2": 1, "beta5": 1, "gamma5": 1, "gamma7": 0})
    frame = build_standard_frame(jet(model, np.zeros(3), 0.0))
    assert np.allclose(frame.basis, np.eye(3), atol=1e-12)
    assert np.allclose(frame.mu_shift, 0.0, atol=1e-12)
    assert frame.omega == pytest.approx(1.0, abs=1e-12)


def test_interior_frame_standardizes_jacobian(interior_pipeline):
    std = standard_jet(
        jet(interior_pipeline.model, interior_pipeline.point, 0.0),
        interior_pipeline.frame,
    )
    B1 = std.state_derivs[1]
    assert np.allclose(B1, standard_linear_part(OMEGA_INTERIOR), atol=1e-9)
    assert interior_pipeline.frame.omega == pytest.approx(OMEGA_INTERIOR, abs=1e-12)


def test_interior_frame_basis_invariants(interior_pipeline):
    basis = interior_pipeline.frame.basis
    assert abs(np.linalg.det(basis)) > 1e-12
    assert np.linalg.norm(basis[:, 2]) == pytest.approx(1.0, abs=1e-12)


def test_mu_shift_removes_planar_parameter_drift(interior_pipeline):
    std = standard_jet(
        jet(interior_pipeline.model, interior_pipeline.point, 0.0),
        interior_pipeline.frame,
    )
    f_mu = std.mu_derivs[0]
    assert np.allclose(f_mu[:2], 0.0, atol=1e-9)


def test_round_trip_coordinates(interior_pipeline):
    frame = interior_pipeline.frame
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = rng.normal(size=3) * 0.1
        mu = rng.normal() * 0.01
        X = frame.from_frame(u, mu)
        assert np.allclose(frame.to_frame(X, mu), u, atol=1e-12)


def test_to_frame_of_a_stack_equals_rows(interior_pipeline):
    frame = interior_pipeline.frame
    rng = np.random.default_rng(5)
    states = interior_pipeline.point + 0.05 * rng.normal(size=(256, 3))
    mu = 0.005
    rows = np.array(
        [np.linalg.solve(frame.basis, X - frame.origin) - mu * frame.mu_shift for X in states]
    )
    assert np.array_equal(frame.to_frame(states, mu), rows)
    single = frame.to_frame(states[7], mu)
    assert single.shape == (3,)
    assert np.array_equal(single, rows[7])


def test_rotated_synthetic_recovers_standard_pattern():
    base = builtin("toy_cylindrical", {"omega": 1.7, "beta2": 1, "beta5": 1, "gamma5": 1, "gamma7": 1})
    rng = np.random.default_rng(12)
    A_mat = rng.normal(size=(3, 3))
    Q, _ = np.linalg.qr(A_mat)

    def rhs(X, mu):
        return Q @ base.rhs(Q.T @ X, mu)

    def jacobian(X, mu):
        return Q @ base.jacobian(Q.T @ X, mu) @ Q.T

    def rotate(M, V):
        return [sum(m * v for m, v in zip(row, V)) for row in M.tolist()]

    def field(x1, x2, x3, mu):
        return rotate(Q, base.field(*rotate(Q.T, (x1, x2, x3)), mu))

    rotated = ModelDefinition("rotated_synthetic", rhs, jacobian=jacobian, field=field)
    raw = jet(rotated, np.zeros(3), 0.0)
    frame = build_standard_frame(raw)
    std = standard_jet(raw, frame)
    assert np.allclose(std.state_derivs[1], standard_linear_part(1.7), atol=1e-9)


# ---------------------------------------------------------------------------
# standard_jet against exact rational arithmetic
# ---------------------------------------------------------------------------

#: unit roundoff, and the spacing of subnormal floats
U = Fraction(1, 2**53)
ETA = Fraction(1, 2**1074)
#: roundings a term of a `standard_jet` entry passes through, at most: a
#: term of the B2 S part of d_mu DF takes B2's three contractions of three
#: terms (three products, six sums), one more with S (a product, two sums)
#: and the sum with T^-1 d_mu DF T; B3's four contractions make twelve
STANDARD_JET_ROUNDINGS = 13
#: products in one term, at most (T^-1, D^3 F and three T, or T^-1, D^2 F,
#: two T and S): each that underflows errs by at most ETA / 2
STANDARD_JET_PRODUCTS = 4
_exact = np.vectorize(Fraction, otypes=[object])


def _transform(Tinv, F, D1, A2, A3, f_mu, A_mu, T, S):
    """`standard_jet`'s formulas on arrays of any element type, contracted in
    whatever order einsum's path search picks (on Fractions every order is
    exact)."""
    B1 = np.einsum("dc,ci,ip->dp", Tinv, D1, T, optimize=True)
    B2 = np.einsum("dc,cij,ip,jq->dpq", Tinv, A2, T, T, optimize=True)
    B3 = np.einsum("dc,cijk,ip,jq,kr->dpqr", Tinv, A3, T, T, T, optimize=True)
    shifted0 = Tinv.dot(f_mu) + B1.dot(S)
    shifted1 = np.einsum("dc,ci,ip->dp", Tinv, A_mu, T, optimize=True) + B2.dot(S)
    return Tinv.dot(F), B1, B2, B3, shifted0, shifted1


def _exact_standard_jet(jet, frame):
    """Each `standard_jet` tensor in exact rational arithmetic on the float
    inputs (the jet read at its sorted-axes slots, T, S and the float
    inverse of T), with the same sums over |term| and over each term's
    ceiling, the product of max(1, |factor|) over its factors."""
    T = frame.basis
    F, D1, D2, D3 = jet.state_derivs
    A2 = np.empty((3, 3, 3))
    A3 = np.empty((3, 3, 3, 3))
    for i, j in itertools.product(range(3), repeat=2):
        A2[:, i, j] = D2[(slice(None), *sorted((i, j)))]
        for k in range(3):
            A3[:, i, j, k] = D3[(slice(None), *sorted((i, j, k)))]
    inputs = [np.linalg.inv(T), F, D1, A2, A3, *jet.mu_derivs, T, frame.mu_shift]
    exact = [_exact(a) for a in inputs]
    magnitudes = [np.abs(a) for a in exact]
    ceilings = [np.maximum(a, 1) for a in magnitudes]
    return zip(*(_transform(*values) for values in (exact, magnitudes, ceilings)))


def _assert_matches_reference(raw, frame):
    """Every entry within rounding of its exact value (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Lemma 3.1): at most
    STANDARD_JET_ROUNDINGS roundings per term put the sum within
    gamma_13 sum |term| of exact, and a product that underflows adds at most
    ETA / 2 times the factors after it, which the term's ceiling bounds."""
    std = standard_jet(raw, frame)
    k = STANDARD_JET_ROUNDINGS
    gamma = k * U / (1 - k * U)
    got = (*std.state_derivs, *std.mu_derivs)
    for tensor, (exact, magnitude, ceiling) in zip(got, _exact_standard_jet(raw, frame)):
        bound = gamma * magnitude + STANDARD_JET_PRODUCTS * ETA * ceiling
        error = np.abs(_exact(tensor) - exact)
        assert (error <= bound).all(), (tensor.ndim, tensor, error, bound)
    assert std.tolerance == raw.tolerance * max(1.0, np.linalg.cond(frame.basis))
    assert all(t.flags.c_contiguous for t in got)


@pytest.mark.parametrize("differences", [False, True])
def test_standard_jet_matches_reference_at_readme_hopf_point(
    interior_model, interior_hopf, differences
):
    # the exact jet and the jet from the field, in the frame the checks build
    raw = (field_jet if differences else jet)(interior_model, interior_hopf, 0.0)
    _assert_matches_reference(raw, build_standard_frame(raw))


_MIXED_CUBIC = polynomial_model(
    {
        "y1": [[-1.5, 0, 1, 0, 0], [0.7, 1, 0, 1, 0], [0.2, 0, 0, 0, 1], [0.3, 1, 1, 1, 0]],
        "y2": [[1.5, 1, 0, 0, 0], [-0.3, 0, 1, 1, 0], [0.1, 3, 0, 0, 0], [0.4, 0, 2, 0, 1]],
        "z": [[0.9, 2, 0, 0, 0], [0.9, 0, 2, 0, 0], [0.4, 0, 0, 0, 1], [0.6, 0, 1, 2, 1]],
    },
    name="mixed_cubic",
)
_offset = st.floats(-0.05, 0.05)
_entry = st.floats(-0.6, 0.6)


@settings(max_examples=40, deadline=None)
@given(
    use_polynomial=st.booleans(),
    differences=st.booleans(),
    offset=st.tuples(_offset, _offset, _offset),
    mu=st.floats(-0.01, 0.01),
    basis=st.lists(_entry, min_size=9, max_size=9),
    shift=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
def test_standard_jet_matches_reference(
    interior_model, use_polynomial, differences, offset, mu, basis, shift
):
    model = _MIXED_CUBIC if use_polynomial else interior_model
    centre = np.zeros(3) if use_polynomial else np.array([0.125, 0.405, 0.3])
    T = np.eye(3) + np.reshape(basis, (3, 3))
    assume(np.linalg.cond(T) < 1e3)
    point = centre + np.array(offset)
    raw = (field_jet if differences else jet)(model, point, mu)
    frame = StandardFrame(origin=point, basis=T, mu_shift=np.array([*shift, 0.0]), omega=1.0)
    _assert_matches_reference(raw, frame)


def test_defective_spectrum_rejected(rotation_model):
    model = polynomial_model(
        {
            "y1": [[1.0, 1, 0, 0, 0]],
            "y2": [[-1.0, 0, 1, 0, 0]],
            "z": [],
        },
        name="real_spectrum",
    )
    with pytest.raises(DefectiveSpectrum):
        build_standard_frame(jet(model, np.zeros(3), 0.0))


# ---------------------------------------------------------------------------
# assumption checks
# ---------------------------------------------------------------------------


def test_interior_sample_passes_all_assumptions(interior_model, interior_hopf, interior_pipeline):
    report = check_assumptions(interior_model, interior_hopf)
    assert report.all_pass()
    assert list(report.failed()) == []
    assert report.a1_line_residual < 1e-10
    assert report.omega == pytest.approx(OMEGA_INTERIOR, abs=1e-9)
    # the nondegeneracy reading is the planar trace of the second transverse
    # differential: four times the quadratic radial coefficient in this frame
    assert report.a4_nondegeneracy == pytest.approx(
        4.0 * interior_pipeline.coeffs.beta5, rel=1e-9
    )


def test_synthetic_assumption_values():
    model = builtin("toy_cylindrical", {"omega": 1, "beta2": 1, "beta5": 1, "gamma5": 1, "gamma7": 0})
    report = check_assumptions(model, np.zeros(3))
    assert report.all_pass()
    assert report.a3_crossing == pytest.approx(2.0, abs=1e-9)
    assert report.a4_nondegeneracy == pytest.approx(4.0, abs=1e-9)
    assert report.a5_drift == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("sign", [1, -1])
def test_classical_hopf_fails_exactly_nondegeneracy(sign):
    model = builtin("toy_cylindrical", {"beta2": 1, "beta3": sign, "gamma5": 1})
    report = check_assumptions(model, np.zeros(3))
    assert not report.all_pass()
    assert list(report.failed()) == ["a4_nondegeneracy"]
    assert report.a4_nondegeneracy == pytest.approx(0.0, abs=1e-10)
    assert report.verdicts["a1_line"]
    assert report.verdicts["a2_spectrum"]
    assert report.verdicts["a3_crossing"]
    assert report.verdicts["a5_drift"]


def test_line_residual_of_a_non_finite_jacobian_is_infinite():
    # F is not 0 off the point, and the Jacobian there is nan: each Newton
    # start on the segment fails as a non-finite F would, before LAPACK
    model = builtin("toy_cylindrical", {"omega": 1, "beta2": 1, "beta5": 1, "gamma5": 1, "gamma7": 0})
    model = dataclasses.replace(
        model,
        rhs=lambda X, mu: np.full(3, 1e-3),
        jacobian=lambda X, mu: np.full((3, 3), math.nan),
    )
    report = check_assumptions(model, np.zeros(3))
    assert report.a1_line_residual == math.inf
    assert report.failed() == ["a1_line"]


def _reference_line_residual(model, X_H, e3):
    """The per-probe loop `_line_residual` replaced: each probe built as
    X_H + t e3, F through `models.evaluate` and |F| through numpy, with the
    stopping rule of `_line_residual`."""
    linearize = models.linearization_fn(model)
    worst = 0.0
    for t in np.linspace(-0.1, 0.1, 20):
        P = X_H + t * e3
        X = P.copy()
        best = math.inf
        for _ in range(25):
            try:
                F = models.evaluate(model, X, 0.0)
                best = min(best, float(np.max(np.abs(F))))
                if best < frame_mod.LOCATE_RESIDUAL_TOL:
                    break
                DF = linearize(*X.tolist(), 0.0)[1]
                JG = np.vstack([frame_mod._finite(model, "has a non-finite Jacobian", DF, X), e3])
            except NonFinite:
                best = math.inf
                break
            G = np.append(F, e3 @ (X - P))
            step, *_ = np.linalg.lstsq(JG, -G, rcond=None)
            X = X + step
        worst = max(worst, best)
    return worst


def _assert_line_residual_is_reference(model, X_H, e3, monkeypatch):
    """Equal a1, and as many `lstsq` solves, as the reference loop."""
    calls = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(None)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    got = frame_mod._line_residual(model, X_H, e3)
    steps = len(calls)
    want = _reference_line_residual(model, X_H, e3)
    assert got == want, (got, want)
    assert steps == len(calls) - steps
    return got, steps


def test_line_residual_is_the_probe_loop_at_readme_point(interior_model, interior_hopf, monkeypatch):
    report = check_assumptions(interior_model, interior_hopf)
    e3 = report.frame.basis[:, 2]
    got, _ = _assert_line_residual_is_reference(interior_model, interior_hopf, e3, monkeypatch)
    assert report.a1_line_residual == got < frame_mod.A1_THRESHOLD


@pytest.mark.parametrize("jets", ["exact", "finite_difference"])
def test_line_residual_is_the_probe_loop_on_located_planted_point(jets, monkeypatch):
    model = from_config({"builtin": "toy_cylindrical", "params": PLANTED_BETA1, "jets": jets})
    X_H = locate_hopf_point(model, np.array([0.02, -0.03, 0.05]))
    report = check_assumptions(model, X_H)
    # X_H is off the z-axis by about 1e-13, as far as locate_hopf_point's own
    # |F| < LOCATE_RESIDUAL_TOL places it, so every probe first reads |F|
    # below that stop and none takes a Newton step
    got, steps = _assert_line_residual_is_reference(model, X_H, report.frame.basis[:, 2], monkeypatch)
    assert report.a1_line_residual == got < frame_mod.LOCATE_RESIDUAL_TOL and steps == 0


@pytest.mark.parametrize("offset", [5e-13, 5e-12])
def test_line_residual_steps_only_above_the_located_accuracy(offset, monkeypatch):
    # F + (offset, 0, 0) on the planted z-axis reads exactly ``offset`` at
    # every probe: 5e-13 lies above 1e-14 but below LOCATE_RESIDUAL_TOL, so
    # no probe steps and a1 is the offset; 5e-12 lies above the stop, so
    # every probe steps off the axis to where the rotation cancels the offset
    planted = builtin("toy_cylindrical", PLANTED_BETA1)
    model = dataclasses.replace(planted, rhs=lambda X, mu: planted.rhs(X, mu) + [offset, 0, 0])
    e3 = np.array([0.0, 0.0, 1.0])
    got, steps = _assert_line_residual_is_reference(model, np.zeros(3), e3, monkeypatch)
    if offset < frame_mod.LOCATE_RESIDUAL_TOL:
        assert got == offset and steps == 0
    else:
        assert got < frame_mod.LOCATE_RESIDUAL_TOL and steps >= 20


def test_line_residual_is_the_probe_loop_off_the_line(interior_model, interior_hopf, monkeypatch):
    # 1e-9 off the line, every probe starts with |F| far above the stop and takes
    # Newton steps, each with DF from the linearisation and one lstsq
    e = check_assumptions(interior_model, interior_hopf).frame.basis
    X_H = interior_hopf + 1e-9 * e[:, 0]
    got, steps = _assert_line_residual_is_reference(interior_model, X_H, e[:, 2], monkeypatch)
    assert steps >= 20 and got < frame_mod.A1_THRESHOLD


def test_line_residual_is_the_probe_loop_at_a_non_finite_probe(interior_model, interior_hopf, monkeypatch):
    # F is nan on the probes past t = 0.05; they read inf, the others converge
    e3 = check_assumptions(interior_model, interior_hopf).frame.basis[:, 2]
    far = interior_hopf + 0.05 * e3

    def rhs(X, mu):
        F = interior_model.rhs(X, mu)
        return F + math.nan if (X - far) @ e3 > 0 else F

    model = dataclasses.replace(interior_model, rhs=rhs)
    got, _ = _assert_line_residual_is_reference(model, interior_hopf, e3, monkeypatch)
    assert got == math.inf


def test_report_document_shape(interior_model, interior_hopf):
    doc = check_assumptions(interior_model, interior_hopf).to_document()
    for key in ("a1_line", "a2_spectrum", "a3_crossing", "a4_nondegeneracy", "a5_drift"):
        assert key in doc["verdicts"]
    assert doc["omega"] == pytest.approx(OMEGA_INTERIOR, abs=1e-9)
