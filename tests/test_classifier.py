"""Type classification, branch direction, and first-order orbit predictions."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridhopf.classifier import (
    TYPE_ELLIPTIC_STABLE,
    TYPE_ELLIPTIC_UNSTABLE,
    TYPE_HYPERBOLIC,
    classify,
    direction_label,
    focus_quantity,
    predict_orbit,
    saddle_exponents,
)
from hybridhopf.coefficients import CylindricalCoefficients, HarmonicScalar
from hybridhopf.errors import AssumptionViolation, Degenerate, NonFinite, WrongDirection


def plain_coeffs(beta2, beta5, gamma5, gamma7, beta3=0.0, beta6=0.0, omega=1.0):
    zero = HarmonicScalar(0.0, 0.0, 0.0, 0.0, 0.0)
    return CylindricalCoefficients(
        omega=omega,
        beta1=0.0,
        beta2=beta2,
        beta3=beta3,
        beta4=0.0,
        beta5=beta5,
        beta6=beta6,
        gamma1=zero,
        gamma2=zero,
        gamma3=zero,
        gamma4=zero,
        gamma5=gamma5,
        gamma6=zero,
        gamma7=gamma7,
    )


# ---------------------------------------------------------------------------
# the hand rule on planted models
# ---------------------------------------------------------------------------


def test_synthetic_elliptic_stable(synthetic_pipeline):
    cls = classify(synthetic_pipeline(-1, 1, 1, 1).coeffs)
    assert cls.label == TYPE_ELLIPTIC_STABLE
    assert cls.xi == -1
    assert cls.direction == -1  # branch on mu < 0
    assert cls.sigma == pytest.approx(-1.0, rel=1e-12)
    assert cls.orbit_stable is True
    assert cls.unstable_dimension == 0


def test_synthetic_hyperbolic(synthetic_pipeline):
    cls = classify(synthetic_pipeline(1, 1, 1, 0.37).coeffs)
    assert cls.label == TYPE_HYPERBOLIC
    assert cls.xi == 1
    assert cls.orbit_stable is False
    assert cls.unstable_dimension == 2


def test_synthetic_elliptic_unstable(synthetic_pipeline):
    cls = classify(synthetic_pipeline(-1, 1, 1, -1).coeffs)
    assert cls.label == TYPE_ELLIPTIC_UNSTABLE
    assert cls.sigma == pytest.approx(1.0, rel=1e-12)
    assert cls.unstable_dimension == 3


def test_synthetic_degenerate_flag(synthetic_pipeline):
    with pytest.raises(Degenerate):
        classify(synthetic_pipeline(-1, 1, 1, 0).coeffs)


def test_interior_sample_classification(closed_chart):
    cls = classify(closed_chart.coeffs)
    assert cls.label == TYPE_ELLIPTIC_STABLE
    assert cls.xi == -1
    assert cls.direction == +1  # branch on mu > 0
    assert cls.sigma == pytest.approx(-0.037125, rel=1e-10)
    assert cls.omega == pytest.approx(math.sqrt(0.3), rel=1e-12)
    assert cls.mu_validity_hint == pytest.approx(0.1 * 0.1 / 0.225, rel=1e-12)


def test_focus_quantity_matches_sigma(closed_chart):
    cls = classify(closed_chart.coeffs)
    assert focus_quantity(closed_chart.coeffs) == pytest.approx(cls.sigma, rel=1e-15)


@pytest.mark.parametrize("name", ["beta2", "beta5", "gamma5"])
def test_vanishing_leading_coefficient_is_rejected(name):
    values = {"beta2": -1.0, "beta5": 1.0, "gamma5": 1.0, "gamma7": 1.0}
    values[name] = 0.0
    with pytest.raises(AssumptionViolation) as err:
        classify(plain_coeffs(**values))
    assert name in str(err.value)


def test_non_finite_coefficients_are_rejected():
    # a nan gamma7 leaves beta2, beta5 and gamma5 finite but sigma nan
    with pytest.raises(NonFinite, match="sigma = nan"):
        classify(plain_coeffs(beta2=-1.0, beta5=1.0, gamma5=1.0, gamma7=math.nan))


@settings(max_examples=80, deadline=None)
@given(
    b2=st.floats(0.1, 3.0),
    b5=st.floats(0.1, 3.0),
    g5=st.floats(0.1, 3.0),
    g7=st.floats(0.1, 3.0),
    s2=st.sampled_from([-1.0, 1.0]),
    s5=st.sampled_from([-1.0, 1.0]),
    sg=st.sampled_from([-1.0, 1.0]),
    sd=st.sampled_from([-1.0, 1.0]),
)
def test_sign_rules_hold_everywhere(b2, b5, g5, g7, s2, s5, sg, sd):
    coeffs = plain_coeffs(s2 * b2, s5 * b5, sg * g5, sd * g7)
    try:
        cls = classify(coeffs)
    except Degenerate:
        return
    assert cls.xi == int(np.sign(coeffs.beta2 * coeffs.beta5))
    assert cls.direction == -int(np.sign(coeffs.beta5 * coeffs.gamma5))
    if cls.xi == 1:
        assert cls.label == TYPE_HYPERBOLIC
    else:
        expected = TYPE_ELLIPTIC_STABLE if cls.sigma < 0 else TYPE_ELLIPTIC_UNSTABLE
        assert cls.label == expected


# ---------------------------------------------------------------------------
# first-order orbit predictions
# ---------------------------------------------------------------------------


def test_interior_prediction_radius_and_period(closed_chart):
    orbit = predict_orbit(closed_chart.coeffs, 0.01)
    assert orbit.r0 == pytest.approx(0.15, rel=1e-12)
    assert orbit.period == pytest.approx(2.0 * math.pi / math.sqrt(0.3), rel=1e-12)


def test_synthetic_prediction_oracle(synthetic_pipeline):
    coeffs = synthetic_pipeline(-1, 1, -1, 1).coeffs
    orbit = predict_orbit(coeffs, 0.04)
    assert orbit.r0 == pytest.approx(0.2, rel=1e-12)
    assert orbit.period == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_wrong_direction_raises(closed_chart):
    with pytest.raises(WrongDirection):
        predict_orbit(closed_chart.coeffs, -0.01)


def test_prediction_scaling_law(closed_chart):
    # r0 = O(sqrt(mu)): the ratio r0/sqrt(mu) is a constant
    ratios = [
        predict_orbit(closed_chart.coeffs, mu).r0 / math.sqrt(mu)
        for mu in (1e-6, 1e-4, 1e-2)
    ]
    assert max(ratios) - min(ratios) < 1e-12


def test_prediction_with_frame_geometry(closed_chart):
    orbit = predict_orbit(closed_chart.coeffs, 0.005, frame=closed_chart.frame)
    r0 = orbit.r0
    u = closed_chart.frame.to_frame(orbit.anchor, 0.005)
    assert math.hypot(u[0], u[1]) == pytest.approx(r0, rel=1e-10)
    assert abs(u[2]) < 1e-12
    planar = closed_chart.frame.basis[:, :2]
    assert orbit.scale == pytest.approx(
        r0 * np.linalg.norm(planar, 2), rel=1e-12
    )


def test_reduced_equilibrium_and_saddle_exponents(synthetic_pipeline):
    hyp = synthetic_pipeline(1, 1, 1, 1).coeffs  # direction = -1, orbits at mu < 0
    r0 = predict_orbit(hyp, -0.01).r0
    assert r0 == pytest.approx(0.1, rel=1e-12)
    lam1, lam2 = saddle_exponents(hyp, -0.01)
    want = math.sqrt(2.0) * 0.1
    assert lam1 == pytest.approx(want, rel=1e-12)
    assert lam2 == pytest.approx(-want, rel=1e-12)
    assert lam1.imag == 0.0

    ell = synthetic_pipeline(-1, 1, 1, 1).coeffs
    mu1, mu2 = saddle_exponents(ell, -0.01)
    assert mu1.real == pytest.approx(0.0, abs=1e-15)
    assert abs(mu1.imag) == pytest.approx(want, rel=1e-12)
    assert mu2 == -mu1


def test_direction_label_wording():
    assert direction_label(+1) == "mu > 0"
    assert direction_label(-1) == "mu < 0"
