"""Cylindrical expansion coefficients: planted models and closed-form charts."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from hybridhopf.coefficients import HarmonicScalar, compute_coefficients
from hybridhopf.errors import NotHopf
from hybridhopf.frame import build_standard_frame, standard_jet
from hybridhopf.models import builtin, jet

SCALARS = ("beta1", "beta2", "beta3", "beta4", "beta5", "beta6", "gamma5", "gamma7")
HARMONICS = ("gamma1", "gamma2", "gamma3", "gamma4", "gamma6")


# ---------------------------------------------------------------------------
# harmonic containers
# ---------------------------------------------------------------------------


def test_harmonic_scalar_mean_is_constant_term():
    h = HarmonicScalar(c0=0.7, cos1=0.3, sin1=-1.1, cos2=0.25, sin2=0.4)
    phi = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    assert np.mean([h(p) for p in phi]) == pytest.approx(0.7, abs=1e-12)
    assert h.c0 == pytest.approx(0.7, abs=1e-15)


def test_harmonic_structure_by_construction(interior_pipeline, synthetic_pipeline):
    for coeffs in (interior_pipeline.coeffs, synthetic_pipeline(1, 1, 1, 1, 2.0).coeffs):
        for name in ("gamma2", "gamma4", "gamma6"):
            h = getattr(coeffs, name)
            assert h.c0 == 0.0 and h.cos2 == 0.0 and h.sin2 == 0.0, name
        for name in ("gamma1", "gamma3"):
            h = getattr(coeffs, name)
            assert h.cos1 == 0.0 and h.sin1 == 0.0, name


# ---------------------------------------------------------------------------
# planted synthetic values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,c,d,omega",
    [
        (1.0, 1.0, 1.0, 0.0, 1.0),
        (-1.0, 1.0, 1.0, 1.0, 2.0),
        (2.0, -3.0, 0.5, -0.7, 0.8),
        (-0.4, 2.2, -1.3, 1.9, 3.0),
    ],
)
def test_synthetic_planted_coefficients(synthetic_pipeline, a, b, c, d, omega):
    coeffs = synthetic_pipeline(a, b, c, d, omega).coeffs
    assert coeffs.omega == pytest.approx(omega, rel=1e-12)
    assert coeffs.beta2 == pytest.approx(a, rel=1e-12, abs=1e-12)
    assert coeffs.beta5 == pytest.approx(b, rel=1e-12, abs=1e-12)
    assert coeffs.gamma5 == pytest.approx(c, rel=1e-12, abs=1e-12)
    assert coeffs.gamma7 == pytest.approx(d, rel=1e-12, abs=1e-12)
    for name in ("beta1", "beta3", "beta4", "beta6"):
        assert getattr(coeffs, name) == pytest.approx(0.0, abs=1e-12), name
    for name in ("gamma1", "gamma2", "gamma4", "gamma6"):
        h = getattr(coeffs, name)
        for field in ("c0", "cos1", "sin1", "cos2", "sin2"):
            assert getattr(h, field) == pytest.approx(0.0, abs=1e-12), (name, field)
    # the rotating-phase average leaves one resonant constant in gamma3
    assert coeffs.gamma3.c0 == pytest.approx(math.pi * a * c / omega, rel=1e-12, abs=1e-12)
    for field in ("cos1", "sin1", "cos2", "sin2"):
        assert getattr(coeffs.gamma3, field) == pytest.approx(0.0, abs=1e-12), field


@pytest.mark.parametrize(
    "planted",
    [
        {"omega": 1.3, "beta2": -0.7, "beta3": 0.25, "beta5": 0.9, "beta6": -0.15,
         "gamma5": 1.1, "gamma7": -0.4},
        # ROADMAP item 2's set
        {"omega": 1.3, "beta1": 0.4, "beta2": 0.7, "beta3": -0.1, "beta4": 0.3, "beta5": -0.9,
         "beta6": 0.25, "gamma3": 0.2, "gamma5": 0.8, "gamma7": -0.35},
        {"omega": 0.7, "beta1": -1.7, "beta2": -0.6, "beta3": 0.45, "beta4": -0.8, "beta5": 1.2,
         "beta6": -0.3, "gamma3": -0.5, "gamma5": -1.4, "gamma7": 0.9},
    ],
    ids=["beta1_zero", "item2", "beta1_negative"],
)
def test_toy_cylindrical_round_trip(planted):
    raw = jet(builtin("toy_cylindrical", planted), np.zeros(3), 0.0)
    got = compute_coefficients(standard_jet(raw, build_standard_frame(raw)))
    planted = {name: 0.0 for name in (*SCALARS, "gamma3")} | planted
    for name in ("omega", *SCALARS):
        assert getattr(got, name) == pytest.approx(planted[name], rel=0, abs=1e-12), name
    # the phase average adds these constants to the planted gamma3 and to a
    # gamma1 the toy does not plant; ROADMAP items 12 and 19 may move them
    omega, b1, b2, g5 = (planted[n] for n in ("omega", "beta1", "beta2", "gamma5"))
    constants = {"gamma1": math.pi * b1 * g5, "gamma3": planted["gamma3"] + math.pi * b2 * g5 / omega}
    for name in HARMONICS:
        h = getattr(got, name)
        for field in ("c0", "cos1", "sin1", "cos2", "sin2"):
            want = constants.get(name, 0.0) if field == "c0" else 0.0
            assert getattr(h, field) == pytest.approx(want, rel=1e-12, abs=1e-12), (name, field)


def test_linear_field_all_coefficients_vanish(rotation_model):
    raw = jet(rotation_model, np.zeros(3), 0.0)
    coeffs = compute_coefficients(standard_jet(raw, build_standard_frame(raw)))
    assert coeffs.omega == pytest.approx(1.0, abs=1e-12)
    for name in SCALARS:
        assert getattr(coeffs, name) == pytest.approx(0.0, abs=1e-12), name
    for name in HARMONICS:
        h = getattr(coeffs, name)
        for field in ("c0", "cos1", "sin1", "cos2", "sin2"):
            assert getattr(h, field) == pytest.approx(0.0, abs=1e-12), (name, field)


# ---------------------------------------------------------------------------
# closed-form chart of the ecosystem sample
# ---------------------------------------------------------------------------


def test_interior_closed_chart_values(closed_chart):
    coeffs = closed_chart.coeffs
    assert coeffs.omega == pytest.approx(math.sqrt(0.3), rel=1e-12)
    assert coeffs.beta2 == pytest.approx(-4.0 / 27.0, rel=1e-12)
    assert coeffs.beta5 == pytest.approx(0.1, rel=1e-12)
    assert coeffs.gamma5 == pytest.approx(-0.225, rel=1e-12)
    assert coeffs.gamma7 == pytest.approx(2.0 / 9.0, rel=1e-12)
    assert coeffs.beta6 == pytest.approx(0.0, abs=1e-12)
    assert coeffs.beta3 == pytest.approx(-0.4160493827160494, rel=1e-12)


def test_coefficients_document_is_json_ready(interior_pipeline):
    doc = dataclasses.asdict(interior_pipeline.coeffs)
    import json

    text = json.dumps(doc, sort_keys=True)
    assert "beta5" in doc and "gamma5" in doc
    assert isinstance(json.loads(text), dict)


def test_pattern_check_rejects_unstandardized_jet(interior_model, interior_hopf):
    raw = jet(interior_model, interior_hopf, 0.0)
    with pytest.raises(NotHopf):
        compute_coefficients(raw)
