"""Two-predator/one-prey application layer: closed forms and region tools."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybridhopf import classifier, eco
from hybridhopf.eco import EcoParams
from hybridhopf.errors import (
    AssumptionViolation,
    Degenerate,
    DegenerateAlphas,
    HybridHopfError,
    InvalidBounds,
    InvalidParams,
    NonFinite,
    NotAdmissible,
)
from hybridhopf.frame import locate_hopf_point
from oracles import coexistence_line, sample_region_loop

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


# ---------------------------------------------------------------------------
# parameter validation and the admissible region
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(delta1=0.0),
        dict(delta2=-1.0),
        dict(lam=0.0),
        dict(lam=1.0),
        dict(lam=1.4),
        dict(alpha1=0.0),
        dict(alpha2=-0.3),
        *(dict.fromkeys([name], math.nan) for name in ("delta1", "delta2", "lam", "alpha1", "alpha2")),
    ],
)
def test_params_validation(kwargs):
    base = dict(delta1=1.0, delta2=1.0, lam=0.3, alpha1=0.2, alpha2=0.6)
    base.update(kwargs)
    with pytest.raises(InvalidParams):
        EcoParams(**base)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("delta1", 0.0, "predator_prey needs positive growth-rate ratios delta1, delta2"),
        ("alpha2", -0.1, "predator_prey needs positive half-saturation constants"),
        ("lam", 1.0, "predator_prey needs break-even concentration 0 < lam < 1"),
    ],
    ids=["delta1", "alpha2", "lam"],
)
def test_params_bounds_messages(name, value, message):
    """`EcoParams` is the one check of the bounds, and the command line prints its lines."""
    base = dict(delta1=1.0, delta2=1.0, lam=0.3, alpha1=0.2, alpha2=0.6)
    with pytest.raises(InvalidParams) as excinfo:
        EcoParams(**{**base, name: value})
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "lam, alpha1, alpha2, inside",
    [
        (0.3, 0.2, 0.6, True),
        (0.3, 0.05, 0.95, True),
        (0.5, 0.2, 0.6, False),  # lam must stay below 1/2
        (0.25, 0.5, 0.75, False),  # alpha1 on the boundary 1 - 2 lam
        (0.25, 0.6, 0.75, False),  # alpha1 above the boundary
        (0.25, 0.3, 0.5, False),  # alpha2 on the boundary
        (0.25, 0.3, 1.0, False),  # alpha2 must stay below 1
        (0.3, 0.2, 0.3, False),  # alpha2 below the boundary
    ],
)
def test_admissible_region_strict(lam, alpha1, alpha2, inside):
    p = EcoParams(delta1=1.0, delta2=1.0, lam=lam, alpha1=alpha1, alpha2=alpha2)
    assert p.admissible() is inside
    if not inside:
        with pytest.raises(NotAdmissible):
            p.require_admissible()


def test_admissibility_is_evaluated_in_floats():
    # 1 - 2*0.4 rounds below 0.2, so this boundary-in-exact-arithmetic point
    # sits strictly inside the region as floats; the library does not try to
    # outsmart the arithmetic.
    p = EcoParams(delta1=0.8, delta2=0.5, lam=0.4, alpha1=0.1, alpha2=0.2)
    assert 1.0 - 2.0 * p.lam < p.alpha2
    assert p.admissible()


def test_ell_signs_inside_region(interior):
    assert interior.l1 > 0
    assert interior.l2 > 0


# ---------------------------------------------------------------------------
# Hopf point geometry
# ---------------------------------------------------------------------------


def test_hopf_point_interior_oracle(interior, interior_hopf):
    assert interior_hopf == pytest.approx([0.125, 0.405, 0.3], rel=1e-14)
    # membership on the coexistence line x1/q1 + x2/q2 = 1 - lam
    q1, q2 = interior.lam + interior.alpha1, interior.lam + interior.alpha2
    assert interior_hopf[0] / q1 + interior_hopf[1] / q2 == pytest.approx(
        1 - interior.lam, rel=1e-14
    )


def test_hopf_point_agrees_with_numeric_search(interior_model, interior_hopf):
    found = locate_hopf_point(interior_model, interior_hopf + np.array([0.02, -0.03, 0.01]))
    assert found == pytest.approx(interior_hopf, abs=1e-10)


@pytest.mark.parametrize("seed", [0, 11])
def test_hopf_point_is_the_model_seed_bit_for_bit(seed):
    for p in eco.sample_region(100, seed):
        assert np.array_equal(eco.hopf_point(p), np.array(eco.model(p).metadata["hopf_seed"]))


def test_equal_alphas_rejected_before_admissibility():
    p = EcoParams(delta1=1.0, delta2=1.0, lam=0.3, alpha1=0.6, alpha2=0.6)
    assert not p.admissible()  # and yet the alpha check fires first
    with pytest.raises(DegenerateAlphas):
        eco.hopf_point(p)


def test_coexistence_line_consists_of_equilibria(interior, interior_model):
    for X in coexistence_line(interior, [0.05, 0.125, 0.3]):
        assert np.linalg.norm(interior_model.rhs(X, 0.0)) < 1e-12
        assert X[2] == interior.lam


def test_omega_squared_interior(interior):
    assert eco.omega_squared(interior) == pytest.approx(0.3, rel=1e-14)


@pytest.mark.parametrize("seed", [3, 11])
def test_omega_squared_positive_on_samples(seed):
    for p in eco.sample_region(50, seed=seed):
        assert eco.omega_squared(p) > 0


# ---------------------------------------------------------------------------
# closed-form coefficients
# ---------------------------------------------------------------------------


def test_closed_forms_interior_frozen_values(interior):
    cf = eco.closed_form_coefficients(interior)
    assert cf["omega"] == pytest.approx(math.sqrt(0.3), rel=1e-14)
    assert cf["beta2"] == pytest.approx(-4.0 / 27.0, rel=1e-13)
    assert cf["beta5"] == pytest.approx(0.1, rel=1e-13)
    assert cf["gamma5"] == pytest.approx(-0.225, rel=1e-13)
    assert cf["gamma7"] == pytest.approx(2.0 / 9.0, rel=1e-12)
    assert cf["beta3"] == pytest.approx(-0.4160493827160494, rel=1e-12)
    assert abs(cf["beta6"]) < 1e-15  # equal deltas cancel the asymmetry term
    assert cf["H1"] == pytest.approx(-1.44, rel=1e-14)
    assert cf["H2"] == pytest.approx(0.52, rel=1e-14)


def test_closed_forms_require_admissibility():
    p = EcoParams(delta1=1.0, delta2=1.0, lam=0.3, alpha1=0.55, alpha2=0.6)
    with pytest.raises(NotAdmissible):
        eco.closed_form_coefficients(p)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_universal_signs_on_samples(seed):
    for p in eco.sample_region(100, seed=seed):
        cf = eco.closed_form_coefficients(p)
        assert cf["beta2"] < 0
        assert cf["beta5"] > 0
        assert cf["gamma5"] < 0


def test_beta6_vanishes_on_symmetric_growth_locus():
    # delta1 * l2 == delta2 * l1 makes the predators' effective growth rates
    # equal along the line, killing the only delta-asymmetric coefficient
    p = EcoParams(delta1=2.0, delta2=1.0, lam=0.25, alpha1=0.25, alpha2=0.625)
    assert p.delta1 * p.l2 == p.delta2 * p.l1
    assert eco.closed_form_coefficients(p)["beta6"] == 0.0


def test_closed_forms_are_stable_elliptic_on_the_whole_region(monkeypatch):
    """The showcase claim, proven on the closed forms that `eco` evaluates:
    on {0 < lam < 1/2, 0 < alpha1 < 1-2lam < alpha2 < 1} and for all deltas,
    beta2 < 0 < beta5 and gamma5 < 0 (xi = -1, branch on mu > 0), and
    sigma = c * margin with c > 0 and margin < 0, so in exact arithmetic
    every admissible parameter set is of type ES.

    The closed forms run on symbols through `eco._Draws`.  Every point of
    the region is ((u+v)/2, a, u+a+t) / (u+v+a+t) for positive u, v, a, t
    (at u+v+a+t = 1 they are l2, 1 - alpha2, alpha1 and l1), so a rational
    function whose numerator and denominator in (u, v, a, t, delta1, delta2)
    each have coefficients of one sign has that sign on the whole region.
    """
    import sympy

    lam, a1, a2, d1, d2 = sympy.symbols("lam alpha1 alpha2 delta1 delta2", positive=True)
    monkeypatch.setattr(eco, "_fsum", sum)
    draws = eco._Draws(d1, d2, lam, a1, a2)
    w2 = eco.omega_squared(draws)
    cf = {"omega": sympy.sqrt(w2), **eco._closed_forms(draws, w2)}
    # the float constants of the closed forms are small dyadic numbers
    cf = {k: e.xreplace({f: sympy.Rational(f) for f in e.atoms(sympy.Float)}) for k, e in cf.items()}
    sigma = classifier.focus_quantity(eco._reduced(cf))

    l1, l2 = 1 - 2 * lam - a1, 2 * lam + a2 - 1
    # H1 and H2 as sums of products of factors positive on the region
    h1 = -lam * (1 - a1) - a2 * (4 * lam + 2 * a1 + 2 * l2)
    h2 = lam * (1 - a2) + a1 * (4 * lam + 2 * a1 + 2 * l2)
    assert sympy.expand(cf["H1"] - h1) == 0
    assert sympy.expand(cf["H2"] - h2) == 0
    margin = (lam + a1) * d1 * l2 * h1 - (lam + a2) * d2 * l1 * h2
    c = (d1 * d2 * l1 * l2) ** 2 / (
        4 * (a2 - a1) ** 2 * (lam + a1) ** 2 * (d1 * l2 + d2 * l1) ** 3
    )
    assert sympy.expand(sympy.fraction(sympy.together(sigma - c * margin))[0]) == 0

    u, v, a, t = sympy.symbols("u v a t", positive=True)
    s = u + v + a + t
    region = {lam: (u + v) / (2 * s), a1: a / s, a2: (u + a + t) / s}

    def sign_on_region(expr) -> int:
        num, den = sympy.fraction(sympy.cancel(expr.subs(region)))
        signs = [
            {sympy.sign(k) for k in sympy.Poly(part, u, v, a, t, d1, d2).coeffs()}
            for part in (num, den)
        ]
        assert all(len(one) == 1 for one in signs), (expr, signs)
        return int(signs[0].pop() * signs[1].pop())

    signed = {"H1": h1, "H2": h2, "margin": margin, "c": c}
    signed |= {name: cf[name] for name in ("beta2", "beta5", "gamma5")}
    assert {name: sign_on_region(e) for name, e in signed.items()} == {
        "H1": -1, "H2": 1, "margin": -1, "c": 1, "beta2": -1, "beta5": 1, "gamma5": -1,
    }


def test_h1_limit_at_vanishing_l1():
    # on alpha1 = 1 - 2 lam the first cubic block collapses to -2 (lam+alpha2)^2
    p = EcoParams(delta1=1.0, delta2=1.0, lam=0.25, alpha1=0.5, alpha2=0.75)
    h1, _ = eco.h_polynomials(p)
    assert h1 == -2.0 * (p.lam + p.alpha2) ** 2 == -2.0


@settings(max_examples=150, deadline=None)
@given(
    lam=st.floats(0.01, 0.49),
    alpha1=st.floats(0.01, 0.99),
    alpha2=st.floats(0.01, 0.99),
)
def test_h_swap_antisymmetry_is_exact(lam, alpha1, alpha2):
    p = EcoParams(delta1=1.0, delta2=1.0, lam=lam, alpha1=alpha1, alpha2=alpha2)
    swapped = EcoParams(delta1=1.0, delta2=1.0, lam=lam, alpha1=alpha2, alpha2=alpha1)
    h1, h2 = eco.h_polynomials(p)
    h1s, h2s = eco.h_polynomials(swapped)
    assert h2 == -h1s
    assert h1 == -h2s


def test_classification_record_interior(interior):
    record = eco.classification_record(interior)
    assert record.label == "ES"
    assert record.xi == -1
    assert record.direction == 1
    assert record.sigma == pytest.approx(-0.037125, rel=1e-12)


# ---------------------------------------------------------------------------
# guard, boundary equilibrium, Lyapunov comparison
# ---------------------------------------------------------------------------


def test_interior_guard():
    guard = eco.interior_guard()
    assert guard(np.array([0.1, 0.2, 0.3]))
    assert not guard(np.array([0.0, 0.2, 0.3]))
    assert not guard(np.array([0.1, 1e-9, 0.3]))
    assert not guard(np.array([0.1, 0.2, 1.0]))
    assert guard(np.array([eco.INTERIOR_FLOOR, 0.2, 0.3])) is False


def test_boundary_equilibria_are_equilibria(interior, interior_model):
    E1 = eco.boundary_equilibrium(interior)
    assert E1 == pytest.approx((0.35, 0.0, 0.3))
    assert np.linalg.norm(interior_model.rhs(np.array(E1), 0.002)) < 1e-12


def test_lyapunov_rate_matches_flow_derivative(interior, interior_model):
    rng = np.random.default_rng(5)
    weight = (interior.lam + interior.alpha2) / (
        interior.delta2 * (interior.lam + interior.alpha1)
    )
    for _ in range(25):
        X = rng.uniform([0.05, 0.05, 0.05], [0.5, 0.5, 0.95])
        dX = interior_model.rhs(X, 0.0)
        chain_rule = dX[0] / (interior.delta1 * X[0]) - weight * dX[1] / X[1]
        assert chain_rule == pytest.approx(eco.lyapunov_rate(interior, X), rel=1e-11)
        assert eco.lyapunov_rate(interior, X) <= 0.0


def test_lyapunov_rejects_boundary_states(interior):
    with pytest.raises(InvalidBounds):
        eco.lyapunov_value(interior, (0.0, 0.2, 0.3))
    with pytest.raises(InvalidBounds):
        eco.lyapunov_value(interior, (0.2, -0.1, 0.3))


# ---------------------------------------------------------------------------
# region sampling
# ---------------------------------------------------------------------------


def test_sample_region_draws_admissible_points():
    samples = eco.sample_region(40, seed=42)
    assert len(samples) == 40
    for p in samples:
        assert p.admissible()
        assert 0.05 <= p.delta1 <= 20.0
        assert 0.05 <= p.delta2 <= 20.0
        assert p.l1 > 0 and p.l2 > 0


def test_sample_region_is_deterministic():
    assert eco.sample_region(5, seed=42) == eco.sample_region(5, seed=42)
    assert eco.sample_region(5, seed=42) != eco.sample_region(5, seed=43)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(delta_bounds=(0.0, 1.0)),
        dict(delta_bounds=(2.0, 1.0)),
    ],
)
def test_sample_region_rejects_bad_bounds(kwargs):
    """The draws' bound checks, which `eco-sweep --delta-bounds` reaches."""
    with pytest.raises(InvalidBounds):
        eco.classify_region(3, seed=1, **kwargs)


@pytest.mark.parametrize(
    "n, seed, bounds",
    [
        (1, 0, eco.DELTA_BOUNDS),
        (500, 0, eco.DELTA_BOUNDS),
        (500, 7, eco.DELTA_BOUNDS),
        (300, 42, (1e-3, 1e3)),
        (300, 3, (1e-6, 1e6)),
        (200, 11, (0.5, 0.5000001)),
    ],
)
def test_sample_region_equals_the_per_draw_loop(n, seed, bounds):
    draws = list(eco._draw_region(n, seed, bounds).params())
    assert draws == sample_region_loop(n, seed, bounds)
    if bounds == eco.DELTA_BOUNDS:
        assert eco.sample_region(n, seed) == draws


# ---------------------------------------------------------------------------
# the region sweep on arrays: the bits of the float evaluation
# ---------------------------------------------------------------------------


def _draws(rows) -> eco._Draws:
    """`eco._Draws` from (delta1, delta2, lam, alpha1, alpha2) rows."""
    return eco._Draws(*(np.array(column) for column in zip(*rows)))


def _assert_rows_match_floats(rows):
    """Every row's closed forms and label have the bits of the float
    evaluation; where a row fails as floats (beta5 within tolerance of zero,
    say), the batch raises the first such row's error."""
    draws = _draws(rows)
    try:
        for p in draws.params():
            eco.classification_record(p)
    except HybridHopfError as exc:
        with pytest.raises(type(exc)) as raised:
            eco._classify_draws(draws)
        assert str(raised.value) == str(exc)
        return
    arrays, labels = eco._classify_draws(draws)
    for i, p in enumerate(draws.params()):
        assert p == EcoParams(*rows[i])
        assert draws.l1[i] == p.l1 and draws.l2[i] == p.l2
        record = eco.classification_record(p)
        cf = {**eco.closed_form_coefficients(p), "sigma": record.sigma}
        assert labels[i] == record.label
        assert arrays.keys() == cf.keys()
        for key, value in cf.items():
            assert np.array_equal(arrays[key][i], value), (key, rows[i])


#: q1 = lam + alpha1 is 0.5245367165209572, whose libm square is not x * x
LIBM_SQUARE_ROW = (1.3, 0.7, 0.25, 0.5245367165209572 - 0.25, 0.75)


def test_libm_square_row_is_a_witness():
    x = LIBM_SQUARE_ROW[2] + LIBM_SQUARE_ROW[3]
    assert x == 0.5245367165209572
    assert x**2 != x * x
    _assert_rows_match_floats([LIBM_SQUARE_ROW])


@st.composite
def admissible_rows(draw):
    lam = draw(st.floats(0.01, 0.49))
    width = 1.0 - 2.0 * lam
    alpha1 = width * draw(st.floats(0.01, 0.99))
    alpha2 = width + (1.0 - width) * draw(st.floats(0.01, 0.99))
    delta1, delta2 = (10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(2))
    row = (delta1, delta2, lam, alpha1, alpha2)
    assume(EcoParams(*row).admissible())
    return row


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(admissible_rows(), min_size=1, max_size=40))
def test_array_closed_forms_equal_the_float_evaluation(rows):
    _assert_rows_match_floats([LIBM_SQUARE_ROW, *rows])


def test_array_closed_forms_equal_the_float_evaluation_on_sampled_draws():
    for seed, bounds in [(0, eco.DELTA_BOUNDS), (5, (1e-3, 1e3))]:
        samples = eco._draw_region(400, seed, bounds).params()
        _assert_rows_match_floats([dataclasses.astuple(p) for p in samples])


@pytest.mark.parametrize(
    "n, seed, bounds, first",
    [
        (5, 0, (1e-300, 1.0), 0),  # beta5 and gamma5 below the sign threshold
        (20000, 3, (1e-6, 1e6), 14),  # the same, first on draw 14
        (200, 0, (1.0, 1e308), 0),  # overflow: sigma is not finite
        (200, 0, (1e-170, 1e-160), 0),  # underflow: omega^4 is 0
        (60, 28, (1.0, 1e200), 1),  # beta5 and gamma5 are finite and sigma is not
        (1, 2884, (1e306, 1.7e308), 0),  # beta5 and gamma5 overflow
        (1, 0, (1e-162, 1e-161), 0),  # a denominator underflows to zero
        (1, 960, (5.5e154, 7.5e154), 0),  # gamma5 is finite and sigma is not
        (1, 25, (1.0, 1e200), 0),  # sigma is below its degeneracy threshold
    ],
)
def test_first_failing_draw_decides_the_sweep_error(n, seed, bounds, first):
    with np.errstate(all="ignore"):
        samples = list(eco._draw_region(n, seed, bounds).params())
        for p in samples[:first]:
            eco.classification_record(p)
        with pytest.raises((AssumptionViolation, NonFinite, Degenerate)) as expected:
            eco.classification_record(samples[first])
        with pytest.raises(expected.type) as got:
            eco.classify_region(n, seed, bounds)
    assert str(got.value) == str(expected.value)


def _verdict(coeffs):
    """classify's label, or the class of its error."""
    try:
        return classifier.classify(coeffs).label
    except (NonFinite, AssumptionViolation, Degenerate) as exc:
        return type(exc)


def _decision_rows():
    """(omega, beta2, beta3, beta5, beta6, gamma5, gamma7) rows on both sides
    of every threshold of the decision, one ulp apart."""
    t = classifier.SIGN_THRESHOLD
    around_t = (np.nextafter(t, 0.0), t, np.nextafter(t, 1.0))
    es = (1.0, -1.0, 0.3, 1.0, 0.1, 1.0, -0.2)
    rows = [es, (1.0, 1.0, 0.3, 1.0, 0.1, 1.0, -0.2)]
    for v in around_t:
        rows += [(1.0, -v, 0.3, 1.0, 0.1, 1.0, -0.2)]  # beta2
        rows += [(1.0, -1.0, 0.3, v, 0.1, 1.0, -0.2)]  # beta5
        rows += [(1.0, -1.0, 0.3, 1.0, 0.1, -v, -0.2)]  # gamma5
        # beta3, beta6 and gamma7 at the coefficient resolution t * 1
        rows += [(1.0, -1.0, v, 1.0, v, 1.0, v)]
    # sigma = 2 beta3 - 1 against DEGENERACY_RTOL * 2 beta3, the scale
    near = 1.0 + classifier.DEGENERACY_RTOL
    for k in range(-3, 4):
        two_b3 = near + k * 2.0**-52
        rows += [(1.0, -1.0, two_b3 / 2.0, 1.0, 0.0, 1.0, 1.0)]
    rows += [
        (1.0, -1.0, 0.3, 1.0, math.nan, 1.0, -0.2),
        (1.0, math.inf, 0.3, 1.0, 0.1, 1.0, -0.2),
        (math.inf, -1.0, 0.3, 1.0, 0.1, 1.0, -0.2),
    ]
    return rows


_COEFFICIENT_KEYS = ("omega", "beta2", "beta3", "beta5", "beta6", "gamma5", "gamma7")


def _assert_decision_matches_classify(rows):
    floats = [eco._reduced(dict(zip(_COEFFICIENT_KEYS, row))) for row in rows]
    arrays = eco._reduced({k: np.array(column) for k, column in zip(_COEFFICIENT_KEYS, zip(*rows))})
    with np.errstate(all="ignore"):
        decision = classifier.sign_decision(arrays)
    verdicts = []
    for i, coeffs in enumerate(floats):
        verdict = _verdict(coeffs)
        if isinstance(verdict, str):
            assert decision.accepted[i] and classifier.LABELS[decision.label[i]] == verdict
        else:
            assert not decision.accepted[i]
            first_failed = [
                bool(decision.finite[i]),
                all(bool(c[i]) for c in decision.clear),
                bool(decision.decided[i]),
            ].index(False)
            assert verdict is (NonFinite, AssumptionViolation, Degenerate)[first_failed]
        verdicts.append(verdict)
    return verdicts


def test_array_decision_labels_every_row_as_classify_does():
    verdicts = _assert_decision_matches_classify(_decision_rows())
    # each threshold is straddled: both outcomes occur
    assert {"ES", "H", NonFinite, AssumptionViolation, Degenerate} <= set(verdicts)
    degeneracy_rows = verdicts[-10:-3]
    assert "ES" in degeneracy_rows or "EU" in degeneracy_rows
    assert Degenerate in degeneracy_rows


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(0.01, 10.0),
            *(st.floats(-2.0, 2.0) | st.sampled_from([0.0, 1e-6, -1e-6]) for _ in range(6)),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_array_decision_matches_classify_on_drawn_coefficients(rows):
    _assert_decision_matches_classify(rows)


def test_overflowing_closed_forms_are_a_typed_error():
    """Deltas near the float maximum overflow the closed forms to inf and
    nan, which classify rejects as `NonFinite`."""
    p = list(eco._draw_region(400, 0, (1e307, 1.7e308)).params())[35]
    with pytest.raises(NonFinite, match=r"^cannot classify non-finite coefficients: .* sigma = nan$"):
        eco.classification_record(p)
