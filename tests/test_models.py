"""Model catalog, jet tables, and jets from the field by Taylor arithmetic."""
from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridhopf import eco, models
from hybridhopf.errors import InvalidParams, NonFinite, UnknownModel
from hybridhopf.models import (
    STATE_DIM,
    ModelDefinition,
    PolynomialField,
    builtin,
    evaluate,
    from_config,
    jet,
    polynomial_model,
    state_multi_indices,
)
from oracles import FD_TOLERANCE, field_jet, finite_difference_jet_loop
from test_cli import STEEP_DRIFT


# ---------------------------------------------------------------------------
# multi-index bookkeeping
# ---------------------------------------------------------------------------


def test_state_multi_indices_enumerates_full_third_order_jet():
    idx = list(state_multi_indices())
    assert len(idx) == 19  # C(3+3, 3) - 1 derivative multi-indices, orders 1..3
    assert len(set(idx)) == 19
    orders = [sum(i) for i in idx]
    assert orders == sorted(orders)  # graded order
    assert all(1 <= sum(i) <= 3 for i in idx)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_synthetic_origin_is_equilibrium():
    model = builtin("toy_cylindrical", {"omega": 1, "beta2": 1, "beta5": 1, "gamma5": 1, "gamma7": 1})
    assert np.allclose(evaluate(model, np.zeros(3), 0.0), 0.0, atol=1e-15)


def test_predator_prey_hopf_point_is_equilibrium(interior_model):
    F = evaluate(interior_model, np.array([0.125, 0.405, 0.3]), 0.0)
    assert np.allclose(F, 0.0, atol=1e-15)


def test_predator_prey_prey_only_equilibrium(interior_model):
    F = evaluate(interior_model, np.array([0.0, 0.0, 1.0]), 0.0)
    assert np.allclose(F, 0.0, atol=1e-15)


def test_evaluate_rejects_nonfinite_state(interior_model):
    with pytest.raises(NonFinite):
        evaluate(interior_model, np.array([np.nan, 0.1, 0.1]), 0.0)


@settings(max_examples=60, deadline=None)
@given(
    x1=st.floats(0.01, 2.0),
    x2=st.floats(0.01, 2.0),
    s=st.floats(0.01, 2.0),
    mu=st.floats(-0.05, 0.05),
)
def test_evaluate_finite_on_admissible_box(x1, x2, s, mu):
    model = builtin(
        "predator_prey",
        {"delta1": 1.0, "delta2": 1.0, "lam": 0.3, "alpha1": 0.2, "alpha2": 0.6},
    )
    F = evaluate(model, np.array([x1, x2, s]), mu)
    assert np.all(np.isfinite(F))
    # deterministic
    assert np.array_equal(F, evaluate(model, np.array([x1, x2, s]), mu))


# ---------------------------------------------------------------------------
# jet tables
# ---------------------------------------------------------------------------


def test_jet_zero_order_matches_evaluate(interior_model):
    X = np.array([0.2, 0.3, 0.4])
    table = jet(interior_model, X, 0.01)
    assert np.allclose(table.state_derivs[0], evaluate(interior_model, X, 0.01), atol=1e-14)


def assert_jets_close(approx, exact, tol=1e-6):
    """Orders 1-3 agree within tol times max(1, |largest component|) of each
    slot, and the parameter block within tol."""
    for want, got in zip(exact.state_derivs[1:], approx.state_derivs[1:]):
        scale = np.maximum(1.0, np.max(np.abs(want), axis=0))
        assert np.allclose(got, want, atol=tol * scale), want.ndim - 1
    for want, got in zip(exact.mu_derivs, approx.mu_derivs):
        assert np.allclose(got, want, atol=tol), want.ndim


def test_jet_tensors_are_symmetric_and_c_ordered(interior_model):
    X = np.array([0.2, 0.3, 0.4])
    toy = builtin("toy_cylindrical", {"beta1": 0.5, "beta2": 1.0, "beta3": -0.5, "gamma3": 0.2})
    for table in (jet(interior_model, X, 0.01), jet(toy, X, 0.01)):
        tensors = (*table.state_derivs, *table.mu_derivs)
        assert [t.shape for t in tensors] == [(3,), (3, 3), (3, 3, 3), (3, 3, 3, 3), (3,), (3, 3)]
        assert all(t.flags.c_contiguous for t in tensors)
        _, D1, D2, D3 = table.state_derivs
        assert np.array_equal(D2, D2.transpose(0, 2, 1))
        for perm in itertools.permutations((1, 2, 3)):
            assert np.array_equal(D3, D3.transpose(0, *perm)), perm


#: the two jet routes of a polynomial model: its exact jet and its field
_ROUTES = pytest.mark.parametrize("route", [jet, field_jet], ids=["exact", "field"])


@_ROUTES
@pytest.mark.parametrize("point", [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4]], ids=["short", "long"])
def test_jet_point_must_be_a_state(route, point):
    model = builtin("toy_cylindrical", {"beta2": 1.0, "beta5": 0.3})
    with pytest.raises(InvalidParams, match=r"^state must have length 3, got shape \([24],\)$"):
        route(model, point, 0.0)


@_ROUTES
def test_overflowing_jet_entry_is_non_finite(route):
    # the x1^3 coefficient is finite, 6 times it is not; RuntimeWarning is an
    # error in this suite, so this also checks that the overflow stays quiet
    model = polynomial_model({"y1": [[1e308, 3, 0, 0, 0]], "y2": [], "z": []}, name="steep")
    with pytest.raises(NonFinite) as excinfo:
        route(model, [1.0, 0.0, 0.0], 0.0)
    assert str(excinfo.value) == (
        "model 'steep' has a non-finite jet entry at state=[1.0, 0.0, 0.0], mu=0.0"
    )


def test_synthetic_jet_hand_values():
    model = builtin("toy_cylindrical", {"omega": 1, "beta2": 2, "beta5": 3, "gamma5": 5, "gamma7": 7})
    table = jet(model, np.zeros(3), 0.0)
    D2 = table.state_derivs[2]
    div_z = D2[0, 0, 2] + D2[1, 1, 2]
    assert div_z == pytest.approx(2 * 2, abs=1e-6)  # d/dz of planar divergence
    laplacian = D2[2, 0, 0] + D2[2, 1, 1]
    assert laplacian == pytest.approx(4 * 3, abs=1e-6)
    f_mu, A_mu = table.mu_derivs
    assert f_mu[2] == pytest.approx(5, abs=1e-6)
    assert A_mu[2, 2] == pytest.approx(7, abs=1e-6)


def test_classical_hopf_planar_laplacian_zero():
    model = builtin("toy_cylindrical", {"beta2": 1, "beta3": 1, "gamma5": 1})
    D2 = jet(model, np.zeros(3), 0.0).state_derivs[2]
    laplacian = D2[2, 0, 0] + D2[2, 1, 1]
    assert laplacian == pytest.approx(0.0, abs=1e-12)


_COEF = st.floats(-2.0, 2.0)
_OMEGA = st.floats(0.1, 3.0)
_TOY = {n: _COEF for n in ("beta2", "beta3", "beta4", "beta5", "beta6", "gamma3", "gamma5", "gamma7")}
_PLANTED = st.fixed_dictionaries(
    {**_TOY, "omega": _OMEGA, "beta1": _COEF, "eps": _COEF}
).map(lambda p: ("toy_cylindrical", p))
#: tolerance of the rotation test, relative to a bound on every term of the
#: field and its Jacobian (both sides round a few times per term)
ROTATION_RTOL = 1e-12


@settings(max_examples=300, deadline=None)
@given(
    planted=_PLANTED,
    X=st.lists(_COEF, min_size=3, max_size=3),
    mu=st.floats(-1.0, 1.0),
    angle=st.floats(-math.pi, math.pi),
)
def test_planted_builtins_commute_with_rotations_about_z(planted, X, mu, angle):
    """rhs(RX) = R rhs(X) and jacobian(RX) = R J R^T for rotations R about the
    z-axis: the y2 rows and the r^2 expansions mirror the y1 rows."""
    name, params = planted
    model = builtin(name, params)
    X = np.array(X)
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    # at most 20 terms, coefficients of at most 4 parameters, degree at most 3
    largest = max(map(abs, params.values()))
    bound = 60.0 * (1.0 + largest) ** 4 * (1.0 + np.max(np.abs(X)) + abs(mu)) ** 3
    tol = ROTATION_RTOL * bound
    assert np.max(np.abs(model.rhs(R @ X, mu) - R @ model.rhs(X, mu))) <= tol
    J_rotated = R @ model.jacobian(X, mu) @ R.T
    assert np.max(np.abs(model.jacobian(R @ X, mu) - J_rotated)) <= tol


def test_linear_field_higher_orders_vanish(rotation_model):
    table = jet(rotation_model, np.zeros(3), 0.0)
    for order in (2, 3):
        assert np.allclose(table.state_derivs[order], 0.0, atol=1e-12), order


def test_predator_prey_field_jet_matches_finite_differences(interior_model):
    X_H = np.array([0.125, 0.405, 0.3])
    table = jet(interior_model, X_H, 0.0)
    approx = finite_difference_jet_loop(interior_model, X_H, 0.0)
    assert_jets_close(approx, table)


def test_polynomial_exact_jet_matches_finite_differences():
    model = polynomial_model(
        {
            "y1": [[-1.5, 0, 1, 0, 0], [0.7, 1, 0, 1, 0], [0.2, 0, 0, 0, 1]],
            "y2": [[1.5, 1, 0, 0, 0], [-0.3, 0, 1, 1, 0], [0.1, 3, 0, 0, 0]],
            "z": [[0.9, 2, 0, 0, 0], [0.9, 0, 2, 0, 0], [0.4, 0, 0, 0, 1], [0.6, 0, 0, 1, 1]],
        },
        name="mixed_cubic",
    )
    X = np.array([0.11, -0.07, 0.05])
    exact = jet(model, X, 0.02)
    approx = finite_difference_jet_loop(model, X, 0.02)
    assert_jets_close(approx, exact)


def _kinked(y1, y2, z, mu):
    return [-y2, y1, abs(y1) * abs(y2)]


def test_finite_difference_flags_broken_mixed_partials():
    """|y1| |y2| has no mixed partial at 0; `abs` is not arithmetic, so the
    field route refuses it in one line that names the model."""
    model = ModelDefinition("kinked", lambda X, mu: np.array(_kinked(*X, mu)), field=_kinked)
    with pytest.raises(InvalidParams) as excinfo:
        jet(model, np.zeros(3), 0.0)
    message = str(excinfo.value)
    assert message.startswith("model 'kinked' field must use only") and "\n" not in message


@settings(max_examples=40, deadline=None)
@given(
    x1=st.floats(0.05, 1.5),
    x2=st.floats(0.05, 1.5),
    s=st.floats(0.05, 1.5),
)
def test_exact_jacobian_matches_directional_differences(x1, x2, s):
    model = builtin(
        "predator_prey",
        {"delta1": 1.0, "delta2": 1.0, "lam": 0.3, "alpha1": 0.2, "alpha2": 0.6},
    )
    X = np.array([x1, x2, s])
    J = model.jacobian(X, 0.0)
    h = 1e-6
    for k in range(STATE_DIM):
        e = np.zeros(STATE_DIM)
        e[k] = h
        column = (evaluate(model, X + e, 0.0) - evaluate(model, X - e, 0.0)) / (2 * h)
        assert np.allclose(J[:, k], column, atol=1e-6, rtol=1e-6)


# ---------------------------------------------------------------------------
# predator-prey on Python floats against numpy scalars
# ---------------------------------------------------------------------------


def _numpy_scalar_predator_prey(p, X, mu):
    """RHS and Jacobian of the predator-prey model, each operation on numpy
    scalars, as the model evaluated them before it moved to Python floats."""
    delta1, delta2, lam, alpha1, alpha2 = (
        p["delta1"], p["delta2"], p["lam"], p["alpha1"], p["alpha2"]
    )
    x1, x2, s = np.asarray(X, dtype=float)
    g1 = (s - lam) / (s + alpha1)
    g2 = (s - lam - mu) / (s + alpha2)
    h1 = s / (s + alpha1)
    h2 = s / (s + alpha2)
    F = np.array([delta1 * x1 * g1, delta2 * x2 * g2, s * (1.0 - s) - x1 * h1 - x2 * h2])
    p1, p2 = s + alpha1, s + alpha2
    g1, g2 = (s - lam) / p1, (s - lam - mu) / p2
    dg1, dg2 = (lam + alpha1) / p1**2, (lam + mu + alpha2) / p2**2
    h1, h2 = s / p1, s / p2
    dh1, dh2 = alpha1 / p1**2, alpha2 / p2**2
    J = np.array(
        [
            [delta1 * g1, 0.0, delta1 * x1 * dg1],
            [0.0, delta2 * g2, delta2 * x2 * dg2],
            [-h1, -h2, 1.0 - 2.0 * s - x1 * dh1 - x2 * dh2],
        ]
    )
    return F, J


def _assert_predator_prey_matches_numpy_scalars(params, X, mu):
    model = builtin("predator_prey", params)
    X = np.asarray(X, dtype=float)
    F, J = _numpy_scalar_predator_prey(params, X, mu)
    got_F, got_J = model.rhs(X, mu), model.jacobian(X, mu)
    assert got_F.dtype == got_J.dtype == np.float64
    assert got_J.shape == (STATE_DIM, STATE_DIM)
    assert np.array_equal(got_F, F, equal_nan=True), (got_F, F)
    assert np.array_equal(got_J, J, equal_nan=True), (got_J, J)


_positive = st.floats(1e-3, 10.0)


@settings(max_examples=300, deadline=None)
@given(
    delta1=_positive,
    delta2=_positive,
    lam=st.floats(1e-3, 0.999),
    alpha1=_positive,
    alpha2=_positive,
    X=st.lists(st.floats(-2.0, 5.0), min_size=3, max_size=3),
    mu=st.one_of(st.just(0.0), st.floats(-0.1, 0.1)),
)
def test_predator_prey_is_bit_identical_to_numpy_scalars(delta1, delta2, lam, alpha1, alpha2, X, mu):
    params = {"delta1": delta1, "delta2": delta2, "lam": lam, "alpha1": alpha1, "alpha2": alpha2}
    if X[2] in (-alpha1, -alpha2):
        X[2] += 1.0  # poles: test_predator_prey_pole_and_overflow_match_numpy_scalars
    _assert_predator_prey_matches_numpy_scalars(params, X, mu)


def test_predator_prey_squares_round_like_numpy_scalar_power():
    # s + alpha1 = 0.5245367165209572, where libm pow(p, 2), which Python
    # floats and numpy scalars both call, differs from p * p
    params = {"delta1": 1.0, "delta2": 1.3, "lam": 0.3, "alpha1": 0.2, "alpha2": 0.6}
    s = 0.5245367165209572 - 0.2
    _assert_predator_prey_matches_numpy_scalars(params, [0.4, 0.7, s], 0.005)


@pytest.mark.parametrize(
    "state",
    [
        [0.1, 0.2, -0.2],  # s = -alpha1: Python floats raise ZeroDivisionError
        [0.1, 0.2, -0.6],  # s = -alpha2
        [0.1, 0.2, 1e200],  # p1**2 overflows: Python floats raise OverflowError
        [1e300, 1e300, -1e200],
        [math.nan, 0.2, 0.3],
        [0.1, math.inf, 0.3],
    ],
)
def test_predator_prey_pole_and_overflow_match_numpy_scalars(state):
    params = {"delta1": 1.0, "delta2": 1.0, "lam": 0.3, "alpha1": 0.2, "alpha2": 0.6}
    with np.errstate(all="ignore"):
        _assert_predator_prey_matches_numpy_scalars(params, state, 0.005)
    with pytest.raises(NonFinite):
        with np.errstate(all="ignore"):
            evaluate(builtin("predator_prey", params), state, 0.005)


# ---------------------------------------------------------------------------
# the fused linearisation (F, DF) on Python floats
# ---------------------------------------------------------------------------


def _assert_linearization_is_rhs_and_jacobian(model, X, mu):
    """The model's own entry, not the derived one, gives the bits of ``rhs``
    and ``jacobian``."""
    linearize = models.linearization_fn(model)
    assert linearize is model.linearization is not None
    F, DF = linearize(*map(float, X), float(mu))
    X = np.asarray(X, dtype=float)
    assert np.array_equal(np.array(F), model.rhs(X, mu), equal_nan=True), (F, model.rhs(X, mu))
    J = model.jacobian(X, mu)
    assert np.array_equal(np.array(DF), J, equal_nan=True), (DF, J)


@st.composite
def _admissible_predator_prey(draw):
    """An admissible parameter set (0 < alpha1 < 1 - 2 lam < alpha2 < 1) and
    a state, the pole s = -alpha1 and the overflow s = 1e200 among them."""
    lam = draw(st.floats(0.01, 0.49))
    width = 1.0 - 2.0 * lam
    alpha1 = draw(st.floats(0.001, 0.999)) * width
    alpha2 = width + draw(st.floats(0.001, 0.999)) * (1.0 - width)
    params = {
        "delta1": draw(_positive), "delta2": draw(_positive), "lam": lam,
        "alpha1": alpha1, "alpha2": alpha2,
    }
    x1, x2 = draw(st.floats(-0.5, 2.0)), draw(st.floats(-0.5, 2.0))
    s = draw(st.one_of(st.floats(-0.5, 1.5), st.sampled_from([-alpha1, -alpha2, 1e200])))
    return params, [x1, x2, s]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(draw=_admissible_predator_prey(), mu=st.one_of(st.just(0.0), st.floats(-0.1, 0.1)))
def test_predator_prey_linearization_is_bit_identical_to_rhs_and_jacobian(draw, mu):
    params, X = draw
    model = builtin("predator_prey", params)
    assert eco.EcoParams(**params).admissible()
    _assert_linearization_is_rhs_and_jacobian(model, X, mu)


@pytest.mark.parametrize("s", [-0.2, 1e200], ids=["pole", "overflow"])
def test_predator_prey_linearization_falls_back_to_numpy_scalars(s):
    """At the pole s = -alpha1 Python floats raise `ZeroDivisionError`, at
    s = 1e200 `OverflowError`; the entry repeats both halves on numpy
    scalars, as ``rhs`` and ``jacobian`` do."""
    model = builtin(
        "predator_prey", {"delta1": 1.0, "delta2": 1.0, "lam": 0.3, "alpha1": 0.2, "alpha2": 0.6}
    )
    with np.errstate(all="ignore"):
        _assert_linearization_is_rhs_and_jacobian(model, [0.1, 0.2, s], 0.005)
        F, DF = model.linearization(0.1, 0.2, s, 0.005)
    assert not np.isfinite(np.array([*F, *np.ravel(DF)])).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    planted=st.fixed_dictionaries(
        {**_TOY, "omega": _OMEGA, "eps": _COEF, "beta1": _COEF.filter(bool)}
    ),
    X=st.lists(
        st.one_of(_COEF, st.sampled_from([1e200, -math.inf, math.nan])), min_size=3, max_size=3
    ),
    mu=st.floats(-1.0, 1.0),
)
def test_toy_cylindrical_linearization_is_bit_identical_to_rhs_and_jacobian(planted, X, mu):
    _assert_linearization_is_rhs_and_jacobian(builtin("toy_cylindrical", planted), X, mu)


@pytest.mark.parametrize("replaced", ["rhs", "jacobian", "finite_difference"])
def test_a_replaced_rhs_or_jacobian_is_never_linearized_by_the_former_one(replaced):
    model = builtin("toy_cylindrical", {"beta1": 0.4, "beta2": 0.7, "beta5": -0.9, "gamma5": 0.8})
    changes = {
        "rhs": {"rhs": lambda X, mu: 2.0 * model.rhs(X, mu)},
        "jacobian": {"jacobian": lambda X, mu: 2.0 * model.jacobian(X, mu)},
        "finite_difference": {"exact_jet": None, "jacobian": None},
    }[replaced]
    other = dataclasses.replace(model, **changes)
    linearize = models.linearization_fn(other)
    assert linearize is not other.linearization
    X, mu = np.array([0.3, -0.2, 0.1]), 0.01
    F, DF = linearize(*X, mu)
    assert np.array_equal(F, other.rhs(X, mu))
    if other.jacobian is None:
        assert np.array_equal(DF, models.central_difference(lambda P: other.rhs(P, mu), X))
    else:
        assert np.array_equal(DF, other.jacobian(X, mu))


# ---------------------------------------------------------------------------
# polynomial fields against exact rational arithmetic
# ---------------------------------------------------------------------------


def _entries(model, X, mu):
    """(d^order F, order) for the RHS, each Jacobian column and each slot of
    the exact jet; an order counts derivatives in (x1, x2, x3, mu)."""
    yield model.rhs(X, mu), (0, 0, 0, 0)
    J = model.jacobian(X, mu)
    for j in range(STATE_DIM):
        yield J[:, j], tuple(1 if axis == j else 0 for axis in range(4))
    table = model.exact_jet(X, mu)
    # the slot [:, i, j, ...] with i <= j <= ... is the partial counting its axes
    for tensors, orders, m in ((table.state_derivs, 4, 0), (table.mu_derivs, 2, 1)):
        for order in range(orders):
            for axes in itertools.combinations_with_replacement(range(STATE_DIM), order):
                idx = tuple(map(axes.count, range(STATE_DIM)))
                yield tensors[order][(slice(None), *axes)], (*idx, m)


#: unit roundoff, and the spacing of subnormal floats: the absolute error of
#: a product or a libm pow whose result underflows
U = Fraction(1, 2**53)
ETA = Fraction(1, 2**1074)
#: roundings of one kept pair: four libm pows, each within one ulp (2u, so
#: counted as three roundings to leave slack), then three products of the
#: powers, the weight and the coefficient
PAIR_ROUNDINGS = 4 * 3 + 5


def _assert_entry_within_bound(got, terms, order, coords):
    """One entry against exact rational arithmetic (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Lemma 3.1 and eq. 2.8).

    A kept pair (nonzero coefficient, exponents at least the order) computes
    its term t with relative error at most gamma_17 plus, where a pow or a
    product underflows, at most 9 ETA times the factors after it, which
    ``ceiling`` (the product of max(1, |factor|)) bounds; summing n terms
    from +0.0 rounds n - 1 times.  So the entry is within
    gamma_(n + 16) sum |t| + 2 * 9 ETA sum ceiling of the exact sum.  Where
    the ceilings reach 2^1023 a product or the sum may overflow, and the entry
    may be non-finite instead.  Where a kept pair reads a non-finite
    coordinate the exact entry is undefined, and the entry must be
    non-finite."""
    kept = [(c, p) for c, *p in terms if c != 0.0 and all(e >= d for e, d in zip(p, order))]
    reads = {axis for _, p in kept for axis in range(4) if p[axis] > order[axis]}
    if not all(math.isfinite(coords[axis]) for axis in reads):
        assert not math.isfinite(got), (got, kept)
        return
    exact = magnitude = ceiling = Fraction(0)
    for coef, powers in kept:
        factors = [Fraction(coef), math.prod(map(math.perm, powers, order))]
        factors += [Fraction(coords[a]) ** (powers[a] - order[a]) for a in reads]
        term = math.prod(factors)
        exact, magnitude = exact + term, magnitude + abs(term)
        ceiling += math.prod(max(1, abs(f)) for f in factors)
    k = len(kept) - 1 + PAIR_ROUNDINGS
    bound = k * U / (1 - k * U) * magnitude + 2 * 9 * ETA * ceiling
    if not math.isfinite(got):
        assert ceiling >= 2**1023, (got, exact, kept)
    else:
        assert abs(Fraction(got) - exact) <= bound, (got, float(exact), kept)


def _assert_within_bound(components, X, mu):
    model = polynomial_model(dict(zip(("y1", "y2", "z"), components)), name="oracle")
    coords = (*X, mu)
    for got, order in _entries(model, np.asarray(X, dtype=float), mu):
        for c in range(STATE_DIM):
            _assert_entry_within_bound(float(got[c]), components[c], order, coords)


_coef = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-10.0, 10.0))
_term = st.tuples(
    _coef,
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(0, 2),
).map(list)
_coord = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e200, math.inf, -math.inf, math.nan]),
    st.floats(-2.5, 2.5),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    components=st.lists(st.lists(_term, max_size=8), min_size=3, max_size=3),
    X=st.lists(_coord, min_size=3, max_size=3),
    mu=_coord,
)
def test_polynomial_field_is_within_its_rounding_bound(components, X, mu):
    _assert_within_bound(components, X, mu)
    model = polynomial_model(dict(zip(("y1", "y2", "z"), components)))
    _assert_linearization_is_rhs_and_jacobian(model, X, mu)
    if all(abs(v) <= 2.5 for v in (*X, mu)):
        _assert_field_route_matches_exact_jet(components, X, mu)


TINY = np.finfo(float).tiny


def _assert_field_route_matches_exact_jet(components, X, mu):
    """The field route gives `exact_jet` to 1e-12 of the same jet taken with
    every coefficient and coordinate replaced by its magnitude, which bounds
    every term of each entry, so cancellation cannot hide behind rounding;
    below the smallest normal float rounding is absolute, hence ``TINY``."""
    model = polynomial_model(dict(zip(("y1", "y2", "z"), components)))
    bound = polynomial_model(
        {k: [[abs(c), *p] for c, *p in terms] for k, terms in zip(("y1", "y2", "z"), components)}
    ).exact_jet(np.abs(X), abs(mu))
    exact, got = jet(model, X, mu), field_jet(model, X, mu)
    assert got.tolerance == models.FIELD_JET_TOLERANCE
    for a, b, c in zip(
        (*got.state_derivs, *got.mu_derivs),
        (*exact.state_derivs, *exact.mu_derivs),
        (*bound.state_derivs, *bound.mu_derivs),
    ):
        assert (np.abs(a - b) <= 1e-12 * c + TINY).all(), (a, b)


def test_polynomial_field_powers_round_like_libm_pow():
    # At this x, libm pow(x, 2) differs from x * x, and pow(x, 2) and
    # pow(x, 3) differ from numpy's vectorised array power (its AVX-512
    # kernel).  On monomials in one variable with coefficient 1, every entry
    # is 1 * (w * pow(x, e)), one pow where the weight w is 1, so an evaluator
    # that squares by multiplication or takes array powers of the
    # coordinates fails here on such CPUs even when random draws miss them.
    x = 0.5245367165209572
    rows = [(1.0, 3, 0, 0, 0), (1.0, 0, 2, 0, 0), (1.0, 0, 0, 0, 3)]
    model = polynomial_model({k: [row] for k, row in zip(("y1", "y2", "z"), rows)})
    coords = (x, -x, x, x)
    for got, order in _entries(model, np.array(coords[:3]), coords[3]):
        want = []
        for _, *powers in rows:
            axis = max(range(4), key=powers.__getitem__)
            if any(d > e for d, e in zip(order, powers)):
                want.append(0.0)
            else:
                weight = math.perm(powers[axis], order[axis])
                want.append(weight * math.pow(coords[axis], powers[axis] - order[axis]))
        assert got.tolist() == want, order


def test_vanishing_powers_add_zero_whatever_the_coefficient():
    # steep_drift's term 1e308 mu z^3 at (0, 0, 1), mu = 0: d_z F_z is
    # 1e308 * (3 * (0 * 1)) = 0, though 3 * 1e308 overflows
    J = from_config(STEEP_DRIFT).jacobian(np.array([0.0, 0.0, 1.0]), 0.0)
    assert np.isfinite(J).all() and J[2, 2] == 0.0


@pytest.mark.parametrize(
    "row",
    [
        [math.nan, 0, 1, 0, 0],
        [math.inf, 0, 1, 0, 0],
        [-math.inf, 0, 1, 0, 0],
        ["abc", 0, 1, 0, 0],
        [1.0, 10**23, 0, 0, 0],
        [1.0, math.inf, 0, 0, 0],
        [1.0, 1.5, 0, 0, 0],
    ],
)
def test_polynomial_model_rejects_unusable_rows(row):
    with pytest.raises(InvalidParams):
        polynomial_model({"y1": [row], "y2": [], "z": []})


# ---------------------------------------------------------------------------
# jets from the field against the per-probe finite-difference loop
# ---------------------------------------------------------------------------


#: the loop's third-order quotients divide the rounding of each probed value,
#: about 1e-16 of the field's size, by h^3 = 1e-9 with weights and Richardson
#: factors summing to about 32, so they are good to about 1e-5 of that size
FD_THIRD_ORDER_TOLERANCE = 1e-4


def _assert_agrees_with_the_loop(model, X, mu):
    """Each tensor within FD_TOLERANCE (order three: FD_THIRD_ORDER_TOLERANCE)
    of the loop's, relative to the largest of 1, |F| and the tensor's entries."""
    got, want = field_jet(model, X, mu), finite_difference_jet_loop(model, X, mu)
    size = max(1.0, float(np.max(np.abs(want.state_derivs[0]))))
    pairs = zip((*got.state_derivs[1:], *got.mu_derivs), (*want.state_derivs[1:], *want.mu_derivs))
    for n, (a, b) in enumerate(pairs):
        tol = FD_THIRD_ORDER_TOLERANCE if n == 2 else FD_TOLERANCE
        assert np.max(np.abs(a - b)) <= tol * max(size, float(np.max(np.abs(b)))), n


def _rotate(M, V):
    """M V for a matrix of floats and a vector of numbers, in plain arithmetic."""
    return [sum(m * v for m, v in zip(row, V)) for row in M.tolist()]


def _rotated_synthetic():
    base = builtin("toy_cylindrical", {"omega": 1.7, "beta2": 1, "beta5": 1, "gamma5": 1, "gamma7": 1})
    Q, _ = np.linalg.qr(np.random.default_rng(12).normal(size=(3, 3)))

    def field(*args):
        return _rotate(Q, base.field(*_rotate(Q.T, args[:3]), args[3]))

    return ModelDefinition("rotated_synthetic", lambda X, mu: np.array(field(*X, mu)), field=field)


_PREDATOR_PREY = {"delta1": 1.0, "delta2": 1.0, "lam": 0.3, "alpha1": 0.2, "alpha2": 0.6}
_TOY_PARAMS = {"beta1": 0.5, "beta2": 1.0, "beta3": -0.5, "beta5": 0.3, "gamma3": 0.2, "gamma5": 0.7}


@pytest.mark.parametrize(
    "model, X, mu",
    [
        (builtin("predator_prey", _PREDATOR_PREY), [0.125, 0.405, 0.3], 0.0),
        (builtin("predator_prey", _PREDATOR_PREY), [2.5, -0.0, 0.3], -0.02),
        (builtin("toy_cylindrical", {"omega": 1, "beta2": 2, "beta5": 3, "gamma5": 5, "gamma7": 7}), [0, -0.0, 0], 0.0),
        (builtin("toy_cylindrical", _TOY_PARAMS), [0.01, -0.02, 0.015], 0.003),
        (builtin("toy_cylindrical", _TOY_PARAMS), [-1.7, 3.2, 1e-3], -2.0),
        (builtin("toy_cylindrical", {"beta2": 1, "beta3": 1, "gamma5": 1}), [0.1, 0.2, -0.3], 0.01),
        (_rotated_synthetic(), [0.0, 0.0, 0.0], 0.0),
        (_rotated_synthetic(), [0.4, -1.1, 0.2], 0.05),
    ],
    ids=[
        "predator_prey", "predator_prey_far", "synthetic_nf", "toy_cylindrical",
        "toy_cylindrical_far", "classical_hopf", "rotated_synthetic", "rotated_synthetic_far",
    ],
)
def test_field_route_jet_agrees_with_the_probe_loop(model, X, mu):
    _assert_agrees_with_the_loop(model, np.array(X), mu)


_draw = st.floats(-1.0, 1.0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    offset=st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3),
    mu=st.floats(-0.05, 0.05),
)
def test_predator_prey_finite_difference_jet_matches_the_loop(seed, offset, mu):
    p = eco.sample_region(1, seed)[0]
    _assert_agrees_with_the_loop(eco.model(p), eco.hopf_point(p) + offset, mu)


@settings(max_examples=25, deadline=None)
@given(planted=_PLANTED, X=st.lists(_draw, min_size=3, max_size=3), mu=_draw)
def test_planted_finite_difference_jet_matches_the_loop(planted, X, mu):
    _assert_agrees_with_the_loop(builtin(*planted), np.array(X), mu)


# ---------------------------------------------------------------------------
# each model's own Jacobian against the DF block of its field jet
# ---------------------------------------------------------------------------


def _assert_jacobian_is_the_field_jet_block(model, X, mu, bound):
    """``model.jacobian`` equals DF of the field route to 1e-12 of ``bound``,
    a bound on every term of each entry, as in
    `_assert_field_route_matches_exact_jet`."""
    J, DF = model.jacobian(X, mu), field_jet(model, X, mu).state_derivs[1]
    assert (np.abs(J - DF) <= 1e-12 * bound + TINY).all(), (J, DF)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    X=st.lists(st.floats(0.05, 1.5), min_size=3, max_size=3),
    mu=st.floats(-0.05, 0.05),
)
def test_predator_prey_jacobian_is_its_field_jet_block(seed, X, mu):
    """`eco`'s hand-written ``derivative`` against Taylor arithmetic on its field."""
    p = eco.sample_region(1, seed)[0]
    x1, x2, s = X
    # at s > 0 every term of an entry, in ``derivative`` and in the Taylor
    # arithmetic, is at most a delta (or 1) times a coordinate sum times a
    # parameter sum over (s + alpha_j)^2 or over s + alpha_j
    w = 1.0 / min(1.0, s + p.alpha1, s + p.alpha2)
    sums = (1.0 + x1 + x2) * (1.0 + 2.0 * s + p.lam + abs(mu) + p.alpha1 + p.alpha2)
    bound = max(1.0, p.delta1, p.delta2) * sums * w**2
    _assert_jacobian_is_the_field_jet_block(eco.model(p), np.array(X), mu, bound)


@settings(max_examples=50, deadline=None)
@given(planted=_PLANTED, X=st.lists(_draw, min_size=3, max_size=3), mu=_draw)
def test_planted_jacobian_is_its_field_jet_block(planted, X, mu):
    model = builtin(*planted)
    field = model.field.__self__  # the model's PolynomialField
    rows = [(abs(c), *e) for c, e in zip(field.coefs.tolist(), field.exponents.tolist())]
    magnitude = PolynomialField(
        [[r for r, k in zip(rows, field.component) if k == c] for c in range(STATE_DIM)]
    )
    bound = magnitude.jacobian(np.abs(X), abs(mu))
    _assert_jacobian_is_the_field_jet_block(model, np.array(X), mu, bound)


def _sympy_jet_matches(model, point, mu):
    """Every entry of the field route's jet at a dyadic point is sympy's
    derivative of ``model.field`` there, to 1e-13 relative."""
    import sympy

    symbols = sympy.symbols("x1 x2 x3 mu")
    F = model.field(*symbols)
    at = dict(zip(symbols, map(sympy.Rational, (*point, mu))))
    table = field_jet(model, np.array(point), mu)
    for tensors, orders, m in ((table.state_derivs, 4, 0), (table.mu_derivs, 2, 1)):
        for order in range(orders):
            for axes in itertools.combinations_with_replacement(range(STATE_DIM), order):
                counts = [*map(axes.count, range(STATE_DIM)), m]
                for c in range(STATE_DIM):
                    want = float(sympy.diff(F[c], *zip(symbols, counts)).subs(at))
                    got = tensors[order][(c, *axes)]
                    assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (c, counts)


def test_field_route_jet_is_sympy_derivative_of_the_field():
    dyadic = eco.EcoParams(delta1=1.0, delta2=1.25, lam=0.3125, alpha1=0.1875, alpha2=0.625)
    _sympy_jet_matches(eco.model(dyadic), [0.125, 0.375, 0.4375], 0.03125)
    toy = {"omega": 1.5, "beta1": 0.5, "beta2": -0.75, "beta4": 0.25, "beta5": 1.25, "gamma7": -0.5}
    _sympy_jet_matches(builtin("toy_cylindrical", toy), [0.25, -0.5, 0.125], -0.0625)
    negative_powers = ModelDefinition(
        "negative_powers",
        lambda X, mu: np.zeros(3),
        field=lambda x1, x2, x3, mu: [
            x1 * (x3 + 2) ** -1,
            x2**2 * (x1 + 3) ** -3,
            x3 * (x2 - mu + 1) ** -2,
        ],
    )
    _sympy_jet_matches(negative_powers, [0.25, -0.5, 0.125], 0.0625)


# ---------------------------------------------------------------------------
# field-route failures: each a typed error naming the model
# ---------------------------------------------------------------------------


def test_field_route_pole_is_non_finite():
    model = builtin("predator_prey", _PREDATOR_PREY)  # s + alpha1 = 0 at s = -0.2
    with pytest.raises(NonFinite) as excinfo:
        jet(model, [0.1, 0.2, -0.2], 0.0)
    assert str(excinfo.value) == (
        "model 'predator_prey' field fails at state=[0.1, 0.2, -0.2], mu=0.0: "
        "division by a Taylor number with a zero constant term"
    )


@pytest.mark.parametrize(
    "component",
    [lambda x: math.exp(x), lambda x: np.exp(x), lambda x: x if x > 0 else -x],
    ids=["math_exp", "numpy_exp", "comparison"],
)
def test_field_with_a_non_arithmetic_call_is_invalid(component):
    model = ModelDefinition(
        "curved", lambda X, mu: np.zeros(3), field=lambda x1, x2, x3, mu: [component(x1), x2, x3]
    )
    with pytest.raises(InvalidParams) as excinfo:
        jet(model, [0.5, 0.0, 0.0], 0.0)
    message = str(excinfo.value)
    assert message.startswith("model 'curved' field must use only") and "\n" not in message


def test_model_without_exact_jet_or_field_is_invalid():
    model = ModelDefinition("bare", lambda X, mu: np.zeros(3))
    with pytest.raises(InvalidParams, match="^model 'bare' has neither an exact jet nor a field$"):
        jet(model, np.zeros(3), 0.0)


def test_huge_integer_power_takes_constant_time():
    """(a0 + d)^k is summed binomially, so k = 2**62 costs what k = 3 does."""
    k = 2**62
    model = from_config(
        {
            "polynomial": {"y1": [[1.0, k, 0, 0, 0]], "y2": [[1.0, 0, 1, 0, 0]], "z": []},
            "jets": "finite_difference",
        }
    )
    table = jet(model, [1.0, 0.0, 0.0], 0.0)
    assert table.state_derivs[1][0, 0] == k
    assert table.state_derivs[3][0, 0, 0, 0] == pytest.approx(k * (k - 1) * (k - 2), rel=1e-15)
    assert not jet(model, [0.5, 0.0, 0.0], 0.0).state_derivs[3].any()
    with pytest.raises(NonFinite):
        jet(model, [2.0, 0.0, 0.0], 0.0)


# ---------------------------------------------------------------------------
# catalog and configuration
# ---------------------------------------------------------------------------


def test_builtin_catalog_names():
    with pytest.raises(UnknownModel) as excinfo:
        builtin("lorenz", {})
    assert str(excinfo.value).endswith("available: ['predator_prey', 'toy_cylindrical']")


def test_builtin_unknown_name():
    with pytest.raises(UnknownModel):
        builtin("lorenz", {})


@pytest.mark.parametrize(
    "params",
    [
        {"delta1": -1.0, "delta2": 1.0, "lam": 0.3, "alpha1": 0.2, "alpha2": 0.6},
        {"delta1": 1.0, "delta2": 1.0, "lam": 1.3, "alpha1": 0.2, "alpha2": 0.6},
        {"delta1": 1.0, "delta2": 1.0, "lam": 0.3, "alpha1": -0.2, "alpha2": 0.6},
    ],
)
def test_predator_prey_rejects_bad_parameters(params):
    with pytest.raises(InvalidParams):
        builtin("predator_prey", params)


def test_from_config_requires_exactly_one_source():
    with pytest.raises(InvalidParams):
        from_config({})
    with pytest.raises(InvalidParams):
        from_config(
            {
                "builtin": "toy_cylindrical",
                "polynomial": {"y1": [], "y2": [], "z": []},
            }
        )


def test_from_config_rejects_unknown_keys():
    with pytest.raises(InvalidParams):
        from_config({"builtin": "toy_cylindrical", "params": {}, "extra": 1})


def test_finite_difference_model_lays_out_only_the_linearization(monkeypatch):
    """A model of a `PolynomialField` builds one layout for F and DF, and a
    finite-difference one never the exact jet's."""
    calls = []
    layout = PolynomialField._layout

    def counted(self, *args, **kwargs):
        calls.append(args)
        return layout(self, *args, **kwargs)

    monkeypatch.setattr(PolynomialField, "_layout", counted)
    params = {"beta2": -1.0, "beta3": -0.5, "beta5": 1.0, "gamma5": -1.0}
    model = from_config({"builtin": "toy_cylindrical", "params": params, "jets": "finite_difference"})
    table = jet(model, np.array([0.01, -0.02, 0.015]), 0.0)
    assert table.tolerance == models.FIELD_JET_TOLERANCE
    assert calls == [([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)],)]


@pytest.mark.parametrize("bad", ["abc", None, math.nan, math.inf])
def test_builtin_parameters_must_be_finite_numbers(bad):
    good = {
        "predator_prey": {"delta1": 1.0, "delta2": 1.0, "lam": 0.3, "alpha1": 0.2, "alpha2": 0.6},
        "toy_cylindrical": {"omega": 1.0, "beta2": 1.0, "eps": 0.5},
    }
    for name, params in good.items():
        builtin(name, params)
        for key in params:
            with pytest.raises(InvalidParams):
                builtin(name, {**params, key: bad})


def test_from_config_finite_difference_mode_drops_exact_jets(interior):
    config = {
        "builtin": "predator_prey",
        "params": interior.to_dict(),
        "jets": "finite_difference",
    }
    model = from_config(config)
    assert model.exact_jet is None
    table = jet(model, np.array([0.125, 0.405, 0.3]), 0.0)
    assert table.tolerance == models.FIELD_JET_TOLERANCE  # the field route ran
    exact_model = from_config({"builtin": "predator_prey", "params": interior.to_dict()})
    exact = jet(exact_model, np.array([0.125, 0.405, 0.3]), 0.0)
    assert exact.tolerance == 1e-12  # a field jet with the model's own Jacobian
    assert_jets_close(table, exact)


def test_polynomial_model_validates_rows():
    with pytest.raises(InvalidParams):
        polynomial_model({"y1": [[1.0, 0, 0]], "y2": [], "z": []}, name="bad_row")
    with pytest.raises(InvalidParams):
        polynomial_model({"y1": [], "weird": [], "z": []}, name="bad_key")
