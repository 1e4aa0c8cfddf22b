"""Model catalog, jet tables, and finite-difference differentiation."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridhopf import builtin, evaluate, finite_difference_jet, from_config, jet, models, polynomial_model
from hybridhopf.errors import (
    InvalidParams,
    NonFinite,
    SymmetryDefect,
    UnknownModel,
)
from hybridhopf.models import STATE_DIM, PolynomialField, state_multi_indices


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
    model = builtin("synthetic_nf", {"a": 1, "b": 1, "c": 1, "d": 1, "omega": 1})
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
    tables = [
        jet(interior_model, X, 0.01),
        jet(toy, X, 0.01),
        finite_difference_jet(interior_model, X, 0.01),
    ]
    for table in tables:
        tensors = (*table.state_derivs, *table.mu_derivs)
        assert [t.shape for t in tensors] == [(3,), (3, 3), (3, 3, 3), (3, 3, 3, 3), (3,), (3, 3)]
        assert all(t.flags.c_contiguous for t in tensors)
        _, D1, D2, D3 = table.state_derivs
        assert np.array_equal(D2, D2.transpose(0, 2, 1))
        for perm in itertools.permutations((1, 2, 3)):
            assert np.array_equal(D3, D3.transpose(0, *perm)), perm


def test_synthetic_jet_hand_values():
    model = builtin("synthetic_nf", {"a": 2, "b": 3, "c": 5, "d": 7, "omega": 1})
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
    model = builtin("classical_hopf", {"sign": 1})
    D2 = jet(model, np.zeros(3), 0.0).state_derivs[2]
    laplacian = D2[2, 0, 0] + D2[2, 1, 1]
    assert laplacian == pytest.approx(0.0, abs=1e-12)


def test_linear_field_higher_orders_vanish(rotation_model):
    table = jet(rotation_model, np.zeros(3), 0.0)
    for order in (2, 3):
        assert np.allclose(table.state_derivs[order], 0.0, atol=1e-12), order


def test_predator_prey_exact_jet_matches_finite_differences(interior_model):
    X_H = np.array([0.125, 0.405, 0.3])
    exact = jet(interior_model, X_H, 0.0)
    approx = finite_difference_jet(interior_model, X_H, 0.0)
    assert_jets_close(approx, exact)


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
    approx = finite_difference_jet(model, X, 0.02)
    assert_jets_close(approx, exact)


def test_finite_difference_symmetry_defect_small_for_smooth_field(interior_model):
    table = finite_difference_jet(interior_model, np.array([0.125, 0.405, 0.3]), 0.0)
    assert table.symmetry_defect < 1e-6


def test_finite_difference_flags_broken_mixed_partials():
    from hybridhopf.models import ModelDefinition

    def rhs(X, mu):
        y1, y2, z = X
        return np.array([-y2, y1, abs(y1) * abs(y2)])

    model = ModelDefinition(name="kinked", rhs=rhs)
    with pytest.raises(SymmetryDefect):
        finite_difference_jet(model, np.zeros(3), 0.0)


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
# polynomial fields against the term-by-term loop
# ---------------------------------------------------------------------------


def _falling(power, order):
    if order > power:
        return 0.0
    out = 1.0
    for step in range(order):
        out *= power - step
    return out


def _loop_derivative(components, order, X, mu):
    """d^order F by the term-by-term loop polynomial fields were evaluated with."""
    vals = np.zeros(STATE_DIM)
    coords = (X[0], X[1], X[2], mu)
    for comp, terms in enumerate(components):
        total = 0.0
        for coef, *powers in terms:
            factor = coef
            for axis in range(4):
                p, d = powers[axis], order[axis]
                factor *= _falling(p, d)
                if factor == 0.0:
                    break
                if p - d > 0:
                    factor *= coords[axis] ** (p - d)
            total += factor
        vals[comp] = total
    return vals


def _assert_matches_loop(components, X, mu):
    model = polynomial_model(dict(zip(("y1", "y2", "z"), components)), name="oracle")
    X = np.asarray(X, dtype=float)

    def same(got, order):
        # mu as a numpy scalar: on a Python float the loop raised OverflowError
        # where a power overflows, and the field gives inf as it does for X
        want = _loop_derivative(components, order, X, np.float64(mu))
        return np.array_equal(got, want, equal_nan=True)

    assert same(model.rhs(X, mu), (0, 0, 0, 0))
    J = model.jacobian(X, mu)
    for j in range(STATE_DIM):
        assert same(J[:, j], tuple(1 if axis == j else 0 for axis in range(4))), j
    table = model.exact_jet(X, mu)
    # the slot [:, i, j, ...] with i <= j <= ... is the partial counting its axes
    for tensors, orders, m in ((table.state_derivs, 4, 0), (table.mu_derivs, 2, 1)):
        for order in range(orders):
            for axes in itertools.combinations_with_replacement(range(STATE_DIM), order):
                idx = tuple(map(axes.count, range(STATE_DIM)))
                assert same(tensors[order][(slice(None), *axes)], (*idx, m)), (m, idx)


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
def test_polynomial_field_is_bit_identical_to_term_loop(components, X, mu):
    _assert_matches_loop(components, X, mu)


def test_polynomial_field_powers_round_like_libm_pow():
    # At this x, libm pow(x, 2) differs from x * x, and pow(x, 2) and
    # pow(x, 3) differ from numpy's vectorised array power (its AVX-512
    # kernel), so an evaluator that squares by multiplication or takes array
    # powers of the coordinates fails here even when random draws miss such
    # points.
    x = 0.5245367165209572
    components = [
        [[1.0, 3, 0, 0, 0], [0.5, 1, 2, 1, 0]],
        [[-2.0, 0, 3, 0, 1], [1.0, 2, 1, 3, 0]],
        [[3.0, 3, 3, 3, 2], [1.0, 0, 0, 0, 0]],
    ]
    _assert_matches_loop(components, [x, -x, x], x)


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
# catalog and configuration
# ---------------------------------------------------------------------------


def test_builtin_catalog_names():
    from hybridhopf.models import available_builtins

    names = available_builtins()
    for name in ("predator_prey", "synthetic_nf", "toy_cylindrical", "classical_hopf"):
        assert name in names


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
                "builtin": "synthetic_nf",
                "polynomial": {"y1": [], "y2": [], "z": []},
            }
        )


def test_from_config_rejects_unknown_keys():
    with pytest.raises(InvalidParams):
        from_config({"builtin": "synthetic_nf", "params": {}, "extra": 1})


def test_finite_difference_model_lays_out_only_the_rhs(monkeypatch):
    calls = []
    layout = PolynomialField._layout

    def counted(self, *args, **kwargs):
        calls.append(args)
        return layout(self, *args, **kwargs)

    monkeypatch.setattr(PolynomialField, "_layout", counted)
    params = {"beta2": -1.0, "beta3": -0.5, "beta5": 1.0, "gamma5": -1.0}
    model = from_config({"builtin": "toy_cylindrical", "params": params, "jets": "finite_difference"})
    table = jet(model, np.array([0.01, -0.02, 0.015]), 0.0)
    assert table.tolerance == models.FD_TOLERANCE
    assert len(calls) == 1


@pytest.mark.parametrize("bad", ["abc", None, math.nan, math.inf])
def test_builtin_parameters_must_be_finite_numbers(bad):
    good = {
        "predator_prey": {"delta1": 1.0, "delta2": 1.0, "lam": 0.3, "alpha1": 0.2, "alpha2": 0.6},
        "synthetic_nf": {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0, "omega": 1.0},
        "toy_cylindrical": {"beta2": 1.0, "eps": 0.5},
        "classical_hopf": {"omega": 1.0, "sign": 1.0},
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
    assert table.tolerance == models.FD_TOLERANCE  # finite differences actually ran
    exact_model = from_config({"builtin": "predator_prey", "params": interior.to_dict()})
    exact = jet(exact_model, np.array([0.125, 0.405, 0.3]), 0.0)
    assert_jets_close(table, exact)


def test_polynomial_model_validates_rows():
    with pytest.raises(InvalidParams):
        polynomial_model({"y1": [[1.0, 0, 0]], "y2": [], "z": []}, name="bad_row")
    with pytest.raises(InvalidParams):
        polynomial_model({"y1": [], "weird": [], "z": []}, name="bad_key")
