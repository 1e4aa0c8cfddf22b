"""The in-repo DOP853 against scipy's `solve_ivp(method="DOP853")`, bit for bit.

scipy is the oracle here only; the package does not need it at run time.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

scipy_integrate = pytest.importorskip(
    "scipy.integrate", reason="scipy is the oracle for the DOP853 port (the `test` extra)"
)
from scipy.integrate._ivp import dop853_coefficients  # noqa: E402
from scipy.optimize import brentq  # noqa: E402

from hybridhopf import dop853, models, verify  # noqa: E402
from hybridhopf.errors import LeftDomain  # noqa: E402

ES_NORMAL_FORM = {
    "polynomial": {
        "y1": [[-1, 0, 1, 0, 0], [-1, 1, 0, 1, 0]],
        "y2": [[1, 1, 0, 0, 0], [-1, 0, 1, 1, 0]],
        "z": [[1, 2, 0, 0, 0], [1, 0, 2, 0, 0], [-1, 0, 0, 0, 1], [-1, 0, 0, 1, 1]],
    }
}


def scipy_solve(fun, t_span, y0, rtol, atol, dense_output=True, event=None):
    events = None
    if event is not None:
        def events(t, y):
            return event(t, y)

        events.terminal = True
    return scipy_integrate.solve_ivp(
        fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
        dense_output=dense_output, events=events,
    )


def assert_matches_scipy(fun, t_span, y0, rtol, atol, dense_output=True, event=None):
    """Solve with both; steps, states, status, message, event root and dense
    output (at a grid, at every step end, and at scalars) must be equal."""
    ref = scipy_solve(fun, t_span, y0, rtol, atol, dense_output, event)
    got = dop853.solve(fun, t_span, y0, rtol, atol, dense_output, event)
    assert (got.status, got.message) == (ref.status, ref.message)
    assert np.array_equal(got.t, ref.t)
    assert np.array_equal(got.y, ref.y)
    if ref.status == 1:
        assert got.t[-1] == ref.t_events[0][0]
    if dense_output and ref.status >= 0:
        grid = np.linspace(ref.t[0], ref.t[-1], 1001)
        assert np.array_equal(got.sol(grid), ref.sol(grid))
        assert np.array_equal(got.sol(grid[::-1]), ref.sol(grid[::-1]))
        assert np.array_equal(got.sol(ref.t), ref.sol(ref.t))
        for s in (*ref.t, *grid[::97], float(grid[500])):
            assert np.array_equal(got.sol(s), ref.sol(s))
    return got, ref


@pytest.fixture
def captured(monkeypatch):
    """The arguments of every `dop853.solve` call the package makes."""
    calls = []
    solve = dop853.solve

    def recording(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(dop853, "solve", recording)
    return calls


def test_tableau_is_scipys():
    c = dop853_coefficients
    for ours, theirs in [
        (dop853.A, c.A), (dop853.B, c.B), (dop853.C, c.C),
        (dop853.E3, c.E3), (dop853.E5, c.E5), (dop853.D, c.D),
    ]:
        assert ours.shape == theirs.shape
        assert np.array_equal(ours, theirs)


def test_variational_predator_prey_solve(interior_pipeline, captured):
    """The 13-dimensional shooting solve: equal to scipy, and its dense output
    costs no right-hand-side call until it is read."""
    mu = 0.005
    seed = verify.predict_orbit(interior_pipeline.coeffs, mu, interior_pipeline.frame)
    verify._flow_with_monodromy(
        interior_pipeline.model, mu, seed.anchor, seed.period, verify.ORBIT_RTOL
    )
    ((fun, t_span, y0, rtol, atol, dense_output, event),) = captured
    assert len(y0) == 13 and dense_output and event is None
    calls = []

    def counted(t, y):
        calls.append(t)
        return fun(t, y)

    ref = scipy_solve(fun, t_span, y0, rtol, atol)
    got = dop853.solve(counted, t_span, y0, rtol, atol)
    steps = len(ref.t) - 1
    assert len(calls) == ref.nfev - 3 * steps
    got.sol(np.linspace(*t_span, 256))
    assert len(calls) == ref.nfev
    assert_matches_scipy(fun, t_span, y0, rtol, atol)


def test_planted_polynomial_field():
    model = models.polynomial_model(ES_NORMAL_FORM["polynomial"])
    for mu, rtol in [(0.01, 1e-9), (-0.02, 1e-11)]:
        assert_matches_scipy(
            lambda t, X: model.rhs(X, mu), (0.0, 40.0), np.array([0.1, 0.0, 0.05]),
            rtol, rtol * 1e-2,
        )


@pytest.mark.parametrize("fires", [True, False])
def test_truncated_flow_and_validity_event(synthetic_pipeline, captured, fires):
    if fires:
        with pytest.raises(LeftDomain):
            verify.simulate_truncated(
                synthetic_pipeline(-1, 1, 1, 1).coeffs, 0.3, -3.0, (0.2, 0.15), t_final=80.0
            )
    else:
        verify.simulate_truncated(
            synthetic_pipeline(-1, 1, 1, 1, 2.0).coeffs, 0.1, -0.25, (0.55, 0.0), t_final=100.0
        )
    ((fun, t_span, y0, rtol, atol, dense_output, event),) = captured
    assert event is not None
    got, ref = assert_matches_scipy(fun, t_span, y0, rtol, atol, dense_output, event)
    assert ref.status == (1 if fires else 0)


def test_blow_up_fails_where_scipy_fails():
    got, ref = assert_matches_scipy(lambda t, y: y**2, (0.0, 2.0), np.array([1.0]), 1e-9, 1e-11)
    assert ref.status == -1 and abs(got.t[-1] - 1.0) < 1e-6  # y = 1 / (1 - t)


@settings(max_examples=40, deadline=None)
@given(
    matrix=st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9),
    start=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    log_rtol=st.floats(-11.0, -6.0),
    t_final=st.floats(0.1, 5.0),
)
def test_linear_systems(matrix, start, log_rtol, t_final):
    M = np.array(matrix).reshape(3, 3)
    rtol = 10.0**log_rtol
    assert_matches_scipy(lambda t, y: M @ y, (0.0, t_final), np.array(start), rtol, rtol * 1e-2)


@settings(max_examples=50, deadline=None)
@given(
    root=st.floats(0.05, 0.95),
    steepness=st.floats(0.1, 50.0),
    cubic=st.floats(0.0, 10.0),
)
def test_event_root_finder_is_brentq(root, steepness, cubic):
    def f(x):
        return math.tanh(steepness * (x - root)) + cubic * (x - root) ** 3

    eps4 = 4 * np.finfo(float).eps
    assert dop853._brentq(f, 0.0, 1.0) == brentq(f, 0.0, 1.0, xtol=eps4, rtol=eps4)
