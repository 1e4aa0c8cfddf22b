"""The in-repo DOP853 against scipy's `solve_ivp(method="DOP853")`: steps, states
and dense output bit for bit, event roots to `brentq`'s tolerance.

scipy is the oracle here only; the package does not need it at run time.
"""
from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

scipy_integrate = pytest.importorskip(
    "scipy.integrate", reason="scipy is the oracle for the DOP853 port (the `test` extra)"
)
from scipy.integrate._ivp import dop853_coefficients  # noqa: E402
from scipy.optimize import brentq  # noqa: E402

from hybridhopf import dop853, models, verify  # noqa: E402
from hybridhopf.errors import LeftDomain, StepFailure  # noqa: E402

ES_NORMAL_FORM = {
    "polynomial": {
        "y1": [[-1, 0, 1, 0, 0], [-1, 1, 0, 1, 0]],
        "y2": [[1, 1, 0, 0, 0], [-1, 0, 1, 1, 0]],
        "z": [[1, 2, 0, 0, 0], [1, 0, 2, 0, 0], [-1, 0, 0, 0, 1], [-1, 0, 0, 1, 1]],
    }
}


EPS4 = 4 * np.finfo(float).eps


def scipy_solve(fun, t_span, y0, rtol, event=None):
    events = None
    if event is not None:
        def events(t, y):
            return event(t, y)

        events.terminal = True
    return scipy_integrate.solve_ivp(
        fun, t_span, y0, method="DOP853", rtol=rtol, atol=rtol * 1e-2,
        dense_output=True, events=events,
    )


def assert_matches_scipy(fun, t_span, y0, rtol, event=None):
    """Solve with both.  Steps, states and dense output (at a grid, a reversed
    grid, every step end and scalars) must be equal; where the event ends the
    run, the last time is its root and lies within brentq's tolerance of scipy's.
    Where scipy returns a failure, the port raises `StepFailure` with its message."""
    ref = scipy_solve(fun, t_span, y0, rtol, event)
    if ref.status < 0:
        with pytest.raises(StepFailure, match=re.escape(ref.message)):
            dop853.solve(fun, t_span, y0, rtol, event)
        return None, ref
    got = dop853.solve(fun, t_span, y0, rtol, event)
    assert got.event_fired == (ref.status == 1)
    last = len(ref.t) - 1 if got.event_fired else len(ref.t)
    assert len(got.t) == len(ref.t)
    assert np.array_equal(got.t[:last], ref.t[:last])
    assert np.array_equal(got.y[:, :last], ref.y[:, :last])
    if got.event_fired:
        root = ref.t_events[0][0]
        assert abs(got.t[-1] - root) <= EPS4 * (1 + abs(root))
        assert np.array_equal(got.y[:, -1], ref.sol(got.t[-1]))
    # the steps are scipy's, so every time, even one past the moved root, reads equal
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

    def recording(fun, t_span, y0, rtol, event=None):
        calls.append((fun, t_span, y0, rtol, event))
        return solve(fun, t_span, y0, rtol, event)

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
    ((fun, t_span, y0, rtol, event),) = captured
    assert len(y0) == 13 and event is None
    calls = []

    def counted(t, y):
        calls.append(t)
        return fun(t, y)

    ref = scipy_solve(fun, t_span, y0, rtol)
    got = dop853.solve(counted, t_span, y0, rtol)
    steps = len(ref.t) - 1
    assert len(calls) == ref.nfev - 3 * steps
    got.sol(np.linspace(*t_span, 256))
    assert len(calls) == ref.nfev
    assert_matches_scipy(fun, t_span, y0, rtol)


def test_planted_polynomial_field():
    model = models.polynomial_model(ES_NORMAL_FORM["polynomial"])
    for mu, rtol in [(0.01, 1e-9), (-0.02, 1e-11)]:
        assert_matches_scipy(
            lambda t, X: model.rhs(X, mu), (0.0, 40.0), np.array([0.1, 0.0, 0.05]), rtol
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
    ((fun, t_span, y0, rtol, event),) = captured
    assert event is not None
    got, ref = assert_matches_scipy(fun, t_span, y0, rtol, event)
    assert ref.status == (1 if fires else 0)


def test_blow_up_fails_where_scipy_fails():
    def fun(t, y):
        return y**2  # y = 1 / (1 - t)

    ref = scipy_solve(fun, (0.0, 2.0), np.array([1.0]), 1e-9)
    assert ref.status == -1 and abs(ref.t[-1] - 1.0) < 1e-6
    with pytest.raises(StepFailure) as failure:
        dop853.solve(fun, (0.0, 2.0), np.array([1.0]), 1e-9)
    assert str(failure.value) == f"integration failed: {ref.message}"


@settings(max_examples=40, deadline=None)
@given(
    matrix=st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9),
    start=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    log_rtol=st.floats(-11.0, -6.0),
    t_final=st.floats(0.1, 5.0),
)
# a subnormal start: both error norms divide 0 by 0
@example(
    matrix=[0.0, 0.0, 0.0, 0.0, 0.375, 0.0, 0.0, 0.0, 0.0],
    start=[0.0, 6.79e-160, 0.0],
    log_rtol=-9.0,
    t_final=1.0,
)
# a coupling of 1.6e-156: scipy returns "Required step size is less than
# spacing between numbers", and the port must raise the same failure
@example(
    matrix=[0.0, 0.0, 0.0, 1.644023511568755e-156, 0.0, 0.0, 0.0, 0.0, 0.0],
    start=[1.0, 0.0, 0.0],
    log_rtol=-8.0,
    t_final=1.0,
)
def test_linear_systems(matrix, start, log_rtol, t_final):
    """Compared under the errstate `cli.main` runs under, where numpy's
    invalid-value warnings of both integrators stay silent."""
    M = np.array(matrix).reshape(3, 3)
    rtol = 10.0**log_rtol
    with np.errstate(all="ignore"):
        assert_matches_scipy(lambda t, y: M @ y, (0.0, t_final), np.array(start), rtol)


@settings(max_examples=50, deadline=None)
@given(
    root=st.floats(0.05, 0.95),
    steepness=st.floats(0.1, 50.0),
    cubic=st.floats(0.0, 10.0),
)
def test_event_root_is_brentqs_to_its_tolerance(root, steepness, cubic):
    def f(x):
        return math.tanh(steepness * (x - root)) + cubic * (x - root) ** 3

    got = dop853._crossing(lambda x: -f(x), 0.0, 1.0)
    want = brentq(f, 0.0, 1.0, xtol=EPS4, rtol=EPS4)
    assert abs(got - want) <= EPS4 * (1 + abs(want))
    assert f(got) >= 0 and f(np.nextafter(got, 0.0)) < 0
