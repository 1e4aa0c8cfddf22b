"""The `dop853` port's own contracts, which need no scipy: the vectorised dense
output reads what each time reads alone, ``fun`` may return an array, a
list or a tuple of the same floats, and a solve ends in `StepFailure` past
its step budget.  `tests/test_dop853.py` holds the port to
scipy and skips without it."""
from __future__ import annotations

import numpy as np
import pytest

from hybridhopf import dop853, verify
from hybridhopf.errors import LeftDomain, StepFailure


def hard_grid(sol: dop853.Solution) -> np.ndarray:
    """Every step end (the event's root and the end of its step too), repeated
    times, times outside [t0, tf] and times inside steps, in shuffled order."""
    t0, tf = sol.t[0], sol.t[-1]
    ends = np.array([step.t for step in sol.steps])
    grid = np.concatenate([
        sol.t, ends, sol.t[::2], [t0 - 1.0, t0 - 1e-3, tf + 1e-3, 2 * tf + 1.0],
        np.linspace(t0, tf, 257),
    ])
    return np.random.default_rng(0).permutation(grid)


def assert_vectorised_reads_pointwise(sol: dop853.Solution) -> None:
    grid = hard_grid(sol)
    together = sol.sol(grid)
    # C-ordered: the rounding of a mean over the samples depends on the layout
    assert together.shape == (len(sol.y), len(grid)) and together.flags.c_contiguous
    assert np.array_equal(together, np.column_stack([sol.sol(s) for s in grid]))


def test_variational_solve_reads_pointwise(interior_pipeline, solutions):
    mu = 0.005
    seed = verify.predict_orbit(interior_pipeline.coeffs, mu, interior_pipeline.frame)
    verify._flow_with_monodromy(
        interior_pipeline.model, mu, seed.anchor, seed.period, verify.ORBIT_RTOL
    )
    (sol,) = solutions
    assert len(sol.steps) > 10 and not sol.event_fired
    assert_vectorised_reads_pointwise(sol)


def test_truncated_run_with_event_reads_pointwise(synthetic_pipeline, solutions):
    with pytest.raises(LeftDomain):
        verify.simulate_truncated(
            synthetic_pipeline(-1, 1, 1, 1).coeffs, 0.3, -3.0, (0.2, 0.15), t_final=80.0
        )
    (sol,) = solutions
    assert sol.event_fired and sol.t[-1] < sol.steps[-1].t
    assert_vectorised_reads_pointwise(sol)


def van_der_pol(t: float, y: np.ndarray) -> np.ndarray:
    return np.array([y[1], 2.0 * (1.0 - y[0] ** 2) * y[1] - y[0] + 0.1 * np.sin(t)])


@pytest.mark.parametrize("event", [None, lambda t, y: 1.5 - y[0]], ids=["no_event", "event"])
def test_fun_may_return_an_array_a_list_or_a_tuple(event):
    runs = [
        dop853.solve(fun, (0.0, 12.0), np.array([0.5, 0.0]), 1e-10, event)
        for fun in (
            van_der_pol,
            lambda t, y: van_der_pol(t, y).tolist(),
            lambda t, y: tuple(van_der_pol(t, y).tolist()),
        )
    ]
    assert runs[0].event_fired == (event is not None)
    grid = hard_grid(runs[0])
    for other in runs[1:]:
        assert other.event_fired == runs[0].event_fired
        assert np.array_equal(other.t, runs[0].t)
        assert np.array_equal(other.y, runs[0].y)
        assert np.array_equal(other.sol(grid), runs[0].sol(grid))


def test_dense_output_is_each_steps_own_interpolant():
    """`Solution.sol` at a vector of times reads, bit for bit, what the
    interpolant of each time's step reads alone: the step ending at a step
    end, the first step at the start of the span and the last at its end."""
    sol = dop853.solve(van_der_pol, (0.0, 12.0), np.array([0.5, 0.0]), 1e-10)
    times, owners = [sol.t[0]], [sol.steps[0]]
    for step in sol.steps:
        inside = np.linspace(step.t_old, step.t, 5)[1:].tolist()
        times += inside
        owners += [step] * len(inside)
    assert times[-1] == sol.t[-1] and len(times) == 4 * len(sol.steps) + 1
    together = sol.sol(np.array(times))
    for column, t, step in zip(together.T, times, owners):
        assert np.array_equal(column, dop853._Step.__call__(step, t))


def harmonic(t: float, y: np.ndarray) -> list[float]:
    return [y[1], -y[0]]


def test_a_solve_past_its_step_budget_ends_in_a_typed_error(monkeypatch):
    """An oscillator over a long span takes steps in proportion to it: past
    `dop853.MAX_STEPS` the solve raises `StepFailure` naming t, |y| and the
    budget, and a budget equal to the step count a span takes is enough."""
    y0 = np.array([1.0, 0.0])
    steps = len(dop853.solve(harmonic, (0.0, 50.0), y0, 1e-9).steps)
    monkeypatch.setattr(dop853, "MAX_STEPS", steps)
    assert len(dop853.solve(harmonic, (0.0, 50.0), y0, 1e-9).steps) == steps
    with pytest.raises(StepFailure, match=rf"budget of {steps} steps at t = \S+, \|y\| = 1\b"):
        dop853.solve(harmonic, (0.0, 1e6), y0, 1e-9)
