"""scipy's ``solve_ivp(method="DOP853")`` (Hairer, Nørsett & Wanner, *Solving
ODEs I*, §II.10), ported to take its steps bit for bit: the same tableau (each
coefficient the repr of scipy's double), initial step, error norm, controller,
and IEEE operations per element in the same order.  One change: a step builds
its interpolant, three more stages, when a time inside it is first read.  The
one terminal event is located by bisection on the interpolant of the step where
it first reads <= 0 (Hairer, Nørsett & Wanner, §II.6), not by scipy's `brentq`.
Where the form differs from scipy's, the bits stay because:

- ``M.dot(v)`` is the BLAS call of ``np.dot(M, v)``, on the same views of ``K``;
- ``dy = M.dot(a); dy *= h; dy += y`` is ``y + np.dot(M, a) * h``: + and * commute;
- the controller's floats round as numpy's scalars do; ``**`` is libm ``pow`` on both;
- ``K[s] = fun(...)`` stores a list or tuple of floats exactly, as ``np.asarray`` does;
- `Solution.sol` runs each time's Horner sum as its step alone would, in one pass.

Derived from scipy (``integrate/_ivp/rk.py``, ``common.py`` and ``ivp.py``)
under its BSD-3 license:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers. All rights reserved.
    Redistribution and use in source and binary forms, with or without modification, are
    permitted provided that the following conditions are met:
    1. Redistributions of source code must retain the above copyright notice, this list of
       conditions and the following disclaimer.
    2. Redistributions in binary form must reproduce the above copyright notice, this list
       of conditions and the following disclaimer in the documentation and/or other
       materials provided with the distribution.
    3. Neither the name of the copyright holder nor the names of its contributors may be
       used to endorse or promote products derived from this software without specific
       prior written permission.
    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS IS" AND ANY
    EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE IMPLIED WARRANTIES OF
    MERCHANTABILITY AND FITNESS FOR A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL
    THE COPYRIGHT OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO, PROCUREMENT
    OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR PROFITS; OR BUSINESS
    INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT
    LIABILITY, OR TORT (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import InvalidBounds, NonFinite, StepFailure

EPS = np.finfo(float).eps
SAFETY = 0.9  # multiplies the step factor predicted from the error
MIN_FACTOR, MAX_FACTOR = 0.2, 10  # bounds of one step-size change
ERROR_EXPONENT = -1 / 8  # the error estimate is of order 7
N_STAGES = 12
ATOL_PER_RTOL = 1e-2  # the absolute tolerance is rtol / 100

# Row s - 1 holds the weights of stages 0 .. s-1 in stage s: stage 12 is the
# 8th-order solution, stages 13-15 serve the dense output only.
_A_ROWS = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0, 0.08876275643042054),
    (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023),
    (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
     0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
     0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
A = np.zeros((16, 16))
for _s, _row in enumerate(_A_ROWS, start=1):
    A[_s, :_s] = _row
B = A[N_STAGES, :N_STAGES]
C = np.array([0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
              0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
              0.8571428571428571, 1, 1, 0.1, 0.2, 0.7777777777777778])
# What the stage loops read: the rows A[s, :s], sliced once, and the nodes as
# Python floats (the same products as with numpy scalars, at less cost).
_ROWS, _NODES = [A[s, :s] for s in range(16)], C.tolist()
E3 = np.array([-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
               -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
               0.02265179219836082, 0])
E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
               1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
               -0.022355307863886294, 0])
D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
])


class _Step:
    """One step; `coefficients` builds its interpolant, stages 13-15 of ``K``, on first call."""

    def __init__(self, fun, t_old, t, y_old, y, f, K):
        self.fun, self.t_old, self.t, self.y_old, self.y = fun, t_old, t, y_old, y
        self.f, self.K, self.F = f, K, None

    def coefficients(self) -> np.ndarray:
        if self.F is None:
            K, h = self.K, self.t - self.t_old
            for s in range(N_STAGES + 1, 16):
                dy = K[:s].T.dot(_ROWS[s]) * h
                K[s] = self.fun(self.t_old + _NODES[s] * h, self.y_old + dy)
            delta_y = self.y - self.y_old
            self.F = np.empty((7, len(self.y)))
            self.F[0] = delta_y
            self.F[1] = h * K[0] - delta_y
            self.F[2] = 2 * delta_y - h * (self.f + K[0])
            self.F[3:] = h * D.dot(K)
            self.K = None
        return self.F

    def __call__(self, t: float) -> np.ndarray:
        return _horner(self.coefficients(), (t - self.t_old) / (self.t - self.t_old), self.y_old)


def _horner(F: np.ndarray, x, y_old: np.ndarray, at=slice(None)) -> np.ndarray:
    """scipy's interpolant, Horner in x and 1 - x, at ``x`` of rows ``F[i][..., at]``."""
    y = np.zeros(y_old.shape)
    for i in range(7):
        y += F[6 - i][..., at]
        y *= x if i % 2 == 0 else 1 - x
    return y + y_old


@dataclasses.dataclass(frozen=True)
class Solution:
    """Step times ``t``, states ``y`` (a column per time), the ``steps`` `sol` reads,
    and whether the event ended the run (then the last time is its root)."""

    t: np.ndarray
    y: np.ndarray
    steps: list[_Step]
    event_fired: bool

    def sol(self, t) -> np.ndarray:
        """States at a time or a 1-D array of times (C-ordered: a mean over them rounds
        by layout); a step end reads the earlier step."""
        t = np.asarray(t)
        seg = np.clip(np.searchsorted(self.t, t, side="left") - 1, 0, len(self.steps) - 1)
        if t.ndim == 0:
            return self.steps[seg](t)
        read, at = np.unique(seg, return_inverse=True)
        steps = [self.steps[k] for k in read.tolist()]
        t_old, t_end = np.array([(s.t_old, s.t) for s in steps]).T
        y_old = np.stack([s.y_old for s in steps], axis=-1).take(at, axis=-1)
        F = np.stack([s.coefficients() for s in steps], axis=-1)
        return _horner(F, (t - t_old[at]) / (t_end - t_old)[at], y_old, at)


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol):
    """Hairer, Nørsett & Wanner's starting step (§II.4) for an order-7 error."""

    def rms(x: np.ndarray):
        return np.linalg.norm(x) / x.size ** 0.5

    interval_length = t_bound - t0
    scale = atol + np.abs(y0) * rtol
    d0, d1 = rms(y0 / scale), rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return float(min(100 * h0, h1, interval_length))


def _advance(fun, t, y, f, h_abs, tf, rtol, atol) -> tuple[_Step | None, float]:
    """The next accepted step and step size, or no step below the float spacing at ``t``."""
    min_step = 10 * (math.nextafter(t, math.inf) - t)
    h_abs = max(h_abs, min_step)
    K = np.empty((16, len(y)))  # K[:s].T holds stages 0 .. s-1 as columns
    rejected = False
    while h_abs >= min_step:
        t_new = min(t + h_abs, tf)
        h = h_abs = t_new - t
        K[0] = f
        for s in range(1, N_STAGES):
            dy = K[:s].T.dot(_ROWS[s])
            dy *= h
            dy += y
            K[s] = fun(t + _NODES[s] * h, dy)
        y_new = y + h * K[:N_STAGES].T.dot(B)
        K[N_STAGES] = fun(t + h, y_new)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        e5 = K[: N_STAGES + 1].T.dot(E5) / scale
        e3 = K[: N_STAGES + 1].T.dot(E3) / scale
        # np.linalg.norm of a 1-D float vector is exactly this
        err5_norm_2, err3_norm_2 = math.sqrt(e5.dot(e5)) ** 2, math.sqrt(e3.dot(e3)) ** 2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            error_norm = 0.0
        else:
            denom = err5_norm_2 + 0.01 * err3_norm_2  # 0 only if 0.01 * err3 underflows
            error_norm = h * err5_norm_2 / math.sqrt(denom * len(scale)) if denom else math.nan
        if error_norm < 1:
            if error_norm == 0:
                factor = MAX_FACTOR
            else:
                factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            step = _Step(fun, t, t_new, y, y_new, K[N_STAGES], K)
            return step, h_abs * (min(1, factor) if rejected else factor)
        h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
        rejected = True
    return None, h_abs


def _crossing(g, lo: float, hi: float) -> float:
    """Bisect ``g`` from g(lo) > 0 >= g(hi) until no float lies between the ends;
    the end where g <= 0."""
    while lo < (mid := (lo + hi) / 2) < hi:
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return hi


def solve(fun, t_span, y0, rtol: float, event=None) -> Solution:
    """``solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=rtol / 100,
    dense_output=True)`` for ``fun`` returning floats (an array, list or tuple),
    raising where scipy returns a failure: `InvalidBounds` unless both ends of
    ``t_span`` are finite and it runs forward, `StepFailure` when the step size
    falls below the float spacing, `NonFinite` for a non-finite start or state.
    ``event(t, y)``, positive at the start, ends the run at its first root, which
    is bisected on the interpolant of the first step whose end it reads <= 0."""
    t0, tf = map(float, t_span)
    if not -np.inf < t0 < tf < np.inf:
        raise InvalidBounds(f"integration spans must be finite and run forward, got {t_span}")
    y = np.asarray(y0).astype(float, copy=False)
    if not np.isfinite(y).all():
        raise NonFinite("all components of the initial state must be finite")
    atol, rtol = rtol * ATOL_PER_RTOL, max(rtol, 100 * EPS)
    t, f = t0, np.asarray(fun(t0, y), dtype=float)
    h_abs = _initial_step(fun, t0, y, f, tf, rtol, atol)
    ts, ys, steps = [t], [y], []
    fired = False
    while t < tf and not fired:
        step, h_abs = _advance(fun, t, y, f, h_abs, tf, rtol, atol)
        if step is None:
            raise StepFailure(
                "integration failed: Required step size is less than spacing between numbers."
            )
        steps.append(step)
        t, y, f = step.t, step.y, step.f
        if event is not None and event(t, y) <= 0:
            t = _crossing(lambda s: event(s, step(np.asarray(s))), step.t_old, t)
            y, fired = step(np.asarray(t)), True
        ts.append(t)
        ys.append(y)
    y = np.vstack(ys).T
    if not np.isfinite(y).all():
        raise NonFinite("integration produced non-finite values")
    return Solution(np.array(ts), y, steps, fired)
