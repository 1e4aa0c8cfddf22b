"""Hopf-point location, assumption checks, and the standard coordinate frame.

The classification formulas assume coordinates u = (y1, y2, z) in which the
Jacobian at the distinguished point is exactly

    [[0, -omega, 0],
     [omega, 0, 0],
     [0, 0, 0]],

the equilibrium line is tangent to the z-axis, and the parameter enters the
planar components only at second order.  This module finds such a point on a
line of equilibria, builds the frame (including the parameter-dependent
origin shift that removes the first-order planar drift), verifies the
standing assumptions, and rewrites a raw derivative jet in frame coordinates.

No eigensolver runs: on the line DF has the eigenvalue 0, so `_spectrum`
reads the other pair from tr DF and m2, the sum of DF's principal 2x2
minors, and nu0 as det DF / m2, first order in nu0 and so exact enough where
the A2 checks read it; the frame vectors and T^{-1} are cross products.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Mapping, Sequence

import numpy as np

from . import models
from .errors import DefectiveSpectrum, NoConvergence, NonFinite, NotHopf
from .models import JetTable, ModelDefinition, STATE_DIM

#: |F| and |Re nu| targets and the Newton budget of locate_hopf_point
LOCATE_RESIDUAL_TOL = 1e-12
LOCATE_SPECTRUM_TOL = 1e-10
LOCATE_MAX_ITER = 50
#: line-of-equilibria residual threshold (assumption: F vanishes on a curve)
A1_THRESHOLD = 1e-10
#: spectrum-pattern threshold for {0, +-i omega}
A2_THRESHOLD = 1e-8
#: quantities below this magnitude count as zero in assumption verdicts
NONZERO_THRESHOLD = 1e-6


def _finite(model: ModelDefinition, failure: str, M, X: np.ndarray) -> np.ndarray:
    """M as an array, taken at (X, mu = 0); a non-finite entry is `NonFinite`
    naming the model, the ``failure`` and the state, so none reaches LAPACK."""
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise NonFinite(f"model '{model.name}' {failure} at state={X.tolist()}, mu=0.0")
    return M


def _spectrum(J: np.ndarray | Sequence[Sequence[float]]) -> tuple[complex, float]:
    """(nu, nu0) of a 3x3 J, float arithmetic on its nine entries: the
    rotation eigenvalue a + i omega (omega >= 0) and the real one.

    The spectrum {nu0, a +- i omega} has tr = nu0 + 2a, m2 = a^2 + omega^2 +
    2 a nu0 and det = nu0 (a^2 + omega^2).  So nu0 = det / m2 is first order:
    its relative error 2 a nu0 / (a^2 + omega^2) is below 2e-16 / omega^2
    where |a| and |nu0| are below A2_THRESHOLD, the only place a verdict
    reads them.  a = (tr - nu0) / 2, omega^2 = m2 - 2 a nu0 - a^2, and a real
    pair gives its larger root.  m2 = 0 gives nan, and an overflow nan or
    inf, from which `build_standard_frame` builds no frame.
    """
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = np.asarray(J, dtype=float).tolist()
    m12 = j11 * j22 - j12 * j21
    m2 = (j00 * j11 - j01 * j10) + (j00 * j22 - j02 * j20) + m12
    det = j00 * m12 - j01 * (j10 * j22 - j12 * j20) + j02 * (j10 * j21 - j11 * j20)
    nu0 = det / m2 if m2 else math.nan
    a = (j00 + j11 + j22 - nu0) / 2.0
    omega2 = m2 - 2.0 * a * nu0 - a * a
    if omega2 < 0.0:
        return complex(a + math.sqrt(-omega2), 0.0), nu0
    return complex(a, math.sqrt(omega2)), nu0


def _newton_matrix(model: ModelDefinition, X: np.ndarray) -> np.ndarray:
    """The (4, 3) derivative of ``[F, tr DF / 2]`` at (X, mu = 0) from one
    jet: rows 1-3 are DF, row 4 is d(tr DF / 2) / dX_k = 1/2 sum_i
    D^2 F[i, i, k].  An entry that overflows is `NonFinite`."""
    _, J, H, _ = models.jet(model, X, 0.0).state_derivs
    JG = np.vstack([J, 0.5 * np.einsum("iik->k", H)])
    return _finite(model, "has a non-finite Newton matrix", JG, X)


def locate_hopf_point(model: ModelDefinition, seed: Sequence[float]) -> np.ndarray:
    """Newton-solve {F(X) = 0, tr DF(X) / 2 = 0} at mu = 0 for a point on
    the equilibrium line where the planar eigenvalue pair crosses the
    imaginary axis.

    On the line DF has the eigenvalue 0, so tr DF / 2 is Re nu of the pair
    there.  The system is overdetermined (four conditions, three unknowns)
    but consistent on a line of equilibria; steps are least-squares solves.
    The residual takes F and DF from one `models.linearization_fn` call, and
    the post-checks read `_spectrum` of the DF at the last iterate (its
    first-order nu0 suffices below A2_THRESHOLD); the Newton matrix is
    `_newton_matrix`, from one `models.jet` per iterate, so the model needs
    an exact jet or a field (else `InvalidParams`).
    """
    X = np.asarray(seed, dtype=float).copy()
    if X.shape != (STATE_DIM,):
        raise NoConvergence(f"seed must be a 3-vector, got shape {X.shape}")
    linearize = models.linearization_fn(model)

    def residual(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """[F, tr DF / 2] at P, and DF."""
        F, DF = linearize(*P.tolist(), 0.0)
        F = _finite(model, "produced non-finite output", F, P)
        DF = _finite(model, "has a non-finite Jacobian", DF, P)
        return np.array([F[0], F[1], F[2], 0.5 * (DF[0, 0] + DF[1, 1] + DF[2, 2])]), DF

    G, DF = residual(X)
    for _ in range(LOCATE_MAX_ITER):
        F_norm = float(np.max(np.abs(G[:3])))
        if F_norm < LOCATE_RESIDUAL_TOL and abs(G[3]) < LOCATE_SPECTRUM_TOL:
            break
        # rows with an entry of 1 or more scaled by powers of two (exactly) to
        # a largest entry in [1/2, 1): lstsq's rank cut, eps times the largest
        # singular value, then keeps the trace row where DF spans many decades
        JG = _newton_matrix(model, X)
        weight = np.ldexp(1.0, -np.maximum(np.frexp(np.abs(JG).max(axis=1))[1], 0))
        step, *_ = np.linalg.lstsq(JG * weight[:, None], -G * weight, rcond=None)
        # norms of G and of each trial scaled by one power of two, so max |G|
        # lands in [1/2, 1): exact, and finite where |G| squared would overflow
        unit = math.ldexp(1.0, -math.frexp(max(F_norm, abs(float(G[3]))))[1])
        base = float(np.linalg.norm(G * unit))
        scale = 1.0
        failure = ""
        for _halving in range(12):
            try:
                G_new, DF_new = residual(X + scale * step)
            except NonFinite as exc:
                failure = f" (last failed trial: {exc})"
                scale *= 0.5
                continue
            if np.linalg.norm(G_new * unit) < base:
                break
            scale *= 0.5
        else:
            raise NoConvergence(f"Hopf-point search stalled: no descent direction{failure}")
        X = X + scale * step
        G, DF = G_new, DF_new
    else:
        raise NoConvergence(
            f"Hopf-point search did not converge in {LOCATE_MAX_ITER} iterations "
            f"(|F| = {np.max(np.abs(G[:3])):.2e}, Re nu = {G[3]:.2e})"
        )

    nu, nu0 = _spectrum(DF)
    if not nu.imag > A2_THRESHOLD:
        raise NotHopf(f"no rotation pair at the converged point (Im nu = {nu.imag:.2e})")
    if not abs(nu0) <= A2_THRESHOLD:
        raise NotHopf(f"third eigenvalue is not zero at the converged point (nu0 = {nu0:.2e})")
    return X


@dataclasses.dataclass(frozen=True)
class StandardFrame:
    """Affine chart u = basis^{-1} (X - origin - mu * basis @ mu_shift).

    ``basis`` columns are (e1, e2, e3): the planar rotation pair and the
    line-tangent direction.  ``mu_shift`` is the frame-coordinate origin
    correction that cancels the first-order parameter drift in the planar
    components; it has zero third component by construction.
    """

    origin: np.ndarray
    basis: np.ndarray
    mu_shift: np.ndarray
    omega: float

    def to_frame(self, X: Sequence[float], mu: float = 0.0) -> np.ndarray:
        """Frame coordinates of one state (3,) or of a stack of states (..., 3)."""
        rel = np.asarray(X, dtype=float) - self.origin
        return np.linalg.solve(self.basis, rel[..., None])[..., 0] - mu * self.mu_shift

    def from_frame(self, u: Sequence[float], mu: float = 0.0) -> np.ndarray:
        shifted = np.asarray(u, dtype=float) + mu * self.mu_shift
        return self.origin + self.basis @ shifted

    @classmethod
    def from_drift(
        cls, origin: np.ndarray, basis: np.ndarray, f_mu: np.ndarray, omega: float
    ) -> StandardFrame:
        """The frame whose ``mu_shift`` cancels the planar part of the
        first-order drift ``f_mu = d_mu F`` at the origin."""
        drift = np.linalg.solve(basis, f_mu)
        mu_shift = np.array([-drift[1] / omega, drift[0] / omega, 0.0])
        return cls(origin=origin, basis=basis, mu_shift=mu_shift, omega=omega)


def _cross(u: Sequence[float], v: Sequence[float]) -> list[float]:
    """u x v of two float 3-vectors."""
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def _widest_cross(r0: Sequence[float], r1: Sequence[float], r2: Sequence[float]) -> list[float]:
    """The longest of r0 x r1, r0 x r2 and r1 x r2 (the first on ties)."""
    return max(_cross(r0, r1), _cross(r0, r2), _cross(r1, r2), key=lambda c: math.hypot(*c))


def _oriented(vec: Sequence[float], first: bool = False) -> list[float]:
    """vec / |vec|, its largest component (``first``: its first, if above 1e-12) positive."""
    unit = [x / math.hypot(*vec) for x in vec]
    pivot = 0 if first and abs(unit[0]) > 1e-12 else max(range(3), key=lambda i: abs(unit[i]))
    return [-x for x in unit] if unit[pivot] < 0 else unit


def build_standard_frame(jet: JetTable) -> StandardFrame:
    """Frame from the jet at a located Hopf point, from cross products of
    the rows and columns of J = DF and `_spectrum`'s a + i omega, whose
    first-order nu0 moves a and omega at second order only.

    e3 is J's unit kernel direction, the widest cross product of two rows,
    with its largest component positive.  The rotation plane is normal to
    n, the widest cross product of two columns (J^T n = 0).  e1 is n x
    (0, 1, 0), the unit vector of the plane with second component 0, with
    its first component positive (its largest when the first is 0); when
    the plane is {x2 = 0}, e1 is n x (row 0 of J - aI), so that e2 has first
    component 0.  e2 = (J e1 - a e1) / omega.  omega <= A2_THRESHOLD times
    the spectral radius, as in any spectrum that is not simple, is
    `DefectiveSpectrum`.
    """
    rows = jet.state_derivs[1].tolist()
    nu, nu0 = _spectrum(rows)
    a, omega = nu.real, nu.imag
    if not omega > A2_THRESHOLD * max(1e-30, abs(nu), abs(nu0)):
        raise DefectiveSpectrum("no simple rotation pair in the spectrum")
    e3 = _oriented(_widest_cross(*rows))
    n = _widest_cross(*zip(*rows))
    e1 = _cross(n, (0.0, 1.0, 0.0))
    if math.hypot(*e1) <= 1e-12 * math.hypot(*n):
        e1 = _cross(n, (rows[0][0] - a, rows[0][1], rows[0][2]))
    e1 = _oriented(e1, first=True)
    e2 = [(r[0] * e1[0] + r[1] * e1[1] + r[2] * e1[2] - a * x) / omega for r, x in zip(rows, e1)]
    if not abs(sum(x * y for x, y in zip(e1, _cross(e2, e3)))) >= 1e-12:
        raise DefectiveSpectrum("frame vectors do not span R^3")
    basis = np.array(list(zip(e1, e2, e3)))
    return StandardFrame.from_drift(np.array(jet.point, dtype=float), basis, jet.mu_derivs[0], omega)


def _inverse(T: np.ndarray) -> np.ndarray:
    """T^{-1}: row i is the cross product of the columns i + 1 and i + 2 of
    T (cyclically) over det T = c0 . (c1 x c2), each sum left to right."""
    c0, c1, c2 = zip(*T.tolist())
    rows = [_cross(c1, c2), _cross(c2, c0), _cross(c0, c1)]
    det = c0[0] * rows[0][0] + c0[1] * rows[0][1] + c0[2] * rows[0][2]
    return np.array([[x / det for x in row] for row in rows])


#: `_pull_back`'s contractions by tensor rank: T^{-1} on the component axis,
#: then T on each derivative axis in turn
_PULL_BACK = {
    1: ("dc,c->d",),
    2: ("dc,ci->di", "di,ip->dp"),
    3: ("dc,cij->dij", "dij,ip->dpj", "dpj,jq->dpq"),
    4: ("dc,cijk->dijk", "dijk,ip->dpjk", "dpjk,jq->dpqk", "dpqk,kr->dpqr"),
}


def _pull_back(Tinv: np.ndarray, A: np.ndarray, T: np.ndarray) -> np.ndarray:
    """T^{-1} A(T., T., ...) for a tensor A of rank 1 to 4, one two-operand
    `np.einsum` per axis: einsum without ``optimize`` calls no BLAS, so the
    bits do not depend on its kernel, and every operand and result is
    C-contiguous, which fixes einsum's summation order."""
    first, *rest = _PULL_BACK[A.ndim]
    B = np.einsum(first, Tinv, A)
    for subscripts in rest:
        B = np.einsum(subscripts, B, T)
    return B


def standard_jet(jet: JetTable, frame: StandardFrame) -> JetTable:
    """Rewrite a raw jet in frame coordinates, including the parameter shift.

    State derivatives transform tensorially under X = origin + T u,
    (A(Tu), B(Tu, Tv), C(Tu, Tv, Tw)) pulled back by T^{-1}; the parameter
    block additionally picks up corrections from the mu-dependent origin,
    which cancel the first-order planar drift exactly.  T^{-1} is
    `_inverse`'s and every block goes through `_pull_back`, so no LAPACK or
    BLAS call sets a bit of a tensor (``tolerance`` reads `np.linalg.cond`).
    """
    T = frame.basis
    Tinv = _inverse(T)
    S = frame.mu_shift
    F, B1, B2, B3 = (_pull_back(Tinv, A, T) for A in jet.state_derivs)
    f_mu, A_mu = (_pull_back(Tinv, A, T) for A in jet.mu_derivs)
    return JetTable(
        point=np.zeros(3),
        mu=jet.mu,
        state_derivs=(F, B1, B2, B3),
        mu_derivs=(f_mu + np.einsum("dp,p->d", B1, S), A_mu + np.einsum("dpq,q->dp", B2, S)),
        tolerance=jet.tolerance * max(1.0, np.linalg.cond(T)),
    )


@dataclasses.dataclass(frozen=True)
class AssumptionReport:
    """Quantified verdicts for the five standing assumptions.

    a1: largest |F| over equilibria continued along the line segment.
    a2: deviation of the spectrum from the {0, +-i omega} pattern.
    a3: parameter-free transversality, d/dz of the planar divergence.
    a4: planar Laplacian of the third field component.
    a5: first-order parameter drift along the line direction.

    ``frame`` and ``standard_jet`` are the chart and the jet in it that the
    checks built (None when the spectrum admits no frame); they are not part
    of `to_document`.
    """

    a1_line_residual: float
    a2_spectrum: tuple[complex, complex, float]
    a2_defect: float
    a3_crossing: float
    a4_nondegeneracy: float
    a5_drift: float
    omega: float
    verdicts: Mapping[str, bool]
    frame: StandardFrame | None = dataclasses.field(compare=False)
    standard_jet: JetTable | None = dataclasses.field(compare=False)

    def all_pass(self) -> bool:
        return all(self.verdicts.values())

    def failed(self) -> list[str]:
        return [k for k, ok in sorted(self.verdicts.items()) if not ok]

    def to_document(self) -> dict:
        return {
            "a1_line_residual": self.a1_line_residual,
            "a2_spectrum": [[z.real, z.imag] for z in self.a2_spectrum],
            "a2_defect": self.a2_defect,
            "a3_crossing": self.a3_crossing,
            "a4_nondegeneracy": self.a4_nondegeneracy,
            "a5_drift": self.a5_drift,
            "omega": self.omega,
            "verdicts": dict(sorted(self.verdicts.items())),
            "thresholds": {
                "a1": A1_THRESHOLD,
                "a2": A2_THRESHOLD,
                "nonzero": NONZERO_THRESHOLD,
            },
        }


def _line_residual(model: ModelDefinition, X_H: np.ndarray, e3: np.ndarray) -> float:
    """Max |F| at mu = 0 over equilibria continued transversally from 20
    points of the segment X_H + t e3, |t| <= 0.1: each iterate reads F once,
    as Python floats, and takes DF only for a step; a probe stops once
    max |F| falls below LOCATE_RESIDUAL_TOL, the accuracy the point itself
    was located to; a non-finite F or DF makes the residual inf."""
    linearize = models.linearization_fn(model)
    worst = 0.0
    for P in X_H + np.linspace(-0.1, 0.1, 20)[:, None] * e3:
        X, best = P, math.inf
        for _ in range(25):
            try:
                F = np.asarray(model.rhs(X, 0.0), dtype=float).tolist()
                if not all(map(math.isfinite, F)):
                    best = math.inf
                    break
                best = min(best, max(map(abs, F)))
                if best < LOCATE_RESIDUAL_TOL:
                    break
                DF = linearize(*X.tolist(), 0.0)[1]
                JG = _finite(model, "has a non-finite Jacobian", [*DF, e3], X)
            except NonFinite:
                best = math.inf
                break
            step, *_ = np.linalg.lstsq(JG, -np.array([*F, e3 @ (X - P)]), rcond=None)
            X = X + step
        worst = max(worst, best)
    return worst


def check_assumptions(model: ModelDefinition, X_H: Sequence[float]) -> AssumptionReport:
    """Evaluate all five standing assumptions at a candidate point, at mu = 0.

    Failures are verdicts, not exceptions: downstream code decides whether a
    failed assumption is fatal.
    """
    X_H = np.asarray(X_H, dtype=float)
    jt = models.jet(model, X_H, 0.0)
    nu, nu0 = _spectrum(jt.state_derivs[1])
    a2_defect = float(np.max([abs(nu.real), abs(nu0)]))
    a2_ok = a2_defect < A2_THRESHOLD and nu.imag > A2_THRESHOLD

    a3 = a4 = a5 = math.nan
    a1 = math.inf
    frame = std = None
    if a2_ok:
        try:
            frame = build_standard_frame(jt)
        except DefectiveSpectrum:
            pass
    frame_ok = frame is not None
    if frame_ok:
        std = standard_jet(jt, frame)
        d2 = std.state_derivs[2]
        a3 = d2.item(0, 0, 2) + d2.item(1, 1, 2)
        a4 = d2.item(2, 0, 0) + d2.item(2, 1, 1)
        a5 = std.mu_derivs[0].item(2)
        a1 = _line_residual(model, X_H, frame.basis[:, 2])

    verdicts = {
        "a1_line": a1 < A1_THRESHOLD,
        "a2_spectrum": a2_ok,
        "a3_crossing": frame_ok and abs(a3) > NONZERO_THRESHOLD,
        "a4_nondegeneracy": frame_ok and abs(a4) > NONZERO_THRESHOLD,
        "a5_drift": frame_ok and abs(a5) > NONZERO_THRESHOLD,
    }
    return AssumptionReport(
        a1_line_residual=a1,
        a2_spectrum=(nu, nu.conjugate(), nu0),
        a2_defect=a2_defect,
        a3_crossing=a3,
        a4_nondegeneracy=a4,
        a5_drift=a5,
        omega=nu.imag,
        verdicts=verdicts,
        frame=frame,
        standard_jet=std,
    )
