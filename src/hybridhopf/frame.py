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


def _eigen(decompose, J: np.ndarray):
    """``decompose(J)`` (`np.linalg.eig` or `eigvals`); a LAPACK failure is `NonFinite`."""
    try:
        return decompose(J)
    except np.linalg.LinAlgError as exc:
        raise NonFinite(f"eigenvalues of the Jacobian failed: {exc}") from exc


def _finite(model: ModelDefinition, failure: str, M, X: np.ndarray) -> np.ndarray:
    """M as an array, taken at (X, mu = 0); a non-finite entry is `NonFinite`
    naming the model, the ``failure`` and the state, so none reaches LAPACK."""
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise NonFinite(f"model '{model.name}' {failure} at state={X.tolist()}, mu=0.0")
    return M


def _spectrum_split(J: np.ndarray) -> tuple[complex, complex]:
    """Return (nu, nu0): the rotation eigenvalue (Im > 0 if any) and the real one."""
    eigs = _eigen(np.linalg.eigvals, J)
    order = np.argsort(-np.abs(eigs.imag))
    nu = eigs[order[0]]
    nu0 = eigs[order[2]]
    if nu.imag < 0:
        nu = np.conj(nu)
    return complex(nu), complex(nu0)


def _newton_matrix(model: ModelDefinition, X: np.ndarray) -> np.ndarray:
    """The (4, 3) derivative of ``[F, Re nu]`` at (X, mu = 0) from one jet.

    Rows 1-3 are DF.  Row 4 is the first-order eigenvalue perturbation
    d nu / dX_k = w (d_k DF) v with J v = nu v and w the matching row of
    V^{-1}, so w v = 1; d_k DF is ``D^2 F[:, :, k]``.  nu is the eigenvalue
    of largest |Im| that `_spectrum_split` picks; its conjugate has the same
    real part of the derivative.  w is the cofactor row c / (c v), c the
    cross product of the other two eigenvectors: a complex LAPACK inverse
    would page in 0.7 MB of code for it.  Eigenvectors that do not span R^3
    give c v = 0 and so a non-finite row, which is `NonFinite`.
    """
    jt = models.jet(model, X, 0.0)
    J, H = jt.state_derivs[1], jt.state_derivs[2]
    eigs, V = _eigen(np.linalg.eig, J)
    k = int(np.argmax(np.abs(eigs.imag)))
    columns = V.T.tolist()
    v, a, b = columns[k], columns[(k + 1) % 3], columns[(k + 2) % 3]
    c = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    with np.errstate(all="ignore"):  # a non-finite entry is reported below
        dnu = np.einsum("c,cik,i->k", c, H, v) / (c[0] * v[0] + c[1] * v[1] + c[2] * v[2])
    return _finite(model, "has a non-finite Newton matrix", np.vstack([J, dnu.real]), X)


def locate_hopf_point(model: ModelDefinition, seed: Sequence[float]) -> np.ndarray:
    """Newton-solve {F(X) = 0, Re nu(X) = 0} at mu = 0 for a point on the
    equilibrium line where the planar eigenvalue pair crosses the imaginary
    axis.

    The system is overdetermined (four conditions, three unknowns) but
    consistent on a line of equilibria; steps are least-squares solves.  The
    residual takes F and DF from one `models.linearization_fn` call, and the
    spectrum it splits at the last iterate is the one the post-checks read;
    the Newton matrix is `_newton_matrix`, from one `models.jet` per iterate,
    so the model needs an exact jet or a field (else `InvalidParams`).
    """
    X = np.asarray(seed, dtype=float).copy()
    if X.shape != (STATE_DIM,):
        raise NoConvergence(f"seed must be a 3-vector, got shape {X.shape}")
    linearize = models.linearization_fn(model)

    def residual(P: np.ndarray) -> tuple[np.ndarray, tuple[complex, complex]]:
        """[F, Re nu] at P, and the (nu, nu0) of `_spectrum_split`."""
        F, DF = linearize(*P.tolist(), 0.0)
        F = _finite(model, "produced non-finite output", F, P)
        spectrum = _spectrum_split(_finite(model, "has a non-finite Jacobian", DF, P))
        return np.array([F[0], F[1], F[2], spectrum[0].real]), spectrum

    G, spectrum = residual(X)
    for _ in range(LOCATE_MAX_ITER):
        F_norm = float(np.max(np.abs(G[:3])))
        if F_norm < LOCATE_RESIDUAL_TOL and abs(G[3]) < LOCATE_SPECTRUM_TOL:
            break
        JG = _newton_matrix(model, X)
        step, *_ = np.linalg.lstsq(JG, -G, rcond=None)
        base = float(np.linalg.norm(G))
        scale = 1.0
        failure = ""
        for _halving in range(12):
            try:
                G_new, spectrum_new = residual(X + scale * step)
            except NonFinite as exc:
                failure = f" (last failed trial: {exc})"
                scale *= 0.5
                continue
            if np.linalg.norm(G_new) < base:
                break
            scale *= 0.5
        else:
            raise NoConvergence(f"Hopf-point search stalled: no descent direction{failure}")
        X = X + scale * step
        G, spectrum = G_new, spectrum_new
    else:
        raise NoConvergence(
            f"Hopf-point search did not converge in {LOCATE_MAX_ITER} iterations "
            f"(|F| = {np.max(np.abs(G[:3])):.2e}, Re nu = {G[3]:.2e})"
        )

    nu, nu0 = spectrum
    if nu.imag <= A2_THRESHOLD:
        raise NotHopf(f"no rotation pair at the converged point (Im nu = {nu.imag:.2e})")
    if abs(nu0) > A2_THRESHOLD:
        raise NotHopf(
            f"third eigenvalue is not zero at the converged point (nu0 = {nu0:.2e})"
        )
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


def _realify(vec: np.ndarray) -> np.ndarray:
    """Real eigenvector from a possibly complex-typed one (real eigenvalue)."""
    pivot = vec[np.argmax(np.abs(vec))]
    real = (vec / pivot).real
    return real / np.linalg.norm(real)


def _signed(vec: np.ndarray) -> np.ndarray:
    """Flip sign so the largest-magnitude component is positive."""
    pivot = vec[np.argmax(np.abs(vec))]
    return -vec if pivot < 0 else vec


def build_standard_frame(jet: JetTable) -> StandardFrame:
    """Frame from the jet at a located Hopf point.

    The rotation plane comes from the complex eigenvector v of the +i*omega
    eigenvalue: any phase choice c gives e1 = Im(c v), e2 = Re(c v) with
    J e1 = omega e2 and J e2 = -omega e1.  The phase is fixed by requiring
    the second component of e1 to vanish with the first nonnegative (falling
    back to the sign of the largest component when the first is zero), and
    e1 is normalized to unit length.  e3 is the unit kernel direction with
    its largest component positive.
    """
    J = jet.state_derivs[1]
    eigvals, eigvecs = _eigen(np.linalg.eig, J)
    scale = max(1e-30, float(np.max(np.abs(eigvals))))
    order = np.argsort(-np.abs(eigvals.imag))
    if abs(eigvals[order[0]].imag) <= A2_THRESHOLD * scale:
        raise DefectiveSpectrum("no simple rotation pair in the spectrum")
    pairwise = [
        abs(eigvals[i] - eigvals[j]) for i in range(3) for j in range(i + 1, 3)
    ]
    if min(pairwise) < 1e-10 * scale:
        raise DefectiveSpectrum("eigenvalues are not simple")

    idx_plus = next(i for i in order if eigvals[i].imag > 0)
    idx_zero = order[2]
    omega = float(eigvals[idx_plus].imag)
    v = eigvecs[:, idx_plus]
    v = v / np.max(np.abs(v))

    # phase: make Im((e^{i theta} v)_2) = 0
    if abs(v[1]) > 1e-12:
        theta = -np.angle(v[1])
    else:
        theta = math.pi / 2.0 - np.angle(v[0])
    candidates = []
    for t in (theta, theta + math.pi):
        cv = np.exp(1j * t) * v
        e1 = cv.imag
        e2 = cv.real
        candidates.append((e1, e2))
    # prefer positive first component of e1; tie-break on largest component
    def keyed(pair):
        e1, _ = pair
        first = e1[0]
        if abs(first) > 1e-12 * np.linalg.norm(e1):
            return first
        return e1[np.argmax(np.abs(e1))]

    e1, e2 = max(candidates, key=keyed)
    rho = np.linalg.norm(e1)
    e1 = e1 / rho
    e2 = e2 / rho

    e3 = _signed(_realify(eigvecs[:, idx_zero]))
    basis = np.column_stack([e1, e2, e3])
    if abs(np.linalg.det(basis)) < 1e-12:
        raise DefectiveSpectrum("eigenvectors do not span R^3")

    return StandardFrame.from_drift(
        np.array(jet.point, dtype=float), basis, jet.mu_derivs[0], omega
    )


def standard_jet(jet: JetTable, frame: StandardFrame) -> JetTable:
    """Rewrite a raw jet in frame coordinates, including the parameter shift.

    State derivatives transform tensorially under X = origin + T u,
    (A(Tu), B(Tu, Tv), C(Tu, Tv, Tw)) pulled back by T^{-1}; the parameter
    block additionally picks up corrections from the mu-dependent origin,
    which cancel the first-order planar drift exactly.
    """
    T = frame.basis
    Tinv = np.linalg.inv(T)
    S = frame.mu_shift
    F, A1, A2, A3 = jet.state_derivs
    f_mu, A_mu = jet.mu_derivs

    B1 = Tinv @ A1 @ T
    B2 = np.einsum("dc,cij,ip,jq->dpq", Tinv, A2, T, T)
    B3 = np.einsum("dc,cijk,ip,jq,kr->dpqr", Tinv, A3, T, T, T)
    return JetTable(
        point=np.zeros(3),
        mu=jet.mu,
        state_derivs=(Tinv @ F, B1, B2, B3),
        mu_derivs=(Tinv @ f_mu + B1 @ S, Tinv @ A_mu @ T + np.einsum("dpq,q->dp", B2, S)),
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
    a2_spectrum: tuple[complex, complex, complex]
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
    as Python floats, and takes DF only for a step; a non-finite F or DF
    makes the residual inf."""
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
                if best < 1e-14:
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
    J = jt.state_derivs[1]
    nu, nu0 = _spectrum_split(J)
    spectrum = (nu, np.conj(nu), nu0)
    a2_defect = float(max(abs(nu.real), abs(nu0)))
    omega = float(nu.imag)
    a2_ok = a2_defect < A2_THRESHOLD and omega > A2_THRESHOLD

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
        a2_spectrum=spectrum,
        a2_defect=a2_defect,
        a3_crossing=a3,
        a4_nondegeneracy=a4,
        a5_drift=a5,
        omega=omega,
        verdicts=verdicts,
        frame=frame,
        standard_jet=std,
    )
