"""Vector fields on R^3 with derivative jets.

A model bundles a right-hand side F(X; mu) with a way to obtain its partial
derivatives at a point: exact closed forms (polynomial models), or its
``field`` evaluated on truncated Taylor numbers (predator-prey).  The builtin
catalogue holds the planted polynomial field ``toy_cylindrical``; its
``predator_prey`` entry checks the config's parameters and forwards to
`eco.model`.  Everything downstream (frames, reduced coefficients,
classification) consumes the `JetTable` produced here.
A jet holds derivative tensors up to order three, ``F``, ``DF``, ``D^2 F``
and ``D^3 F`` with entry ``[c, i, j, ...] = d_i d_j ... F_c``, plus the
parameter block ``d_mu F`` and ``d_mu DF``.  Producers hand
`JetTable.from_entries` one vector per multi-index ``(a, b, c)`` (the
partial ``d^a_{x1} d^b_{x2} d^c_{x3}``); that multi-index layout is known
only to this module.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers
import operator
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import InvalidParams, NonFinite, UnknownModel

STATE_DIM = 3
JET_ORDER = 3

StateIndex = tuple[int, int, int]


def state_multi_indices() -> Iterator[StateIndex]:
    """Yield all (a, b, c) with 1 <= a+b+c <= JET_ORDER, graded-lex order."""
    for total in range(1, JET_ORDER + 1):
        for a in range(total, -1, -1):
            for b in range(total - a, -1, -1):
                yield (a, b, total - a - b)


#: rows of `JetTable.from_entries`: the state block (F first), then d_mu
_JET_INDICES: tuple[StateIndex, ...] = ((0, 0, 0), *state_multi_indices())
_MU_INDICES: tuple[StateIndex, ...] = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
#: the same rows as derivative orders in (x1, x2, x3, mu)
_JET_ORDERS = [(*i, 0) for i in _JET_INDICES] + [(*i, 1) for i in _MU_INDICES]


def _gather_table(indices: Sequence[StateIndex], order: int, first_row: int = 0) -> np.ndarray:
    """Flat positions in the (rows, 3) entry block that fill the order-``order``
    tensor, shaped like it: slot [c, i, j, ...] reads component c of the row
    whose multi-index counts the axes (i, j, ...)."""
    rows = {index: first_row + n for n, index in enumerate(indices)}
    slots = [
        rows[tuple(map(axes.count, range(STATE_DIM)))]
        for axes in itertools.product(range(STATE_DIM), repeat=order)
    ]
    table = STATE_DIM * np.array(slots) + np.arange(STATE_DIM)[:, None]
    return table.reshape((STATE_DIM,) * (order + 1))


_STATE_GATHER = tuple(_gather_table(_JET_INDICES, k) for k in range(JET_ORDER + 1))
_MU_GATHER = tuple(_gather_table(_MU_INDICES, k, len(_JET_INDICES)) for k in range(2))


@dataclasses.dataclass(frozen=True)
class JetTable:
    """Derivatives of a vector field at one (point, mu), as tensors.

    Attributes
    ----------
    point, mu : expansion point.
    state_derivs : (F, DF, D^2 F, D^3 F) with shapes (3,), (3, 3), (3, 3, 3)
        and (3, 3, 3, 3); entry [c, i, j, ...] is d_i d_j ... F_c.
    mu_derivs : (d_mu F, d_mu DF) with shapes (3,) and (3, 3), the parameter
        block needed by first-order theory.
    tolerance : accuracy the producer claims for each entry.

    Every tensor is C-contiguous: `np.einsum` sums a strided operand in
    another order, so `frame.standard_jet`'s bits would depend on how a
    producer laid its tensors out.  The tensors must be treated as
    immutable.
    """

    point: np.ndarray
    mu: float
    state_derivs: tuple[np.ndarray, ...]
    mu_derivs: tuple[np.ndarray, ...]
    tolerance: float

    @classmethod
    def from_entries(
        cls,
        point: Sequence[float],
        mu: float,
        entries: np.ndarray | Sequence[Sequence[float]],
        tolerance: float,
    ) -> JetTable:
        """Jet from one 3-vector per multi-index: 24 rows, the 20 of
        ``(0, 0, 0)`` and `state_multi_indices` for F, then the four
        ``(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)`` for d_mu F."""
        flat = np.asarray(entries, dtype=float).reshape(-1)
        return cls(
            point=np.array(point, dtype=float),
            mu=float(mu),
            state_derivs=tuple(flat[table] for table in _STATE_GATHER),
            mu_derivs=tuple(flat[table] for table in _MU_GATHER),
            tolerance=tolerance,
        )


@dataclasses.dataclass(frozen=True)
class ModelDefinition:
    """A named vector field with optional exact derivatives.

    ``rhs(X, mu)`` returns dX/dt, a (3,) array, for a state X of shape (3,)
    and a float mu.  ``exact_jet`` (when present) returns a `JetTable` whose
    entries are closed-form.  ``jacobian`` (when present) returns dF/dX as a
    (3, 3) float ndarray; point location, the line check and shooting read
    DF only through `linearization_fn`.  ``field(x1, x2, x3, mu)``
    (when present) returns the three components written in plain arithmetic
    (``+ - * /`` and integer powers); `jet` evaluates it on Taylor numbers
    when there is no ``exact_jet``.  ``linearization(x1, x2, x3, mu)`` (when
    present) returns ``(F, DF)`` on Python floats, three floats and three
    rows of three, with the bits of ``rhs`` and ``jacobian``; it holds only
    for the ``rhs`` and ``jacobian`` the model was constructed with, which
    ``built_with`` records (see `linearization_fn`).  A model sets no
    domain: shooting trusts an iterate by its drift cap, its period window
    and the caller's guard.
    """

    name: str
    rhs: Callable[[np.ndarray, float], np.ndarray]
    exact_jet: Callable[[np.ndarray, float], JetTable] | None = None
    jacobian: Callable[[np.ndarray, float], np.ndarray] | None = None
    metadata: Mapping[str, object] = dataclasses.field(default_factory=dict)
    field: Callable[..., Sequence] | None = None
    linearization: Callable[..., tuple[list, list]] | None = None
    #: (rhs, jacobian) at construction; `dataclasses.replace` copies it
    built_with: tuple | None = dataclasses.field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.built_with is None:
            object.__setattr__(self, "built_with", (self.rhs, self.jacobian))


def evaluate(model: ModelDefinition, state: Sequence[float], mu: float) -> np.ndarray:
    """Evaluate dX/dt, rejecting non-finite output."""
    X = np.asarray(state, dtype=float)
    if X.shape != (STATE_DIM,):
        raise InvalidParams(f"state must have length {STATE_DIM}, got shape {X.shape}")
    out = np.asarray(model.rhs(X, float(mu)), dtype=float)
    if not np.isfinite(out).all():
        raise NonFinite(
            f"model '{model.name}' produced non-finite output at state={X.tolist()}, mu={mu}"
        )
    return out


def jet(model: ModelDefinition, point: Sequence[float], mu: float) -> JetTable:
    """Model jet at a point: the exact jet when the model has one, else the
    jet of its field by Taylor arithmetic.  A point that is not a 3-vector is
    `InvalidParams`, a non-finite entry `NonFinite` naming the model."""
    X, mu = np.asarray(point, dtype=float), float(mu)
    if X.shape != (STATE_DIM,):
        raise InvalidParams(f"state must have length {STATE_DIM}, got shape {X.shape}")
    with np.errstate(all="ignore"):  # a non-finite entry is reported below
        table = model.exact_jet(X, mu) if model.exact_jet else _field_jet(model, X, mu)
    tensors = (*table.state_derivs, *table.mu_derivs)
    if not np.isfinite(np.concatenate([t.ravel() for t in tensors])).all():
        raise NonFinite(
            f"model '{model.name}' has a non-finite jet entry at state={X.tolist()}, mu={mu}"
        )
    return table


def central_difference(
    f: Callable[[np.ndarray], np.ndarray], X: np.ndarray
) -> np.ndarray:
    """Matrix whose column i is (f(X + h_i e_i) - f(X - h_i e_i)) / 2 h_i, with
    h_i = 1e-7 * max(1, |x_i|): the probes are the rows of X ± diag(h)."""
    h = 1e-7 * np.fmax(1.0, np.abs(X))  # fmax, like max, keeps 1 for a nan x_i
    step = np.diag(h)
    plus, minus = np.array([f(P) for P in X + step]), np.array([f(P) for P in X - step])
    return (plus - minus).T / (2.0 * h)


def linearization_fn(model: ModelDefinition) -> Callable[..., tuple[list, list]]:
    """(x1, x2, x3, mu) -> (F, DF) on Python floats, the one source of DF:
    the model's own ``linearization`` while its ``rhs`` and ``jacobian`` are
    the ones it was built with, else ``rhs`` and ``jacobian`` (or, without
    one, `central_difference` of ``rhs``) converted with ``tolist``, so a
    model whose ``rhs`` or ``jacobian`` was replaced is never linearised by
    the former ones."""
    if model.linearization is not None and model.built_with == (model.rhs, model.jacobian):
        return model.linearization

    def derived(x1, x2, x3, mu):
        X = np.array([x1, x2, x3])
        F = np.asarray(model.rhs(X, mu), dtype=float).tolist()
        if model.jacobian is None:
            return F, central_difference(lambda P: model.rhs(P, mu), X).tolist()
        return F, model.jacobian(X, mu).tolist()

    return derived


# ---------------------------------------------------------------------------
# polynomial fields (exact jets by term-wise differentiation)
# ---------------------------------------------------------------------------


class PolynomialField:
    """Three polynomial components in (x1, x2, x3, mu) with exact jets.

    Terms are rows ``(coef, i, j, k, m)`` for ``coef * x1^i x2^j x3^k mu^m``,
    held as ``coefs`` (n,), ``exponents`` (n, 4) and ``component`` (n,).  Two
    layouts, F with the three Jacobian columns (built at construction; ``rhs``
    reads its leading F block only) and the 24 jet entries (on first use),
    evaluate each (derivative order, term) pair with a nonzero coefficient
    as ``coef * (w * x1^e1 x2^e2 x3^e3 mu^em)``
    (falling-factorial weight w, reduced exponents e), with powers from one
    table of libm ``pow`` on Python floats (numpy's array power depends on
    the CPU), and sum each entry in term order with one ``np.bincount``:
    barring underflow, an entry of n terms is within about (n + 16) 2^-53
    times the sum of their magnitudes.  An entry is non-finite when a power
    it needs overflows or a coordinate it reads is not finite; a pair whose
    powers multiply to 0 adds exactly 0.  `field` is the term loop in plain
    arithmetic, for jets by Taylor arithmetic, with each power it needs
    taken once per call.
    """

    def __init__(self, components: Sequence[Sequence[Sequence[float]]]):
        if len(components) != STATE_DIM:
            raise InvalidParams("a polynomial field needs exactly 3 components")
        rows = [row for terms in components for row in terms]
        self.coefs = np.array([row[0] for row in rows], dtype=float)
        self.exponents = np.array([row[1:] for row in rows], dtype=int).reshape(-1, 4)
        self.component = np.repeat(np.arange(STATE_DIM), [len(t) for t in components])
        self._linear = self._layout([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
        powers, index, coefs, weight, slots, _ = self._linear
        f = np.count_nonzero(slots % 4 == 0)  # derivative order leads: F's f pairs come first
        self._values = powers, index[:f], coefs[:f], weight[:f], slots[:f] // 4, STATE_DIM

    @functools.cached_property
    def _jet(self):
        return self._layout(_JET_ORDERS)

    def _layout(self, orders: list[tuple[int, int, int, int]]):
        """For these derivative orders: the power table's (axis, k) pairs, each
        kept pair's table positions, coefficient, weight and slot, the slot count."""
        order = np.array(orders)
        kept = (self.exponents[None] >= order[:, None]).all(axis=2) & (self.coefs != 0.0)
        q, t = np.nonzero(kept)
        power, d = self.exponents[t], order[q]
        ks, inverse = np.unique(power - d, return_inverse=True)
        index = np.arange(4) * len(ks) + inverse.reshape(power.shape)
        powers = [(axis, k) for axis in range(4) for k in ks.tolist()]
        weight = np.prod([np.where(d > s, power - s, 1.0) for s in range(JET_ORDER)], axis=(0, 2))
        slots = self.component[t] * len(order) + q
        return powers, index, self.coefs[t], weight, slots, STATE_DIM * len(order)

    @staticmethod
    def _point(X, mu) -> tuple[float, float, float, float]:
        return (*np.asarray(X, dtype=float)[:STATE_DIM].tolist(), float(mu))

    def _evaluate(self, layout, x: tuple[float, float, float, float]) -> np.ndarray:
        powers, index, coefs, weight, slots, size = layout
        try:
            table = [x[axis] ** k for axis, k in powers]
        except OverflowError:  # Python floats raise where numpy scalars give inf
            table = [np.float64(x[axis]) ** k for axis, k in powers]
        return np.bincount(slots, coefs * (weight * np.array(table)[index].prod(axis=1)), size)

    def rhs(self, X: np.ndarray, mu: float) -> np.ndarray:
        return self._evaluate(self._values, self._point(X, mu))

    @functools.cached_property
    def _terms(self):
        """The (axis, k) of every power ``field`` needs, k > 0, and each term's
        coefficient, component and positions in that list, axis by axis."""
        rows = self.exponents.tolist()
        powers = sorted({(axis, k) for row in rows for axis, k in enumerate(row) if k})
        position = {power: n for n, power in enumerate(powers)}
        terms = [
            (coef, c, [position[axis, k] for axis, k in enumerate(row) if k])
            for coef, row, c in zip(self.coefs.tolist(), rows, self.component.tolist())
        ]
        return powers, terms

    def field(self, x1, x2, x3, mu) -> list:
        powers, terms = self._terms
        x = (x1, x2, x3, mu)
        table = [x[axis] ** k for axis, k in powers]
        out = [0.0] * STATE_DIM
        for coef, c, positions in terms:
            out[c] = out[c] + coef * math.prod([table[n] for n in positions])
        return out

    def linearization(self, x1: float, x2: float, x3: float, mu: float) -> tuple[list, list]:
        """(F, DF) from the one evaluation ``rhs`` and ``jacobian`` read."""
        v = self._evaluate(self._linear, (x1, x2, x3, mu)).tolist()
        return v[0::4], [v[1:4], v[5:8], v[9:12]]

    def jacobian(self, X: np.ndarray, mu: float) -> np.ndarray:
        rows = self._evaluate(self._linear, self._point(X, mu)).reshape(STATE_DIM, 4)
        return rows[:, 1:].copy()  # each row is F_c, then the three partials

    def exact_jet(self, point: np.ndarray, mu: float) -> JetTable:
        entries = self._evaluate(self._jet, self._point(point, mu)).reshape(STATE_DIM, -1).T
        return JetTable.from_entries(point, mu, entries, tolerance=1e-12)

    def model(self, name: str) -> ModelDefinition:
        """The field as a model with its exact Jacobian, jet and linearisation."""
        return ModelDefinition(
            name, self.rhs, self.exact_jet, self.jacobian, field=self.field,
            linearization=self.linearization,
        )


def polynomial_model(
    spec: Mapping[str, Sequence[Sequence[float]]], name: str = "polynomial"
) -> ModelDefinition:
    """Build a model from ``{"y1": [[coef, i, j, k, m], ...], "y2": ..., "z": ...}``."""
    keys = ("y1", "y2", "z")
    if not isinstance(spec, Mapping) or set(spec) != set(keys):
        raise InvalidParams(f"polynomial spec must be an object with exactly the keys {keys}")
    components = []
    for key in keys:
        terms = []
        rows = spec[key]
        for row in rows if isinstance(rows, Sequence) else [rows]:
            if not isinstance(row, Sequence) or len(row) != 5:
                raise InvalidParams(
                    f"each term is [coef, i, j, k, m]; component {key!r} has {row!r}"
                )
            try:
                coef, powers = float(row[0]), tuple(int(p) for p in row[1:])
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidParams(f"terms must hold numbers: {list(row)}") from exc
            if not math.isfinite(coef):
                raise InvalidParams(f"coefficients must be finite: {list(row)}")
            if any(not 0 <= p < 2**63 or p != q for p, q in zip(powers, row[1:])):
                raise InvalidParams(f"exponents must be integers in [0, 2**63): {list(row)}")
            terms.append((coef, *powers))
        components.append(terms)
    return PolynomialField(components).model(name)


# ---------------------------------------------------------------------------
# jets from the field: truncated Taylor arithmetic
# ---------------------------------------------------------------------------

#: accuracy a jet from the field claims for each entry when the model has no
#: Jacobian (with one, the 1e-12 of an exact jet).  The arithmetic is exact
#: to rounding, but `frame.locate_hopf_point` then solves a residual whose
#: Re nu comes from a central-difference Jacobian (error about 1e-9), and a
#: jet is no more accurate than its point: claiming 1e-12 would put correct
#: predator-prey coefficients up to 2.5e4 bands from the exact ones.
FIELD_JET_TOLERANCE = 1e-6

#: exponents (a, b, c, m) of the monomials x1^a x2^b x3^c mu^m of weighted
#: degree a + b + c + 2m at most JET_ORDER, the constant first, and their
#: positions: exactly the rows of `JetTable.from_entries`.  A product's
#: weighted degree is the sum of its factors', so a kept coefficient only
#: ever receives products of kept ones
_MONOMIALS = np.array(
    [
        m for m in itertools.product(range(JET_ORDER + 1), repeat=4)
        if sum(m) + m[3] <= JET_ORDER
    ]
)
_INDEX = np.zeros((JET_ORDER + 1,) * 4, dtype=int)
_INDEX[tuple(_MONOMIALS.T)] = np.arange(len(_MONOMIALS))
#: products: coefficient _LEFT times coefficient _RIGHT adds to _TARGET
_SUMS = _MONOMIALS[:, None] + _MONOMIALS
_LEFT, _RIGHT = np.nonzero(_SUMS.sum(axis=2) + _SUMS[..., 3] <= JET_ORDER)
_TARGET = _INDEX[tuple(_SUMS[_LEFT, _RIGHT].T)]
#: the rows of `JetTable.from_entries` among the monomials, and the
#: factorials that turn their Taylor coefficients into derivatives
_JET_SLOTS = _INDEX[tuple(np.array(_JET_ORDERS).T)]
_JET_FACTORIALS = np.vectorize(math.factorial)(_JET_ORDERS).prod(axis=1)
#: the constant 1, and the four variables with their constant terms still 0
_ONE = np.eye(1, len(_MONOMIALS)).ravel()
_SEEDS = np.eye(len(_MONOMIALS))[_INDEX[tuple(np.eye(4, dtype=int))]]


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.bincount(_TARGET, a[_LEFT] * b[_RIGHT], len(_MONOMIALS))


def _quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b by the geometric series: for b = b0 (1 + d), d without a
    constant term, a / b = (a / b0) (1 - d + d^2 - d^3), summed by Horner."""
    if b[0] == 0.0:
        raise ZeroDivisionError("division by a Taylor number with a zero constant term")
    q, d = a / b[0], b / b[0]
    d[0] = 0.0
    out = q
    for _ in range(JET_ORDER):
        out = q - _product(out, d)
    return out


def _lift(value) -> np.ndarray:
    """The coefficients of a `_Taylor`, or of a real constant."""
    if isinstance(value, _Taylor):
        return value.c
    if type(value) is not float and not isinstance(value, numbers.Real):
        raise TypeError(f"{type(value).__name__} is not a real number")
    return _ONE * value


class _Taylor:
    """A polynomial in (x1, x2, x3, mu) cut at weighted degree JET_ORDER, mu
    counting twice, with ``c[n]`` the coefficient of ``_MONOMIALS[n]``.  It
    has ``+ - * /`` with reals on either side and integer powers; anything
    else (``abs``, ``math.exp``, comparisons, numpy functions) raises
    `TypeError`."""

    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, c: np.ndarray):
        self.c = c

    __add__ = __radd__ = lambda self, other: _Taylor(self.c + _lift(other))
    __sub__ = lambda self, other: _Taylor(self.c - _lift(other))
    __rsub__ = lambda self, other: _Taylor(_lift(other) - self.c)
    __truediv__ = lambda self, other: _Taylor(_quotient(self.c, _lift(other)))
    __rtruediv__ = lambda self, other: _Taylor(_quotient(_lift(other), self.c))
    __neg__ = lambda self: _Taylor(-self.c)
    __pos__ = lambda self: self

    def __mul__(self, other):
        if type(other) is float or isinstance(other, numbers.Real):
            return _Taylor(self.c * other)
        return _Taylor(_product(self.c, _lift(other)))

    __rmul__ = __mul__

    def __pow__(self, k):
        """(a0 + d)^k as the sum of C(k, n) a0^(k-n) d^n over n <= JET_ORDER,
        so a large k costs what a small one does."""
        k = operator.index(k)
        if k < 0:
            return 1 / self ** -k
        if k == 1:
            return self
        a0, d = self.c[0], self.c.copy()
        d[0], out, power = 0.0, _lift(a0**k), _ONE
        for n in range(1, min(k, JET_ORDER) + 1):
            power = d if n == 1 else _product(power, d)
            out += float(math.comb(k, n)) * a0 ** (k - n) * power
        return _Taylor(out)


def _field_jet(model: ModelDefinition, X: np.ndarray, mu: float) -> JetTable:
    """The jet of ``model.field`` at (X, mu): the field evaluated on `_Taylor`
    numbers.  Every failure is a typed error naming the model."""
    if model.field is None:
        raise InvalidParams(f"model '{model.name}' has neither an exact jet nor a field")
    seeds = _SEEDS.copy()
    seeds[:, 0] = (*X, mu)
    try:
        rows = [_lift(F) for F in model.field(*map(_Taylor, seeds))]
        if len(rows) != STATE_DIM:
            raise TypeError(f"it has {len(rows)} components")
    except ArithmeticError as exc:  # a pole, or a Python float overflow
        at = f"state={X.tolist()}, mu={mu}"
        raise NonFinite(f"model '{model.name}' field fails at {at}: {exc}") from exc
    except TypeError as exc:
        raise InvalidParams(
            f"model '{model.name}' field must use only + - * / and integer powers: {exc}"
        ) from exc
    entries = (np.array(rows)[:, _JET_SLOTS] * _JET_FACTORIALS).T
    tolerance = FIELD_JET_TOLERANCE if model.jacobian is None else 1e-12
    return JetTable.from_entries(X, mu, entries, tolerance)


# ---------------------------------------------------------------------------
# builtin catalog
# ---------------------------------------------------------------------------


def _require(
    params: Mapping[str, float],
    names: Sequence[str],
    model: str,
    defaults: Mapping[str, float] | None = None,
) -> list[float]:
    """The named parameters as finite floats, missing ones taken from
    ``defaults``; anything else is `InvalidParams`."""
    if not isinstance(params, Mapping):
        raise InvalidParams(f"model '{model}' params must be a JSON object")
    filled = {**(defaults or {}), **params}
    missing = [n for n in names if n not in filled]
    if missing:
        raise InvalidParams(f"model '{model}' missing parameters: {missing}")
    extra = sorted(set(params) - set(names))
    if extra:
        raise InvalidParams(f"model '{model}' got unknown parameters: {extra}")
    try:
        values = [float(filled[n]) for n in names]
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"model '{model}' parameters must be numbers") from exc
    if not all(map(math.isfinite, values)):
        raise InvalidParams(f"model '{model}' parameters must be finite")
    return values


def _predator_prey(params: Mapping[str, float]) -> ModelDefinition:
    """`eco.model`, which holds the field, its bounds and its Hopf-line seed."""
    from . import eco  # eco builds on this module

    names = ("delta1", "delta2", "lam", "alpha1", "alpha2")
    return eco.model(eco.EcoParams(*_require(params, names, "predator_prey")))


def _toy_cylindrical(params: Mapping[str, float]) -> ModelDefinition:
    """The planted reduced dynamics: every coefficient it takes by name is the
    one `compute_coefficients` returns.

    With r^2 = y1^2 + y2^2 the field is
      dy1 = -omega (1 + eps beta1 z) y2 + y1 G,
      dy2 =  omega (1 + eps beta1 z) y1 + y2 G,
      dz  = eps (mu gamma5 + beta5 r^2) + eps^2 (mu gamma7 z + beta6 r^2 z),
    where G = eps beta2 z + eps^2 (mu gamma3 + beta3 r^2 + beta4 z^2): the
    rotation-invariant realisation of the (r, z) system that `truncated`
    integrates in phase time, times 1 + eps beta1 z, to O(eps^2).  With
    eps = 1, `compute_coefficients` reads back omega and every beta, gamma5
    and gamma7 as planted, up to rounding.  The phase averaging adds two
    constants the field does not plant: gamma3 has c0 = gamma3 + pi beta2
    gamma5 / omega and gamma1 has c0 = pi beta1 gamma5.  All parameters
    default to zero except omega = eps = 1.

    Terms keep the row order below, each r^2 = y1^2 + y2^2 expanded into its
    two monomials.
    """
    names = (
        "omega",
        "beta1",
        "beta2",
        "beta3",
        "beta4",
        "beta5",
        "beta6",
        "gamma3",
        "gamma5",
        "gamma7",
        "eps",
    )
    defaults = dict({n: 0.0 for n in names}, eps=1.0, omega=1.0)
    values = _require(params, names, "toy_cylindrical", defaults)
    omega, b1, b2, b3, b4, b5, b6, g3, g5, g7, eps = values
    if omega <= 0:
        raise InvalidParams("toy_cylindrical needs omega > 0")

    e2 = eps * eps
    # (c, p, k, m) for c r^2p z^k mu^m, p being 0 or 1
    G = [(eps * b2, 0, 1, 0), (e2 * g3, 0, 0, 1), (e2 * b3, 1, 0, 0), (e2 * b4, 0, 2, 0)]
    H = [(eps * g5, 0, 0, 1), (eps * b5, 1, 0, 0), (e2 * g7, 0, 1, 1), (e2 * b6, 1, 1, 0)]

    def times(i: int, j: int, rows: list) -> list:
        return [(c, i + 2 * (p - q), j + 2 * q, k, m) for c, p, k, m in rows for q in range(p + 1)]

    rotation = [(omega, 0), (omega * eps * b1, 1)]
    y1 = [(-c, 0, 1, k, 0) for c, k in rotation] + times(1, 0, G)
    y2 = [(c, 1, 0, k, 0) for c, k in rotation] + times(0, 1, G)
    return PolynomialField([y1, y2, times(0, 0, H)]).model("toy_cylindrical")


_BUILTINS: dict[str, Callable[[Mapping[str, float]], ModelDefinition]] = {
    "predator_prey": _predator_prey,
    "toy_cylindrical": _toy_cylindrical,
}


def builtin(name: str, params: Mapping[str, float] | None = None) -> ModelDefinition:
    """Instantiate a builtin model by name."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise UnknownModel(
            f"unknown builtin '{name}'; available: {sorted(_BUILTINS)}"
        ) from None
    return factory(params or {})


def from_config(doc: Mapping[str, object]) -> ModelDefinition:
    """Build a model from a parsed configuration document.

    Two shapes are accepted::

        {"builtin": "predator_prey", "params": {...}}
        {"polynomial": {"y1": [[coef, i, j, k, m], ...], "y2": [...], "z": [...]}}

    Any other top-level keys besides the optional ``name``, ``seed_state``,
    ``mu_grid`` and ``jets`` are rejected.  ``"jets": "finite_difference"``
    drops the hand-derived derivatives: jets then come from the field by
    Taylor arithmetic, and Jacobians from `central_difference`.
    """
    allowed = {"builtin", "params", "polynomial", "name", "seed_state", "mu_grid", "jets"}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise InvalidParams(f"unknown config keys: {unknown}")
    has_builtin = "builtin" in doc
    has_poly = "polynomial" in doc
    if has_builtin == has_poly:
        raise InvalidParams("config needs exactly one of 'builtin' or 'polynomial'")
    if has_builtin:
        model = builtin(str(doc["builtin"]), doc.get("params") or {})  # type: ignore[arg-type]
    else:
        if "params" in doc:
            raise InvalidParams("'params' only applies to builtin models")
        model = polynomial_model(
            doc["polynomial"], name=str(doc.get("name", "polynomial"))  # type: ignore[arg-type]
        )
    jets_mode = doc.get("jets", "exact")
    if jets_mode not in ("exact", "finite_difference"):
        raise InvalidParams("'jets' must be 'exact' or 'finite_difference'")
    if jets_mode == "finite_difference":
        model = dataclasses.replace(model, exact_jet=None, jacobian=None)
    return model
