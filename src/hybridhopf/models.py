"""Vector fields on R^3 with derivative jets.

A model is a field F(X; mu) in plain arithmetic with its linearisation
(F, DF), both kinds (`eco.model`, `PolynomialField`) built by `field_model`,
and a way to obtain partial derivatives at a point: exact closed forms
(polynomial models), or truncated Taylor arithmetic on the field
(predator-prey): `_trace` runs the field once on tracer numbers that record
its operations, and `_program` compiles that tape, once per tape, into
straight-line Python on floats, which `_interpret` replaces for a tape's
first replay and wherever a value is not finite.
The builtin catalogue holds the planted polynomial field ``toy_cylindrical``;
its ``predator_prey`` entry checks the config's parameters and forwards to
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
import re
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
    entries : the (72,) block `from_entries` gathered the tensors from, or
        None for a table built from its tensors.

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
    entries: np.ndarray | None = dataclasses.field(default=None, repr=False, compare=False)

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
            entries=flat,
        )


@dataclasses.dataclass(frozen=True)
class ModelDefinition:
    """A named vector field with optional exact derivatives; `field_model`
    builds both model kinds.

    ``rhs(X, mu)`` returns dX/dt, a (3,) array, for a state X of shape (3,)
    and a float mu.  ``exact_jet`` (when present) returns a `JetTable` whose
    entries are closed-form.  ``jacobian`` (when present) returns dF/dX as a
    (3, 3) float ndarray; point location, the line check and shooting read
    DF only through `linearization_fn`.  ``field(x1, x2, x3, mu)``
    (when present) returns the three components written in plain arithmetic
    (``+ - * /`` and integer powers); `jet` traces it once and replays its
    Taylor arithmetic when there is no ``exact_jet``.
    ``linearization(x1, x2, x3, mu)`` (when
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
    `InvalidParams`, a non-finite entry `NonFinite` naming the model; the
    entries are checked once, and numpy warnings are silenced only around
    code that runs numpy."""
    X, mu = np.asarray(point, dtype=float), float(mu)
    if X.shape != (STATE_DIM,):
        raise InvalidParams(f"state must have length {STATE_DIM}, got shape {X.shape}")
    if model.exact_jet:
        with np.errstate(all="ignore"):  # a non-finite entry is reported below
            table = model.exact_jet(X, mu)
    else:
        table = _field_jet(model, X, mu)
    entries = table.entries
    if entries is None:  # a table built from its tensors
        entries = np.concatenate((*table.state_derivs, *table.mu_derivs), axis=None)
    if not np.isfinite(entries).all():
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


def _on_floats(fn: Callable, x1, x2, x3, mu):
    """``fn(x1, x2, x3, mu)`` on Python floats, the bits of numpy scalars at a
    fraction of the cost (``**`` is libm ``pow`` on both).  Where Python
    raises instead of giving inf or nan (`ZeroDivisionError`, `OverflowError`)
    ``fn`` runs again on numpy scalars, and it runs on them from the start
    when an argument is nan: of two NaNs, CPython's ``float_mul`` and the
    inline code it specialises a function into after about eight calls pass
    on different operands, where numpy's scalar operations have one path.
    They run without numpy's warnings: the callers judge inf and nan."""
    if x1 == x1 and x2 == x2 and x3 == x3 and mu == mu:
        try:
            return fn(x1, x2, x3, mu)
        except (ZeroDivisionError, OverflowError):
            pass
    with np.errstate(all="ignore"):
        return fn(*map(np.float64, (x1, x2, x3, mu)))


def field_model(
    name: str,
    field: Callable[..., Sequence],
    linearization: Callable[..., tuple[list, list]],
    exact_jet: Callable[[np.ndarray, float], JetTable] | None = None,
    metadata: Mapping[str, object] | None = None,
) -> ModelDefinition:
    """The model of ``field`` and its ``linearization`` (one that runs through
    `_on_floats`): ``rhs`` is ``field`` run through `_on_floats`,
    ``jacobian`` the DF of ``linearization``, both as arrays."""

    def rhs(X: np.ndarray, mu: float) -> np.ndarray:
        return np.array(_on_floats(field, *X.tolist(), mu))

    def jacobian(X: np.ndarray, mu: float) -> np.ndarray:
        return np.array(linearization(*X.tolist(), mu)[1])

    return ModelDefinition(name, rhs, exact_jet, jacobian, metadata or {}, field, linearization)


# ---------------------------------------------------------------------------
# polynomial fields (exact jets by term-wise differentiation)
# ---------------------------------------------------------------------------


#: terms per statement of a generated sum: Python's compiler recurses once
#: per ``+`` of an expression and gives up between 1000 and 3000 of them
_TERMS_PER_SUM = 256


def _kernel_source(structure: tuple) -> str:
    """Source of ``make(c0, c1, ...)``: it binds the coefficient of each pair
    of a `PolynomialField` layout of F and DF and returns ``kernel(x0, x1,
    x2, x3) -> (F, DF)`` and ``field(x0, x1, x2, x3) -> F``, which reads
    only the F pairs.  Each takes each power it reads once, as ``x ** k``,
    forms each pair as ``c * (w * (p_a * p_b ...))`` with its factors in
    axis order, and sums each entry as ``0.0 + term + ...`` in pair order:
    the operations of the numpy evaluation, less its factors of 1.0 (powers
    0 and weights 1), which are exact.  Both are plain arithmetic, so
    ``field`` runs on floats, `_Taylor` tracers and sympy symbols alike."""
    powers, index, weight, slots = structure
    sums: list[list[str]] = [["0.0"] for _ in range(STATE_DIM * (STATE_DIM + 1))]
    for n, (row, w, slot) in enumerate(zip(index, weight, slots)):
        term = " * ".join(f"p{m}" for m in row if powers[m][1])
        if w != 1.0:
            term = f"{w!r} * ({term})" if term else repr(w)
        sums[slot].append(f"c{n} * ({term})" if term else f"c{n}")

    def function(name: str, entries: Sequence[int], result: str) -> list[str]:
        used = sorted({m for row, s in zip(index, slots) if s in entries for m in row})
        body = [f"p{n} = x{powers[n][0]} ** {powers[n][1]}" for n in used if powers[n][1]]
        for e in entries:
            for start in range(0, len(sums[e]), _TERMS_PER_SUM):
                head = [f"e{e}"] if start else []
                body.append(f"e{e} = {' + '.join(head + sums[e][start:start + _TERMS_PER_SUM])}")
        body.append(f"return {result}")
        return [f"    def {name}(x0, x1, x2, x3):", *(f"        {line}" for line in body)]

    F = "[e0, e4, e8]"
    return "\n".join([
        f"def make({', '.join(f'c{n}' for n in range(len(slots)))}):",
        *function("kernel", range(len(sums)), f"{F}, [[e1, e2, e3], [e5, e6, e7], [e9, e10, e11]]"),
        *function("field", (0, 4, 8), F),
        "    return kernel, field\n",
    ])


@functools.lru_cache(maxsize=64)
def _kernel(structure: tuple) -> Callable:
    """The ``make`` of `_kernel_source`, compiled once per structure."""
    namespace: dict = {}
    exec(compile(_kernel_source(structure), "<polynomial kernel>", "exec"), namespace)
    return namespace["make"]


@functools.lru_cache(maxsize=64)
def _layout_tables(exponents: bytes, component: bytes, nonzero: bytes, orders: tuple) -> tuple:
    """`PolynomialField._layout` once per structure, each kept pair's term in
    place of its coefficient."""
    exponents, order = np.frombuffer(exponents, dtype=int).reshape(-1, 4), np.array(orders)
    kept = (exponents[None] >= order[:, None]).all(axis=2) & np.frombuffer(nonzero, dtype=bool)
    q, t = np.nonzero(kept)
    power, d = exponents[t], order[q]
    ks, inverse = np.unique(power - d, return_inverse=True)
    index = np.arange(4) * len(ks) + inverse.reshape(power.shape)
    powers = [(axis, k) for axis in range(4) for k in ks.tolist()]
    weight = np.prod([np.where(d > s, power - s, 1.0) for s in range(JET_ORDER)], axis=(0, 2))
    slots = np.frombuffer(component, dtype=int)[t] * len(order) + q
    return powers, index, t, weight, slots, STATE_DIM * len(order)


class PolynomialField:
    """Three polynomial components in (x1, x2, x3, mu) with exact jets.

    Terms are rows ``(coef, i, j, k, m)`` for ``coef * x1^i x2^j x3^k mu^m``,
    held as ``coefs`` (n,), ``exponents`` (n, 4) and ``component`` (n,).  Two
    layouts, F with the three Jacobian columns (built at construction) and
    the 24 jet entries (on first use), evaluate each (derivative order, term)
    pair with a nonzero coefficient as ``coef * (w * x1^e1 x2^e2 x3^e3 mu^em)``
    (falling-factorial weight w, reduced exponents e), with powers by libm
    ``pow`` on Python floats (numpy's array power depends on the CPU), and
    sum each entry in term order: barring underflow, an entry of n terms is
    within about (n + 16) 2^-53 times the sum of their magnitudes.  The
    first layout runs as the straight-line code of `_kernel`, bound to this
    field's coefficients: ``linearization`` gives F and DF through
    `_on_floats`, and ``field`` is its F pairs alone, in plain arithmetic,
    so `jet` can trace it.  Both layouts are built once per structure
    (`_layout_tables`).  The jet layout runs as one
    numpy gather, product and ``np.bincount``.  An entry is non-finite when
    a power it needs overflows or a coordinate it reads is not finite; a
    pair whose powers multiply to 0 adds exactly 0.
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
        structure = (
            tuple(powers), tuple(map(tuple, index.tolist())), tuple(weight.tolist()), tuple(slots.tolist())
        )
        # a nan coefficient stays a numpy scalar, so every operation on it is numpy's
        coefs = coefs if np.isnan(coefs).any() else coefs.tolist()
        kernel, self.field = _kernel(structure)(*coefs)
        #: (x1, x2, x3, mu) -> (F, DF), three floats and three rows of three
        self.linearization = functools.partial(_on_floats, kernel)

    @functools.cached_property
    def _jet(self):
        return self._layout(_JET_ORDERS)

    def _layout(self, orders: list[tuple[int, int, int, int]]):
        """For these derivative orders: the power table's (axis, k) pairs, each
        kept pair's table positions, coefficient, weight and slot, the slot count."""
        key = (self.exponents.tobytes(), self.component.tobytes(), (self.coefs != 0.0).tobytes())
        powers, index, t, weight, slots, size = _layout_tables(*key, tuple(orders))
        return powers, index, self.coefs[t], weight, slots, size

    def exact_jet(self, point: np.ndarray, mu: float) -> JetTable:
        powers, index, coefs, weight, slots, size = self._jet
        x = np.asarray(point, dtype=float).tolist()
        table = _on_floats(lambda *c: [c[axis] ** k for axis, k in powers], *x, float(mu))
        values = coefs * (weight * np.array(table)[index].prod(axis=1))
        entries = np.bincount(slots, values, size).reshape(STATE_DIM, -1).T
        return JetTable.from_entries(point, mu, entries, tolerance=1e-12)

    def model(self, name: str) -> ModelDefinition:
        """The field as a model with its exact jet and linearisation."""
        return field_model(name, self.field, self.linearization, self.exact_jet)


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
_SIZE = len(_MONOMIALS)
#: each product's (left, right, target), in `np.bincount`'s order
_TRIPLES = list(zip(_LEFT.tolist(), _RIGHT.tolist(), _TARGET.tolist()))
#: the rows of `JetTable.from_entries` among the monomials, with the
#: factorials that turn their Taylor coefficients into derivatives
_OUTPUTS = list(zip(_INDEX[tuple(np.array(_JET_ORDERS).T)].tolist(),
                    np.vectorize(math.factorial)(_JET_ORDERS).prod(axis=1).tolist()))
#: the coefficient of x1, x2, x3 and mu in the four variables
_SEED_SLOTS = _INDEX[tuple(np.eye(4, dtype=int))].tolist()
#: operands on the tape: values, a power's exponent; "+c", "c-" take a constant
_ARITY = dict.fromkeys(["+", "-", "*", "/", "**"], 2) | dict.fromkeys(["+c", "-c", "*c", "/c", "c-", "c/"], 1)


def _real(value) -> float:
    if type(value) is not float and not isinstance(value, numbers.Real):
        raise TypeError(f"{type(value).__name__} is not a real number")
    return float(value)


def _push(trace: tuple, *item) -> _Taylor:
    value = _Taylor()
    value.trace, value.n = trace, len(trace[0])
    trace[0].extend(item)
    return value


def _record(op: str, reflected: bool = False) -> Callable:
    """The `_Taylor` method that records ``self op other`` (``other op self``
    if reflected), with a constant ``other`` as ``op + "c"`` (``"c" + op``)."""

    def method(self, other):
        if type(other) is _Taylor:
            return _push(self.trace, op, self.n, other.n)
        self.trace[1].append(other if type(other) is float else _real(other))
        return _push(self.trace, "c" + op if reflected else op + "c", self.n)

    return method


class _Taylor:
    """A value of ``field`` while `_trace` runs it: position ``n`` on the tape
    ``trace[0]`` of Taylor operations, the field's constants in ``trace[1]``.
    It has ``+ - * /`` with reals on either side, unary ``+ -`` (``-t`` is
    ``t * -1.0``, the same bits) and integer powers; anything else (``abs``,
    ``math.exp``, comparisons, numpy functions) raises `TypeError`."""

    __slots__ = ("trace", "n")
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators
    __add__ = __radd__ = _record("+")
    __sub__, __rsub__ = _record("-"), _record("-", reflected=True)
    __mul__ = __rmul__ = _record("*")
    __truediv__, __rtruediv__ = _record("/"), _record("/", reflected=True)
    __neg__ = lambda self: self * -1.0
    __pos__ = lambda self: self

    def __pow__(self, k):
        k = operator.index(k)
        if k < 0:
            return 1 / self ** -k
        return self if k == 1 else _push(self.trace, "**", self.n, k)


def _trace(field: Callable) -> tuple[tuple, list, Exception | None]:
    """``field``'s tape, its constants and the exception that ended it early:
    the tape ends in ``"out"`` and the three outputs (None for a constant),
    or in ``"raise"``, which a replay raises after the poles before it."""
    ops, constants, failure = ["x"] * 4, [], None
    seeds = [_push((ops, constants)) for _ in range(4)]
    for n, seed in enumerate(seeds):  # the four "x" entries
        seed.n = n
    try:
        out = [F.n if type(F) is _Taylor else constants.append(_real(F)) for F in field(*seeds)]
        if len(out) != STATE_DIM:
            raise TypeError(f"it has {len(out)} components")
        ops += ["out", *out]
    except Exception as exc:
        ops.append("raise")
        failure = exc
    return tuple(ops), constants, failure


def _walk(tape: tuple, x: Sequence, constants: Sequence, pole: Callable, guard: Callable):
    """The tape on lists of the 24 Taylor coefficients, floats or `_Var`s:
    the three output rows, or None where it ends in "raise".  A product
    sums ``a[l] * b[r]`` over `_TRIPLES` from 0.0, as ``np.bincount``; a / b
    is ``a / b0`` times ``1 - d + d^2 - d^3``, ``d = b / b0 - 1``, summed by
    Horner; (a0 + d)^k is the sum of C(k, n) a0^(k-n) d^n over n <= 3, so a
    large k costs what a small one does.  ``pole`` gets each b0, ``guard``
    each binomial weight and each Horner iterate that only d0 = 0 multiplies."""
    constants, values, position = iter(constants), {}, 0

    def lift(c):
        return [c] + [0.0 * c] * (_SIZE - 1)

    def product(a, b):
        out = [0.0] * _SIZE
        for l, r, t in _TRIPLES:
            out[t] = out[t] + a[l] * b[r]
        return out

    def quotient(a, b):
        b0 = b[0]
        pole(b0)
        q, d = [u / b0 for u in a], [0.0] + [u / b0 for u in b[1:]]
        out = q
        for n in range(JET_ORDER):
            guard(out if n else [])
            out = [u - v for u, v in zip(q, product(out, d))]
        return out

    def power(a, k):
        a0, d = a[0], [0.0] + a[1:]
        v = a0**k
        out, p = [v] + [0.0 * v] * (_SIZE - 1), d
        for n in range(1, min(k, JET_ORDER) + 1):
            p = d if n == 1 else product(p, d)
            w = float(math.comb(k, n)) * a0 ** (k - n) if k > n else float(math.comb(k, n))
            guard([w])
            out = [u + w * v for u, v in zip(out, p)]
        return out

    while tape[position] not in ("out", "raise"):
        op = tape[position]
        args = tape[position + 1:position + 1 + _ARITY.get(op, 0)]
        if op == "x":
            v = [x[position]] + [float(m == _SEED_SLOTS[position]) for m in range(1, _SIZE)]
        elif op == "**":
            v = power(values[args[0]], args[1])
        elif op == "*c":
            c = next(constants)
            v = [u * c for u in values[args[0]]]
        else:
            a = values[args[0]]
            b = values[args[1]] if len(args) == 2 else lift(next(constants))
            a, b = (b, a) if op[0] == "c" else (a, b)
            kind = op.strip("c")
            v = (product(a, b) if kind == "*" else quotient(a, b) if kind == "/"
                 else [u + w for u, w in zip(a, b)] if kind == "+" else [u - w for u, w in zip(a, b)])
        values[position] = v
        position += 1 + len(args)
    if tape[position] == "out":
        return [values[r] if r is not None else lift(next(constants)) for r in tape[position + 1:]]


def _pole(b0) -> None:
    if b0 == 0.0:
        raise ZeroDivisionError("division by a Taylor number with a zero constant term")


def _interpret(signature: tuple, arguments: tuple, *x) -> list:
    """The 72 jet entries of a tape at x, every coefficient kept."""
    rows = _walk(signature, x, arguments[:-1], _pole, lambda values: None)
    if rows is None:
        raise arguments[-1].with_traceback(None)
    return [row[slot] * f for slot, f in _OUTPUTS for row in rows]


class _Var:
    """A float of the program that `_Program` writes: its name, whether it
    is ±0 whenever all values are finite (``zero``), and whether it is never
    -0 (``plus``)."""

    __slots__ = ("program", "name", "zero", "plus")

    def __init__(self, program: _Program, name: str, zero: bool = False, plus: bool = False):
        self.program, self.name, self.zero, self.plus = program, name, zero, plus

    __add__, __radd__ = lambda a, b: _apply(a, "+", b), lambda a, b: _apply(b, "+", a)
    __sub__, __rsub__ = lambda a, b: _apply(a, "-", b), lambda a, b: _apply(b, "-", a)
    __mul__, __rmul__ = lambda a, b: _apply(a, "*", b), lambda a, b: _apply(b, "*", a)
    __truediv__, __rtruediv__ = lambda a, b: _apply(a, "/", b), lambda a, b: _apply(b, "/", a)
    __pow__ = lambda a, k: a if k == 1 else a.program.emit(a, "**", k)


def _apply(a, op: str, b):
    """``a op b``, one of them a `_Var`: written into its program unless it
    is an operand whenever all values are finite.  A zero term leaves a
    value that is never -0 as it is."""
    va, vb = type(a) is _Var, type(b) is _Var
    za, zb = a.zero if va else a == 0.0, b.zero if vb else b == 0.0
    # a literal is never -0 unless it is -0.0
    pa = a.plus if va else not (za and math.copysign(1.0, a) < 0.0)
    pb = b.plus if vb else not (zb and math.copysign(1.0, b) < 0.0)
    zero, plus = (za or zb) if op == "*" else za if op == "/" else za and zb, False
    if op == "*" and 1.0 in (a, b):
        return b if a == 1.0 else a
    if op == "*" and za and not vb and b > 0.0 or op == "/" and b == 1.0:  # a zero times a factorial
        return a
    if op in "+-" and za and zb:  # +0 + z, z + +0, +0 - z, z - -0 are +0; z + -0, z - +0, -0 + z are z
        if not va and pa or not vb and pb != (op == "-"):
            return 0.0
        if not vb or not va and op == "+":
            return b if vb else a
    elif op in "+-" and zb and (pa or not vb and pb == (op == "-")):
        return a
    elif op == "+" and za and (pb or not va and not pa):
        return b
    if op in "+-":
        plus = pa or op == "+" and pb
    return (a if va else b).program.emit(a, op, b, zero, plus)


def _text(v) -> str:
    return v.name if type(v) is _Var else repr(float(v))


class _Program:
    """The straight-line Python that `_walk` on `_Var`s writes: each
    expression assigned once, the divisors it tests, and the values whose
    finiteness it checks at the end."""

    def __init__(self):
        self.lines, self.names, self.guards = [], {}, []

    def emit(self, a, op: str, b, zero: bool = False, plus: bool = False) -> _Var:
        text = f"{_text(a)} {op} {b if op == '**' else _text(b)}"
        if text not in self.names:
            self.names[text] = _Var(self, f"t{len(self.names)}", zero, plus)
            self.lines.append((self.names[text].name, text))
        return self.names[text]

    def pole(self, b0: _Var) -> None:
        """A pole returns None: `_interpret` raises it, or an earlier nan."""
        self.lines.append((None, f"if {b0.name} == 0.0: return None"))
        self.guards.append(b0)


def _program_source(signature: tuple) -> str:
    """Source of ``make(k0, k1, ..., failure)``: it binds a tape's constants
    and returns ``run(x0, x1, x2, x3)``, `_walk` on `_Var`s less every
    coefficient that is ±0 whenever all values are finite, since a ±0 term
    changes no sum that starts at +0.0.  ``run`` gives `_interpret`'s 72
    jet entries, or None where one of them or a guarded value is not
    finite, as a skipped ``0 * inf`` would have been nan."""
    program = _Program()
    taken = sum(type(op) is str and "c" in op for op in signature) + signature.count(None)
    constants = [_Var(program, f"k{n}") for n in range(taken)]
    rows = _walk(signature, [_Var(program, f"x{n}") for n in range(4)], constants, program.pole, program.guards.extend)
    tail = ["raise failure.with_traceback(None)"]
    if rows is not None:
        out = [_text(row[slot] * f) for slot, f in _OUTPUTS for row in rows]
        guards = [_text(g) for g in program.guards if not (g.zero if type(g) is _Var else g == 0.0)]
        tail = [f"out = [{', '.join(out)}]", f"total = {' + '.join(['sum(out)', *guards])}",
                "return out if total - total == 0.0 else None"]
    live, body = set(re.findall(r"\bt\d+", " ".join(tail))), []
    for name, text in reversed(program.lines):  # what an output or a check reads
        if name is None or name in live:
            body.append(f"{name} = {text}" if name else text)
            live.update(re.findall(r"\bt\d+", text))
    return "\n".join([
        f"def make({''.join(f'k{n}, ' for n in range(taken))}failure):",
        "    def run(x0, x1, x2, x3):",
        *(f"        {line}" for line in [*reversed(body), *tail]),
        "    return run\n",
    ])


@functools.lru_cache(maxsize=64)
def _program(signature: tuple) -> Callable:
    """The ``make`` of `_program_source`, compiled once per tape."""
    namespace = {"inf": math.inf, "nan": math.nan}  # literals that overflowed
    exec(compile(_program_source(signature), "<field jet>", "exec"), namespace)
    return namespace["make"]


@functools.lru_cache(maxsize=256)
def _replays(signature: tuple) -> Iterator[int]:
    """Counts a tape's replays from 0; it compiles at the second, as compiling
    costs about thirty `_interpret` replays."""
    return itertools.count()


@functools.lru_cache(maxsize=64)
def _traced(field: Callable) -> list:
    """``[tape, arguments of make, bound program or None]``: once per field."""
    signature, constants, failure = _trace(field)
    return [signature, (*constants, failure), None]


def _field_jet(model: ModelDefinition, X: np.ndarray, mu: float) -> JetTable:
    """The jet of ``model.field`` at (X, mu) by truncated Taylor arithmetic on
    floats: its tape compiled once it has been replayed before, else (and
    where the program returns None) interpreted.  Every failure is a typed
    error naming the model."""
    if model.field is None:
        raise InvalidParams(f"model '{model.name}' has neither an exact jet nor a field")
    traced = _traced(model.field)
    signature, arguments, run = traced
    x = (*X.tolist(), mu)
    try:
        if run is None and next(_replays(signature)):
            run = traced[2] = _program(signature)(*arguments)
        entries = _on_floats(run, *x) if run else None
        if entries is None:
            entries = _on_floats(functools.partial(_interpret, signature, arguments), *x)
    except ArithmeticError as exc:  # a pole, or a Python float overflow
        at = f"state={X.tolist()}, mu={mu}"
        raise NonFinite(f"model '{model.name}' field fails at {at}: {exc}") from exc
    except TypeError as exc:
        raise InvalidParams(
            f"model '{model.name}' field must use only + - * / and integer powers: {exc}"
        ) from exc
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
