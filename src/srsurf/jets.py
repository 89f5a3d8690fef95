"""Truncated multivariate Taylor ("jet") arithmetic in three variables.

A Jet carries the Taylor coefficients of a scalar quantity around a base
point, up to a total degree, its order.  The order is also the jet's
derivative budget: a partial derivative is a jet one order lower, a sum or
product of two jets is known only to the lower of their orders, and
differentiating a jet of order 0 is a hard error rather than silent
garbage.

A jet holds a batch of N points, an (N, 3) float array, and has a shape:
its coefficients are (n_coeffs, *shape, N), one value per component and
point.  A point alone is a batch of one, and a scalar is a jet of shape ();
a 3-vector is a jet of shape (3,) and a 3x3 matrix one of shape (3, 3).
Arithmetic broadcasts over the component axes as numpy does, indexing picks
components, and `sum` adds along a component axis in index order.  Each
column and component is its own scalar jet bit for bit, whatever the batch
or stack: products sum their terms in one order, and a series is an array
expression of numpy functions that give a value the same bits at any width.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np

MIN_ORDER = 1
MAX_ORDER = 6

VARIABLES = ("x", "y", "z")


class JetError(Exception):
    """Raised on invalid jet operations (budget, domain, mismatch)."""


class BudgetExhausted(JetError):
    """Derivative budget (the jet's order) would drop below zero."""


@lru_cache(maxsize=None)
def multi_indices(order: int):
    """Graded-lexicographic enumeration of 3-variable multi-indices.

    All (i, j, k) with i + j + k <= order, sorted by total degree first.
    """
    out = []
    for deg in range(order + 1):
        for i in range(deg, -1, -1):
            for j in range(deg - i, -1, -1):
                out.append((i, j, deg - i - j))
    return tuple(out)


@lru_cache(maxsize=None)
def _index_map(order: int):
    return {mi: k for k, mi in enumerate(multi_indices(order))}


@lru_cache(maxsize=None)
def _mul_table(order: int):
    """Triples (ia, ib, iout) with mi[iout] = mi[ia] + mi[ib]."""
    mis = multi_indices(order)
    imap = _index_map(order)
    table = []
    for ia, a in enumerate(mis):
        for ib, b in enumerate(mis):
            s = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            if sum(s) <= order:
                table.append((ia, ib, imap[s]))
    return tuple(np.array(table).T.copy())


@lru_cache(maxsize=32)  # bounded: a batch's index grows with its size
def _mul_out(order: int, width: int):
    """`_mul_table`'s iout for `width` floats per coefficient (components
    times points): the index of each term in the flat result."""
    return (_mul_table(order)[2][:, None] * width + np.arange(width)).ravel()


@lru_cache(maxsize=None)
def _partial_map(order: int):
    """(src, scale), each (n_coeffs(order - 1), 3): d/d(axis) of an
    order-`order` jet sends coeffs[src[k, axis]] * scale[k, axis] to
    coefficient k of an order-(order - 1) jet."""
    mis, imap = multi_indices(order - 1), _index_map(order)
    src = [[imap[i + 1, j, k], imap[i, j + 1, k], imap[i, j, k + 1]] for i, j, k in mis]
    return np.array(src), np.array(mis, dtype=float) + 1.0


def n_coeffs(order: int) -> int:
    return math.comb(order + 3, 3)


def _check_order(order: int):
    if not (MIN_ORDER <= order <= MAX_ORDER):
        raise JetError(f"jet order must be in {MIN_ORDER}..{MAX_ORDER}, got {order}")


def _as_point(point):
    """An (N >= 1, 3) float array, kept if already one; a point of three
    coordinates is a batch of one."""
    p = np.atleast_2d(np.asarray(point, dtype=float))
    if p.ndim != 2 or not len(p) or p.shape[1] != 3:
        raise JetError(f"a batch of points must have shape (N, 3), N >= 1, got {np.shape(point)}")
    return p


def row_of(point, k: int = 0):
    """Row k of a batch as a tuple of floats, the name of that point."""
    return tuple(point[k].tolist())


def fail_where(bad, point, what: str):
    """Raise JetError("<what> at <point>") at the first row of the batch
    `point` where `bad` holds (`row_of`)."""
    if np.count_nonzero(bad):  # cheaper than bad.any() on a few rows
        raise JetError(f"{what} at {row_of(point, np.argmax(bad))}")


def _refuse(bad, v, text: str):
    """Raise JetError(text), its {} the first value of v (in `ravel` order) where `bad` holds."""
    if np.count_nonzero(bad):
        raise JetError(text.format(float(v.flat[np.argmax(bad)])))


@lru_cache(maxsize=32)  # bounded: one entry per exponent and order
def _binomials(r: float, order: int) -> tuple:  # binom(r, k) for k = 0..order
    return tuple(math.prod((r - j) / (j + 1) for j in range(k)) for k in range(order + 1))


def _trig(v, order: int, shift: int):
    """The Taylor terms (s, c, -s, -c)[j % 4] / k!, j = k + shift, of sin (shift 0) or cos
    (shift 1) at v: one gather of (s, c) by j % 2, one division by +-k!, as (-a)/b == a/(-b)."""
    j = np.arange(order + 1) + shift
    divisors = np.array([(-1) ** (i // 2) * math.factorial(k) for k, i in enumerate(j)], float)
    return np.stack((np.sin(v), np.cos(v)))[j % 2] / divisors.reshape(-1, *[1] * v.ndim)


def _series(terms):
    """A univariate jet method f from terms(v, order, ...) = (factor, scale, series) at the
    values v, None for 1: f(v + u) = factor * sum_k series[k] * (scale * u)^k, u nilpotent.
    After a float fault in them, a factor, scale or series[0] not finite raises JetError."""
    overflow = f"Taylor series of {terms.__name__} at {{}} overflows a float"
    def compose(self: "Jet", *args) -> "Jet":
        v, faults = self.value, []
        with np.errstate(all="call", under="ignore", call=lambda *fault: faults.append(fault)):
            factor, scale, series = terms(v, self.order, *args)
        if faults:  # only then look for the values at fault
            finite = [np.isfinite(x) for x in (factor, scale, series[0]) if x is not None]
            _refuse(~reduce(np.logical_and, finite), v, overflow)
        return self.compose_series(series, scale, factor)
    return compose


class Jet:
    """Taylor expansion of a scalar, vector or matrix at a base point,
    truncated at `order`.

    Jets are immutable values; all arithmetic returns new instances.  The
    order is the derivative budget: `partial` costs one order, and the
    graded coefficients of a jet of order m are the leading n_coeffs(m) of
    the same quantity at any higher order.
    """

    __slots__ = ("point", "order", "coeffs")

    def __init__(self, point, order: int, coeffs: np.ndarray):
        """coeffs: (n_coeffs(order), *shape, N), or n_coeffs(order) numbers
        for a scalar at a batch of one."""
        _check_order(order)
        self.point = _as_point(point)
        self.order = order
        c = np.asarray(coeffs, dtype=float)
        c = c[:, None] if c.ndim == 1 else c
        if c.shape[:1] != (n_coeffs(order),) or c.shape[-1] != len(self.point):
            raise JetError("coefficient array has wrong shape for order and point")
        self.coeffs = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value, point, order: int) -> "Jet":
        _check_order(order)
        point = _as_point(point)
        c = np.zeros((n_coeffs(order), len(point)))
        c[0] = value
        return Jet._new(point, order, c)

    @staticmethod
    def variable(axis: int, point, order: int) -> "Jet":
        if axis not in (0, 1, 2):
            raise JetError(f"axis must be 0, 1 or 2, got {axis}")
        jet = Jet.constant(0.0, point, order)
        jet.coeffs[0] = jet.point[:, axis]
        jet.coeffs[axis + 1] = 1.0  # the first-degree indices are x, y, z
        return jet

    # -- basic queries -----------------------------------------------------

    @property
    def shape(self) -> tuple:
        """The component axes: () for a scalar, (3,) for a 3-vector."""
        return self.coeffs.shape[1:-1]

    @property
    def value(self) -> np.ndarray:
        """The values, (*shape, N): one per component and point."""
        return self.coeffs[0]

    def coeff(self, mi) -> np.ndarray:
        """Taylor coefficient for multi-index mi (derivative / factorials), one per point."""
        mi = tuple(mi)
        if sum(mi) > self.order:
            raise BudgetExhausted(
                f"no coefficient {mi} in a jet of order {self.order}")
        return self.coeffs[_index_map(self.order)[mi]]

    def partial_value(self, mi) -> np.ndarray:
        """Mixed partial derivative value (coefficient times factorials), one per point."""
        mi = tuple(mi)
        fact = math.factorial(mi[0]) * math.factorial(mi[1]) * math.factorial(mi[2])
        return self.coeff(mi) * fact

    def __repr__(self):
        return (f"Jet(point={self.point}, order={self.order}, shape={self.shape}, "
                f"value={self.value!r})")

    # -- helpers -----------------------------------------------------------

    @classmethod
    def _new(cls, point, order: int, coeffs: np.ndarray) -> "Jet":
        """Unchecked constructor for results of operations on valid jets: an
        (N, 3) float point, 0 <= order <= MAX_ORDER and (n_coeffs(order),
        *shape, N) float coeffs."""
        jet = object.__new__(cls)
        jet.point, jet.order, jet.coeffs = point, order, coeffs
        return jet

    def _like(self, coeffs) -> "Jet":
        return Jet._new(self.point, self.order, coeffs)

    def _truncated(self, other: "Jet"):
        """(order, a, b): the lower order of two jets at one batch of points
        (one array, or equal ones) and their coefficients, cut to that order,
        with as many component axes, so that they broadcast as numpy's do."""
        p, q = self.point, other.point
        if p is not q and not np.array_equal(p, q):
            raise JetError(f"base point mismatch: {p} vs {q}")
        order, a, b = self.order, self.coeffs, other.coeffs
        if order != other.order:
            order, n = min(order, other.order), min(len(a), len(b))
            a, b = a[:n], b[:n]
        if a.ndim != b.ndim:  # component axes align from the right, before the points
            m = max(a.ndim, b.ndim)
            a, b = (c.reshape(c.shape[:1] + (1,) * (m - c.ndim) + c.shape[1:]) for c in (a, b))
        return order, a, b

    def cut(self, order: int) -> "Jet":
        """The jet at a lower order, 0 included: a view of its leading coefficients."""
        return Jet._new(self.point, order, self.coeffs[:n_coeffs(order)])

    # -- components --------------------------------------------------------

    def __getitem__(self, key) -> "Jet":
        """The components at `key`, a numpy index into the component axes."""
        key = key if isinstance(key, tuple) else (key,)
        if sum(k is not None for k in key) > self.coeffs.ndim - 2:
            raise JetError(f"index {key} has more axes than a jet of shape {self.shape}")
        return self._like(self.coeffs[(slice(None), *key)])

    def __iter__(self):
        """The components along the first axis, `a, b, c = v`; a scalar raises JetError."""
        return (self[k] for k in range(self.coeffs.shape[1]))

    def sum(self, axis: int = 0) -> "Jet":
        """The sum along a component axis, added in index order: ((c0 + c1) + c2)."""
        c, axes = self.coeffs, self.coeffs.ndim - 2
        if not -axes <= axis < axes:
            raise JetError(f"no component axis {axis} in a jet of shape {self.shape}")
        at = (slice(None),) * (axis % axes + 1)
        return self._like(reduce(np.add, [c[at + (k,)] for k in range(c.shape[len(at)])]))

    @staticmethod
    def stack(jets) -> "Jet":
        """Jets of one shape at one batch of points as one jet with a new
        first component axis, at their least order."""
        order, p = min(j.order for j in jets), jets[0].point
        if any(j.point is not p and not np.array_equal(j.point, p) for j in jets):
            raise JetError(f"base point mismatch in a stack at {p}")
        return Jet._new(p, order, np.stack([j.coeffs[:n_coeffs(order)] for j in jets], axis=1))

    @staticmethod
    def _coerce(other, template: "Jet"):
        """A jet as is; a number, or one per point, as a constant at the
        template's point and order, without re-checking them."""
        if isinstance(other, Jet):
            return other
        c = np.zeros(template.coeffs.shape)
        c[0] = other
        return template._like(c)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        order, a, b = self._truncated(Jet._coerce(other, self))
        return Jet._new(self.point, order, a + b)

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self.coeffs)

    def __sub__(self, other):
        order, a, b = self._truncated(Jet._coerce(other, self))
        return Jet._new(self.point, order, a - b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Jet):  # a number, or one per point: `out` keeps the shape
            return self._like(np.multiply(self.coeffs, np.asarray(other, dtype=float),
                                          out=np.empty(self.coeffs.shape)))
        order, a, b = self._truncated(other)
        ia, ib, _ = _mul_table(order)
        # `take` gathers rows faster than indexing does, at every width
        terms = a.take(ia, 0) * b.take(ib, 0)  # broadcast over the component axes
        width = terms.size // len(ia)
        out = np.bincount(_mul_out(order, width), weights=terms.ravel(),
                          minlength=len(a) * width)
        return Jet._new(self.point, order, out.reshape((len(a),) + terms.shape[1:]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self._like(np.divide(self.coeffs, np.asarray(other, dtype=float),
                                        out=np.empty(self.coeffs.shape)))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, exponent):
        """Integral exponents (2, 2.0, Fraction(2)) multiply, so they work
        at any value; other exponents go to `pow`."""
        if not isinstance(exponent, int) and float(exponent).is_integer():
            exponent = int(exponent)
        if isinstance(exponent, int):
            if exponent == 0:
                return Jet._coerce(1.0, self)
            if exponent < 0:
                return self.reciprocal() ** (-exponent)
            if exponent == 1:
                return self
            # repeated squaring, square on the left: x^3 is (x * x) * x
            square = self ** (exponent // 2)
            square = square * square
            return square * self if exponent % 2 else square
        return self.pow(float(exponent))

    # -- univariate compositions ------------------------------------------

    def compose_series(self, series, scale=None, factor=None) -> "Jet":
        """factor * sum_k series[k] * (scale * (self - value))^k by Horner's rule, None for 1;
        w (no constant term) multiplies bracket B_k k more times: B_k is formed to order n - k."""
        w = self.coeffs.copy() if scale is None else self.coeffs * scale
        w[0] = 0.0  # the nilpotent part; safe: w is a fresh array
        bracket = np.zeros(w.shape)  # each B_k in its leading rows, zeros past its order
        coeffs = np.multiply(w[:n_coeffs(1)], series[-1], out=bracket[:n_coeffs(1)])
        coeffs[0] = series[-2] if len(series) > 1 else series[0]  # order 0: w is 0
        for m, c in enumerate(reversed(series[:-2]), 2):  # B_(n-m) at order m
            bracket[:len(coeffs)], n = coeffs, n_coeffs(m)
            coeffs = (Jet._new(self.point, m, bracket[:n]) * Jet._new(self.point, m, w[:n])).coeffs
            coeffs[0] = c
        return self._like(coeffs if factor is None else np.multiply(coeffs, factor, out=coeffs))

    @_series
    def reciprocal(v, order):
        _refuse(v == 0.0, v, "division by a jet with zero value")
        return None, (s := 1.0 / v), [(s, -s)[k % 2] for k in range(order + 1)]

    @_series
    def sqrt(v, order):
        _refuse(v <= 0.0, v, "sqrt of jet with non-positive value {}")
        return np.sqrt(v), 1.0 / v, _binomials(0.5, order)

    @_series
    def exp(v, order):
        return np.exp(v), None, [1.0 / math.factorial(k) for k in range(order + 1)]

    @_series
    def log(v, order):
        _refuse(v <= 0.0, v, "log of jet with non-positive value {}")
        return None, 1.0 / v, [np.log(v), *((-1.0) ** (k + 1) / k for k in range(1, order + 1))]

    @_series
    def sin(v, order):
        return None, None, _trig(v, order, 0)

    @_series
    def cos(v, order):
        return None, None, _trig(v, order, 1)

    @_series
    def pow(v, order, r: float):  # a real power r of positive values
        _refuse(v <= 0.0, v, "real power of jet with non-positive value {}")
        return np.power(v, r), 1.0 / v, _binomials(r, order)

    # -- differentiation ---------------------------------------------------

    def partial(self, axis: int) -> "Jet":
        """Jet of the partial derivative along `axis`, one order lower."""
        if axis not in (0, 1, 2):
            raise JetError(f"axis must be 0, 1 or 2, got {axis}")
        return self.grad()[axis]

    def grad(self) -> "Jet":
        """The partial derivatives along x, y and z as one jet of shape
        (3, *shape), one order lower: grad()[a] is partial(a)."""
        if self.order < 1:
            raise BudgetExhausted("cannot differentiate: jet budget exhausted")
        src, scale = _partial_map(self.order)
        scale = scale.reshape(scale.shape + (1,) * (self.coeffs.ndim - 1))
        return Jet._new(self.point, self.order - 1, self.coeffs.take(src, 0) * scale)
