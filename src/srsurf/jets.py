"""Truncated multivariate Taylor ("jet") arithmetic in three variables.

A Jet carries the Taylor coefficients of a scalar quantity around a base
point, up to a total degree, its order.  The order is also the jet's
derivative budget: a partial derivative is a jet one order lower, a sum or
product of two jets is known only to the lower of their orders, and
differentiating a jet of order 0 is a hard error rather than silent
garbage.

A jet holds a batch of N points, an (N, 3) float array, with coefficients
(n_coeffs, N) and one value per point; a point alone is a batch of one.
Each column is its point's jet bit for bit, whatever the batch: products sum
their terms in one order, and series come from `math` point by point.
"""

from __future__ import annotations

import math
from functools import lru_cache

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


@lru_cache(maxsize=32)  # bounded: a batch's table grows with its size
def _mul_table(order: int, batch: int = 0):
    """Triples (ia, ib, iout) with mi[iout] = mi[ia] + mi[ib]; for a batch
    of N points, iout indexes the flattened (n_coeffs, N) result."""
    if batch:
        ia, ib, io = _mul_table(order)
        return ia, ib, (io[:, None] * batch + np.arange(batch)).ravel()
    mis = multi_indices(order)
    imap = _index_map(order)
    table = []
    for ia, a in enumerate(mis):
        for ib, b in enumerate(mis):
            s = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            if sum(s) <= order:
                table.append((ia, ib, imap[s]))
    return tuple(np.array(table).T.copy())


@lru_cache(maxsize=None)
def _partial_map(order: int, axis: int):
    """(src, scale): d/d(axis) of an order-`order` jet sends
    coeffs[src[k]] * scale[k] to coefficient k of an order-(order - 1) jet;
    scale is a column, one factor per row of coefficients."""
    e = tuple(int(a == axis) for a in range(3))
    up = [tuple(m + d for m, d in zip(mi, e)) for mi in multi_indices(order - 1)]
    return (np.array([_index_map(order)[mi] for mi in up]),
            np.array([[mi[axis]] for mi in up], dtype=float))


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
        raise JetError(f"a batch of points must have shape (N, 3), got {p.shape}")
    return p


def row_of(point, k: int = 0):
    """Row k of a batch as a tuple of floats, the name of that point."""
    return tuple(point[k].tolist())


def fail_where(bad, point, what: str):
    """Raise JetError("<what> at <point>") at the first row of the batch
    `point` where `bad` holds (`row_of`)."""
    if np.count_nonzero(bad):  # cheaper than bad.any() on a few rows
        raise JetError(f"{what} at {row_of(point, np.argmax(bad))}")


def _series(terms):
    """A univariate jet method from its series terms(v, order, ...) at each value;
    a series term that overflows a float raises JetError."""
    def at(v, order, args):
        try:
            return terms(v, order, *args)
        except (OverflowError, ZeroDivisionError):  # 1 / v ** k after v ** k underflows
            raise JetError(f"Taylor series of {terms.__name__} at {v} overflows a float") from None

    def compose(self: "Jet", *args) -> "Jet":
        return self.compose_series(
            np.array([at(x, self.order, args) for x in self.value.tolist()]).T)
    return compose


class Jet:
    """Taylor expansion of a scalar at a base point, truncated at `order`.

    Jets are immutable values; all arithmetic returns new instances.  The
    order is the derivative budget: `partial` costs one order, and the
    graded coefficients of a jet of order m are the leading n_coeffs(m) of
    the same quantity at any higher order.
    """

    __slots__ = ("point", "order", "coeffs")

    def __init__(self, point, order: int, coeffs: np.ndarray):
        """coeffs: (n_coeffs(order), N), or n_coeffs(order) numbers at a batch of one."""
        _check_order(order)
        self.point = _as_point(point)
        self.order = order
        c, n = np.asarray(coeffs, dtype=float), n_coeffs(order)
        if c.shape[:1] != (n,) or c.ndim > 2 or c.size != n * len(self.point):
            raise JetError("coefficient array has wrong shape for order and point")
        self.coeffs = c.reshape(n, -1)

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
    def value(self) -> np.ndarray:
        """The values, one per point."""
        return self.coeffs[0]

    def value_at(self, row: int) -> float:
        """The value at row `row` of the batch, as a float."""
        return float(self.coeffs[0, row])

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
        return (f"Jet(point={self.point}, order={self.order}, "
                f"value={self.value!r})")

    # -- helpers -----------------------------------------------------------

    @classmethod
    def _new(cls, point, order: int, coeffs: np.ndarray) -> "Jet":
        """Unchecked constructor for results of operations on valid jets: an
        (N, 3) float point, 0 <= order <= MAX_ORDER and (n_coeffs(order), N)
        float coeffs."""
        jet = object.__new__(cls)
        jet.point, jet.order, jet.coeffs = point, order, coeffs
        return jet

    def _like(self, coeffs) -> "Jet":
        return Jet._new(self.point, self.order, coeffs)

    def _truncated(self, other: "Jet"):
        """(order, a, b): the lower order of two jets at one batch of points
        (one array, or equal ones) and their coefficients, cut to that order."""
        p, q = self.point, other.point
        if p is not q and not np.array_equal(p, q):
            raise JetError(f"base point mismatch: {p} vs {q}")
        if self.order == other.order:
            return self.order, self.coeffs, other.coeffs
        order = min(self.order, other.order)
        n = n_coeffs(order)
        return order, self.coeffs[:n], other.coeffs[:n]

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
        ia, ib, io = _mul_table(order, a.shape[1])
        # `take` gathers rows faster than indexing does, at every width
        out = np.bincount(io, weights=(a.take(ia, 0) * b.take(ib, 0)).ravel(), minlength=a.size)
        return Jet._new(self.point, order, out.reshape(a.shape))

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

    def compose_series(self, series) -> "Jet":
        """Horner evaluation of sum_k series[k] * (self - value)^k."""
        u = self._like(self.coeffs.copy())
        u.coeffs[0] = 0.0  # nilpotent part; safe: u is a fresh array
        result = Jet._coerce(series[-1], self)
        for d in reversed(series[:-1]):
            result = result * u + d
        return result

    @_series
    def reciprocal(v, order):
        if v == 0.0:
            raise JetError("division by a jet with zero value")
        return [(-1.0) ** k / v ** (k + 1) for k in range(order + 1)]

    @_series
    def sqrt(v, order):
        if v <= 0.0:
            raise JetError(f"sqrt of jet with non-positive value {v}")
        series, c = [], math.sqrt(v)
        coeff = 1.0
        for k in range(order + 1):
            series.append(coeff * c / v ** k)
            coeff *= (0.5 - k) / (k + 1)
        return series

    @_series
    def exp(v, order):
        e = math.exp(v)
        return [e / math.factorial(k) for k in range(order + 1)]

    @_series
    def log(v, order):
        if v <= 0.0:
            raise JetError(f"log of jet with non-positive value {v}")
        series = [math.log(v)]
        for k in range(1, order + 1):
            series.append((-1.0) ** (k + 1) / (k * v ** k))
        return series

    @_series
    def sin(v, order):
        cycle = [math.sin(v), math.cos(v), -math.sin(v), -math.cos(v)]
        return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]

    @_series
    def cos(v, order):
        cycle = [math.cos(v), -math.sin(v), -math.cos(v), math.sin(v)]
        return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]

    @_series
    def pow(v, order, r: float):
        """Real power r; requires a positive value."""
        if v <= 0.0:
            raise JetError(f"real power of jet with non-positive value {v}")
        series, coeff = [], 1.0
        for k in range(order + 1):
            series.append(coeff * v ** (r - k))
            coeff *= (r - k) / (k + 1)
        return series

    # -- differentiation ---------------------------------------------------

    def partial(self, axis: int) -> "Jet":
        """Jet of the partial derivative along `axis`, one order lower."""
        if axis not in (0, 1, 2):
            raise JetError(f"axis must be 0, 1 or 2, got {axis}")
        if self.order < 1:
            raise BudgetExhausted("cannot differentiate: jet budget exhausted")
        src, scale = _partial_map(self.order, axis)
        return Jet._new(self.point, self.order - 1, self.coeffs.take(src, 0) * scale)

