"""Truncated multivariate Taylor ("jet") arithmetic in three variables.

A Jet carries the Taylor coefficients of a scalar quantity around a base
point, up to a configurable total degree, together with a derivative
budget (`valid_order`): every partial-derivative extraction consumes one
level, and exhausting the budget is a hard error rather than silent
garbage.
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
    """Derivative budget (valid_order) would drop below zero."""


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
    ia_arr = np.array([t[0] for t in table])
    ib_arr = np.array([t[1] for t in table])
    io_arr = np.array([t[2] for t in table])
    return ia_arr, ib_arr, io_arr


@lru_cache(maxsize=None)
def _degrees(order: int):
    return np.array([sum(mi) for mi in multi_indices(order)])


@lru_cache(maxsize=None)
def _partial_map(order: int, axis: int):
    """(src, scale): d/d(axis) sends coeffs[src[k]] * scale[k] to k, for the
    leading n_coeffs(order - 1) coefficients (the lower degrees, graded)."""
    e = tuple(int(a == axis) for a in range(3))
    up = [tuple(m + d for m, d in zip(mi, e)) for mi in multi_indices(order - 1)]
    return (np.array([_index_map(order)[mi] for mi in up]),
            np.array([mi[axis] for mi in up], dtype=float))


def n_coeffs(order: int) -> int:
    return math.comb(order + 3, 3)


def _check_order(order: int):
    if not (MIN_ORDER <= order <= MAX_ORDER):
        raise JetError(f"jet order must be in {MIN_ORDER}..{MAX_ORDER}, got {order}")


class Jet:
    """Taylor expansion of a scalar at a base point, truncated at `order`.

    Jets are immutable values; all arithmetic returns new instances.
    `valid_order` tracks how many derivative levels remain trustworthy.
    """

    __slots__ = ("point", "order", "coeffs", "valid_order")

    def __init__(self, point, order: int, coeffs: np.ndarray, valid_order: int):
        _check_order(order)
        if valid_order < 0:
            raise BudgetExhausted("valid_order must be >= 0")
        self.point = tuple(float(c) for c in point)
        self.order = order
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.shape != (n_coeffs(order),):
            raise JetError("coefficient array has wrong length for order")
        self.valid_order = min(valid_order, order)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value: float, point, order: int) -> "Jet":
        _check_order(order)
        c = np.zeros(n_coeffs(order))
        c[0] = value
        return Jet(point, order, c, order)

    @staticmethod
    def variable(axis: int, point, order: int) -> "Jet":
        _check_order(order)
        if axis not in (0, 1, 2):
            raise JetError(f"axis must be 0, 1 or 2, got {axis}")
        c = np.zeros(n_coeffs(order))
        c[0] = point[axis]
        mi = [0, 0, 0]
        mi[axis] = 1
        c[_index_map(order)[tuple(mi)]] = 1.0
        return Jet(point, order, c, order)

    # -- basic queries -----------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def coeff(self, mi) -> float:
        """Taylor coefficient for multi-index mi (derivative / factorials)."""
        return float(self.coeffs[_index_map(self.order)[tuple(mi)]])

    def partial_value(self, mi) -> float:
        """Mixed partial derivative value (coefficient times factorials)."""
        mi = tuple(mi)
        fact = math.factorial(mi[0]) * math.factorial(mi[1]) * math.factorial(mi[2])
        return self.coeff(mi) * fact

    def __repr__(self):
        return (f"Jet(point={self.point}, order={self.order}, "
                f"valid={self.valid_order}, value={self.value!r})")

    # -- helpers -----------------------------------------------------------

    @classmethod
    def _new(cls, point, order: int, coeffs: np.ndarray, valid_order: int) -> "Jet":
        """Unchecked constructor for results of operations on valid jets: a
        float-tuple point, float coeffs and 0 <= valid_order <= order."""
        jet = object.__new__(cls)
        jet.point, jet.order, jet.coeffs = point, order, coeffs
        jet.valid_order = valid_order
        return jet

    def _like(self, coeffs, valid_order=None) -> "Jet":
        if valid_order is None:
            valid_order = self.valid_order
        return Jet._new(self.point, self.order, coeffs, valid_order)

    def _check_compatible(self, other: "Jet"):
        if self.order != other.order:
            raise JetError("jet order mismatch")
        if self.point != other.point:
            raise JetError(f"base point mismatch: {self.point} vs {other.point}")

    @staticmethod
    def _coerce(other, template: "Jet"):
        """A jet as is; a number as `Jet.constant` at the template's point
        and order would build it, without re-checking them."""
        if isinstance(other, Jet):
            return other
        c = np.zeros(len(template.coeffs))
        c[0] = float(other)
        return Jet._new(template.point, template.order, c, template.order)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = Jet._coerce(other, self)
        self._check_compatible(other)
        return self._like(self.coeffs + other.coeffs,
                          min(self.valid_order, other.valid_order))

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self.coeffs)

    def __sub__(self, other):
        other = Jet._coerce(other, self)
        self._check_compatible(other)
        return self._like(self.coeffs - other.coeffs,
                          min(self.valid_order, other.valid_order))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._like(self.coeffs * float(other))
        self._check_compatible(other)
        ia, ib, io = _mul_table(self.order)
        out = np.bincount(io, weights=self.coeffs[ia] * other.coeffs[ib],
                          minlength=len(self.coeffs))
        return self._like(out, min(self.valid_order, other.valid_order))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self._like(self.coeffs / float(other))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * float(other)

    def __pow__(self, exponent):
        """Integral exponents (2, 2.0, Fraction(2)) multiply, so they work
        at any value; other exponents go to `pow`."""
        if not isinstance(exponent, int) and float(exponent).is_integer():
            exponent = int(exponent)
        if isinstance(exponent, int):
            if exponent == 0:
                return Jet.constant(1.0, self.point, self.order)
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
        return self._like(result.coeffs)

    def reciprocal(self) -> "Jet":
        v = self.value
        if v == 0.0:
            raise JetError("division by a jet with zero value")
        series = [(-1.0) ** k / v ** (k + 1) for k in range(self.order + 1)]
        return self.compose_series(series)

    def sqrt(self) -> "Jet":
        v = self.value
        if v <= 0.0:
            raise JetError(f"sqrt of jet with non-positive value {v}")
        series, c = [], math.sqrt(v)
        coeff = 1.0
        for k in range(self.order + 1):
            series.append(coeff * c / v ** k)
            coeff *= (0.5 - k) / (k + 1)
        return self.compose_series(series)

    def exp(self) -> "Jet":
        e = math.exp(self.value)
        series = [e / math.factorial(k) for k in range(self.order + 1)]
        return self.compose_series(series)

    def log(self) -> "Jet":
        v = self.value
        if v <= 0.0:
            raise JetError(f"log of jet with non-positive value {v}")
        series = [math.log(v)]
        for k in range(1, self.order + 1):
            series.append((-1.0) ** (k + 1) / (k * v ** k))
        return self.compose_series(series)

    def sin(self) -> "Jet":
        v = self.value
        cycle = [math.sin(v), math.cos(v), -math.sin(v), -math.cos(v)]
        series = [cycle[k % 4] / math.factorial(k) for k in range(self.order + 1)]
        return self.compose_series(series)

    def cos(self) -> "Jet":
        v = self.value
        cycle = [math.cos(v), -math.sin(v), -math.cos(v), math.sin(v)]
        series = [cycle[k % 4] / math.factorial(k) for k in range(self.order + 1)]
        return self.compose_series(series)

    def pow(self, r: float) -> "Jet":
        """Real power; requires a positive value."""
        v = self.value
        if v <= 0.0:
            raise JetError(f"real power of jet with non-positive value {v}")
        series, coeff = [], 1.0
        for k in range(self.order + 1):
            series.append(coeff * v ** (r - k))
            coeff *= (r - k) / (k + 1)
        return self.compose_series(series)

    # -- differentiation ---------------------------------------------------

    def partial(self, axis: int) -> "Jet":
        """Jet of the partial derivative along `axis`; costs one budget level.

        Coefficients at total degree >= valid_order of the result are zeroed,
        they are no longer backed by real derivative information.
        """
        if axis not in (0, 1, 2):
            raise JetError(f"axis must be 0, 1 or 2, got {axis}")
        if self.valid_order < 1:
            raise BudgetExhausted("cannot differentiate: jet budget exhausted")
        src, scale = _partial_map(self.order, axis)
        out = np.zeros(len(self.coeffs))
        out[:len(src)] = self.coeffs[src] * scale
        new_valid = self.valid_order - 1
        out[_degrees(self.order) > new_valid] = 0.0
        return self._like(out, new_valid)

