"""Expression DSL for scalar fields, 1-forms and metrics on 3-space.

An expression is Python's expression syntax with `^` for powers, held to a
whitelist (README, "Expression syntax").  Each expression is parsed by the
stdlib `ast`, checked against the whitelist and compiled once into a
function of the coordinate jets; field programs wrap these as deterministic
evaluators from a point to a Jet.  Derived quantities produced elsewhere in
the pipeline (nonholonomity, invariants, ...) reuse the same FieldProgram
interface, so they compose with the helpers here.
"""

from __future__ import annotations

import ast
import json
import warnings
from dataclasses import dataclass
from fractions import Fraction
from operator import methodcaller
from typing import Callable, Tuple

from .jets import VARIABLES, Jet, JetError

DEFAULT_ORDER = 4

_DIFFERENTIALS = ("dx", "dy", "dz")
# Each whitelisted function, as the Jet method it calls.
_FUNCTIONS = {"sqrt": "sqrt", "exp": "exp", "sin": "sin", "cos": "cos", "ln": "log"}
_NAMESPACE = {"__builtins__": {},
              **{name: methodcaller(method) for name, method in _FUNCTIONS.items()}}
# The parameter that builds each number as a constant jet at the point, so
# that constant-only subexpressions (1/0, ln(-1)) raise JetError like any
# other jet operation.
_CONSTANT = "_c"
_PARAMETERS = ast.parse(f"lambda x, y, z, {_CONSTANT}: 0", mode="eval").body.args


class ParseError(ValueError):
    """Syntax error with position information."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# --------------------------------------------------------------------------
# Parsing


def _source(text: str):
    """Python source for `text`, with `^` spelled `**` and whitespace as
    spaces, and for each source column the position in `text` it came from.

    A literal `**` and a `#` are rejected: the tree could not tell the first
    from `^`, and would drop whatever follows the second.  So is a character
    outside printable ASCII, because tree columns count UTF-8 bytes."""
    if "**" in text:
        raise ParseError("write powers with ^, not **", text.index("**"))
    src, where = [], []
    for i, c in enumerate(text):
        if c.isspace():
            if not src:
                continue  # an indented expression is a Python syntax error
            c = " "
        elif c == "#" or not (c.isascii() and c.isprintable()):
            raise ParseError(f"unexpected character {c!r}", i)
        s = "**" if c == "^" else c
        src.append(s)
        where += [i] * len(s)
    return "".join(src) + "\n", where + [len(text)]


def _is_differential(node) -> bool:
    return isinstance(node, ast.Name) and node.id in _DIFFERENTIALS


def _constant(value: float):
    """A number, as a call that builds its constant jet at the point."""
    return ast.Call(ast.Name(_CONSTANT, ast.Load()), [ast.Constant(value)], [])


class _Parsed:
    """The tree of one text; every ParseError position indexes the text."""

    def __init__(self, text: str):
        self.text = text
        src, self.where = _source(text)
        try:
            with warnings.catch_warnings():  # a ParseError, not a line on stderr
                warnings.simplefilter("error", SyntaxWarning)
                self.tree = ast.parse(src, mode="eval").body
        except SyntaxError as exc:
            col = min(max((exc.offset or 1) - 1, 0), len(self.where) - 1)
            raise ParseError(exc.msg, self.where[col]) from None

    def error(self, message: str, node, at_end: bool = False) -> ParseError:
        return ParseError(message,
                          self.where[node.end_col_offset if at_end else node.col_offset])

    def scalar(self, node):
        """The node checked against the whitelist, with every number
        outside an exponent built as a constant jet."""
        if isinstance(node, ast.Name):
            if node.id in VARIABLES:
                return node
            if node.id in _DIFFERENTIALS:
                raise self.error(f"differential {node.id!r} not allowed inside "
                                 "an expression", node)
            raise self.error(f"unknown identifier {node.id!r}", node)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            try:
                return _constant(float(node.value))
            except OverflowError:
                raise self.error("number out of range", node) from None
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            operand = self.scalar(node.operand)
            return operand if isinstance(node.op, ast.UAdd) else ast.UnaryOp(node.op, operand)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            return ast.BinOp(self.scalar(node.left), node.op,
                             ast.Constant(self.exponent(node.right)))
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub,
                                                                ast.Mult, ast.Div)):
            return ast.BinOp(self.scalar(node.left), node.op, self.scalar(node.right))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS and len(node.args) == 1
                and not node.keywords):
            return ast.Call(node.func, [self.scalar(node.args[0])], [])
        segment = self.text[self.where[node.col_offset]:self.where[node.end_col_offset]]
        raise self.error(f"unsupported syntax {segment!r}", node)

    def exponent(self, node):
        """An integer or (p/q) exponent: an int, or the float of p/q when
        it is not integral."""
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
            return self.integer(node)
        p, q = self.integer(node.left), self.integer(node.right)
        if q == 0:
            raise self.error("zero denominator in exponent", node.right)
        e = Fraction(p, q)
        return e.numerator if e.denominator == 1 else float(e)

    def integer(self, node) -> int:
        sign = 1
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            sign, node = -1, node.operand
        if isinstance(node, ast.Constant) and (
                type(node.value) is int
                or type(node.value) is float and node.value.is_integer()):
            return sign * int(node.value)
        raise self.error("exponent must be an integer or (p/q)", node)


def _program(body) -> "FieldProgram":
    """Compile a checked expression once into a program of the point."""
    tree = ast.Expression(ast.Lambda(_PARAMETERS, body))
    fn = eval(compile(ast.fix_missing_locations(tree), "<expression>", "eval"),
              _NAMESPACE)

    def at(p, n):
        return fn(*(Jet.variable(axis, p, n) for axis in range(3)),
                  lambda value: Jet.constant(value, p, n))
    return FieldProgram(at)


# --------------------------------------------------------------------------
# Field programs


class FieldProgram:
    """Deterministic evaluator point -> Jet.

    Wraps a callable (point, order) -> Jet.  Supports pointwise algebra so
    derived quantities stay composable.
    """

    def __init__(self, fn: Callable[[Tuple[float, float, float], int], Jet]):
        self._fn = fn

    def __call__(self, point, order: int = DEFAULT_ORDER) -> Jet:
        return self._fn(tuple(float(c) for c in point), int(order))

    def value(self, point, order: int = DEFAULT_ORDER) -> float:
        return self(point, order).value

    @staticmethod
    def constant(value: float) -> "FieldProgram":
        return FieldProgram(lambda p, n: Jet.constant(float(value), p, n))

    @staticmethod
    def parse(text: str) -> "FieldProgram":
        parsed = _Parsed(text)
        return _program(parsed.scalar(parsed.tree))

    @staticmethod
    def _lift(other) -> "FieldProgram":
        if isinstance(other, FieldProgram):
            return other
        return FieldProgram.constant(float(other))

    def _zip(self, other, op) -> "FieldProgram":
        other = FieldProgram._lift(other)
        return FieldProgram(lambda p, n: op(self._fn(p, n), other._fn(p, n)))

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return FieldProgram._lift(other)._zip(self, lambda a, b: a - b)

    def __mul__(self, other):
        return self._zip(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._zip(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return FieldProgram._lift(other)._zip(self, lambda a, b: a / b)

    def __neg__(self):
        return FieldProgram(lambda p, n: -self._fn(p, n))

    def __pow__(self, k):
        return FieldProgram(lambda p, n: self._fn(p, n) ** k)

    def exp(self):
        return FieldProgram(lambda p, n: self._fn(p, n).exp())


# --------------------------------------------------------------------------
# One-forms, metrics, two-form values


class OneForm:
    """omega = f1 dx + f2 dy + f3 dz with field-program components."""

    def __init__(self, components, source: str | None = None):
        f1, f2, f3 = components
        self.components = (FieldProgram._lift(f1),
                           FieldProgram._lift(f2),
                           FieldProgram._lift(f3))
        self.source = source

    @staticmethod
    def parse(text: str) -> "OneForm":
        """Terms `[+-]d` or `coeff*d` of the top-level +/- chain, d one of
        dx, dy, dz; each component, 0 +/- t1 +/- t2 ..., compiles once."""
        parsed = _Parsed(text)
        node, terms = parsed.tree, []
        while isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            terms.append((node.op, node.right))
            node = node.left
        terms.append((ast.Add(), node))
        sums = {d: _constant(0.0) for d in _DIFFERENTIALS}
        for op, term in reversed(terms):
            if (isinstance(term, ast.UnaryOp) and isinstance(term.op, (ast.UAdd, ast.USub))
                    and _is_differential(term.operand)):
                if isinstance(term.op, ast.USub):
                    op = ast.Add() if isinstance(op, ast.Sub) else ast.Sub()
                term = term.operand
            if _is_differential(term):
                d, coeff = term.id, _constant(1.0)
            elif (isinstance(term, ast.BinOp) and isinstance(term.op, ast.Mult)
                  and _is_differential(term.right)):
                d, coeff = term.right.id, parsed.scalar(term.left)
            else:
                parsed.scalar(term)  # an error inside the term comes first
                raise parsed.error("one-form term lacks a differential dx/dy/dz",
                                   term, at_end=True)
            sums[d] = ast.BinOp(sums[d], op, coeff)
        return OneForm(tuple(_program(sums[d]) for d in _DIFFERENTIALS), source=text)

    def evaluate(self, point, order: int = DEFAULT_ORDER):
        jets = tuple(c(point, order) for c in self.components)
        if all(abs(j.value) < 1e-300 for j in jets):
            raise JetError(f"one-form vanishes at {jets[0].point}")
        return jets

    def scale(self, factor: FieldProgram) -> "OneForm":
        """Pointwise rescaling factor * omega (factor a scalar program)."""
        return OneForm(tuple(factor * c for c in self.components))

    def __neg__(self) -> "OneForm":
        return OneForm(tuple(-c for c in self.components))


class MetricField:
    """Ambient 3x3 symmetric metric; only its restriction to the plane
    distribution matters downstream.  Defaults to the identity."""

    def __init__(self, entries):
        # entries: 3x3 of programs (must be symmetric by construction)
        self.entries = tuple(tuple(FieldProgram._lift(e) for e in row) for row in entries)

    @staticmethod
    def identity() -> "MetricField":
        one, zero = 1.0, 0.0
        return MetricField(((one, zero, zero), (zero, one, zero), (zero, zero, one)))

    @staticmethod
    def from_upper_triangle(exprs) -> "MetricField":
        """Six expressions: g11, g12, g13, g22, g23, g33 (text or programs)."""
        if len(exprs) != 6:
            raise ValueError("metric needs exactly 6 upper-triangle entries")
        progs = [FieldProgram.parse(e) if isinstance(e, str) else FieldProgram._lift(e)
                 for e in exprs]
        g11, g12, g13, g22, g23, g33 = progs
        return MetricField(((g11, g12, g13), (g12, g22, g23), (g13, g23, g33)))

    @staticmethod
    def from_text(block: str) -> "MetricField":
        """Plain text (6 whitespace/newline-separated expressions) or a JSON
        array of 6 expression strings."""
        block = block.strip()
        if not block:
            return MetricField.identity()
        if block.startswith("["):
            return MetricField.from_upper_triangle(json.loads(block))
        return MetricField.from_upper_triangle(block.split("\n") if "\n" in block
                                               else block.split())

    def evaluate(self, point, order: int = DEFAULT_ORDER):
        g = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):  # symmetric: evaluate the upper triangle
                g[i][j] = g[j][i] = self.entries[i][j](point, order)
        m1 = g[0][0].value
        m2 = g[0][0].value * g[1][1].value - g[0][1].value ** 2
        m3 = (g[0][0].value * (g[1][1].value * g[2][2].value - g[1][2].value ** 2)
              - g[0][1].value * (g[0][1].value * g[2][2].value - g[1][2].value * g[0][2].value)
              + g[0][2].value * (g[0][1].value * g[1][2].value - g[1][1].value * g[0][2].value))
        if m1 <= 0 or m2 <= 0 or m3 <= 0:
            raise JetError(f"metric not positive definite at {g[0][0].point}")
        return g


@dataclass
class TwoFormValue:
    """Components (beta23, beta31, beta12) in the dy^dz, dz^dx, dx^dy basis."""

    beta23: Jet
    beta31: Jet
    beta12: Jet

    def apply(self, u, v) -> Jet:
        """Evaluate on a pair of (jet- or float-)component vectors."""
        return (self.beta23 * (u[1] * v[2] - u[2] * v[1])
                + self.beta31 * (u[2] * v[0] - u[0] * v[2])
                + self.beta12 * (u[0] * v[1] - u[1] * v[0]))

    def as_vector(self):
        return (self.beta23, self.beta31, self.beta12)


def curl(f):
    """(beta23, beta31, beta12) of d(f1 dx + f2 dy + f3 dz) from the jets
    f = (f1, f2, f3): d(f)(U, V) = curl(f) . (U x V)."""
    return (f[2].partial(1) - f[1].partial(2),
            f[0].partial(2) - f[2].partial(0),
            f[1].partial(0) - f[0].partial(1))


def exterior_derivative(omega: OneForm, point, order: int = DEFAULT_ORDER) -> TwoFormValue:
    """d(omega) at a point, in the convention without the 1/2 factor:
    d(eta)(X, Y) = X eta(Y) - Y eta(X) - eta([X, Y])."""
    return TwoFormValue(*curl(omega.evaluate(point, order)))


def contact_defect(omega: OneForm, point, order: int = DEFAULT_ORDER) -> float:
    """Coefficient of omega ^ d(omega) against dx^dy^dz; zero exactly on the
    singular locus."""
    f = omega.evaluate(point, order)
    b = curl(f)
    total = f[0] * b[0] + f[1] * b[1] + f[2] * b[2]
    return total.value
