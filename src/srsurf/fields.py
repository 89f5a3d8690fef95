"""Expression DSL for scalar fields, 1-forms and metrics on 3-space.

An expression is Python's expression syntax with `^` for powers, held to a
whitelist (README, "Expression syntax").  Each expression is parsed by the
stdlib `ast` and checked against the whitelist, and each field is compiled
once into one function (point, order) -> one jet of all its components,
which seeds the coordinate jets once per call.  A derived field (e^phi omega,
-1/lambda, ...) is a plain (point, order) closure over these.
"""

from __future__ import annotations

import ast
import json
import sys
import warnings
from fractions import Fraction
from operator import methodcaller
from typing import Callable, Tuple

import numpy as np

from .jets import VARIABLES, Jet, JetError, fail_where

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
# i + 1 and i + 2 mod 3: (u x v)[i] = u[NEXT] v[AFTER] - u[AFTER] v[NEXT] at i
NEXT, AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])


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
            if not abs(node.value) <= sys.float_info.max:  # 1e400 parses as inf
                raise self.error("number out of range", node)
            return _constant(float(node.value))
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


def _compile(body):
    """Compile a checked expression once into a function (point, order) ->
    its jet, at one point or an (N, 3) batch.  Each call seeds the three
    coordinate jets once, and each number as `Jet._coerce` does, unchecked;
    a tuple's jets are stacked into one (`Jet.stack`)."""
    tree = ast.Expression(ast.Lambda(_PARAMETERS, body))
    fn = eval(compile(ast.fix_missing_locations(tree), "<expression>", "eval"),
              _NAMESPACE)

    def at(point, order):
        x = Jet.variable(0, point, int(order))
        y, z = (Jet.variable(axis, x.point, x.order) for axis in (1, 2))
        jets = fn(x, y, z, lambda value: Jet._coerce(value, x))
        return Jet.stack(jets) if isinstance(jets, tuple) else jets
    return at


# --------------------------------------------------------------------------
# Scalar fields, one-forms and metrics


class FieldProgram:
    """A scalar field: a function (point, order) -> Jet, called as
    `prog(p, order)`.  Compose fields with plain (point, order) closures."""

    def __init__(self, fn: Callable[[Tuple[float, float, float], int], Jet]):
        self._fn = fn

    def __call__(self, point, order: int = DEFAULT_ORDER) -> Jet:
        return self._fn(point, order)

    @staticmethod
    def parse(text: str) -> "FieldProgram":
        parsed = _Parsed(text)
        return FieldProgram(_compile(parsed.scalar(parsed.tree)))


class OneForm:
    """omega = f1 dx + f2 dy + f3 dz, held as one function
    (point, order) -> the jet (f1, f2, f3) of shape (3,)."""

    def __init__(self, fn):
        self._fn = fn

    @staticmethod
    def parse(text: str) -> "OneForm":
        """Terms `[+-]d` or `coeff*d` of the top-level +/- chain, d one of
        dx, dy, dz; the components, 0 +/- t1 +/- t2 ..., compile once."""
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
        return OneForm(_compile(ast.Tuple([sums[d] for d in _DIFFERENTIALS], ast.Load())))

    def evaluate(self, point, order: int = DEFAULT_ORDER) -> Jet:
        w = self._fn(point, order)
        fail_where((abs(w.value) < 1e-300).all(axis=0), w.point, "one-form vanishes")
        return w

    def scale(self, factor) -> "OneForm":
        """factor * omega, for a scalar field factor(point, order) -> Jet,
        which is evaluated once per evaluation of the form."""
        return OneForm(lambda p, n: factor(p, n) * self._fn(p, n))

    def __neg__(self) -> "OneForm":
        return OneForm(lambda p, n: -self._fn(p, n))


class MetricField:
    """Ambient 3x3 symmetric metric, held as one function (point, order) -> its
    upper triangle g11, g12, g13, g22, g23, g33 as a jet of shape (6,); only its
    restriction to the plane distribution matters.  Defaults to the identity."""

    def __init__(self, fn):
        self._fn = fn

    @staticmethod
    def identity() -> "MetricField":
        return MetricField.from_upper_triangle((1, 0, 0, 1, 0, 1))

    @staticmethod
    def from_upper_triangle(entries) -> "MetricField":
        """Six entries g11, g12, g13, g22, g23, g33, each an expression text
        or a finite number (the constant it denotes)."""
        if len(entries) != 6:
            raise ValueError("metric needs exactly 6 upper-triangle entries")

        def checked(i, e):
            if isinstance(e, str):
                parsed = _Parsed(e)
                return parsed.scalar(parsed.tree)
            if type(e) in (int, float) and abs(e) <= sys.float_info.max:
                return _constant(float(e))
            raise ValueError(f"metric entry {i + 1} ({e!r}) is neither an "
                             "expression nor a finite number")
        body = ast.Tuple([checked(i, e) for i, e in enumerate(entries)], ast.Load())
        return MetricField(_compile(body))

    @staticmethod
    def from_text(block: str) -> "MetricField":
        """Plain text (6 whitespace/newline-separated expressions) or a JSON
        array of 6 expression strings or numbers."""
        block = block.strip()
        if not block:
            return MetricField.identity()
        if block.startswith("["):
            return MetricField.from_upper_triangle(json.loads(block))
        return MetricField.from_upper_triangle(block.split("\n") if "\n" in block
                                               else block.split())

    def evaluate(self, point, order: int = DEFAULT_ORDER) -> Jet:
        """g as a jet of shape (3, 3), after its values pass the checks."""
        upper = self._fn(point, order)
        a, b, c, d, e, f = upper.value
        # leading minors g11, cofactor 33, det g: each positive (not NaN), then finite; unwarned
        with np.errstate(over="ignore", invalid="ignore"):
            m1, m2 = a, a * d - b * b
            m3 = a * (d * f - e * e) + b * (e * c - b * f) + c * (b * e - d * c)
            fail_where(np.logical_not((m1 > 0) & (m2 > 0) & (m3 > 0)), upper.point,
                       "metric not positive definite")
            fail_where((m1 == np.inf) | (m2 == np.inf) | (m3 == np.inf), upper.point,
                       "metric out of range")
        return upper[[[0, 1, 2], [1, 3, 4], [2, 4, 5]]]  # the symmetric 3x3 of the upper triangle


def adjugate(g: Jet) -> Jet:
    """adj(g) of a symmetric g of shape (3, 3), from its six cofactors
    g[i1, j1] g[i2, j2] - g[i1, j2] g[i2, j1] (i1 = i + 1, i2 = i + 2 mod 3,
    and so j1, j2) at i <= j, three to a stacked product."""
    upper = (([0, 1, 2], [0, 1, 2]), ([0, 0, 1], [1, 2, 2]))  # (i, j): the diagonal; 01, 02, 12
    c = Jet.stack([g[NEXT[i], NEXT[j]] * g[AFTER[i], AFTER[j]]
                   - g[NEXT[i], AFTER[j]] * g[AFTER[i], NEXT[j]] for i, j in upper])
    return c[[[0, 1, 1], [1, 0, 1], [1, 1, 0]], [[0, 0, 1], [0, 1, 2], [1, 2, 2]]]


def curl(f: Jet) -> Jet:
    """(beta23, beta31, beta12) of d(f1 dx + f2 dy + f3 dz) in the dy^dz,
    dz^dx, dx^dy basis from the jet f = (f1, f2, f3), with no 1/2 factor:
    d(f)(U, V) = curl(f) . (U x V) = U f(V) - V f(U) - f([U, V])."""
    d = f.grad()  # d[a, i] = d_a f_i
    return d[NEXT, AFTER] - d[AFTER, NEXT]


def curl_and_defect(f: Jet):
    """(curl(f), mu) from the jet f = omega, with mu = omega . curl(omega)
    the contact defect: the coefficient of omega ^ d(omega) against
    dx^dy^dz, zero exactly on the singular locus."""
    b = curl(f)
    return b, (f * b).sum()
