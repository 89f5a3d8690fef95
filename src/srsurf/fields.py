"""Expression DSL for scalar fields, 1-forms and metrics on 3-space.

Everything user-facing is parsed into a small AST and wrapped into
field programs: deterministic evaluators from a point to a Jet.
Derived quantities produced elsewhere in the pipeline (nonholonomity,
invariants, ...) reuse the same FieldProgram interface, so they compose
with the helpers here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Tuple

from .jets import Jet, JetError, jet_seed

DEFAULT_ORDER = 4

_FUNCTIONS = ("sqrt", "exp", "sin", "cos", "ln")
_DIFFERENTIALS = ("dx", "dy", "dz")


class ParseError(ValueError):
    """Syntax error with position information."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# --------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Bin:
    op: str  # '+', '-', '*', '/'
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Fun:
    name: str
    arg: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: Fraction


def eval_ast(node, env) -> Jet:
    """Evaluate an AST against an environment of coordinate jets."""
    if isinstance(node, Num):
        x = env["x"]
        return Jet.constant(node.value, x.point, x.order)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -eval_ast(node.arg, env)
    if isinstance(node, Bin):
        a = eval_ast(node.left, env)
        b = eval_ast(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    if isinstance(node, Fun):  # a name from _FUNCTIONS; ln is Jet.log
        a = eval_ast(node.arg, env)
        return getattr(a, "log" if node.name == "ln" else node.name)()
    if isinstance(node, Pow):
        return eval_ast(node.base, env) ** node.exponent
    raise TypeError(f"unknown AST node {node!r}")


def pretty(node) -> str:
    """Canonical fully parenthesized rendering; parse(pretty(a)) == a."""
    if isinstance(node, Num):
        v = node.value
        return repr(int(v)) if float(v).is_integer() else repr(v)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{pretty(node.arg)})"
    if isinstance(node, Bin):
        return f"({pretty(node.left)} {node.op} {pretty(node.right)})"
    if isinstance(node, Fun):
        return f"{node.name}({pretty(node.arg)})"
    if isinstance(node, Pow):
        e = node.exponent
        base = pretty(node.base)
        if isinstance(node.base, Pow):
            base = f"({base})"
        if e.denominator == 1:
            return f"{base}^{e.numerator}"
        return f"{base}^({e.numerator}/{e.denominator})"
    raise TypeError(f"unknown AST node {node!r}")


# --------------------------------------------------------------------------
# Tokenizer / parser


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.idx = 0

    def _scan(self):
        t, i, n = self.text, 0, len(self.text)
        while i < n:
            c = t[i]
            if c.isspace():
                i += 1
                continue
            if c.isdigit() or (c == "." and i + 1 < n and t[i + 1].isdigit()):
                j = i
                while j < n and (t[j].isdigit() or t[j] == "."):
                    j += 1
                if j < n and t[j] in "eE" and (
                    j + 1 < n and (t[j + 1].isdigit() or
                                   (t[j + 1] in "+-" and j + 2 < n and t[j + 2].isdigit()))
                ):
                    j += 2
                    while j < n and t[j].isdigit():
                        j += 1
                try:
                    val = float(t[i:j])
                except ValueError:
                    raise ParseError(f"bad number {t[i:j]!r}", i)
                self.tokens.append(("num", val, i))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < n and (t[j].isalnum() or t[j] == "_"):
                    j += 1
                self.tokens.append(("ident", t[i:j], i))
                i = j
                continue
            if c in "+-*/^()":
                self.tokens.append((c, c, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {c!r}", i)
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        if tok[0] != "end":
            self.idx += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok


class _Parser:
    """Recursive descent over: add > mul > unary > power > atom."""

    def __init__(self, text: str):
        self.tk = _Tokenizer(text)

    def parse_scalar(self):
        node = self._additive()
        tok = self.tk.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return node

    def parse_oneform(self):
        """List of (sign, coefficient-AST-or-None, differential) terms."""
        terms = []
        sign = 1.0
        if self.tk.peek()[0] in "+-":
            if self.tk.next()[0] == "-":
                sign = -1.0
        terms.append(self._oneform_term(sign))
        while self.tk.peek()[0] in "+-":
            sign = 1.0 if self.tk.next()[0] == "+" else -1.0
            terms.append(self._oneform_term(sign))
        tok = self.tk.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return terms

    def _oneform_term(self, sign):
        tok = self.tk.peek()
        if tok[0] == "ident" and tok[1] in _DIFFERENTIALS:
            self.tk.next()
            return (sign, None, tok[1])
        coeff = self._multiplicative(stop_at_differential=True)
        tok = self.tk.peek()
        if tok[0] == "ident" and tok[1] in _DIFFERENTIALS:
            self.tk.next()
            return (sign, coeff, tok[1])
        raise ParseError("one-form term lacks a differential dx/dy/dz", tok[2])

    def _additive(self):
        node = self._multiplicative()
        while self.tk.peek()[0] in "+-":
            op = self.tk.next()[0]
            node = Bin(op, node, self._multiplicative())
        return node

    def _multiplicative(self, stop_at_differential=False):
        node = self._unary()
        while True:
            tok = self.tk.peek()
            if tok[0] in "*/":
                if stop_at_differential and tok[0] == "*":
                    nxt = self.tk.tokens[self.tk.idx + 1]
                    if nxt[0] == "ident" and nxt[1] in _DIFFERENTIALS:
                        self.tk.next()  # consume '*', leave differential
                        return node
                op = self.tk.next()[0]
                node = Bin(op, node, self._unary())
                continue
            return node

    def _unary(self):
        tok = self.tk.peek()
        if tok[0] == "-":
            self.tk.next()
            return Neg(self._unary())
        if tok[0] == "+":
            self.tk.next()
            return self._unary()
        return self._power()

    def _power(self):
        base = self._atom()
        if self.tk.peek()[0] == "^":
            self.tk.next()
            return Pow(base, self._exponent())
        return base

    def _exponent(self) -> Fraction:
        tok = self.tk.peek()
        neg = False
        if tok[0] == "-":
            self.tk.next()
            neg = True
            tok = self.tk.peek()
        if tok[0] == "num":
            self.tk.next()
            if not float(tok[1]).is_integer():
                raise ParseError("exponent must be an integer or (p/q)", tok[2])
            e = Fraction(int(tok[1]))
            return -e if neg else e
        if tok[0] == "(" and not neg:
            self.tk.next()
            psign = 1
            if self.tk.peek()[0] == "-":
                self.tk.next()
                psign = -1
            p = self.tk.expect("num")
            self.tk.expect("/")
            q = self.tk.expect("num")
            self.tk.expect(")")
            if not (float(p[1]).is_integer() and float(q[1]).is_integer()):
                raise ParseError("rational exponent must be (integer/integer)", p[2])
            return Fraction(psign * int(p[1]), int(q[1]))
        raise ParseError("expected integer or (p/q) exponent", tok[2])

    def _atom(self):
        tok = self.tk.next()
        if tok[0] == "num":
            return Num(float(tok[1]))
        if tok[0] == "ident":
            name = tok[1]
            if name in ("x", "y", "z"):
                return Var(name)
            if name in _FUNCTIONS:
                self.tk.expect("(")
                arg = self._additive()
                self.tk.expect(")")
                return Fun(name, arg)
            if name in _DIFFERENTIALS:
                raise ParseError(f"differential {name!r} not allowed inside an expression", tok[2])
            raise ParseError(f"unknown identifier {name!r}", tok[2])
        if tok[0] == "(":
            node = self._additive()
            self.tk.expect(")")
            return node
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def parse_scalar_ast(text: str):
    return _Parser(text).parse_scalar()


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
    def coordinate(name: str) -> "FieldProgram":
        return FieldProgram(lambda p, n: jet_seed(p, name, n))

    @staticmethod
    def from_ast(node) -> "FieldProgram":
        def fn(p, n):
            env = {v: jet_seed(p, v, n) for v in ("x", "y", "z")}
            return eval_ast(node, env)
        return FieldProgram(fn)

    @staticmethod
    def parse(text: str) -> "FieldProgram":
        return FieldProgram.from_ast(parse_scalar_ast(text))

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

    def sqrt(self):
        return FieldProgram(lambda p, n: self._fn(p, n).sqrt())

    def log(self):
        return FieldProgram(lambda p, n: self._fn(p, n).log())


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
        # one AST per component, 0 +/- t1 +/- t2 ..., wrapped once
        asts = {d: Num(0.0) for d in _DIFFERENTIALS}
        for sign, coeff, diff in _Parser(text).parse_oneform():
            asts[diff] = Bin("+" if sign > 0 else "-", asts[diff],
                             Num(1.0) if coeff is None else coeff)
        return OneForm(tuple(FieldProgram.from_ast(asts[d]) for d in _DIFFERENTIALS),
                       source=text)

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
