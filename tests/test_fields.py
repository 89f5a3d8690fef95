import math
from functools import reduce
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from srsurf import FieldProgram, Jet, JetError, MetricField, OneForm, ParseError
from srsurf.fields import curl, curl_and_defect
from srsurf.frame import jvec_cross, jvec_dot

from conftest import box_points


# -- parsing ---------------------------------------------------------------

def test_parse_heisenberg_components():
    w = OneForm.parse("dz + y*dx - x*dy")
    p = (0.7, -1.3, 0.2)
    f1, f2, f3 = (c.value for c in w.evaluate(p))
    assert (f1, f2, f3) == (-1.3, -0.7, 1.0)


def test_parse_omega1_components():
    w = OneForm.parse("dy + x^2*dz")
    p = (0.5, 1.0, 2.0)
    f1, f2, f3 = (c.value for c in w.evaluate(p))
    assert (f1, f2, f3) == (0.0, 1.0, 0.25)


def test_parse_plain_dz():
    w = OneForm.parse("dz")
    f1, f2, f3 = (c.value for c in w.evaluate((1, 2, 3)))
    assert (f1, f2, f3) == (0.0, 0.0, 1.0)


def test_parse_coefficient_expressions():
    w = OneForm.parse("sqrt(1 + y^2)*dx + exp(x)*dy - (x + z)^3*dz")
    p = (1.0, 1.0, 0.5)
    f1, f2, f3 = (c.value for c in w.evaluate(p))
    assert abs(f1 - math.sqrt(2)) < 1e-14
    assert abs(f2 - math.e) < 1e-14
    assert abs(f3 + 1.5 ** 3) < 1e-14


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as exc:
        OneForm.parse("dz + y*")
    assert exc.value.pos == 7
    with pytest.raises(ParseError):
        OneForm.parse("dz + q*dx")  # unknown identifier
    with pytest.raises(ParseError):
        OneForm.parse("dz + x + y")  # term without a differential
    with pytest.raises(ParseError):
        FieldProgram.parse("x*(dx + dy)")  # differential inside expression
    with pytest.raises(ParseError):
        FieldProgram.parse("2 x")  # no implicit multiplication


def test_rational_exponent():
    f = FieldProgram.parse("(1 + x^2)^(1/2)")
    assert abs(f((1, 0, 0)).value - math.sqrt(2)) < 1e-14
    g = FieldProgram.parse("(1 + x^2)^(-3/2)")
    assert abs(g((1, 0, 0)).value - 2 ** -1.5) < 1e-14
    with pytest.raises(ParseError):
        FieldProgram.parse("x^1.5")


def test_negative_integer_exponent():
    f = FieldProgram.parse("(1 + y^2)^-2")
    assert abs(f((0, 1, 0)).value - 0.25) < 1e-14


def test_program_power_keeps_the_exponent():
    assert (Jet.variable(0, (4, 0, 0), 4) ** 0.5).value == 2.0
    assert FieldProgram.parse("x^(1/2)")((4, 0, 0)).value == 2.0
    # integral floats multiply, so they work at negative values
    assert (Jet.variable(0, (-3, 0, 0), 4) ** 2.0).value == 9.0


def test_precedence():
    f = FieldProgram.parse("-x^2 + 2*3")  # -(x^2) + 6
    assert f((2, 0, 0)).value == 2.0
    g = FieldProgram.parse("1/2*x")
    assert g((3, 0, 0)).value == 1.5


@pytest.mark.parametrize("text, pos", [
    ("x^2 + q", 6),      # each ^ before the error counts as one character
    ("x^2 + y^3 + q", 12),
    ("x**2", 1),         # ^ is the only way to write a power
    ("1j*x", 0),
    ("True*x", 0),
    ("x.real", 0),
    ("sin(x, y)", 0),
    ("x # comment", 2),
])
def test_parse_error_positions_index_the_text(text, pos):
    with pytest.raises(ParseError) as exc:
        FieldProgram.parse(text)
    assert exc.value.pos == pos


@pytest.mark.parametrize("text, pos", [
    ("1e400*dz + y*dx", 0),        # a float literal that overflows to inf
    ("dz + y*dx - 2.5e308*dy", 12),
    ("dz + 10" + "0" * 400 + "*dx", 5),  # an integer too large for a float
], ids=["inf", "inf-later", "huge-int"])
def test_number_out_of_range_is_a_parse_error(text, pos):
    with pytest.raises(ParseError, match="number out of range") as exc:
        OneForm.parse(text)
    assert exc.value.pos == pos
    with pytest.raises(ParseError, match="number out of range"):
        MetricField.from_text("1e400 0 0 1 0 1")


@pytest.mark.parametrize("text", ["1/0", "(-8)^(1/3)", "ln(-1)", "sqrt(0)"])
def test_constant_domain_errors_raise_jet_error(text):
    program = FieldProgram.parse(text)  # numbers are constant jets
    with pytest.raises(JetError):
        program((0.0, 0.0, 0.0))


# An expression as (DSL text, math oracle); the oracle rounds as a jet's
# value does (a/b as a*(1/b), x^k as a product), so the two agree to the
# last bit and 1e-12 tells a wrong tree from rounding.  Out of the window
# (1e-20, 1e20) the oracle raises OverflowError and the example is dropped,
# so that the scalar terms of every series (up to v^-7) stay finite.

def _tame(v: float) -> float:
    if v != 0.0 and not 1e-20 < abs(v) < 1e20:
        raise OverflowError(v)
    return v


def _positive(v: float) -> float:
    if not v > 0.0:  # sqrt and real powers need derivatives at the point
        raise ValueError(f"non-positive {v}")
    return v


_BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
           "*": lambda a, b: a * b, "/": lambda a, b: a * (1.0 / b)}
_UNARY = {"sqrt": lambda a: math.sqrt(_positive(a)), "exp": math.exp,
          "sin": math.sin, "cos": math.cos, "ln": math.log}


def _power(a: float, p: int, q: int) -> float:
    if p % q:
        return math.pow(_positive(a), p / q)
    k = p // q
    return reduce(mul, [a if k > 0 else 1.0 / a] * abs(k), 1.0) if k else 1.0


_LEAVES = st.one_of(
    st.integers(0, 9).map(lambda n: (str(n), lambda p: float(n))),
    st.integers(0, 2).map(lambda a: ("xyz"[a], lambda p: p[a])))


def _exprs(children):
    return st.one_of(
        st.tuples(st.sampled_from(sorted(_BINARY)), children, children).map(
            lambda t: (f"({t[1][0]} {t[0]} {t[2][0]})",
                       lambda p: _tame(_BINARY[t[0]](t[1][1](p), t[2][1](p))))),
        children.map(lambda c: (f"(-{c[0]})", lambda p: -c[1](p))),
        st.tuples(st.sampled_from(sorted(_UNARY)), children).map(
            lambda t: (f"{t[0]}({t[1][0]})",
                       lambda p: _tame(_UNARY[t[0]](t[1][1](p))))),
        st.tuples(children, st.integers(-3, 3), st.integers(1, 3)).map(
            lambda t: (f"({t[0][0]})^({t[1]}/{t[2]})" if t[1] % t[2]
                       else f"({t[0][0]})^{t[1] // t[2]}",
                       lambda p: _tame(_power(t[0][1](p), t[1], t[2])))),
    )


@settings(max_examples=120, deadline=None)
@given(st.recursive(_LEAVES, _exprs, max_leaves=12),
       st.sampled_from([(0.7, -1.3, 0.4), (0.0, 2.0, -0.5), (-1.5, 0.25, 1.0)]))
def test_parse_matches_math_oracle(expr, point):
    text, oracle = expr
    program = FieldProgram.parse(text)
    try:
        want = oracle(point)
    except OverflowError:
        assume(False)
    except (ValueError, ZeroDivisionError):  # a domain error
        with pytest.raises(JetError), np.errstate(all="ignore"):
            program(point)
        return
    with np.errstate(all="ignore"):  # only higher coefficients can overflow
        got = program(point).value
    assert got == pytest.approx(want, rel=1e-12, abs=0)


# -- exterior calculus -----------------------------------------------------

# d(omega) is the triple curl(omega), with d(omega)(U, V) = curl . (U x V)

def test_exterior_derivative_examples(omega0, omega1):
    d0 = curl(omega0.evaluate((0.3, -0.2, 0.5)))
    assert tuple(b.value for b in d0) == (0.0, 0.0, 1.0)
    d1 = curl(omega1.evaluate((0.7, 0.1, -0.4)))
    assert abs(d1[1].value + 2 * 0.7) < 1e-14
    assert d1[0].value == 0.0 and d1[2].value == 0.0
    closed = OneForm.parse("2*dx - 3*dy + dz")
    dc = curl(closed.evaluate((1, 2, 3)))
    assert all(b.value == 0.0 for b in dc)


def test_two_form_alternating(omega1, rng):
    d1 = curl(omega1.evaluate((0.7, 0.1, -0.4)))
    u = rng.uniform(-1, 1, 3)
    v = rng.uniform(-1, 1, 3)
    assert abs(jvec_dot(d1, jvec_cross(u, v)).value
               + jvec_dot(d1, jvec_cross(v, u)).value) < 1e-14
    assert abs(jvec_dot(d1, jvec_cross(u, u)).value) < 1e-14


def _defect(omega, p) -> float:
    """The contact defect omega . curl(omega) at p."""
    return curl_and_defect(omega.evaluate(p))[1].value


def test_contact_defect_examples(omega0, omega1, heisenberg):
    assert abs(_defect(omega0, (1.2, -0.3, 4.0)) - 1.0) < 1e-14
    assert abs(_defect(omega1, (0.0, 0.7, -0.2))) < 1e-14
    # omega = dz + y dx - x dy has d(omega) = -2 dx^dy, so the coefficient
    # of omega^d(omega) at the origin is -2.
    assert abs(_defect(heisenberg, (0, 0, 0)) + 2.0) < 1e-14


def test_product_rule_d_of_f_omega(heisenberg, rng):
    # d(f w) = df ^ w + f dw, componentwise at random points
    f = FieldProgram.parse("exp(x) * (1 + y^2)")
    fw = heisenberg.scale(f)
    for p in box_points(rng, 5):
        lhs = curl(fw.evaluate(p))
        fj = f(p, 4)
        df = tuple(fj.partial(a) for a in range(3))
        w = heisenberg.evaluate(p, 4)
        dw = curl(w)
        wedge = (df[1] * w[2] - df[2] * w[1],
                 df[2] * w[0] - df[0] * w[2],
                 df[0] * w[1] - df[1] * w[0])
        for a in range(3):
            rhs = wedge[a] + fj * dw[a]
            assert abs(lhs[a].value - rhs.value) < 1e-10 * (1 + abs(rhs.value))


def test_contact_defect_conformal_scaling(heisenberg, omega1, rng):
    phi = FieldProgram.parse("x - 0.5*y + 0.2*z")
    for omega in (heisenberg, omega1):
        scaled = omega.scale(lambda p, n: phi(p, n).exp())
        for p in box_points(rng, 5, scale=1.5):
            factor = math.exp(2 * phi(p).value[0])
            lhs = _defect(scaled, p)
            rhs = factor * _defect(omega, p)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))



def test_fields_seed_the_coordinate_jets_once(monkeypatch):
    seeded = []
    variable = Jet.variable

    def counted(axis, point, order):
        seeded.append(axis)
        return variable(axis, point, order)

    monkeypatch.setattr(Jet, "variable", staticmethod(counted))
    p = (0.3, -0.4, 0.5)
    OneForm.parse("sin(x)*dz + y*dx - x*z*dy").evaluate(p)
    assert seeded == [0, 1, 2]
    seeded.clear()
    MetricField.from_upper_triangle(
        ["2 + x^2", "0.1*y", "0", "1 + z^2", "0.2*x", "3"]).evaluate(p)
    assert seeded == [0, 1, 2]


def test_scale_evaluates_the_factor_once(heisenberg):
    f = FieldProgram.parse("exp(x) * (1 + y^2)")
    calls = []

    def factor(p, n):
        calls.append(p)
        return f(p, n)

    p = (0.4, -0.7, 1.1)
    scaled = heisenberg.scale(FieldProgram(factor)).evaluate(p)
    assert len(calls) == 1
    fj = f(p, 4)
    for got, c in zip(scaled, heisenberg.evaluate(p)):
        assert np.array_equal(got.coeffs, (fj * c).coeffs)

# -- metric ----------------------------------------------------------------

def test_metric_identity_default():
    g = MetricField.from_text("")
    m = g.evaluate((1, 2, 3))
    vals = [[m[i][j].value[0] for j in range(3)] for i in range(3)]
    assert np.allclose(vals, np.eye(3))


def test_metric_from_text_and_json():
    g1 = MetricField.from_text("1+x^2\n0\n0\n1\n0\n1")
    g2 = MetricField.from_text('["1 + x^2", "0", "0", "1", "0", "1"]')
    for g in (g1, g2):
        m = g.evaluate((2, 0, 0))
        assert m[0][0].value == 5.0
        assert m[0][1].value == 0.0 and m[1][0].value == 0.0


def test_metric_positive_definite_check():
    g = MetricField.from_upper_triangle(["1", "2", "0", "1", "0", "1"])  # minor2 < 0
    with pytest.raises(JetError):
        g.evaluate((0, 0, 0))


def test_one_form_vanishing_rejected():
    w = OneForm.parse("x*dx + y*dy")
    with pytest.raises(JetError):
        w.evaluate((0, 0, 1))


def test_field_program_determinism():
    f = FieldProgram.parse("sin(x*y) + sqrt(1 + z^2)")
    p = (0.31, -0.77, 1.93)
    a = f(p, 4)
    b = f(p, 4)
    assert np.array_equal(a.coeffs, b.coeffs)
