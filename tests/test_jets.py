import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srsurf import (BudgetExhausted, FieldProgram, Jet, JetError, MAX_ORDER, lie_bracket,
                    multi_indices, n_coeffs)
from srsurf import jets
from srsurf.jets import _index_map, _mul_table


def test_multi_index_enumeration_graded():
    mis = multi_indices(4)
    assert len(mis) == n_coeffs(4) == 35
    degrees = [sum(mi) for mi in mis]
    assert degrees == sorted(degrees)
    assert mis[0] == (0, 0, 0)
    assert len(set(mis)) == len(mis)


def test_seed_constant():
    j = Jet.constant(4.0, (1.0, 2.0, 3.0), 4)
    assert j.value == 4.0
    assert np.count_nonzero(j.coeffs) == 1
    assert j.order == 4


def test_seed_coordinates():
    j = Jet.variable(0, (2, 0, 0), 4)
    assert j.value == 2.0
    assert j.coeff((1, 0, 0)) == 1.0
    assert np.count_nonzero(j.coeffs) == 2
    j = Jet.variable(1, (0, 1, 5), 4)
    assert j.value == 1.0
    assert j.coeff((0, 1, 0)) == 1.0
    assert np.count_nonzero(j.coeffs) == 2


def test_seed_order_out_of_range():
    with pytest.raises(JetError):
        Jet.variable(0, (0, 0, 0), 0)
    with pytest.raises(JetError):
        Jet.variable(0, (0, 0, 0), 7)


def test_square_of_x():
    x = Jet.variable(0, (2, 0, 0), 4)
    sq = x * x
    assert sq.value == 4.0
    assert sq.coeff((1, 0, 0)) == 4.0
    assert sq.coeff((2, 0, 0)) == 1.0  # second derivative 2 / 2!
    assert sq.partial_value((2, 0, 0)) == 2.0


def test_subtraction_cancels():
    y = Jet.variable(1, (0.3, -1.2, 0.8), 4)
    f = (1 + y * y).sqrt() * y.exp()
    assert np.allclose((f - f).coeffs, 0.0)


def test_product_with_reciprocal_is_one():
    y = Jet.variable(1, (0, 1, 0), 4)
    f = 1 + y * y
    prod = f * f.reciprocal()
    expect = np.zeros_like(prod.coeffs)
    expect[0] = 1.0
    assert np.allclose(prod.coeffs, expect, atol=1e-12)


def test_base_point_mismatch():
    a = Jet.variable(0, (0, 0, 0), 4)
    b = Jet.variable(0, (1, 0, 0), 4)
    with pytest.raises(JetError):
        a + b
    with pytest.raises(JetError, match="base point mismatch in a stack"):
        Jet.stack([a, b])


def test_division_by_zero_value():
    x = Jet.variable(0, (0, 0, 0), 4)
    with pytest.raises(JetError):
        (1 + x) / x


def test_sqrt_example():
    j = Jet.constant(4.0, (0, 0, 0), 4).sqrt()
    assert j.value == 2.0
    y = Jet.variable(1, (0, 1, 0), 4)
    s = (1 + y * y).sqrt()
    assert abs(s.value - math.sqrt(2)) < 1e-14
    # d/dy sqrt(1+y^2) = y / sqrt(1+y^2)
    assert abs(s.partial_value((0, 1, 0)) - 1 / math.sqrt(2)) < 1e-13


def test_sqrt_domain_error():
    with pytest.raises(JetError):
        Jet.constant(-1.0, (0, 0, 0), 4).sqrt()
    with pytest.raises(JetError):
        Jet.constant(0.0, (0, 0, 0), 3).log()


@pytest.mark.parametrize("method, value, args", [
    ("pow", 2.7e-60, (-0.5,)),   # v ** (r - 5) would be above the largest float
    ("reciprocal", 1e-200, ()),  # 1 / v ** 2 would divide by an underflowed 0
    ("exp", 1000.0, ()),
    ("sin", math.inf, ()),  # the value itself is not finite
])
def test_series_overflow_raises_jet_error(method, value, args):
    # a series in scaled form, f(v) times powers of u / v, overflows only where
    # f(v) or 1 / v does: the two small values give their exact finite jets
    alone = Jet.constant(value, (0, 0, 0), 5)
    batch = Jet.constant(np.array([1.0, value, 2.0]), np.zeros((3, 3)), 5)
    if method in ("exp", "sin"):
        message = rf"^Taylor series of {method} at {value} overflows a float$"
        for jet in (alone, batch):
            with pytest.raises(JetError, match=message):
                getattr(jet, method)()
        return
    want = 1.0 / value if method == "reciprocal" else value ** -0.5
    for jet, row in ((alone, 0), (batch, 1)):
        got = getattr(jet, method)(*args).coeffs
        assert math.isclose(got[0, row], want, rel_tol=1e-15)
        assert np.count_nonzero(got[1:]) == 0


def test_exp_taylor_coefficients():
    x = Jet.variable(0, (0, 0, 0), 4)
    e = x.exp()
    for k in range(5):
        assert abs(e.coeff((k, 0, 0)) - 1 / math.factorial(k)) < 1e-14


def test_trig_values():
    z = Jet.variable(2, (0.3, 0.1, 0.7), 4)
    s, c = z.sin(), z.cos()
    assert abs(s.value - math.sin(0.7)) < 1e-14
    assert abs(c.value - math.cos(0.7)) < 1e-14
    assert abs(s.partial_value((0, 0, 1)) - math.cos(0.7)) < 1e-13
    ident = s * s + c * c
    expect = np.zeros_like(ident.coeffs)
    expect[0] = 1.0
    assert np.allclose(ident.coeffs, expect, atol=1e-12)


def test_partial_extraction_examples():
    x = Jet.variable(0, (3, 0, 0), 4)
    d = (x * x).partial(0)
    assert d.value == 6.0
    assert d.coeff((1, 0, 0)) == 2.0
    const = Jet.constant(5.0, (3, 0, 0), 4)
    assert np.allclose(const.partial(1).coeffs, 0.0)
    y = Jet.variable(1, (0, 1, 0), 4)
    dy = (1 + y * y).sqrt().partial(1)
    assert abs(dy.value - 1 / math.sqrt(2)) < 1e-13
    # d/dy (y / sqrt(1+y^2)) = (1+y^2)^{-3/2}
    assert abs(dy.partial_value((0, 1, 0)) - 2 ** -1.5) < 1e-12


def test_partials_commute_exactly():
    x = Jet.variable(0, (0.5, -0.2, 0.9), 5)
    y = Jet.variable(1, (0.5, -0.2, 0.9), 5)
    z = Jet.variable(2, (0.5, -0.2, 0.9), 5)
    f = (x * y + z).exp() * (2 + y).log()
    a = f.partial(0).partial(1)
    b = f.partial(1).partial(0)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_budget_bookkeeping():
    x = Jet.variable(0, (1, 2, 3), 3)
    j = x * x * x
    for k in range(3):
        assert j.order == 3 - k
        j = j.partial(0)
    assert j.order == 0
    with pytest.raises(BudgetExhausted):
        j.partial(0)


def test_order_min_propagates():
    x = Jet.variable(0, (1, 0, 0), 4)
    worn = x.partial(0)  # order 3
    assert (x + worn).order == 3
    assert (x * worn).order == 3


def test_coefficients_above_the_order_are_out_of_budget():
    x = Jet.variable(0, (1, 2, 3), 2)
    d = (x * x * x).partial(0)  # 3 x^2, order 1
    assert d.coeff((1, 0, 0)) == 6.0
    for mi in ((2, 0, 0), (0, 1, 1)):
        with pytest.raises(BudgetExhausted):
            d.coeff(mi)
        with pytest.raises(BudgetExhausted):
            d.partial_value(mi)


@st.composite
def jet_pair(draw):
    point = tuple(draw(st.floats(-2, 2)) for _ in range(3))
    order = draw(st.integers(2, 5))

    def rand_jet():
        x, y, z = (Jet.variable(axis, point, order) for axis in range(3))
        c = [draw(st.floats(-3, 3)) for _ in range(4)]
        return c[0] + c[1] * x + c[2] * y * z + c[3] * x * x
    return rand_jet(), rand_jet(), rand_jet()


@settings(max_examples=60, deadline=None)
@given(jet_pair())
def test_ring_laws(jets):
    a, b, c = jets
    assert np.allclose((a + b).coeffs, (b + a).coeffs, atol=1e-12)
    assert np.allclose((a * b).coeffs, (b * a).coeffs, atol=1e-12)
    assert np.allclose(((a + b) + c).coeffs, (a + (b + c)).coeffs, atol=1e-12)
    assert np.allclose(((a * b) * c).coeffs, (a * (b * c)).coeffs, atol=1e-10)
    assert np.allclose((a * (b + c)).coeffs, (a * b + a * c).coeffs, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(jet_pair())
def test_reciprocal_inverse(jets):
    a, _, _ = jets
    shifted = a * a + 1.5  # bounded away from zero
    prod = shifted * shifted.reciprocal()
    expect = np.zeros_like(prod.coeffs)
    expect[0] = 1.0
    assert np.allclose(prod.coeffs, expect, atol=1e-9)


def _fd_partial(fn, p, axis, h=1e-5):
    pp, pm = list(p), list(p)
    pp[axis] += h
    pm[axis] -= h
    return (fn(pp) - fn(pm)) / (2 * h)


def test_mixed_partials_match_finite_differences(rng):
    def fn(p):
        x, y, z = p
        return math.exp(0.3 * x * y) * math.sqrt(1 + z * z) + math.sin(x + 2 * z)

    def jet_of(p, order=4):
        x, y, z = (Jet.variable(axis, tuple(p), order) for axis in range(3))
        return (0.3 * x * y).exp() * (1 + z * z).sqrt() + (x + 2 * z).sin()

    for _ in range(10):
        p = rng.uniform(-1, 1, 3)
        j = jet_of(p)
        for axis in range(3):
            fd = _fd_partial(fn, p, axis)
            mi = [0, 0, 0]
            mi[axis] = 1
            assert abs(j.partial_value(mi) - fd) <= 1e-5 * (1 + abs(fd))
        # a second-order mixed partial via nested differences
        fd = _fd_partial(lambda q: _fd_partial(fn, q, 0, 1e-4), p, 1, 1e-4)
        assert abs(j.partial_value((1, 1, 0)) - fd) <= 1e-4 * (1 + abs(fd))


# -- a jet of order m is the leading part of the same jet at any order n ----
# (and the table-driven kernels agree with the loops they replaced)

def _loop_partial(jet, axis):
    """Coefficients of d/d(axis), one order lower, one at a time."""
    imap = _index_map(jet.order)
    out = np.zeros((n_coeffs(jet.order - 1), jet.coeffs.shape[1]))
    for k, mi in enumerate(multi_indices(jet.order - 1)):
        up = list(mi)
        up[axis] += 1
        out[k] = jet.coeffs[imap[tuple(up)]] * up[axis]
    return out


def _add_at_product(a, b):
    ia, ib, io = _mul_table(a.order)
    out = np.zeros_like(a.coeffs)
    np.add.at(out, io, a.coeffs[ia] * b.coeffs[ib])
    return out


@st.composite
def prefixed_jets(draw):
    """(A, B, C, m): jets of order n, m <= n, C with a value in [0.5, 4]."""
    n = draw(st.integers(1, MAX_ORDER))
    point = tuple(draw(st.floats(-2, 2)) for _ in range(3))
    coeffs = st.lists(st.floats(-1e3, 1e3), min_size=n_coeffs(n),
                      max_size=n_coeffs(n))
    a, b, c = (np.array(draw(coeffs)) for _ in range(3))
    c[0] = draw(st.floats(0.5, 4))
    return (*(Jet(point, n, x) for x in (a, b, c)), draw(st.integers(1, n)))


def _prefix(jet, m):
    return Jet(jet.point, m, jet.coeffs[:n_coeffs(m)])


@settings(max_examples=200, deadline=None)
@given(prefixed_jets())
def test_prefix_law(jets):
    big_a, big_b, big_c, m = jets
    a, b, c, k = (_prefix(big_a, m), _prefix(big_b, m), _prefix(big_c, m),
                  n_coeffs(m))
    for got, want in ((big_a * b, big_a * big_b), (b * big_a, big_b * big_a),
                      (big_a + b, big_a + big_b), (big_a - b, big_a - big_b),
                      (b - big_a, big_b - big_a), (c.exp(), big_c.exp()),
                      (c.sqrt(), big_c.sqrt()),
                      (c.reciprocal(), big_c.reciprocal())):
        assert got.order == m
        assert np.array_equal(got.coeffs, want.coeffs[:k])
    assert np.array_equal((big_a * big_b).coeffs, _add_at_product(big_a, big_b))
    for axis in range(3):
        assert np.array_equal(big_a.partial(axis).coeffs, _loop_partial(big_a, axis))
        d = a.partial(axis)
        assert d.order == m - 1
        assert np.array_equal(d.coeffs,
                              big_a.partial(axis).coeffs[:n_coeffs(m - 1)])


# -- a component axis is the scalar jets side by side, bit for bit ----------

@st.composite
def stacked_jets(draw):
    """(u, v, s): jets of shape (3,), (3,) and () at a batch of 1, 2, 21 or 195
    points, each at its own order in 0..MAX_ORDER, with coefficients spread
    over six decades so that the order of a sum shows in its last bits."""
    width = draw(st.sampled_from([1, 2, 21, 195]))
    orders = [draw(st.integers(0, MAX_ORDER)) for _ in range(3)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    point = rng.uniform(-1, 1, (width, 3))

    def jet(shape, order):
        size = (n_coeffs(MAX_ORDER), *shape, width)
        coeffs = rng.normal(size=size) * 10.0 ** rng.integers(-3, 4, size)
        return Jet(point, MAX_ORDER, coeffs).cut(order)
    return jet((3,), orders[0]), jet((3,), orders[1]), jet((), orders[2])


def _same(got, want):
    assert got.order == want.order and got.shape == want.shape
    assert np.array_equal(got.coeffs, want.coeffs)


@settings(max_examples=60, deadline=None)
@given(stacked_jets())
def test_component_axis_is_the_scalar_ops(jets):
    u, v, s = jets
    for k in range(3):
        _same((u * v)[k], u[k] * v[k])  # the stacked product
        _same((s * u)[k], s * u[k])  # the broadcast scalar x vector product
        _same((u * s)[k], u[k] * s)
        _same((u - v)[k], u[k] - v[k])
    _same(u.sum(), (u[0] + u[1]) + u[2])  # the component sum, in index order
    outer = u[:, None] * v  # a (3, 3) stack: outer[i, j] = u[i] * v[j]
    for j in range(3):
        _same(outer.sum(0)[j], (u[0] * v[j] + u[1] * v[j]) + u[2] * v[j])
        _same(outer.sum(-1)[j], (u[j] * v[0] + u[j] * v[1]) + u[j] * v[2])
    if u.order:
        d = u.grad()
        for a in range(3):
            _same(u.partial(a), d[a])
            for k in range(3):
                assert np.array_equal(d[a, k].coeffs, _loop_partial(u[k], a))


@settings(max_examples=40, deadline=None)
@given(stacked_jets())
def test_bracket_sums_its_differences(jets):
    # [V, W]^a = sum_b (V^b d_b W^a - W^b d_b V^a) with the differences
    # summed in order, as the scalar form added them; A.sum() - B.sum()
    # would round differently
    v, w, _ = jets
    if min(v.order, w.order) < 1:
        with pytest.raises(BudgetExhausted):
            lie_bracket(v, w)
        return
    m = min(v.order, w.order)
    v, w = v.cut(m), w.cut(m)
    br = lie_bracket(v, w)
    for a in range(3):
        terms = [v[b] * w[a].partial(b) - w[b] * v[a].partial(b) for b in range(3)]
        _same(br[a], (terms[0] + terms[1]) + terms[2])


def test_component_sum_keeps_the_sign_of_zero():
    # (-0.0 + -0.0) + -0.0 is -0.0, as scalar jets add; numpy's sum starts from +0.0
    zeros = Jet((0.0, 0.0, 0.0), 2, np.full((n_coeffs(2), 3, 1), -0.0))
    assert np.signbit(zeros.sum().coeffs).all()
    # a component index or axis never reaches the points or the coefficients
    for bad in (lambda: zeros.sum(1), lambda: zeros.sum(-2), lambda: zeros.sum()[0],
                lambda: zeros[0, 0]):
        with pytest.raises(JetError):
            bad()


def test_bracket_trap_is_real():
    # the two sums of a bracket's products, then their difference, differ
    # from the bracket in the last bits
    rng = np.random.default_rng(0)
    v, w = (Jet(np.zeros((2, 3)), 3, rng.normal(size=(n_coeffs(3), 3, 2))) for _ in range(2))
    a, b = v[:, None] * w.grad(), w[:, None] * v.grad()
    assert not np.array_equal((a.sum() - b.sum()).coeffs, lie_bracket(v, w).coeffs)


def test_public_constructor_checks():
    point = (0.0, 0.0, 0.0)
    for order in (0, 7):
        with pytest.raises(JetError):
            Jet(point, order, np.zeros(n_coeffs(order)))
    with pytest.raises(JetError):
        Jet(point, 3, np.zeros(n_coeffs(3) - 1))


def test_every_point_is_a_batch():
    for point, width in ((np.array([1, 2, 3]), 1), ((1, 2, 3), 1), ([[1, 2, 3], [4, 5, 6]], 2)):
        x = Jet.variable(0, point, 3)
        for result in (x * x, x + 1, -x, x.partial(0), x.exp(), x / 2, x ** 3):
            assert type(result.point) is np.ndarray and result.point.dtype == float
            assert result.point.shape == (width, 3)
            assert result.value.shape == (width,)
    # a point and a batch of one at the same coordinates combine
    alone = [Jet.variable(axis, (0.7, -0.3, 1.1), 4) for axis in range(3)]
    batch = [Jet.variable(axis, np.array([[0.7, -0.3, 1.1]]), 4) for axis in range(3)]
    for a, b in itertools.permutations(range(3), 2):
        mixed = (alone[a] * batch[b]).exp() + batch[a] / alone[b]
        same = (alone[a] * alone[b]).exp() + alone[a] / alone[b]
        assert np.array_equal(mixed.coeffs, same.coeffs)
    with pytest.raises(JetError, match="base point mismatch"):
        alone[0] + Jet.variable(0, (0.7, -0.3, 1.2), 4)
    with pytest.raises(JetError, match="base point mismatch"):
        alone[0] * Jet.variable(0, [(0.7, -0.3, 1.1)] * 2, 4)
    # a number operand is one number, or one per point
    assert np.array_equal((alone[0] * np.array([2.0])).coeffs, (alone[0] * 2.0).coeffs)
    for op in (alone[0].__mul__, alone[0].__truediv__):
        with pytest.raises(ValueError):
            op(np.ones(3))


def test_integer_power_squares(monkeypatch):
    calls = []
    mul = Jet.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counted)
    k, v = 100000, 1.000001
    assert math.isclose(FieldProgram.parse(f"x^{k}")((v, 0.0, 0.0)).value[0],
                        v ** k, rel_tol=1e-9)
    assert 0 < len(calls) <= 2 * math.ceil(math.log2(k))


def test_small_powers_multiply_as_products():
    x, y, z = (Jet.variable(axis, (0.7, -0.3, 1.1), 5) for axis in range(3))
    x = (x + 0.3 * y * z).exp()
    # here the order of the factors shows in the last bits
    assert not np.array_equal((x * (x * x)).coeffs, ((x * x) * x).coeffs)
    assert np.array_equal((x ** 2).coeffs, (x * x).coeffs)
    assert np.array_equal((x ** 3).coeffs, ((x * x) * x).coeffs)


def test_number_operands_are_unchecked_constants(monkeypatch):
    x, y = (Jet.variable(axis, (0.7, -0.3, 1.1), 4) for axis in range(2))
    a = (x * y).exp().partial(0)  # order 3
    consts = {c: Jet.constant(c, a.point, a.order) for c in (1.0, -2.5, 3)}
    want_exp = a.exp()

    def no_init(*args):
        raise AssertionError("Jet.__init__ reached")

    monkeypatch.setattr(Jet, "__init__", no_init)
    for c, k in consts.items():
        for got, want in ((a + c, a + k), (c + a, k + a), (a - c, a - k),
                          (c - a, k - a)):
            assert np.array_equal(got.coeffs, want.coeffs)
            assert np.array_equal(got.point, want.point) and got.order == want.order == 3
    # compose_series: the leading constant and every Horner step
    assert np.array_equal(a.exp().coeffs, want_exp.coeffs)


# -- univariate series in scaled form ---------------------------------------

SCALE_LAWS = {  # f(c x) from f(x)
    "reciprocal": lambda f, c: f * (1.0 / c), "sqrt": lambda f, c: f * math.sqrt(c),
    "pow": lambda f, c: f * c ** -0.5, "log": lambda f, c: f + math.log(c),
}


@pytest.mark.parametrize("method", sorted(SCALE_LAWS))
@pytest.mark.parametrize("c", [1e200, 1e-200])
def test_series_at_any_scale(method, c):
    rng, args = np.random.default_rng(7), (-0.5,) if method == "pow" else ()
    for order in range(1, MAX_ORDER + 1):
        coeffs = rng.uniform(-0.3, 0.3, (n_coeffs(order), 2))
        coeffs[0] = 1.0
        plain = Jet(np.zeros((2, 3)), order, coeffs)
        got = getattr(Jet(plain.point, order, coeffs * c), method)(*args).coeffs
        want = SCALE_LAWS[method](getattr(plain, method)(*args), c).coeffs
        assert np.isfinite(got).all()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (order, method)


def _math_terms(method, v, order, r):
    """The Taylor coefficients f^(k)(v) / k! of one value from `math`: the
    per-point reference for the series in scaled form."""
    k = range(order + 1)
    if method in ("sqrt", "pow", "reciprocal"):
        r, b = {"sqrt": 0.5, "reciprocal": -1.0}.get(method, r), [1.0]
        for j in k[:-1]:
            b.append(b[-1] * (r - j) / (j + 1))
        return [b[j] * v ** (r - j) for j in k]
    if method == "log":
        return [math.log(v)] + [(-1.0) ** (j + 1) / (j * v ** j) for j in k[1:]]
    if method == "exp":
        return [math.exp(v) / math.factorial(j) for j in k]
    cycle = [math.sin(v), math.cos(v), -math.sin(v), -math.cos(v)]
    return [cycle[(j + (method == "cos")) % 4] / math.factorial(j) for j in k]


@st.composite
def series_cases(draw):
    method = draw(st.sampled_from(["reciprocal", "sqrt", "pow", "log", "exp", "sin", "cos"]))
    order, width = draw(st.integers(0, MAX_ORDER)), draw(st.integers(1, 3))
    lo, hi = (-5.0, 5.0) if method in ("exp", "sin", "cos") else (0.1, 10.0)
    values = draw(st.lists(st.floats(lo, hi), min_size=width, max_size=width))
    if method == "reciprocal":
        values = [v * draw(st.sampled_from([1, -1])) for v in values]
    rest = draw(st.lists(st.floats(-1.0, 1.0), min_size=n_coeffs(max(order, 1)) - 1,
                         max_size=n_coeffs(max(order, 1)) - 1))
    coeffs = np.array([values] + [[x] * width for x in rest])
    jet = Jet(np.zeros((width, 3)), max(order, 1), coeffs).cut(order)
    return method, jet, draw(st.floats(-2.5, 2.5))


@settings(max_examples=150, deadline=None)
@given(series_cases())
def test_series_are_the_math_series(case):
    method, jet, r = case
    got = getattr(jet, method)(*((r,) if method == "pow" else ()))
    u = jet._like(jet.coeffs.copy())
    u.coeffs[0] = 0.0
    terms = np.array([_math_terms(method, v, jet.order, r) for v in jet.value.tolist()]).T
    want = jet._like(np.zeros(jet.coeffs.shape))
    want.coeffs[0] = terms[-1]
    for c in terms[-2::-1]:  # Horner's rule with jet products, as the series did point by point
        want = want * u
        want.coeffs[0] += c
    assert got.order == jet.order
    assert np.abs(got.coeffs - want.coeffs).max() <= 1e-14 * np.abs(want.coeffs).max()


UFUNCS = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos, "sqrt": np.sqrt,
          "power -0.5": lambda v: np.power(v, -0.5), "power -1.5": lambda v: np.power(v, -1.5)}


@pytest.mark.parametrize("name", sorted(UFUNCS))
def test_numpy_functions_give_the_same_bits_at_any_width(name):
    # a batch column equals its one-point jet only because numpy's SIMD loops
    # give an element the same bits whatever the width or stride of its array
    f = UFUNCS[name]
    v = np.random.default_rng(3).uniform(-30, 30, 4096)  # spanning e^-30..e^30 where positive
    v = v if name in ("exp", "sin", "cos") else np.exp(v)
    whole = f(v)
    for width in (1, 7, 400):
        parts = np.concatenate([f(v[i:i + width]) for i in range(0, len(v), width)])
        assert np.array_equal(parts, whole), width
    strided = np.repeat(v, 3)[1::3]
    assert not strided.flags.contiguous and np.array_equal(f(strided), whole)
    # a float fault is flagged at any width and place: series find overflows by the flag
    bad = {"exp": 1000.0, "log": -1.0, "sqrt": -1.0, "sin": np.inf, "cos": np.inf,
           "power -0.5": -1.0, "power -1.5": 1e-250}[name]
    for width in (1, 7, 400, 4096):
        for place in {0, width // 2, width - 1}:
            x = v[:width].copy()
            x[place] = bad
            faults = []
            with np.errstate(all="call", call=lambda kind, flag: faults.append(kind)):
                f(x)
            assert faults, (width, place)


# -- Horner brackets at their orders, and sin/cos in one gather ---------------

def _uncut_compose(self, series, scale=None, factor=None):
    """Horner's rule with every bracket at the jet's order: the reference for compose_series."""
    w = self.coeffs.copy() if scale is None else self.coeffs * scale
    w[0] = 0.0
    coeffs = w * series[-1]
    coeffs[0] = series[-2] if len(series) > 1 else series[0]
    for c in reversed(series[:-2]):
        coeffs = (self._like(coeffs) * self._like(w)).coeffs
        coeffs[0] = c
    return self._like(coeffs if factor is None else np.multiply(coeffs, factor, out=coeffs))


SERIES = {"reciprocal": (), "sqrt": (), "exp": (), "log": (), "sin": (), "cos": (),
          "pow 0.5": (0.5,), "pow -0.5": (-0.5,), "pow 1/3": (1 / 3,)}


@pytest.mark.parametrize("width", [1, 21, 400])
@pytest.mark.parametrize("name", sorted(SERIES))
def test_horner_brackets_at_their_orders_are_the_uncut_horner(name, width, monkeypatch):
    rng = np.random.default_rng(width)
    for order, shape in itertools.product(range(MAX_ORDER + 1), [(), (3,)]):
        coeffs = rng.uniform(-0.4, 0.4, (n_coeffs(order), *shape, width))
        coeffs[0] = rng.uniform(0.5, 2.0, (*shape, width))  # in every series' domain
        jet = Jet._new(np.zeros((width, 3)), order, coeffs)  # order 0 as `cut` makes it
        method = getattr(Jet, name.split()[0])
        got = method(jet, *SERIES[name])
        with monkeypatch.context() as m:
            m.setattr(Jet, "compose_series", _uncut_compose)
            want = method(jet, *SERIES[name])
        assert got.order == want.order == order
        assert got.coeffs.shape == want.coeffs.shape
        assert got.coeffs.tobytes() == want.coeffs.tobytes(), (order, shape)


@pytest.mark.parametrize("name", ["sin", "cos"])
def test_sin_cos_terms_are_the_per_term_form(name):
    v = np.random.default_rng(5).uniform(-20, 20, (3, 21))
    v[0, :4] = (0.0, -0.0, np.pi, -np.pi / 2)
    s, c = np.sin(v), np.cos(v)
    per_term = {"sin": (s, c, -s, -c), "cos": (c, -s, -c, s)}[name]
    for order in range(MAX_ORDER + 1):
        want = np.array([per_term[k % 4] / math.factorial(k) for k in range(order + 1)])
        got = jets._trig(v, order, ("sin", "cos").index(name))
        assert got.tobytes() == want.tobytes(), order
