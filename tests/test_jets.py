import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srsurf import (BudgetExhausted, FieldProgram, Jet, JetError, jet_seed,
                    multi_indices, n_coeffs)
from srsurf.jets import _index_map, _mul_table


def test_multi_index_enumeration_graded():
    mis = multi_indices(4)
    assert len(mis) == n_coeffs(4) == 35
    degrees = [sum(mi) for mi in mis]
    assert degrees == sorted(degrees)
    assert mis[0] == (0, 0, 0)
    assert len(set(mis)) == len(mis)


def test_seed_constant():
    j = jet_seed((1.0, 2.0, 3.0), 4.0, 4)
    assert j.value == 4.0
    assert np.count_nonzero(j.coeffs) == 1
    assert j.valid_order == 4


def test_seed_coordinates():
    j = jet_seed((2, 0, 0), "x", 4)
    assert j.value == 2.0
    assert j.coeff((1, 0, 0)) == 1.0
    assert np.count_nonzero(j.coeffs) == 2
    j = jet_seed((0, 1, 5), "y", 4)
    assert j.value == 1.0
    assert j.coeff((0, 1, 0)) == 1.0
    assert np.count_nonzero(j.coeffs) == 2


def test_seed_order_out_of_range():
    with pytest.raises(JetError):
        jet_seed((0, 0, 0), "x", 0)
    with pytest.raises(JetError):
        jet_seed((0, 0, 0), "x", 7)


def test_square_of_x():
    x = jet_seed((2, 0, 0), "x", 4)
    sq = x * x
    assert sq.value == 4.0
    assert sq.coeff((1, 0, 0)) == 4.0
    assert sq.coeff((2, 0, 0)) == 1.0  # second derivative 2 / 2!
    assert sq.partial_value((2, 0, 0)) == 2.0


def test_subtraction_cancels():
    y = jet_seed((0.3, -1.2, 0.8), "y", 4)
    f = (1 + y * y).sqrt() * y.exp()
    assert np.allclose((f - f).coeffs, 0.0)


def test_product_with_reciprocal_is_one():
    y = jet_seed((0, 1, 0), "y", 4)
    f = 1 + y * y
    prod = f * f.reciprocal()
    expect = np.zeros_like(prod.coeffs)
    expect[0] = 1.0
    assert np.allclose(prod.coeffs, expect, atol=1e-12)


def test_base_point_mismatch():
    a = jet_seed((0, 0, 0), "x", 4)
    b = jet_seed((1, 0, 0), "x", 4)
    with pytest.raises(JetError):
        a + b


def test_division_by_zero_value():
    x = jet_seed((0, 0, 0), "x", 4)
    with pytest.raises(JetError):
        (1 + x) / x


def test_sqrt_example():
    j = jet_seed((0, 0, 0), 4.0, 4).sqrt()
    assert j.value == 2.0
    y = jet_seed((0, 1, 0), "y", 4)
    s = (1 + y * y).sqrt()
    assert abs(s.value - math.sqrt(2)) < 1e-14
    # d/dy sqrt(1+y^2) = y / sqrt(1+y^2)
    assert abs(s.partial_value((0, 1, 0)) - 1 / math.sqrt(2)) < 1e-13


def test_sqrt_domain_error():
    with pytest.raises(JetError):
        jet_seed((0, 0, 0), -1.0, 4).sqrt()
    with pytest.raises(JetError):
        jet_seed((0, 0, 0), 0.0, 3).log()


def test_exp_taylor_coefficients():
    x = jet_seed((0, 0, 0), "x", 4)
    e = x.exp()
    for k in range(5):
        assert abs(e.coeff((k, 0, 0)) - 1 / math.factorial(k)) < 1e-14


def test_trig_values():
    z = jet_seed((0.3, 0.1, 0.7), "z", 4)
    s, c = z.sin(), z.cos()
    assert abs(s.value - math.sin(0.7)) < 1e-14
    assert abs(c.value - math.cos(0.7)) < 1e-14
    assert abs(s.partial_value((0, 0, 1)) - math.cos(0.7)) < 1e-13
    ident = s * s + c * c
    expect = np.zeros_like(ident.coeffs)
    expect[0] = 1.0
    assert np.allclose(ident.coeffs, expect, atol=1e-12)


def test_partial_extraction_examples():
    x = jet_seed((3, 0, 0), "x", 4)
    d = (x * x).partial(0)
    assert d.value == 6.0
    assert d.coeff((1, 0, 0)) == 2.0
    const = jet_seed((3, 0, 0), 5.0, 4)
    assert np.allclose(const.partial(1).coeffs, 0.0)
    y = jet_seed((0, 1, 0), "y", 4)
    dy = (1 + y * y).sqrt().partial(1)
    assert abs(dy.value - 1 / math.sqrt(2)) < 1e-13
    # d/dy (y / sqrt(1+y^2)) = (1+y^2)^{-3/2}
    assert abs(dy.partial_value((0, 1, 0)) - 2 ** -1.5) < 1e-12


def test_partials_commute_exactly():
    x = jet_seed((0.5, -0.2, 0.9), "x", 5)
    y = jet_seed((0.5, -0.2, 0.9), "y", 5)
    z = jet_seed((0.5, -0.2, 0.9), "z", 5)
    f = (x * y + z).exp() * (2 + y).log()
    a = f.partial(0).partial(1)
    b = f.partial(1).partial(0)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_budget_bookkeeping():
    x = jet_seed((1, 2, 3), "x", 3)
    j = x * x * x
    for k in range(3):
        assert j.valid_order == 3 - k
        j = j.partial(0)
    assert j.valid_order == 0
    with pytest.raises(BudgetExhausted):
        j.partial(0)


def test_valid_order_min_propagates():
    x = jet_seed((1, 0, 0), "x", 4)
    worn = x.partial(0)  # valid_order 3
    assert (x + worn).valid_order == 3
    assert (x * worn).valid_order == 3


@st.composite
def jet_pair(draw):
    point = tuple(draw(st.floats(-2, 2)) for _ in range(3))
    order = draw(st.integers(2, 5))

    def rand_jet():
        x, y, z = (jet_seed(point, v, order) for v in "xyz")
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
        x, y, z = (jet_seed(tuple(p), v, order) for v in "xyz")
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


# -- the table-driven kernels against the loops they replaced --------------

def _loop_partial(jet, axis):
    """(coeffs, valid_order) of d/d(axis), one coefficient at a time."""
    imap = _index_map(jet.order)
    out = np.zeros_like(jet.coeffs)
    for k, mi in enumerate(multi_indices(jet.order)):
        if sum(mi) >= jet.order:
            continue
        up = list(mi)
        up[axis] += 1
        out[k] = jet.coeffs[imap[tuple(up)]] * up[axis]
    valid = jet.valid_order - 1
    out[[sum(mi) > valid for mi in multi_indices(jet.order)]] = 0.0
    return out, valid


def _add_at_product(a, b):
    ia, ib, io = _mul_table(a.order)
    out = np.zeros_like(a.coeffs)
    np.add.at(out, io, a.coeffs[ia] * b.coeffs[ib])
    return out, min(a.valid_order, b.valid_order)


@st.composite
def random_jets(draw):
    order = draw(st.integers(1, 6))
    point = tuple(draw(st.floats(-2, 2)) for _ in range(3))
    coeffs = st.lists(st.floats(-1e3, 1e3), min_size=n_coeffs(order),
                      max_size=n_coeffs(order))
    return [Jet(point, order, np.array(draw(coeffs)), draw(st.integers(0, order)))
            for _ in range(2)]


@settings(max_examples=200, deadline=None)
@given(random_jets())
def test_kernels_match_reference_loops_bit_for_bit(jets):
    a, b = jets
    prod = a * b
    coeffs, valid = _add_at_product(a, b)
    assert np.array_equal(prod.coeffs, coeffs) and prod.valid_order == valid
    for axis in range(3):
        if a.valid_order == 0:
            with pytest.raises(BudgetExhausted):
                a.partial(axis)
            continue
        d = a.partial(axis)
        coeffs, valid = _loop_partial(a, axis)
        assert np.array_equal(d.coeffs, coeffs) and d.valid_order == valid


def test_public_constructor_checks():
    point = (0.0, 0.0, 0.0)
    for order in (0, 7):
        with pytest.raises(JetError):
            Jet(point, order, np.zeros(n_coeffs(max(order, 1))), 0)
    with pytest.raises(JetError):
        Jet(point, 3, np.zeros(n_coeffs(3) - 1), 3)
    with pytest.raises(BudgetExhausted):
        Jet(point, 3, np.zeros(n_coeffs(3)), -1)


def test_results_keep_a_point_of_plain_floats():
    x = Jet.variable(0, np.array([1, 2, 3]), 3)
    for result in (x * x, x + 1, -x, x.partial(0), x.exp(), x / 2, x ** 3):
        assert type(result.point) is tuple
        assert all(type(c) is float for c in result.point)


def test_integer_power_squares(monkeypatch):
    calls = []
    mul = Jet.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counted)
    k, v = 100000, 1.000001
    assert math.isclose(FieldProgram.parse(f"x^{k}").value((v, 0.0, 0.0)),
                        v ** k, rel_tol=1e-9)
    assert 0 < len(calls) <= 2 * math.ceil(math.log2(k))


def test_small_powers_multiply_as_products():
    x, y, z = (jet_seed((0.7, -0.3, 1.1), v, 5) for v in "xyz")
    x = (x + 0.3 * y * z).exp()
    # here the order of the factors shows in the last bits
    assert not np.array_equal((x * (x * x)).coeffs, ((x * x) * x).coeffs)
    assert np.array_equal((x ** 2).coeffs, (x * x).coeffs)
    assert np.array_equal((x ** 3).coeffs, ((x * x) * x).coeffs)
