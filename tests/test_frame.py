import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srsurf import (FieldProgram, Jet, JetError, MetricField, NoncontactError,
                    OneForm, build_contact_frame, build_system, delta_basis,
                    integrability_residuals, invariants_at, lie_bracket,
                    n_coeffs, nonholonomity)
from srsurf.fields import AFTER, NEXT
from srsurf.frame import quadratic_form, unit
from srsurf.selftest import GAUGE_ANGLE, turn

from conftest import (AXIAL_FORM, AXIAL_METRIC, CARTAN, HEISENBERG, OFF_DIAGONAL_METRIC,
                      OMEGA_1, assert_adapted, box_points)


def _vals(u):
    return [c.value[0] for c in u]


def _const_field(point, comps, order=4):
    return Jet.stack([Jet.constant(float(c), point, order) for c in comps])


def _field(point, fns, order=4):
    """Vector field given by componentwise closures of coordinate jets."""
    x, y, z = (Jet.variable(axis, point, order) for axis in range(3))
    return Jet.stack([f(x, y, z) for f in fns])


def _cross(u, v):
    return u[NEXT] * v[AFTER] - u[AFTER] * v[NEXT]


def _metric_dot(g, u, v):
    return (u * (g * v).sum(-1)).sum()


# -- delta_basis -----------------------------------------------------------

def test_delta_basis_origin(heisenberg, cartan, euclid):
    for w in (heisenberg, cartan):
        e1, e2 = delta_basis(w.evaluate((0, 0, 0)), euclid.evaluate((0, 0, 0)))[:2]
        assert np.allclose(_vals(e1), [1, 0, 0], atol=1e-14)
        assert np.allclose(_vals(e2), [0, 1, 0], atol=1e-14)


def test_delta_basis_seed_override(heisenberg, euclid):
    # at (0,1,0) the documented largest-projection rule seeds from y
    w, g = heisenberg.evaluate((0, 1, 0)), euclid.evaluate((0, 1, 0))
    e1, e2 = delta_basis(w, g)[:2]
    assert np.allclose(_vals(e1), [0, 1, 0], atol=1e-14)
    # E2 = unit(omega x E1) with omega = (1, 0, 1) there
    r = 1 / math.sqrt(2)
    assert np.allclose(_vals(e2), [-r, 0, r], atol=1e-14)


def test_delta_basis_orthonormal_random(heisenberg, euclid, rng):
    g = MetricField.from_upper_triangle(
        ["1 + x^2", "0", "0", "1 + z^2", "0", "2"])
    for metric in (euclid, g):
        for p in box_points(rng, 10):
            w, gm = heisenberg.evaluate(p), metric.evaluate(p)
            e1, e2 = delta_basis(w, gm)[:2]
            assert abs(_metric_dot(gm, e1, e1).value - 1) < 1e-10
            assert abs(_metric_dot(gm, e2, e2).value - 1) < 1e-10
            assert abs(_metric_dot(gm, e1, e2).value) < 1e-10
            assert abs((w * e1).sum().value) < 1e-10
            assert abs((w * e2).sum().value) < 1e-10


def test_delta_basis_vanishing_form(euclid):
    w = OneForm.parse("x*dx + y*dy + z*dz")
    with pytest.raises(JetError):
        delta_basis(w.evaluate((0, 0, 0)), euclid.evaluate((0, 0, 0)))


def _old_seed(w, g, s):
    """E1's seed as first written: (g n) x omega with n = omega x g e_s."""
    return _cross((g * _cross(w, g[:, s])).sum(-1), w)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-6.0, 6.0), st.floats(-6.0, 6.0))
def test_seed_is_the_projection_seed(seed, g_exp, w_exp):
    # q e_s - omega_s adj(g) omega = (g (omega x g e_s)) x omega for symmetric g,
    # coefficient by coefficient, and both give delta_basis's E1, which is one
    # order lower, on random order-2 jets of omega and of an SPD g at scales
    # 10^-6..10^6
    rng, point, order = np.random.default_rng(seed), (0.0, 0.0, 0.0), 2
    a = rng.normal(size=(3, 3))
    g0 = (a @ a.T + 0.1 * np.eye(3)) * 10 ** g_exp
    dg = rng.normal(size=(3, 3, n_coeffs(order))) * 0.3 * 10 ** g_exp
    dg[..., 0] = g0
    dg = (dg + dg.transpose(1, 0, 2)) / 2
    g = Jet(point, order, dg.transpose(2, 0, 1)[..., None])
    w = Jet(point, order, rng.normal(size=(n_coeffs(order), 3, 1)) * 10 ** w_exp)
    aw, q, norm = quadratic_form(w, g)
    s = int(np.argmax([g[i, i].value - w[i].value ** 2 / norm ** 2 for i in range(3)]))
    old = np.array([c.coeffs for c in _old_seed(w, g, s)])
    new = np.array([(q * float(i == s) - w[s] * aw[i]).coeffs for i in range(3)])
    assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()
    want = np.array([c.coeffs[:n_coeffs(order - 1)] for c in unit(g, _old_seed(w, g, s))[0]])
    got = np.array([c.coeffs for c in delta_basis(w, g)[0]])
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


# Jet's arithmetic, its derivatives and series, and its component methods
JET_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__pow__", "partial", "grad", "reciprocal", "pow",
           "sqrt", "exp", "log", "sin", "cos", "__getitem__", "sum", "stack", "cut")


def test_jet_product_counts(monkeypatch):
    # one adj(g) omega per frame gives lambda, |omega|_g and E1's seed, and
    # the coframe takes the covectors g E1, g E2 that `unit` formed; the
    # terms, the coefficient products at each product's result order times
    # its components, show each jet formed at the order its consumers keep,
    # on any machine.  A stacked product is one call: with one jet per
    # component the same work took 429 calls and 195 products, and 557 and 250;
    # with a frame of six (3,)-jets and nine named C's, 197 and 57, and 275 and 92;
    # with each series' first Horner step a jet product with a constant and its
    # terms added as constant jets, 194, 56 and 2,834, and 268, 81 and 25,961; with
    # each Horner bracket at the jet's order, not at the order its terms reach, 25,030 terms.
    omega, metric = OneForm.parse(AXIAL_FORM), MetricField.from_upper_triangle(AXIAL_METRIC)
    count = {"calls": 0, "products": 0, "terms": 0}

    def counting(name, fn):
        def counted(*args):
            count["calls"] += 1
            a, b = (args + (None,))[:2]
            if name.endswith("mul__") and isinstance(b, Jet):
                count["products"] += 1
                count["terms"] += (math.comb(min(a.order, b.order) + 6, 6)
                                   * math.prod(np.broadcast_shapes(a.shape, b.shape)))
            return fn(*args)
        return counted
    for name in JET_OPS:
        fn = vars(Jet)[name]
        static = isinstance(fn, staticmethod)
        counted = counting(name, fn.__func__ if static else fn)
        monkeypatch.setattr(Jet, name, staticmethod(counted) if static else counted)
    p = (0.4, 0.3, 0.1)
    invariants_at(omega, metric, p, 3)
    assert count == {"calls": 181, "products": 51, "terms": 2715}
    count.update(calls=0, products=0, terms=0)
    integrability_residuals(build_system(omega, metric, p, 5))
    assert count == {"calls": 243, "products": 75, "terms": 23742}
    # unpacking a (3,) jet is a stack and three indices, with no fourth ending in IndexError
    count.update(calls=0, products=0, terms=0)
    x = [Jet.variable(axis, p, 2) for axis in range(3)]
    a, b, c = Jet.stack(x)
    assert count == {"calls": 4, "products": 0, "terms": 0}
    assert all(np.array_equal(u.coeffs, v.coeffs) for u, v in zip((a, b, c), x))
    with pytest.raises(JetError, match="more axes than a jet of shape"):
        a, b = x[0]


# -- lie_bracket -----------------------------------------------------------

def test_lie_bracket_coordinate_fields():
    p = (0.4, -0.9, 0.1)
    dx = _const_field(p, (1, 0, 0))
    dy = _const_field(p, (0, 1, 0))
    br = lie_bracket(dx, dy)
    assert np.allclose(_vals(br), [0, 0, 0], atol=1e-15)


def test_lie_bracket_heisenberg_fields():
    p = (0.3, -0.8, 0.25)
    v = _field(p, (lambda x, y, z: 1 + 0 * x,
                   lambda x, y, z: 0 * x,
                   lambda x, y, z: -y))
    w = _field(p, (lambda x, y, z: 0 * x,
                   lambda x, y, z: 1 + 0 * x,
                   lambda x, y, z: x))
    br = lie_bracket(v, w)
    assert np.allclose(_vals(br), [0, 0, 2], atol=1e-14)


def test_lie_bracket_consumes_one_order():
    p = (0, 0, 0)
    v = _field(p, (lambda x, y, z: x * y,
                   lambda x, y, z: z,
                   lambda x, y, z: x), order=3)
    br = lie_bracket(v, v)
    assert br[0].order == 2


def test_bracket_structure_relation_cartan(cartan, euclid):
    # [E1, E2] = -(C1_12 E1 + C2_12 E2 + C3_12 E3) at the origin
    frame, (c12, _) = build_contact_frame(cartan, euclid, (0, 0, 0))
    e = frame.E.value[..., 0]
    br = lie_bracket(frame.E[0], frame.E[1]).value[:, 0]
    assert np.abs(br + c12.value[:, 0] @ e).max() < 1e-12


# -- nonholonomity ---------------------------------------------------------

def test_nonholonomity_oracles(heisenberg, cartan, omega1, euclid):
    assert abs(nonholonomity(heisenberg, euclid, (0, 0, 0)).value - 2.0) < 1e-12
    for y in (0.0, 0.7, -1.3):
        lam = nonholonomity(cartan, euclid, (0, y, 0)).value
        assert abs(lam - 1 / math.sqrt(1 + y * y)) < 1e-12
    for x in (0.6, -0.6, 1.2):
        lam = nonholonomity(omega1, euclid, (x, 0, 0)).value
        assert abs(lam - 2 * x / math.sqrt(1 + x ** 4)) < 1e-12


def _bracket_lambda(w, g, theta=0.0):
    """omega([E1, E2]) in the delta_basis gauge turned by the angle theta."""
    e1, e2 = turn(theta, *delta_basis(w, g)[:2])
    return (w * lie_bracket(e1, e2)).sum()


def test_bracket_lambda_so2_invariant(heisenberg, euclid, rng):
    for p in box_points(rng, 6):
        w, g = heisenberg.evaluate(p), euclid.evaluate(p)
        base = _bracket_lambda(w, g).value
        for theta in rng.uniform(0, 2 * math.pi, 3):
            rot = _bracket_lambda(w, g, theta).value
            assert abs(rot - base) < 1e-10


def test_nonholonomity_identity_matches_bracket(rng):
    # lambda = -(omega . curl omega) / sqrt(omega^T adj(g) omega) against
    # omega([E1, E2]) in the gauge turned by three constant angles and by a
    # point-dependent one, the brackets from jets one order higher
    metric = MetricField.from_upper_triangle(OFF_DIAGONAL_METRIC)
    angle = FieldProgram.parse(GAUGE_ANGLE)
    forms = [OneForm.parse(t) for t in
             (HEISENBERG, CARTAN, OMEGA_1, "dy + x^3*dz + sin(z)*dx")]
    for omega in forms:
        for p in box_points(rng, 4):
            for order in (1, 3, 5):
                w, g = omega.evaluate(p, order + 1), metric.evaluate(p, order + 1)
                lam = nonholonomity(omega, metric, p, order)
                assert lam.order == order - 1
                for theta in (0.0, 1.1, -2.6, angle(p, order)):
                    ref = _bracket_lambda(w, g, theta)
                    assert lam.order == ref.order
                    assert abs(lam.value - ref.value) <= 1e-13 * abs(ref.value)
                    scale = np.abs(ref.coeffs).max()
                    assert np.abs(lam.coeffs - ref.coeffs).max() <= 1e-11 * scale


# -- build_contact_frame ---------------------------------------------------

def test_contact_frame_heisenberg_origin(heisenberg, euclid):
    frame, C = build_contact_frame(heisenberg, euclid, (0, 0, 0))
    assert np.allclose(_vals(frame.E[2]), [0, 0, -2], atol=1e-13)
    assert np.allclose(_vals(frame.eta[2]), [0, 0, -0.5], atol=1e-13)
    assert frame.kind == "contact"


def test_contact_frame_cartan_origin_structure(cartan, euclid):
    _, (c12, c23_31) = build_contact_frame(cartan, euclid, (0, 0, 0))
    assert abs(c23_31[0, 0].value + 1.0) < 1e-12  # C1_23
    assert abs(c12[0].value) < 1e-12  # C1_12
    assert abs(c12[2].value - 1.0) < 1e-12  # C3_12


def test_contact_frame_heisenberg_slice_structure(heisenberg, euclid):
    # regression pin at (0,1,0), where the frame seeds from y; the values
    # are those of sympy on the same closed-form frame: E1 the unit
    # projection of d_y onto ker omega, E2 = unit(omega x E1)
    _, (c12, c23_31) = build_contact_frame(heisenberg, euclid, (0, 1, 0))
    assert abs(c23_31[0, 0].value + 0.25) < 1e-12  # C1_23
    assert abs(c23_31[1, 0].value) < 1e-12  # C1_31
    assert abs(c12[0].value) < 1e-12  # C1_12
    assert abs(c23_31[1, 1].value - 0.5) < 1e-12  # C2_31
    assert abs(c12[1].value - 1.5) < 1e-12  # C2_12


def test_frame_identities_random(heisenberg, cartan, euclid, rng):
    off_diagonal = MetricField.from_upper_triangle(OFF_DIAGONAL_METRIC)
    for omega in (heisenberg, cartan):
        for metric in (euclid, off_diagonal):
            for p in box_points(rng, 15):
                try:
                    frame, (c12, c23_31) = build_contact_frame(omega, metric, p)
                except NoncontactError:
                    continue
                assert_adapted(frame, omega.evaluate(p), metric.evaluate(p))
                # contact kind: C3_23 = C3_31 = 0, C3_12 = 1, C1_31 = C2_23
                assert np.abs(c23_31[:, 2].value).max() < 1e-8  # C3_23, C3_31
                assert abs(c12[2].value - 1.0) < 1e-8
                assert abs(c23_31[1, 0].value - c23_31[0, 1].value) < 1e-8


def test_noncontact_point_flagged(omega1, euclid):
    with pytest.raises(NoncontactError):
        build_contact_frame(omega1, euclid, (0, 0.3, 0.1))


def test_deta3_on_e1_e2_is_one(heisenberg, cartan, euclid, rng):
    # d(eta3)(E1, E2) = 1 at contact points: compute d of the eta3 jets
    for omega in (heisenberg, cartan):
        for p in box_points(rng, 5):
            frame, _ = build_contact_frame(omega, euclid, p)
            eta3 = frame.eta[2]
            b = (eta3[2].partial(1) - eta3[1].partial(2),
                 eta3[0].partial(2) - eta3[2].partial(0),
                 eta3[1].partial(0) - eta3[0].partial(1))
            u, v = frame.E.value[:2, :, 0]
            cross = np.cross(u, v)
            val = sum(b[i].value * cross[i] for i in range(3))
            assert abs(val - 1.0) < 1e-9

