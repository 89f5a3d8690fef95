import math

import numpy as np
import pytest

from srsurf import (MAX_ORDER, FieldProgram, MetricField, OneForm,
                    SingularFrameError, build_singular_frame,
                    characteristic_field, delta_basis, directional_derivative,
                    lambda_identities, locate_sigma, nonholonomity,
                    sigma_invariants)
from srsurf.fields import curl
from srsurf.frame import jvec_cross, jvec_dot, jvec_values
from srsurf.singular import SINGULAR_FRAME_ORDER

from conftest import (OFF_DIAGONAL_METRIC, SPECIAL_FORM, SPECIAL_METRIC,
                      SPECIAL_POINT, TURNED_FORM, TURNED_METRIC, TURNED_POINT,
                      assert_adapted, box_points, pullback)


# -- locate_sigma ----------------------------------------------------------

def test_locate_sigma_omega1(omega1, euclid):
    (sp,) = locate_sigma(omega1, euclid, [((-1, 0, 0), (1, 0, 0))])[0]
    assert np.allclose(sp.point, (0, 0, 0), atol=1e-9)
    assert sp.lambda_residual < 1e-10
    assert sp.transversal
    assert sp.lambda_gradient_on_delta > 1e-3


def test_locate_sigma_offset_segment(omega1, euclid):
    (sp,) = locate_sigma(omega1, euclid, [((-0.8, 0.4, -0.2), (0.9, 0.4, -0.2))])[0]
    assert abs(sp.point[0]) < 1e-9
    assert sp.point[1] == pytest.approx(0.4)


def test_locate_sigma_none_for_contact_forms(omega0, heisenberg, euclid):
    assert locate_sigma(omega0, euclid, [((-1, -1, -1), (1, 1, 1))])[0] == []
    assert locate_sigma(heisenberg, euclid, [((-1, -1, 0), (1, 1, 0))])[0] == []


# -- characteristic field --------------------------------------------------

def test_characteristic_field_omega0(omega0):
    v = characteristic_field(omega0.evaluate((0.7, -0.4, 1.2)))
    assert np.allclose(np.ravel(jvec_values(v)), [0, 0, 1], atol=1e-12)


def test_characteristic_field_omega1_off_sigma(omega1):
    v = characteristic_field(omega1.evaluate((0.5, 0.0, 0.0)))
    assert np.allclose(np.ravel(jvec_values(v)), [0, 1, 0], atol=1e-12)


def test_characteristic_field_omega1_on_sigma(omega1):
    v = characteristic_field(omega1.evaluate((0.0, 0.3, -0.1)))
    assert np.allclose(np.ravel(jvec_values(v)), [0, 1, 0], atol=1e-13)


@pytest.mark.parametrize("c", ["1e-12", "1e6"])
def test_characteristic_field_is_scale_free(omega1, c):
    # omega -> c omega scales V = w / omega(w) by 1/c, off and on Sigma
    scaled = OneForm.parse(f"{c}*dy + {c}*x^2*dz")
    for p in [(0.5, 0.1, 0.0), (0.0, 0.3, -0.1)]:
        want = jvec_values(characteristic_field(omega1.evaluate(p)))
        got = np.array(jvec_values(characteristic_field(scaled.evaluate(p)))) * float(c)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_characteristic_field_contract(omega1, rng):
    # iota_V d(omega) = 0 componentwise and omega(V) = 1 off Sigma
    for _ in range(6):
        p = tuple(rng.uniform(0.2, 1.5, 3))
        v = characteristic_field(omega1.evaluate(p))
        b = jvec_values(curl(omega1.evaluate(p)))
        contraction = jvec_cross(jvec_values(v), b)  # d(omega)(V, .)
        assert max(abs(c) for c in contraction) < 1e-9
        w = omega1.evaluate(p)
        assert abs(jvec_dot(w, v).value - 1.0) < 1e-12


def test_characteristic_field_nonexistent():
    # omega = x dy has w = dx^dy-direction with omega(w) = 0 but w != 0
    omega = OneForm.parse("x*dy")
    with pytest.raises(SingularFrameError):
        characteristic_field(omega.evaluate((1.0, 0.0, 0.0)))


@pytest.fixture
def evaluated_points(monkeypatch):
    """The points of every OneForm.evaluate call made during the test."""
    points = []
    evaluate = OneForm.evaluate

    def counted(self, point, order):
        points.append(tuple(np.ravel(point).tolist()))
        return evaluate(self, point, order)

    monkeypatch.setattr(OneForm, "evaluate", counted)
    return points


def test_characteristic_field_evaluates_omega_once_per_point(omega1, evaluated_points):
    characteristic_field(omega1.evaluate((0.0, 0.3, -0.1), 4))
    # on Sigma the jets at the point alone give w / omega(w)
    assert evaluated_points == [(0.0, 0.3, -0.1)]


def test_singular_frame_evaluates_omega_once_per_point(omega1, euclid, evaluated_points):
    build_singular_frame(omega1, euclid, (0.0, 0.3, -0.1), order=3)
    # the Sigma point, whose jets give lambda and E3
    assert evaluated_points == [(0.0, 0.3, -0.1)]


@pytest.mark.parametrize("c", ["1e-12", "1e6"])
def test_characteristic_field_nonexistent_is_scale_free(c):
    omega = OneForm.parse(f"{c}*x*dy")
    with pytest.raises(SingularFrameError, match="no normalized"):
        characteristic_field(omega.evaluate((1.0, 0.0, 0.0)))


@pytest.mark.parametrize("c", ["1", "1e-12", "1e6"])
@pytest.mark.parametrize("text, why", [
    # w = (x, y, -2z) and omega(w) = -2z vanish at the origin, but omega(w)
    # does not divide w
    ("{c}*y*z*dx - {c}*x*z*dy + {c}*dz", "does not divide"),
    # w = (0, -2x, 0) vanishes at the origin, and omega(w) everywhere
    ("{c}*(1 + x^2)*dz", "no linear part"),
])
def test_characteristic_field_not_special(text, why, c):
    omega = OneForm.parse(text.format(c=c))
    with pytest.raises(SingularFrameError, match=f"{why}.*not special"):
        characteristic_field(omega.evaluate((0.0, 0.0, 0.0)))


def test_characteristic_field_error_names_the_point():
    # on Sigma = {x = 0} of dy + x^3 dz, omega(w) = -3x^2 has no linear part
    omega = OneForm.parse("dy + x^3*dz")
    want = "omega(w) has no linear part at (0.0, 0.0, 0.0): not special"
    with pytest.raises(SingularFrameError) as alone:
        characteristic_field(omega.evaluate((0.0, 0.0, 0.0)))
    assert str(alone.value) == want
    with pytest.raises(SingularFrameError) as row:  # row 1 of a batch; row 0 is regular
        characteristic_field(omega.evaluate(np.array([[0.5, 0.1, 0.0], [0.0, 0.0, 0.0]])))
    assert str(row.value) == want


# -- singular frame --------------------------------------------------------

def test_singular_frame_origin(omega1, euclid):
    frame, c = build_singular_frame(omega1, euclid, (0, 0, 0))
    assert np.allclose(np.ravel(jvec_values(frame.E1)), [0, 0, 1], atol=1e-12)
    assert np.allclose(np.ravel(jvec_values(frame.E3)), [0, 1, 0], atol=1e-13)
    assert frame.kind == "singular"
    q = sigma_invariants(c)
    assert abs(q.Q112) < 1e-12 and abs(q.Q212) < 1e-12


def test_singular_frame_near_sigma_identities(omega1, euclid):
    off_diagonal = MetricField.from_upper_triangle(OFF_DIAGONAL_METRIC)
    for metric in (euclid, off_diagonal):
        for p in ((0.3, 0.0, 0.0), (-0.25, 0.4, 0.1),
                  (0.0, 0.2, -0.4), (0.0, -0.7, 0.5)):
            frame, c = build_singular_frame(omega1, metric, p)
            assert_adapted(frame, omega1.evaluate(p), metric.evaluate(p))
            r1, r2 = lambda_identities(frame, c)
            assert abs(r1) < 1e-10
            assert abs(r2) < 1e-8
            # C3_23 = C3_31 = 0 and c3_12 = lambda, i.e. C3_12 = -lambda
            assert abs(c.C3_23.value) < 1e-8
            assert abs(c.C3_31.value) < 1e-8
            assert abs(c.C3_12.value + frame.lam.value) < 1e-8


def test_singular_frame_duality(omega1, euclid):
    frame, _ = build_singular_frame(omega1, euclid, (0.2, -0.3, 0.5))
    for a, eta in enumerate(frame.coframe):
        for b, e in enumerate(frame.frame):
            want = 1.0 if a == b else 0.0
            assert abs(jvec_dot(eta, e).value - want) < 1e-9


def test_singular_frame_transversality_failure(heisenberg, euclid):
    # lambda for the rotationally symmetric fixture has a critical point at
    # the origin, so d(lambda)|_Delta vanishes there exactly
    with pytest.raises(SingularFrameError, match="not transversal"):
        build_singular_frame(heisenberg, euclid, (0.0, 0.0, 0.0))


@pytest.mark.parametrize("p", [(1e-10, 0.0, 0.0), (1e-10, -2e-10, 0.3)])
def test_singular_frame_transversality_below_tolerance(heisenberg, euclid, p):
    # next to the critical point d(lambda)|_Delta is nonzero but tiny
    lam = nonholonomity(heisenberg, euclid, p, 2)
    dlam = tuple(lam.partial(a) for a in range(3))
    assert any(jvec_values(jvec_cross(heisenberg.evaluate(p, 2), dlam)))
    with pytest.raises(SingularFrameError, match="not transversal"):
        build_singular_frame(heisenberg, euclid, p)


# -- Sigma invariants ------------------------------------------------------

def test_sigma_invariants_rescale_invariance(omega1, euclid):
    scaled = omega1.scale(lambda p, n: (nonholonomity(omega1, euclid, p, n) ** 2).exp())
    for p in ((0.0, 0.0, 0.0), (0.0, 0.5, -0.3)):
        q0 = sigma_invariants(build_singular_frame(omega1, euclid, p)[1])
        q1 = sigma_invariants(build_singular_frame(scaled, euclid, p)[1])
        assert abs(q0.Q112 - q1.Q112) < 1e-6
        assert abs(q0.Q212 - q1.Q212) < 1e-6


def test_coframe_change_consistency(omega1, euclid):
    # for omega-tilde = e^{lambda^2} omega, eta3 = e^{-phi} eta3-tilde at Sigma
    phi = FieldProgram(lambda p, n: nonholonomity(omega1, euclid, p, n) ** 2)
    scaled = omega1.scale(lambda p, n: phi(p, n).exp())
    for p in ((0.0, 0.0, 0.0), (0.0, 0.4, 0.2)):
        f0, _ = build_singular_frame(omega1, euclid, p)
        f1, _ = build_singular_frame(scaled, euclid, p)
        factor = math.exp(-phi(p).value[0])
        for a in range(3):
            assert abs(f0.eta3[a].value - factor * f1.eta3[a].value) < 1e-8


def test_lambda_conformal_homogeneity(omega1, euclid, rng):
    phi = FieldProgram.parse("x + 2*y")
    scaled = omega1.scale(lambda p, n: phi(p, n).exp())
    for p in box_points(rng, 10):
        lam0 = nonholonomity(omega1, euclid, p).value
        lam1 = nonholonomity(scaled, euclid, p).value
        want = math.exp(phi(p).value[0]) * lam0
        assert abs(lam1 - want) <= 1e-9 * (1 + abs(want))


def test_domega_on_delta_is_minus_lambda(omega1, heisenberg, euclid, rng):
    # d(omega)(E1, E2) + lambda = 0 for the oriented kernel basis
    for omega in (omega1, heisenberg):
        for p in box_points(rng, 5):
            e1, e2 = delta_basis(omega.evaluate(p), euclid.evaluate(p))[:2]
            b = curl(omega.evaluate(p))
            val = jvec_dot(b, jvec_cross(jvec_values(e1), jvec_values(e2))).value
            lam = nonholonomity(omega, euclid, p).value
            assert abs(val + lam) < 1e-9


# -- a special form with nonzero Q -----------------------------------------

def _sigma_frame(form, metric, p, order=4):
    return build_singular_frame(OneForm.parse(form),
                                MetricField.from_upper_triangle(metric), p, order)


@pytest.mark.parametrize("order", range(SINGULAR_FRAME_ORDER, MAX_ORDER + 1))
def test_special_form_frame_on_sigma(order):
    frame, c = _sigma_frame(SPECIAL_FORM, SPECIAL_METRIC, SPECIAL_POINT, order)
    # w = omega(w) d_z, so E3 = d_z in every coefficient
    e3 = np.stack([e.coeffs for e in frame.E3])
    e3[2, 0] -= 1.0
    assert np.abs(e3).max() < 1e-13
    assert directional_derivative(frame.lam, frame.E2).value > 0
    q = sigma_invariants(c)
    assert q.Q112 == pytest.approx(0.0087890, abs=1e-7)
    assert q.Q212 == pytest.approx(-0.75248, abs=1e-5)


def _shear_preimage(p):
    """The point that Phi2 = (x + z^2/5, y, z + x y/4) maps to p."""
    x, y = p[0], p[1]
    for _ in range(8):  # Newton on x + (p_z - x y/4)^2 / 5 = p_x
        z = p[2] - x * y / 4
        x -= (x + z * z / 5 - p[0]) / (1 - z * y / 10)
    return x, y, p[2] - x * y / 4


@pytest.mark.parametrize("phi", [("-x", "-y", "z"), ("x + z^2/5", "y", "z + x*y/4")],
                         ids=["turn", "shear"])
def test_sigma_invariants_under_pullback(phi):
    # Q(Phi*omega, Phi*g)(q) = Q(omega, g)(Phi(q)) for orientation-preserving Phi
    want = sigma_invariants(_sigma_frame(SPECIAL_FORM, SPECIAL_METRIC, SPECIAL_POINT)[1])
    form, metric = pullback(SPECIAL_FORM, SPECIAL_METRIC, phi)
    q = TURNED_POINT if phi[0] == "-x" else _shear_preimage(SPECIAL_POINT)
    got = sigma_invariants(_sigma_frame(form, metric, q)[1])
    assert got.Q112 == pytest.approx(want.Q112, rel=1e-12, abs=0)
    assert got.Q212 == pytest.approx(want.Q212, rel=1e-12, abs=0)


def test_turned_fixture_is_the_pullback():
    # the selftest's hand-written pullback by (-x, -y, z) against sympy's
    form, metric = pullback(SPECIAL_FORM, SPECIAL_METRIC, ("-x", "-y", "z"))
    for a, b in ((OneForm.parse(TURNED_FORM), OneForm.parse(form)),
                 (MetricField.from_upper_triangle(TURNED_METRIC),
                  MetricField.from_upper_triangle(metric))):
        for p in ((0.3, -0.2, 0.5), TURNED_POINT):
            for ja, jb in zip(np.ravel(a.evaluate(p, 3)), np.ravel(b.evaluate(p, 3))):
                assert np.allclose(ja.coeffs, jb.coeffs, rtol=1e-14, atol=1e-14)
