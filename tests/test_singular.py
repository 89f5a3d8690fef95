import math

import numpy as np
import pytest

from srsurf import (FieldProgram, MetricField, OneForm, SingularFrameError,
                    build_singular_frame, characteristic_field,
                    check_special_rescale, delta_basis, exterior_derivative,
                    lambda_identities, locate_sigma, nonholonomity,
                    sigma_invariant_derivative, sigma_invariants)
from srsurf.frame import jvec_dot, jvec_values

from conftest import OFF_DIAGONAL_METRIC, assert_adapted, box_points


# -- locate_sigma ----------------------------------------------------------

def test_locate_sigma_omega1(omega1, euclid):
    sp = locate_sigma(omega1, euclid, ((-1, 0, 0), (1, 0, 0)))
    assert sp is not None
    assert np.allclose(sp.point, (0, 0, 0), atol=1e-9)
    assert sp.lambda_residual < 1e-10
    assert sp.transversal
    assert sp.lambda_gradient_on_delta > 1e-3


def test_locate_sigma_offset_segment(omega1, euclid):
    sp = locate_sigma(omega1, euclid, ((-0.8, 0.4, -0.2), (0.9, 0.4, -0.2)))
    assert sp is not None
    assert abs(sp.point[0]) < 1e-9
    assert sp.point[1] == pytest.approx(0.4)


def test_locate_sigma_none_for_contact_forms(omega0, heisenberg, euclid):
    assert locate_sigma(omega0, euclid, ((-1, -1, -1), (1, 1, 1))) is None
    assert locate_sigma(heisenberg, euclid, ((-1, -1, 0), (1, 1, 0))) is None


# -- characteristic field --------------------------------------------------

def test_characteristic_field_omega0(omega0):
    v = characteristic_field(omega0, (0.7, -0.4, 1.2))
    assert np.allclose(jvec_values(v), [0, 0, 1], atol=1e-12)


def test_characteristic_field_omega1_off_sigma(omega1):
    v = characteristic_field(omega1, (0.5, 0.0, 0.0))
    assert np.allclose(jvec_values(v), [0, 1, 0], atol=1e-12)


def test_characteristic_field_omega1_on_sigma(omega1):
    v = characteristic_field(omega1, (0.0, 0.3, -0.1))
    assert np.allclose(jvec_values(v), [0, 1, 0], atol=1e-8)


@pytest.mark.parametrize("c", ["1e-12", "1e6"])
def test_characteristic_field_is_scale_free(omega1, c):
    # omega -> c omega scales V = w / omega(w) by 1/c, off and on Sigma
    scaled = OneForm.parse(f"{c}*dy + {c}*x^2*dz")
    for p in [(0.5, 0.1, 0.0), (0.0, 0.3, -0.1)]:
        want = jvec_values(characteristic_field(omega1, p))
        got = np.array(jvec_values(characteristic_field(scaled, p))) * float(c)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_characteristic_field_contract(omega1, rng):
    # iota_V d(omega) = 0 componentwise and omega(V) = 1 off Sigma
    for _ in range(6):
        p = tuple(rng.uniform(0.2, 1.5, 3))
        v = characteristic_field(omega1, p)
        b = exterior_derivative(omega1, p)
        vv = jvec_values(v)
        contraction = (b.beta12.value * vv[1] - b.beta31.value * vv[2],
                       b.beta23.value * vv[2] - b.beta12.value * vv[0],
                       b.beta31.value * vv[0] - b.beta23.value * vv[1])
        assert max(abs(c) for c in contraction) < 1e-9
        w = omega1.evaluate(p)
        assert abs(jvec_dot(w, v).value - 1.0) < 1e-12


def test_characteristic_field_nonexistent():
    # omega = x dy has w = dx^dy-direction with omega(w) = 0 but w != 0
    omega = OneForm.parse("x*dy")
    with pytest.raises(SingularFrameError):
        characteristic_field(omega, (1.0, 0.0, 0.0))


@pytest.fixture
def evaluated_points(monkeypatch):
    """The points of every OneForm.evaluate call made during the test."""
    points = []
    evaluate = OneForm.evaluate

    def counted(self, point, order):
        points.append(point)
        return evaluate(self, point, order)

    monkeypatch.setattr(OneForm, "evaluate", counted)
    return points


def test_characteristic_field_evaluates_omega_once_per_point(omega1, evaluated_points):
    characteristic_field(omega1, (0.0, 0.3, -0.1))
    # on Sigma: the point, whose jets also give the Sigma-normal, and the
    # four extrapolation points, each evaluated once for omega and d(omega)
    assert len(evaluated_points) == 5 == len(set(evaluated_points))


def test_singular_frame_evaluates_omega_once_per_point(omega1, euclid, evaluated_points):
    build_singular_frame(omega1, euclid, (0.0, 0.3, -0.1), order=3)
    # the Sigma point, whose jets give lambda, the Sigma-normal and E3, and
    # the four extrapolation points of E3
    assert len(evaluated_points) == 5 == len(set(evaluated_points))


@pytest.mark.parametrize("c", ["1e-12", "1e6"])
def test_characteristic_field_nonexistent_is_scale_free(c):
    omega = OneForm.parse(f"{c}*x*dy")
    with pytest.raises(SingularFrameError, match="no normalized"):
        characteristic_field(omega, (1.0, 0.0, 0.0))


# -- special-form rescale checks -------------------------------------------

def test_check_special_rescale_lambda_squared(omega1, euclid):
    lam = FieldProgram(lambda p, n: nonholonomity(omega1, euclid, p, n))
    phi = lam * lam
    pts = [(0.0, 0.2, 0.1), (0.0, -0.4, 0.3)]
    for entry in check_special_rescale(omega1, phi, pts):
        assert entry["passes"]


def test_check_special_rescale_const(omega1):
    phi = FieldProgram.constant(2.5)
    for entry in check_special_rescale(omega1, phi, [(0.0, 0.1, -0.2)]):
        assert entry["passes"]


@pytest.mark.parametrize("c", ["1", "1e-12", "1e6"])
def test_check_special_rescale_x_fails(c):
    # d(x)|_Delta = 1 on Sigma; the bound must not grow with omega -> c omega
    omega = OneForm.parse(f"{c}*dy + {c}*x^2*dz")
    phi = FieldProgram.parse("x")
    for entry in check_special_rescale(omega, phi, [(0.0, 0.1, -0.2)]):
        assert not entry["passes"]
        assert entry["lambda_scale"] == pytest.approx(2.0, rel=1e-12)


# -- singular frame --------------------------------------------------------

def test_singular_frame_origin(omega1, euclid):
    frame, c = build_singular_frame(omega1, euclid, (0, 0, 0))
    assert np.allclose(jvec_values(frame.E1), [0, 0, 1], atol=1e-12)
    assert np.allclose(jvec_values(frame.E3), [0, 1, 0], atol=1e-8)
    assert frame.kind == "singular"
    q = sigma_invariants(c)
    assert abs(q.Q112) < 1e-7 and abs(q.Q212) < 1e-7


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
    # the origin, so d(lambda)|_Delta vanishes there
    with pytest.raises(SingularFrameError):
        build_singular_frame(heisenberg, euclid, (0.0, 0.0, 0.0))


# -- Sigma invariants ------------------------------------------------------

def test_sigma_invariants_rescale_invariance(omega1, euclid):
    lam = FieldProgram(lambda p, n: nonholonomity(omega1, euclid, p, n))
    scaled = omega1.scale((lam * lam).exp())
    for p in ((0.0, 0.0, 0.0), (0.0, 0.5, -0.3)):
        q0 = sigma_invariants(build_singular_frame(omega1, euclid, p)[1])
        q1 = sigma_invariants(build_singular_frame(scaled, euclid, p)[1])
        assert abs(q0.Q112 - q1.Q112) < 1e-6
        assert abs(q0.Q212 - q1.Q212) < 1e-6


def test_coframe_change_consistency(omega1, euclid):
    # for omega-tilde = e^{lambda^2} omega, eta3 = e^{-phi} eta3-tilde at Sigma
    lam = FieldProgram(lambda p, n: nonholonomity(omega1, euclid, p, n))
    phi = lam * lam
    scaled = omega1.scale(phi.exp())
    for p in ((0.0, 0.0, 0.0), (0.0, 0.4, 0.2)):
        f0, _ = build_singular_frame(omega1, euclid, p)
        f1, _ = build_singular_frame(scaled, euclid, p)
        factor = math.exp(-phi.value(p))
        for a in range(3):
            assert abs(f0.eta3[a].value - factor * f1.eta3[a].value) < 1e-8


def test_sigma_invariant_derivative_along_symmetry(omega1, euclid):
    # translations in y and z preserve omega1, so Q is constant along them
    for d in ((0, 1, 0), (0, 0, 1)):
        dq1, dq2 = sigma_invariant_derivative(omega1, euclid, (0, 0.2, 0.1), d)
        assert abs(dq1) < 1e-6
        assert abs(dq2) < 1e-6


def test_lambda_conformal_homogeneity(omega1, euclid, rng):
    phi = FieldProgram.parse("x + 2*y")
    scaled = omega1.scale(phi.exp())
    for p in box_points(rng, 10):
        lam0 = nonholonomity(omega1, euclid, p).value
        lam1 = nonholonomity(scaled, euclid, p).value
        want = math.exp(phi.value(p)) * lam0
        assert abs(lam1 - want) <= 1e-9 * (1 + abs(want))


def test_domega_on_delta_is_minus_lambda(omega1, heisenberg, euclid, rng):
    # d(omega)(E1, E2) + lambda = 0 for the oriented kernel basis
    for omega in (omega1, heisenberg):
        for p in box_points(rng, 5):
            e1, e2 = delta_basis(omega.evaluate(p), euclid.evaluate(p))
            b = exterior_derivative(omega, p)
            val = b.apply(jvec_values(e1), jvec_values(e2)).value
            lam = nonholonomity(omega, euclid, p).value
            assert abs(val + lam) < 1e-9
