"""Acceptance criteria 1-9.

Each criterion is a test, split into independent clauses where a criterion
bundles several.  Every clause is expected to pass.  Three groups of clauses
check corrected reference data rather than the printed values, for the
reasons given under "Deviations from the printed reference values" in the
README: the closed forms of K in criteria 1 and 2, the regular fixture that
carries the criterion-5 clauses the Heisenberg fixture cannot, and the
conversion of the injected f of criterion 6 to f = eta3(V).
"""

import math

import numpy as np
import pytest

from srsurf import (DegeneratePointError, FieldProgram, Jet, MetricField,
                    OneForm, assemble_and_verify_V, build_system,
                    build_singular_frame, characteristic_field, delta_basis,
                    frame_to_coordinate_gradient, integrability_residuals,
                    invariants_at, lambda_identities, locate_sigma,
                    nonholonomity, reconstruct_lnf, sigma_invariants,
                    torsion_and_connection_coeffs)
from srsurf.fields import curl
from srsurf.frame import jvec_cross, jvec_dot, jvec_values
from srsurf.selftest import rotated
from srsurf.symmetry import RESIDUAL_MIN_ORDER

import conftest
from conftest import AXIAL_METRIC, cartan_K, cartan_M, heis_K, heis_M

EUCLID = MetricField.identity()
HEIS, CARTAN, OMEGA_1, AXIAL = (
    OneForm.parse(text) for text in (conftest.HEISENBERG, conftest.CARTAN,
                                     conftest.OMEGA_1, conftest.AXIAL_FORM))
AXIAL_G = MetricField.from_upper_triangle(AXIAL_METRIC)


def sample_points(n, seed, scale=2.0):
    rng = np.random.default_rng(seed)
    return [tuple(rng.uniform(-scale, scale, 3).tolist()) for _ in range(n)]


# -- criterion 1: Heisenberg invariants ------------------------------------

def test_criterion1_heisenberg_M():
    for p in sample_points(100, 1):
        v, _, _ = invariants_at(HEIS, EUCLID, p)
        want = heis_M(*p)
        assert abs(v.M.value - want) <= 1e-8 * (1 + abs(want))


def test_criterion1_heisenberg_K():
    for p in sample_points(100, 1):
        v, _, _ = invariants_at(HEIS, EUCLID, p)
        want = heis_K(*p)
        assert abs(v.K.value - want) <= 1e-8 * (1 + abs(want)), (
            f"K at {p}: computed {v.K.value!r}, closed form {want!r}")


# -- criterion 2: Cartan invariants ----------------------------------------

def test_criterion2_cartan_M():
    for p in sample_points(100, 2):
        v, _, _ = invariants_at(CARTAN, EUCLID, p)
        want = cartan_M(*p)
        assert abs(v.M.value - want) <= 1e-8 * (1 + abs(want))


def test_criterion2_cartan_K():
    for p in sample_points(100, 2):
        v, _, _ = invariants_at(CARTAN, EUCLID, p)
        want = cartan_K(*p)
        assert abs(v.K.value - want) <= 1e-8 * (1 + abs(want)), (
            f"K at {p}: computed {v.K.value!r}, closed form {want!r}")


# -- criterion 3: frame identities -----------------------------------------

def test_criterion3_frame_identities():
    for omega, seed in ((HEIS, 31), (CARTAN, 32)):
        for p in sample_points(50, seed):
            v, frame, c = invariants_at(omega, EUCLID, p)
            a1, a2, _, _, _ = torsion_and_connection_coeffs(c)
            assert abs(c.C3_12.value - 1.0) < 1e-8
            assert abs(c.C3_23.value) < 1e-8
            assert abs(c.C3_31.value) < 1e-8
            assert abs(c.C1_31.value - c.C2_23.value) < 1e-8
            assert abs(a1.value ** 2 + a2.value ** 2 - v.M.value) < 1e-12


# -- criterion 4: gauge/orientation invariance -----------------------------

def test_criterion4_gauge_invariance():
    phi = FieldProgram.parse("x + 2*y")
    for omega, seed in ((HEIS, 41), (CARTAN, 42)):
        scaled = omega.scale(lambda p, n: phi(p, n).exp())
        for p in sample_points(25, seed):
            v0, frame, _ = invariants_at(omega, EUCLID, p)
            for variant in (scaled, -omega):
                v1, _, _ = invariants_at(variant, EUCLID, p)
                assert abs(v1.M.value - v0.M.value) <= 1e-8 * (1 + abs(v0.M.value))
                assert abs(v1.K.value - v0.K.value) <= 1e-8 * (1 + abs(v0.K.value))
            _, _, m2, k2 = rotated(frame, 0.7)
            assert abs(m2.value - v0.M.value) <= 1e-8 * (1 + abs(v0.M.value))
            assert abs(k2.value - v0.K.value) <= 1e-8 * (1 + abs(v0.K.value))


# -- criterion 5: symmetry system -----------------------------------------
#
# On the Euclidean Heisenberg fixture M and K are both functions of x^2 + y^2,
# so D = E1K E2M - E2K E1M vanishes identically: every point is degenerate
# and the EQ system, its residuals, the gradient and ln f are undefined.  Each
# clause asserts that, then checks its stated value on the axial fixture,
# whose z-translation symmetry has f = sqrt(1 + x^2 + y^2), the f that the
# stated values describe.

def _nondegenerate_points(omega, metric, n):
    pts = []
    for p in sample_points(400, 5):
        sys_ = build_system(omega, metric, p)
        if not sys_.degenerate:
            pts.append(p)
            if len(pts) == n:
                break
    return pts


def test_criterion5_residuals_at_nondegenerate_points():
    heis_pts = _nondegenerate_points(HEIS, EUCLID, 50)
    assert not heis_pts, (
        f"Heisenberg point {heis_pts[0]} reported non-degenerate, "
        "but D cancels identically there")
    with pytest.raises(DegeneratePointError):
        integrability_residuals(build_system(HEIS, EUCLID, sample_points(1, 5)[0],
                                             RESIDUAL_MIN_ORDER))

    pts = _nondegenerate_points(AXIAL, AXIAL_G, 50)
    assert len(pts) == 50, (
        f"protocol needs 50 non-degenerate points, found {len(pts)}/400")
    for p in pts:
        r = integrability_residuals(build_system(AXIAL, AXIAL_G, p, RESIDUAL_MIN_ORDER))
        assert max(abs(v) for v in r) < 1e-6, f"residuals {r} at {p}"


def test_criterion5_reconstructed_gradient():
    for p in sample_points(20, 51, scale=1.5):
        sys_ = build_system(HEIS, EUCLID, p)
        assert sys_.degenerate, f"Heisenberg point {p} reported non-degenerate"
        with pytest.raises(DegeneratePointError):
            frame_to_coordinate_gradient(sys_)

        want = np.array([p[0], p[1], 0.0]) / (1 + p[0] ** 2 + p[1] ** 2)
        grad = frame_to_coordinate_gradient(build_system(AXIAL, AXIAL_G, p))[:, 0]
        assert np.allclose(grad, want, atol=1e-6), f"gradient {grad} at {p}"


def test_criterion5_lnf_half_ln2():
    with pytest.raises(DegeneratePointError):
        reconstruct_lnf(HEIS, EUCLID, (0, 0, 0), (1, 0, 0))

    # ln f(1,0,0) - ln f(0,0,0), routed through an off-plane base.  The direct
    # segment lies in the plane y = 0, where D = 0: the reflection
    # (y, z) -> (-y, 2c - z) preserves the structure and fixes (x, 0, c), so
    # the in-plane gradients of M and K are parallel there.  Gauss-Kronrod
    # nodes never touch the endpoints, so both segments below avoid it.
    base = (0.5, 0.5, 0.3)
    lnf = (reconstruct_lnf(AXIAL, AXIAL_G, base, (1, 0, 0))[0]
           - reconstruct_lnf(AXIAL, AXIAL_G, base, (0, 0, 0))[0])
    assert abs(lnf - 0.5 * math.log(2)) < 1e-6


def test_criterion5_injected_V_verifies():
    f = FieldProgram.parse("sqrt(1 + x^2 + y^2)")
    pts = sample_points(50, 52)
    for rep in assemble_and_verify_V(HEIS, EUCLID, pts, f=f, order=5):
        assert abs(rep.VK) < 1e-6
        assert abs(rep.VM) < 1e-6
        assert rep.bracket_defect_1 < 1e-6
        assert rep.bracket_defect_2 < 1e-6


# -- criterion 6: symmetry system, Cartan ----------------------------------

def test_criterion6_cartan_degenerate():
    for p in sample_points(50, 6):
        sys_ = build_system(CARTAN, EUCLID, p)
        assert sys_.degenerate
        assert abs(sys_.D.value) < 1e-12


def test_criterion6_injected_f_y():
    # f = y is omega(dx), the x-translation measured by omega; the program
    # parametrizes V by f = eta3(V) = -omega(V)/lambda, so inject -y/lambda
    y = FieldProgram.parse("y")

    def f(q, n):
        return -y(q, n) / nonholonomity(CARTAN, EUCLID, q, n)

    pts = sample_points(20, 61)
    for rep in assemble_and_verify_V(CARTAN, EUCLID, pts, f=f, order=5):
        assert np.allclose(rep.V, [1, 0, 0], atol=1e-6), (
            f"V = {rep.V} at {rep.point}")
        assert abs(rep.VK) < 1e-6, f"VK = {rep.VK!r} at {rep.point}"
        assert abs(rep.VM) < 1e-6, f"VM = {rep.VM!r} at {rep.point}"
        assert rep.bracket_defect_1 < 1e-6, (
            f"bracket defect 1 = {rep.bracket_defect_1!r} at {rep.point}")
        assert rep.bracket_defect_2 < 1e-6, (
            f"bracket defect 2 = {rep.bracket_defect_2!r} at {rep.point}")


def test_criterion6_injected_true_symmetry():
    # companion check: f = -y*sqrt(1+y^2) corresponds to the x-translation
    # symmetry of this fixture and passes the same verification
    f = FieldProgram.parse("-y * sqrt(1 + y^2)")
    pts = sample_points(20, 61)
    for rep in assemble_and_verify_V(CARTAN, EUCLID, pts, f=f, order=5):
        assert abs(rep.VK) < 1e-6
        assert abs(rep.VM) < 1e-6
        assert rep.bracket_defect_1 < 1e-6
        assert rep.bracket_defect_2 < 1e-6


# -- criterion 7: singular fixture -----------------------------------------

def test_criterion7_singular_fixture():
    (sp,) = locate_sigma(OMEGA_1, EUCLID, [((-1, 0, 0), (1, 0, 0))])[0]
    assert abs(sp.point[0]) < 1e-10
    assert sp.transversal

    for p in ((0.0, 0.2, 0.1), (0.4, 0.2, 0.1)):
        v = characteristic_field(OMEGA_1.evaluate(p))
        assert np.allclose(np.ravel(jvec_values(v)), [0, 1, 0], atol=1e-13)

    for p in ((0.3, 0.0, 0.0), (-0.2, 0.5, 0.1)):
        frame, c = build_singular_frame(OMEGA_1, EUCLID, p)
        r1, r2 = lambda_identities(frame, c)
        assert abs(r1) < 1e-8
        assert abs(r2) < 1e-8

    q = sigma_invariants(build_singular_frame(OMEGA_1, EUCLID, (0, 0, 0))[1])
    assert abs(q.Q112) < 1e-12 and abs(q.Q212) < 1e-12

    scaled = OMEGA_1.scale(lambda p, n: (nonholonomity(OMEGA_1, EUCLID, p, n) ** 2).exp())
    q1 = sigma_invariants(build_singular_frame(scaled, EUCLID, (0, 0, 0))[1])
    assert abs(q.Q112 - q1.Q112) < 1e-6
    assert abs(q.Q212 - q1.Q212) < 1e-6


# -- criterion 8: nonholonomity properties ---------------------------------

def test_criterion8_nonholonomity_properties():
    phi = FieldProgram.parse("x + 2*y")
    for omega, seed in ((HEIS, 81), (OMEGA_1, 82)):
        scaled = omega.scale(lambda p, n: phi(p, n).exp())
        for p in sample_points(50, seed):
            lam = nonholonomity(omega, EUCLID, p).value
            lam_s = nonholonomity(scaled, EUCLID, p).value
            want = math.exp(phi(p).value[0]) * lam
            assert abs(lam_s - want) <= 1e-9 * (1 + abs(want))
            e1, e2 = delta_basis(omega.evaluate(p), EUCLID.evaluate(p))[:2]
            b = curl(omega.evaluate(p))
            val = jvec_dot(b, jvec_cross(jvec_values(e1), jvec_values(e2))).value
            assert abs(val + lam) <= 1e-9 * (1 + abs(lam))


# -- criterion 9: jet oracle -----------------------------------------------

def test_criterion9_jet_oracle():
    rng = np.random.default_rng(9)

    def _sqrt(a):
        return a.sqrt() if hasattr(a, "sqrt") else math.sqrt(a)

    def _exp(a):
        return a.exp() if hasattr(a, "exp") else math.exp(a)

    def _log(a):
        return a.log() if hasattr(a, "log") else math.log(a)

    def random_tree():
        c = rng.uniform(-2, 2, 6)

        def fn(x, y, z):
            u = c[0] * x + c[1] * y * z + c[2] * x * x
            v = 1 + 0.25 * (x + c[3] * z) ** 2
            return u * _sqrt(v) + _exp(0.3 * c[4] * (x + y)) * _log(2.5 + 0.2 * c[5] + v)
        return fn

    def fd(fn, p, axis, h=1e-5):
        pp, pm = list(p), list(p)
        pp[axis] += h
        pm[axis] -= h
        return (fn(*pp) - fn(*pm)) / (2 * h)

    for _ in range(20):
        tree = random_tree()
        for _ in range(10):
            p = tuple(rng.uniform(-1, 1, 3))
            jets = tuple(Jet.variable(axis, p, 4) for axis in range(3))
            j = tree(*jets)
            for axis in range(3):
                mi = [0, 0, 0]
                mi[axis] = 1
                want = fd(tree, p, axis)
                assert abs(j.partial_value(mi) - want) <= 1e-5 * (1 + abs(want))
