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
                    nonholonomity, reconstruct_lnf, sigma_invariants)
from srsurf.fields import curl
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


def contact_invariants(omega, points):
    """(M, K, frame, C) at a batch of points, every one of them contact: a
    batch's columns are its points' own values bit for bit."""
    m, k, frame, c = invariants_at(omega, EUCLID, np.array(points))
    assert len(frame.rows) == len(points), "a sample point is noncontact"
    return m.value, k.value, frame, c


# -- criterion 1: Heisenberg invariants ------------------------------------

def test_criterion1_heisenberg_M():
    pts = sample_points(100, 1)
    for p, m in zip(pts, contact_invariants(HEIS, pts)[0]):
        want = heis_M(*p)
        assert abs(m - want) <= 1e-8 * (1 + abs(want)), (
            f"M at {p}: computed {m!r}, closed form {want!r}")


def test_criterion1_heisenberg_K():
    pts = sample_points(100, 1)
    for p, k in zip(pts, contact_invariants(HEIS, pts)[1]):
        want = heis_K(*p)
        assert abs(k - want) <= 1e-8 * (1 + abs(want)), (
            f"K at {p}: computed {k!r}, closed form {want!r}")


# -- criterion 2: Cartan invariants ----------------------------------------

def test_criterion2_cartan_M():
    pts = sample_points(100, 2)
    for p, m in zip(pts, contact_invariants(CARTAN, pts)[0]):
        want = cartan_M(*p)
        assert abs(m - want) <= 1e-8 * (1 + abs(want)), (
            f"M at {p}: computed {m!r}, closed form {want!r}")


def test_criterion2_cartan_K():
    pts = sample_points(100, 2)
    for p, k in zip(pts, contact_invariants(CARTAN, pts)[1]):
        want = cartan_K(*p)
        assert abs(k - want) <= 1e-8 * (1 + abs(want)), (
            f"K at {p}: computed {k!r}, closed form {want!r}")


# -- criterion 3: frame identities -----------------------------------------

def test_criterion3_frame_identities():
    for omega, seed in ((HEIS, 31), (CARTAN, 32)):
        pts = sample_points(50, seed)
        m, _, _, c = contact_invariants(omega, pts)
        c12, c23_31 = (part.value for part in c)
        a1, a2 = (c23_31[0, 0] - c23_31[1, 1]) / 2, c23_31[1, 0]  # (C1_23 - C2_31)/2, C1_31
        for i, p in enumerate(pts):
            assert abs(c12[2, i] - 1.0) < 1e-8, p  # C3_12
            assert abs(c23_31[0, 2, i]) < 1e-8, p  # C3_23
            assert abs(c23_31[1, 2, i]) < 1e-8, p  # C3_31
            assert abs(c23_31[1, 0, i] - c23_31[0, 1, i]) < 1e-8, p  # C1_31 - C2_23
            assert abs(a1[i] ** 2 + a2[i] ** 2 - m[i]) < 1e-12, p


# -- criterion 4: gauge/orientation invariance -----------------------------

def test_criterion4_gauge_invariance():
    phi = FieldProgram.parse("x + 2*y")
    for omega, seed in ((HEIS, 41), (CARTAN, 42)):
        scaled = omega.scale(lambda p, n: phi(p, n).exp())
        pts = sample_points(25, seed)
        m0, k0, frame, _ = contact_invariants(omega, pts)
        _, _, m2, k2 = rotated(frame, 0.7)
        variants = [contact_invariants(v, pts)[:2] for v in (scaled, -omega)]
        for m1, k1 in variants + [(m2.value, k2.value)]:
            for i, p in enumerate(pts):
                assert abs(m1[i] - m0[i]) <= 1e-8 * (1 + abs(m0[i])), p
                assert abs(k1[i] - k0[i]) <= 1e-8 * (1 + abs(k0[i])), p


# -- criterion 5: symmetry system -----------------------------------------
#
# On the Euclidean Heisenberg fixture M and K are both functions of x^2 + y^2,
# so D = E1K E2M - E2K E1M vanishes identically: every point is degenerate
# and the EQ system, its residuals, the gradient and ln f are undefined.  Each
# clause asserts that, then checks its stated value on the axial fixture,
# whose z-translation symmetry has f = sqrt(1 + x^2 + y^2), the f that the
# stated values describe.

def _nondegenerate_points(omega, metric, n):
    """The first n of 400 sample points where the system is not degenerate."""
    pts = sample_points(400, 5)
    sys_ = build_system(omega, metric, np.array(pts))
    return [pts[r] for r, bad in zip(sys_.frame.rows, sys_.degenerate) if not bad][:n]


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
    residuals = integrability_residuals(build_system(AXIAL, AXIAL_G, np.array(pts),
                                                     RESIDUAL_MIN_ORDER))
    for p, r in zip(pts, np.transpose(residuals)):
        assert max(abs(v) for v in r) < 1e-6, f"residuals {r} at {p}"


def test_criterion5_reconstructed_gradient():
    pts = sample_points(20, 51, scale=1.5)
    sys_ = build_system(HEIS, EUCLID, np.array(pts))
    for p, degenerate in zip(pts, sys_.degenerate):
        assert degenerate, f"Heisenberg point {p} reported non-degenerate"
    with pytest.raises(DegeneratePointError):
        frame_to_coordinate_gradient(sys_)

    grads = frame_to_coordinate_gradient(build_system(AXIAL, AXIAL_G, np.array(pts)))
    for p, grad in zip(pts, grads.T):
        want = np.array([p[0], p[1], 0.0]) / (1 + p[0] ** 2 + p[1] ** 2)
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
    rep = assemble_and_verify_V(HEIS, EUCLID, pts, f=f)
    assert np.all(abs(rep.VK) < 1e-6)
    assert np.all(abs(rep.VM) < 1e-6)
    assert np.all(rep.bracket_defect_1 < 1e-6)
    assert np.all(rep.bracket_defect_2 < 1e-6)


# -- criterion 6: symmetry system, Cartan ----------------------------------

def test_criterion6_cartan_degenerate():
    pts = sample_points(50, 6)
    sys_ = build_system(CARTAN, EUCLID, np.array(pts))
    assert len(sys_.frame.rows) == len(pts)
    for p, degenerate, d in zip(pts, sys_.degenerate, sys_.D.value):
        assert degenerate, p
        assert abs(d) < 1e-12, p


def test_criterion6_injected_f_y():
    # f = y is omega(dx), the x-translation measured by omega; the program
    # parametrizes V by f = eta3(V) = -omega(V)/lambda, so inject -y/lambda
    y = FieldProgram.parse("y")

    def f(q, n):
        return -y(q, n) / nonholonomity(CARTAN, EUCLID, q, n)

    pts = sample_points(20, 61)
    rep = assemble_and_verify_V(CARTAN, EUCLID, pts, f=f)
    for p, v, vk, vm, d1, d2 in zip(rep.point, rep.V.T, rep.VK, rep.VM,
                                    rep.bracket_defect_1, rep.bracket_defect_2):
        assert np.allclose(v, [1, 0, 0], atol=1e-6), f"V = {v} at {p}"
        assert abs(vk) < 1e-6, f"VK = {vk!r} at {p}"
        assert abs(vm) < 1e-6, f"VM = {vm!r} at {p}"
        assert d1 < 1e-6, f"bracket defect 1 = {d1!r} at {p}"
        assert d2 < 1e-6, f"bracket defect 2 = {d2!r} at {p}"


def test_criterion6_injected_true_symmetry():
    # companion check: f = -y*sqrt(1+y^2) corresponds to the x-translation
    # symmetry of this fixture and passes the same verification
    f = FieldProgram.parse("-y * sqrt(1 + y^2)")
    pts = sample_points(20, 61)
    rep = assemble_and_verify_V(CARTAN, EUCLID, pts, f=f)
    assert np.all(abs(rep.VK) < 1e-6)
    assert np.all(abs(rep.VM) < 1e-6)
    assert np.all(rep.bracket_defect_1 < 1e-6)
    assert np.all(rep.bracket_defect_2 < 1e-6)


# -- criterion 7: singular fixture -----------------------------------------

def test_criterion7_singular_fixture():
    roots = locate_sigma(OMEGA_1, EUCLID, [((-1, 0, 0), (1, 0, 0))])
    (x, _, _), = roots.point
    assert abs(x) < 1e-10
    assert roots.transversal.tolist() == [True]

    for p in ((0.0, 0.2, 0.1), (0.4, 0.2, 0.1)):
        v = characteristic_field(OMEGA_1.evaluate(p))
        assert np.allclose(np.ravel(v.value), [0, 1, 0], atol=1e-13)

    for p in ((0.3, 0.0, 0.0), (-0.2, 0.5, 0.1)):
        frame, c = build_singular_frame(OMEGA_1, EUCLID, p)
        r1, r2 = lambda_identities(frame, c)
        assert abs(r1) < 1e-8
        assert abs(r2) < 1e-8

    q112, q212 = sigma_invariants(build_singular_frame(OMEGA_1, EUCLID, (0, 0, 0))[1])
    assert abs(q112) < 1e-12 and abs(q212) < 1e-12

    scaled = OMEGA_1.scale(lambda p, n: (nonholonomity(OMEGA_1, EUCLID, p, n) ** 2).exp())
    q112_1, q212_1 = sigma_invariants(build_singular_frame(scaled, EUCLID, (0, 0, 0))[1])
    assert abs(q112 - q112_1) < 1e-6
    assert abs(q212 - q212_1) < 1e-6


# -- criterion 8: nonholonomity properties ---------------------------------

def test_criterion8_nonholonomity_properties():
    phi = FieldProgram.parse("x + 2*y")
    for omega, seed in ((HEIS, 81), (OMEGA_1, 82)):
        scaled = omega.scale(lambda p, n: phi(p, n).exp())
        pts = np.array(sample_points(50, seed))
        lam = nonholonomity(omega, EUCLID, pts).value
        lam_s = nonholonomity(scaled, EUCLID, pts).value
        e1, e2 = delta_basis(omega.evaluate(pts), EUCLID.evaluate(pts))[:2]
        b = curl(omega.evaluate(pts))
        vals = (b.value * np.cross(e1.value, e2.value, axis=0)).sum(axis=0)
        for i, (p, phi_p) in enumerate(zip(pts.tolist(), phi(pts).value)):
            want = math.exp(phi_p) * lam[i]
            assert abs(lam_s[i] - want) <= 1e-9 * (1 + abs(want)), p
            assert abs(vals[i] + lam[i]) <= 1e-9 * (1 + abs(lam[i])), p


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
