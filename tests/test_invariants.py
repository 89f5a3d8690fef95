import math

import pytest

from srsurf import (FieldProgram, Jet, MetricField, NoncontactError, OneForm,
                    build_contact_frame, directional_derivative, invariant_K,
                    invariant_M, invariants_at, lie_bracket,
                    torsion_and_connection_coeffs)
from srsurf.frame import jvec_dot
from srsurf.selftest import GAUGE_ANGLE, rotated

from conftest import (AXIAL_FORM, AXIAL_METRIC, HEISENBERG, OFF_DIAGONAL_METRIC,
                      box_points, cartan_K, cartan_M, heis_K, heis_M)


def test_directional_derivative_example():
    p = (3.0, 0.0, 0.0)
    x = Jet.variable(0, p, 4)
    e = tuple(Jet.constant(float(v), p, 4) for v in (1, 0, 0))
    assert abs(directional_derivative(x * x, e).value - 6.0) < 1e-14


def test_invariant_M_examples(heisenberg, cartan, euclid):
    v, _, _ = invariants_at(heisenberg, euclid, (0, 0, 0))
    assert abs(v.M.value) < 1e-12
    v, _, _ = invariants_at(heisenberg, euclid, (1, 0, 0))
    assert abs(v.M.value - 9 / 64) < 1e-12
    v, _, _ = invariants_at(cartan, euclid, (0, 0, 0))
    assert abs(v.M.value - 0.25) < 1e-12


def test_invariant_M_closed_forms(heisenberg, cartan, euclid, rng):
    for p in box_points(rng, 12):
        v, _, _ = invariants_at(heisenberg, euclid, p)
        assert abs(v.M.value - heis_M(*p)) < 1e-9 * (1 + heis_M(*p))
        v, _, _ = invariants_at(cartan, euclid, p)
        assert abs(v.M.value - cartan_M(*p)) < 1e-9 * (1 + cartan_M(*p))


def test_torsion_coeff_examples(heisenberg, cartan, euclid):
    _, _, c = invariants_at(heisenberg, euclid, (0, 0, 0))
    a1, a2, _, _, p3 = torsion_and_connection_coeffs(c)
    assert abs(a1.value) < 1e-12 and abs(a2.value) < 1e-12
    assert abs(p3.value - 1.0) < 1e-12
    _, _, c = invariants_at(cartan, euclid, (0, 0, 0))
    a1, a2, _, _, _ = torsion_and_connection_coeffs(c)
    assert abs(a1.value + 0.5) < 1e-12
    assert abs(a2.value) < 1e-12


def test_M_equals_a1sq_plus_a2sq(heisenberg, euclid, rng):
    for p in box_points(rng, 8):
        v, _, c = invariants_at(heisenberg, euclid, p)
        a1, a2, _, _, _ = torsion_and_connection_coeffs(c)
        assert v.M.value == a1.value ** 2 + a2.value ** 2


def test_K_regression_pins(heisenberg, cartan, euclid):
    # closed-form oracles derived by hand for these two fixtures:
    # Heisenberg K(0) = 6, Cartan K(0, y, 0) = (5 + 2y^2) / (2 (1 + y^2)^2)
    v, _, _ = invariants_at(heisenberg, euclid, (0, 0, 0))
    assert abs(v.K.value - 6.0) < 1e-10
    v, _, _ = invariants_at(cartan, euclid, (0, 0, 0))
    assert abs(v.K.value - 2.5) < 1e-10
    v, _, _ = invariants_at(cartan, euclid, (0, 1, 0))
    assert abs(v.K.value - 7 / 8) < 1e-10


def test_gauge_invariance_quantified(heisenberg, cartan, euclid, rng):
    phis = [FieldProgram.parse(s) for s in ("x + 2*y", "sin(z)", "-3")]
    for omega in (heisenberg, cartan):
        pts = box_points(rng, 8)
        for phi in phis:
            scaled = omega.scale(lambda p, n: phi(p, n).exp())
            for p in pts:
                try:
                    v0, _, _ = invariants_at(omega, euclid, p)
                    v1, _, _ = invariants_at(scaled, euclid, p)
                except NoncontactError:
                    continue
                assert abs(v1.M.value - v0.M.value) <= 1e-8 * (1 + abs(v0.M.value))
                assert abs(v1.K.value - v0.K.value) <= 1e-8 * (1 + abs(v0.K.value))


def test_sign_flip_invariance(heisenberg, euclid, rng):
    for p in box_points(rng, 6):
        v0, _, _ = invariants_at(heisenberg, euclid, p)
        v1, _, _ = invariants_at(-heisenberg, euclid, p)
        assert abs(v1.M.value - v0.M.value) < 1e-10
        assert abs(v1.K.value - v0.K.value) < 1e-10


def test_so2_invariance(cartan, euclid, rng):
    for p in box_points(rng, 6):
        v0, frame, _ = invariants_at(cartan, euclid, p)
        for theta in rng.uniform(0, 2 * math.pi, 2):
            _, _, m1, k1 = rotated(frame, float(theta))
            assert abs(m1.value - v0.M.value) < 1e-9
            assert abs(k1.value - v0.K.value) < 1e-9


@pytest.mark.parametrize("text", [HEISENBERG, AXIAL_FORM])
def test_point_dependent_gauge_invariance(text, rng):
    # M, K and lambda = omega([E1, E2]) do not see a rotation of the frame
    # by an angle that varies from point to point
    omega = OneForm.parse(text)
    metric = MetricField.from_upper_triangle(OFF_DIAGONAL_METRIC)
    angle = FieldProgram.parse(GAUGE_ANGLE)
    for p in box_points(rng, 6):
        v0, frame, _ = invariants_at(omega, metric, p)
        turned, _, m, k = rotated(frame, angle(p))
        lam = jvec_dot(omega.evaluate(p), lie_bracket(turned.E1, turned.E2))
        for got, want in ((m, v0.M), (k, v0.K), (lam, frame.lam)):
            assert abs(got.value - want.value) <= 1e-12 * abs(want.value)


def test_EK_jets_match_finite_differences(heisenberg, euclid, rng):
    h = 1e-4
    for p in box_points(rng, 4, scale=1.0):
        v, frame, c = invariants_at(heisenberg, euclid, p, order=5)
        for e in (frame.E1, frame.E2, frame.E3):
            jet_val = directional_derivative(v.K, e).value
            evals = [c_.value[0] for c_ in e]
            pp = tuple(p[i] + h * evals[i] for i in range(3))
            pm = tuple(p[i] - h * evals[i] for i in range(3))
            kp, _, _ = invariants_at(heisenberg, euclid, pp)
            km, _, _ = invariants_at(heisenberg, euclid, pm)
            fd = (kp.K.value - km.K.value) / (2 * h)
            assert abs(jet_val - fd) <= 1e-5 * (1 + abs(fd))


def test_nonidentity_metric_changes_K(cartan, euclid):
    g = MetricField.from_upper_triangle(AXIAL_METRIC)
    v0, _, _ = invariants_at(cartan, euclid, (0.5, 0.2, 0.0))
    v1, _, _ = invariants_at(cartan, g, (0.5, 0.2, 0.0))
    assert abs(v0.K.value - v1.K.value) > 1e-4


def _sympy_M_K(sp, coords, omega, e1, e2):
    """M and K from their definitions, for an orthonormal frame (E1, E2) of
    ker omega written in an arbitrary chart: E3 is the Reeb field of
    eta3 = -omega/lambda, the coframe inverts the frame and
    C^a_bc = -eta^a([E_b, E_c])."""
    def bracket(v, w):
        return [sum(v[b] * sp.diff(w[a], coords[b])
                    - w[b] * sp.diff(v[a], coords[b]) for b in range(3))
                for a in range(3)]

    def pair(eta, v):
        return sp.simplify(sum(a * b for a, b in zip(eta, v)))

    def along(v, f):
        return sum(c * sp.diff(f, q) for c, q in zip(v, coords))

    lam = pair(omega, bracket(e1, e2))
    eta3 = [sp.simplify(-c / lam) for c in omega]
    d_eta3 = sp.Matrix(3, 3, lambda i, j: sp.diff(eta3[j], coords[i])
                       - sp.diff(eta3[i], coords[j]))
    # eta3(E3) = 1, d(eta3)(E3, E1) = d(eta3)(E3, E2) = 0
    reeb = sp.Matrix([eta3, list(d_eta3 * sp.Matrix(e1)),
                      list(d_eta3 * sp.Matrix(e2))])
    e3 = list(sp.simplify(reeb.LUsolve(sp.Matrix([1, 0, 0]))))
    frame = [e1, e2, e3]
    coframe = sp.simplify(sp.Matrix(frame).inv())  # column a is eta^a
    pairs = {"23": (1, 2), "31": (2, 0), "12": (0, 1)}
    c = {f"C{a + 1}_{bc}": -pair(coframe[:, a], bracket(frame[i], frame[j]))
         for a in range(2) for bc, (i, j) in pairs.items()}
    m = ((c["C1_23"] - c["C2_31"]) / 2) ** 2 + c["C1_31"] ** 2
    k = (along(e1, c["C2_12"]) - along(e2, c["C1_12"])
         + c["C1_12"] ** 2 + c["C2_12"] ** 2 - (c["C1_23"] + c["C2_31"]) / 2)
    return m, k


def test_K_M_closed_forms_sympy_oracle():
    # An oracle independent of the jets and of delta_basis: each fixture is
    # written in a chart adapted to its distribution, with either orientation
    # of E2, and M, K must simplify to the closed forms in conftest.py.
    sp = pytest.importorskip("sympy")
    r, theta, z = sp.symbols("r theta z", positive=True)
    x, y = sp.symbols("x y", real=True)

    def same(derived, closed_form):
        return sp.simplify(derived - sp.nsimplify(closed_form)) == 0

    for sign in (1, -1):
        # Heisenberg in cylindrical coordinates: omega = dz - r^2 dtheta and
        # the Euclidean metric is dr^2 + r^2 dtheta^2 + dz^2, so nothing
        # depends on theta and the closed forms are checked at theta = 0
        rho = sp.sqrt(1 + r ** 2)
        m, k = _sympy_M_K(sp, (r, theta, z), (0, -r ** 2, 1), (1, 0, 0),
                          (0, sign / (r * rho), sign * r / rho))
        assert same(m, heis_M(r, 0, z)) and same(k, heis_K(r, 0, z))

        s = sp.sqrt(1 + y ** 2)
        m, k = _sympy_M_K(sp, (x, y, z), (y, 0, 1), (0, 1, 0),
                          (sign / s, 0, -sign * y / s))
        assert same(m, cartan_M(x, y, z)) and same(k, cartan_K(x, y, z))
