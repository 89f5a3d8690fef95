import math

import numpy as np
import pytest

from srsurf import (MAX_ORDER, FieldProgram, MetricField, OneForm,
                    SingularFrameError, build_singular_frame,
                    characteristic_field, delta_basis, directional_derivative,
                    lambda_identities, locate_sigma, nonholonomity,
                    sigma_invariants)
from srsurf.fields import curl
from srsurf import singular
from srsurf.report import parse_probe
from srsurf.singular import SINGULAR_FRAME_ORDER

from conftest import (OFF_DIAGONAL_METRIC, SPECIAL_FORM, SPECIAL_METRIC,
                      SPECIAL_POINT, TURNED_FORM, TURNED_METRIC, TURNED_POINT,
                      assert_adapted, box_points, pullback)


# -- locate_sigma ----------------------------------------------------------

def test_locate_sigma_omega1(omega1, euclid):
    roots = locate_sigma(omega1, euclid, [((-1, 0, 0), (1, 0, 0))])
    assert roots.segment.tolist() == [0]
    assert np.allclose(roots.point, (0, 0, 0), atol=1e-9)
    assert roots.lambda_residual < 1e-10
    assert roots.transversal
    assert roots.lambda_gradient_on_delta > 1e-3


def test_locate_sigma_offset_segment(omega1, euclid):
    (point,) = locate_sigma(omega1, euclid, [((-0.8, 0.4, -0.2), (0.9, 0.4, -0.2))]).point
    assert abs(point[0]) < 1e-9
    assert point[1] == pytest.approx(0.4)


def test_locate_sigma_none_for_contact_forms(omega0, heisenberg, euclid):
    assert len(locate_sigma(omega0, euclid, [((-1, -1, -1), (1, 1, 1))]).segment) == 0
    assert len(locate_sigma(heisenberg, euclid, [((-1, -1, 0), (1, 1, 0))]).segment) == 0


# (form, metric or None for the identity, probes, NEWTON_MAX_ITER, the roots' candidates
# and convergence); the root columns come from each row's last Newton step
ROOT_CASES = {
    "sign change": ("dy + x^2*dz", OFF_DIAGONAL_METRIC, ["-1,0.1,0.2 : 0.7,0.3,-0.1"], 64,
                    [("sign_change", True)]),
    "zero run": ("dy + x^2*dz", None, ["0,-1,0 : 0,1,0.5"], 64, [("sign_change", True)]),
    "tangential minimum": ("dy + x^3*dz", None, ["-0.53,0.1,0 : 0.61,0.2,0.1"], 64,
                           [("minimum", True)]),
    "unconverged": ("dy + (x^2-0.25)*x*dz", None, ["-1,0.1,0 : 1,0.1,0"], 1,
                    [("sign_change", False)] * 2),
    "all kinds at once": ("dy + (x^4/4 - x^3/6)*dz", None, [
        "-0.35,0,0 : 0.9,0.2,0.1", "0,-1,0 : 0,1,0.5", "0.2,-1,0 : 0.7,1,0.5"], 64,
        [("minimum", True), ("sign_change", True), ("sign_change", True), ("sign_change", True)]),
}


@pytest.mark.parametrize("case", sorted(ROOT_CASES))
def test_root_columns_are_a_fresh_evaluation(case, monkeypatch):
    # |lambda|, |omega|_g and d(lambda)|_Delta at a root are those of a new evaluation
    # at TRANSVERSALITY_ORDER, bit for bit, though only an unconverged row is evaluated
    # after its polish: every other takes them from the Newton step that stopped it
    form, metric, probes, max_iter, want = ROOT_CASES[case]
    omega = OneForm.parse(form)
    g = MetricField.identity() if metric is None else MetricField.from_upper_triangle(metric)
    monkeypatch.setattr(singular, "NEWTON_MAX_ITER", max_iter)
    evaluations = []

    def counted(*args):
        evaluations.append(len(args[2]))
        return singular_evaluation(*args)
    singular_evaluation = singular.lambda_evaluation
    monkeypatch.setattr(singular, "lambda_evaluation", counted)
    roots = locate_sigma(omega, g, [parse_probe(p) for p in probes])
    monkeypatch.undo()
    assert list(zip(roots.candidate, roots.converged)) == want
    w, gm, _, q, norm, lam = singular.lambda_evaluation(omega, g, roots.point,
                                                        singular.TRANSVERSALITY_ORDER)
    _, size, transversal = singular._on_delta(w, gm, q, norm, lam)
    assert roots.lambda_residual.tobytes() == np.abs(lam.value).tobytes()
    assert roots.margin.tobytes() == (np.abs(lam.value) / norm).tobytes()
    assert roots.lambda_gradient_on_delta.tobytes() == size.tobytes()
    assert roots.transversal.dtype == bool and np.array_equal(roots.transversal, transversal)
    # the scan, each kind's steps, and one evaluation of the unconverged rows, if any
    steps = [roots.newton_iterations[roots.candidate == c].max(initial=0)
             for c in ("sign_change", "minimum")]
    assert len(evaluations) == 1 + sum(steps) + (not roots.converged.all())
    if not roots.converged.all():
        assert evaluations[-1] == sum(~roots.converged)


# -- characteristic field --------------------------------------------------

def test_characteristic_field_omega0(omega0):
    v = characteristic_field(omega0.evaluate((0.7, -0.4, 1.2)))
    assert np.allclose(np.ravel(v.value), [0, 0, 1], atol=1e-12)


def test_characteristic_field_omega1_off_sigma(omega1):
    v = characteristic_field(omega1.evaluate((0.5, 0.0, 0.0)))
    assert np.allclose(np.ravel(v.value), [0, 1, 0], atol=1e-12)


def test_characteristic_field_omega1_on_sigma(omega1):
    v = characteristic_field(omega1.evaluate((0.0, 0.3, -0.1)))
    assert np.allclose(np.ravel(v.value), [0, 1, 0], atol=1e-13)


@pytest.mark.parametrize("c", ["1e-12", "1e6"])
def test_characteristic_field_is_scale_free(omega1, c):
    # omega -> c omega scales V = w / omega(w) by 1/c, off and on Sigma
    scaled = OneForm.parse(f"{c}*dy + {c}*x^2*dz")
    for p in [(0.5, 0.1, 0.0), (0.0, 0.3, -0.1)]:
        want = characteristic_field(omega1.evaluate(p)).value
        got = characteristic_field(scaled.evaluate(p)).value * float(c)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_characteristic_field_contract(omega1, rng):
    # iota_V d(omega) = 0 componentwise and omega(V) = 1 off Sigma
    for _ in range(6):
        p = tuple(rng.uniform(0.2, 1.5, 3))
        v = characteristic_field(omega1.evaluate(p))
        b = curl(omega1.evaluate(p)).value
        contraction = np.cross(v.value, b, axis=0)  # d(omega)(V, .)
        assert max(abs(c) for c in contraction) < 1e-9
        w = omega1.evaluate(p)
        assert abs((w * v).sum().value - 1.0) < 1e-12


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
    # a batch raises its first failing row's own text, even where a later row
    # fails a test that comes earlier: on y dy + x^3 dz, w = (0, -3x^2, 0) and
    # omega(w) = -3 y x^2 vanish at (0, 1, 0), where omega(w) has no linear
    # part, and at (1, 0, 0) omega(w) = 0 but w does not
    omega = OneForm.parse("y*dy + x^3*dz")
    texts = {(0.0, 1.0, 0.0): "omega(w) has no linear part at (0.0, 1.0, 0.0): not special",
             (1.0, 0.0, 0.0): "omega(w) = 0 with w != 0 at (1.0, 0.0, 0.0): "
                              "no normalized characteristic field"}
    for first, later in (list(texts), list(texts)[::-1]):
        for p in (first, later):
            with pytest.raises(SingularFrameError) as alone:
                characteristic_field(omega.evaluate(p))
            assert str(alone.value) == texts[p]
        with pytest.raises(SingularFrameError) as batch:
            characteristic_field(omega.evaluate(np.array([(0.5, 1.0, 0.0), first, later])))
        assert str(batch.value) == texts[first]


def test_characteristic_field_takes_one_quotient_per_batch(omega1, monkeypatch):
    # Sigma = {x = 0}: the Sigma rows of a batch share one stacked quotient,
    # and each column is its point's field bit for bit
    calls, quotient = [], singular._jet_quotient

    def counted(w, mu):
        calls.append(len(mu.value))
        return quotient(w, mu)

    monkeypatch.setattr(singular, "_jet_quotient", counted)
    points = [(0.0, 0.3, -0.1), (0.5, 0.1, 0.0), (0.0, -0.7, 0.5), (0.0, 0.2, 0.4)]
    batch = characteristic_field(omega1.evaluate(points, 4))
    assert calls == [4] and batch[0].order == 2
    for k, p in enumerate(points):
        alone = characteristic_field(omega1.evaluate(p, 4))
        for a in range(3):
            assert np.array_equal(batch[a].coeffs[:, k], alone[a].coeffs[:10, 0])


# -- singular frame --------------------------------------------------------

def test_singular_frame_origin(omega1, euclid):
    frame, c = build_singular_frame(omega1, euclid, (0, 0, 0))
    assert np.allclose(np.ravel(frame.E[0].value), [0, 0, 1], atol=1e-12)
    assert np.allclose(np.ravel(frame.E[2].value), [0, 1, 0], atol=1e-13)
    q112, q212 = sigma_invariants(c)
    assert abs(q112) < 1e-12 and abs(q212) < 1e-12


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
            c12, c23_31 = c
            assert np.abs(c23_31[:, 2].value).max() < 1e-8
            assert abs(c12[2].value + frame.lam.value) < 1e-8


def test_singular_frame_duality(omega1, euclid):
    frame, _ = build_singular_frame(omega1, euclid, (0.2, -0.3, 0.5))
    pairs = (frame.eta[:, None] * frame.E).sum(-1)  # eta^a(E_b)
    assert np.abs(pairs.value[..., 0] - np.eye(3)).max() < 1e-9


def test_singular_frame_transversality_failure(heisenberg, euclid):
    # lambda for the rotationally symmetric fixture has a critical point at
    # the origin, so d(lambda)|_Delta vanishes there exactly
    with pytest.raises(SingularFrameError, match="not transversal"):
        build_singular_frame(heisenberg, euclid, (0.0, 0.0, 0.0))


@pytest.mark.parametrize("p", [(1e-10, 0.0, 0.0), (1e-10, -2e-10, 0.3)])
def test_singular_frame_transversality_below_tolerance(heisenberg, euclid, p):
    # next to the critical point d(lambda)|_Delta is nonzero but tiny
    lam = nonholonomity(heisenberg, euclid, p, 2)
    assert np.cross(heisenberg.evaluate(p, 2).value, lam.grad().value, axis=0).any()
    with pytest.raises(SingularFrameError, match="not transversal"):
        build_singular_frame(heisenberg, euclid, p)


@pytest.mark.parametrize("form, metric, probes", [
    # lambda is proportional to -x^2 (x - 0.5): tangential at x = 0, crossing at 0.5
    ("dy + (x^4/4 - x^3/6)*dz", None, ["-0.35,0,0 : 0.9,0.2,0.1", "-1,0.2,0.1 : 0.9,0.2,0.1"]),
    # d(lambda) vanishes on Sigma = {x = 0}
    ("dy + x^3*dz", None, ["-0.5,0,0 : 1,0,0", "-1,0.3,0.2 : 1,0.3,0.2"]),
    # Sigma = {x = -sin(y)}: a tangent probe and a crossing
    (SPECIAL_FORM, SPECIAL_METRIC, ["-0.6793802930474546,0.7,0.0 : -1.0629949302138337,1.41,0.0",
                                    "-1.5,0.3,-0.2 : 1.5,0.4,-0.4"]),
])
def test_root_transversality_is_the_frames(form, metric, probes):
    # a root is transversal exactly where its frame passes the transversality test
    omega = OneForm.parse(form)
    g = MetricField.identity() if metric is None else MetricField.from_upper_triangle(metric)
    roots = locate_sigma(omega, g, [parse_probe(p) for p in probes])
    assert len(roots.segment) >= len(probes)
    for point, transversal in zip(roots.point, roots.transversal):
        try:
            build_singular_frame(omega, g, point, SINGULAR_FRAME_ORDER)
            passes = True
        except SingularFrameError as exc:
            passes = not str(exc).endswith("not transversal")
        assert passes == transversal, point


# -- Sigma invariants ------------------------------------------------------

def test_sigma_invariants_rescale_invariance(omega1, euclid):
    scaled = omega1.scale(lambda p, n: (nonholonomity(omega1, euclid, p, n) ** 2).exp())
    for p in ((0.0, 0.0, 0.0), (0.0, 0.5, -0.3)):
        q112_0, q212_0 = sigma_invariants(build_singular_frame(omega1, euclid, p)[1])
        q112_1, q212_1 = sigma_invariants(build_singular_frame(scaled, euclid, p)[1])
        assert abs(q112_0 - q112_1) < 1e-6
        assert abs(q212_0 - q212_1) < 1e-6


def test_coframe_change_consistency(omega1, euclid):
    # for omega-tilde = e^{lambda^2} omega, eta3 = e^{-phi} eta3-tilde at Sigma
    phi = FieldProgram(lambda p, n: nonholonomity(omega1, euclid, p, n) ** 2)
    scaled = omega1.scale(lambda p, n: phi(p, n).exp())
    for p in ((0.0, 0.0, 0.0), (0.0, 0.4, 0.2)):
        f0, _ = build_singular_frame(omega1, euclid, p)
        f1, _ = build_singular_frame(scaled, euclid, p)
        factor = math.exp(-phi(p).value[0])
        for a in range(3):
            assert abs(f0.eta[2, a].value - factor * f1.eta[2, a].value) < 1e-8


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
            val = (b.value * np.cross(e1.value, e2.value, axis=0)).sum(axis=0)
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
    e3 = frame.E[2].coeffs.copy()
    e3[0, 2] -= 1.0
    assert np.abs(e3).max() < 1e-13
    assert directional_derivative(frame.lam, frame.E[1]).value > 0
    q112, q212 = sigma_invariants(c)
    assert q112 == pytest.approx(0.0087890, abs=1e-7)
    assert q212 == pytest.approx(-0.75248, abs=1e-5)


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
    want_q112, want_q212 = sigma_invariants(
        _sigma_frame(SPECIAL_FORM, SPECIAL_METRIC, SPECIAL_POINT)[1])
    form, metric = pullback(SPECIAL_FORM, SPECIAL_METRIC, phi)
    q = TURNED_POINT if phi[0] == "-x" else _shear_preimage(SPECIAL_POINT)
    got_q112, got_q212 = sigma_invariants(_sigma_frame(form, metric, q)[1])
    assert got_q112 == pytest.approx(want_q112, rel=1e-12, abs=0)
    assert got_q212 == pytest.approx(want_q212, rel=1e-12, abs=0)


def test_turned_fixture_is_the_pullback():
    # the selftest's hand-written pullback by (-x, -y, z) against sympy's
    form, metric = pullback(SPECIAL_FORM, SPECIAL_METRIC, ("-x", "-y", "z"))
    for a, b in ((OneForm.parse(TURNED_FORM), OneForm.parse(form)),
                 (MetricField.from_upper_triangle(TURNED_METRIC),
                  MetricField.from_upper_triangle(metric))):
        for p in ((0.3, -0.2, 0.5), TURNED_POINT):
            assert np.allclose(a.evaluate(p, 3).coeffs, b.evaluate(p, 3).coeffs,
                               rtol=1e-14, atol=1e-14)
