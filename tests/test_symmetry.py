import math
import subprocess
import sys

import numpy as np
import pytest

import srsurf.symmetry
from srsurf import (BudgetExhausted, DegeneratePointError, FieldProgram,
                    JetError, MetricField, OneForm, assemble_and_verify_V, build_system,
                    frame_to_coordinate_gradient, integrability_residuals,
                    nonholonomity, reconstruct_lnf)
from srsurf.symmetry import RESIDUAL_MIN_ORDER, reconstructed_V

from conftest import AXIAL_FORM, AXIAL_METRIC, box_points


@pytest.fixture
def axial():
    """omega = dz + y dx with an x-dependent metric: the z-translation field
    is a symmetry with f = -1/lambda, and D != 0 away from special slices."""
    return (OneForm.parse(AXIAL_FORM),
            MetricField.from_upper_triangle(AXIAL_METRIC))


AXIAL_POINTS = [(0.4, 0.7, -0.2), (-0.3, 0.5, 0.1), (0.8, -0.6, 0.3),
                (0.2, 1.1, -0.5)]


def _axial_lambda(omega, metric):
    return FieldProgram(lambda p, n: nonholonomity(omega, metric, p, n))


@pytest.fixture
def system_points(monkeypatch):
    """The points of every build_system call that reconstruct_lnf makes
    during the test."""
    points = []
    build = srsurf.symmetry.build_system

    def counted(omega, metric, point, *args, **kwargs):
        points.append(point)
        return build(omega, metric, point, *args, **kwargs)

    monkeypatch.setattr(srsurf.symmetry, "build_system", counted)
    return points


# -- build_system ----------------------------------------------------------

def test_cartan_degenerate_everywhere(cartan, euclid, rng):
    for p in box_points(rng, 12):
        sys_ = build_system(cartan, euclid, p)
        assert sys_.degenerate
        assert abs(sys_.D.value) < 1e-12


def test_heisenberg_degenerate_everywhere(heisenberg, euclid, rng):
    # both invariants are functions of x^2 + y^2 alone, so the denominator
    # D = E1K E2M - E2K E1M cancels identically
    for p in box_points(rng, 12):
        sys_ = build_system(heisenberg, euclid, p)
        assert sys_.degenerate
        assert abs(sys_.D.value) < 1e-10


def test_axial_system_matches_lambda_oracle(axial):
    # with symmetry field dz and f = -1/lambda, ln f = -ln lambda + const,
    # so EQ_a = -E_a(lambda)/lambda
    omega, metric = axial
    lam_prog = _axial_lambda(omega, metric)
    for p in AXIAL_POINTS:
        sys_ = build_system(omega, metric, p)
        assert not sys_.degenerate
        lam = lam_prog(p, 2)
        grad = np.array([lam.partial_value((1, 0, 0)),
                         lam.partial_value((0, 1, 0)),
                         lam.partial_value((0, 0, 1))])
        for eq, e in ((sys_.EQ1, sys_.frame.E1), (sys_.EQ2, sys_.frame.E2)):
            ev = np.array([c.value for c in e])
            want = -float(ev @ grad) / lam.value
            assert abs(eq.value - want) < 1e-10 * (1 + abs(want))


def test_quotient_identity(axial):
    omega, metric = axial
    sys_ = build_system(omega, metric, AXIAL_POINTS[0])
    # EQ1 * D and EQ2 * D reproduce their numerators
    fr = sys_.frame
    from srsurf import directional_derivative as dd
    e1k = dd(sys_.K, fr.E1)
    e2k = dd(sys_.K, fr.E2)
    e3k = dd(sys_.K, fr.E3)
    e1m = dd(sys_.M, fr.E1)
    e2m = dd(sys_.M, fr.E2)
    e3m = dd(sys_.M, fr.E3)
    num1 = e3k.value * e1m.value - e1k.value * e3m.value
    num2 = e3k.value * e2m.value - e2k.value * e3m.value
    assert abs(sys_.EQ1.value * sys_.D.value - num1) < 1e-10 * (1 + abs(num1))
    assert abs(sys_.EQ2.value * sys_.D.value - num2) < 1e-10 * (1 + abs(num2))


# -- integrability residuals ----------------------------------------------

def test_axial_residuals_vanish(axial):
    omega, metric = axial
    for p in AXIAL_POINTS:
        r = integrability_residuals(build_system(omega, metric, p, RESIDUAL_MIN_ORDER))
        assert max(abs(v) for v in r) < 1e-10


def test_residuals_need_order_five(axial):
    omega, metric = axial
    with pytest.raises(BudgetExhausted):
        integrability_residuals(build_system(omega, metric, AXIAL_POINTS[0], 4))
    assert RESIDUAL_MIN_ORDER == 5


def test_residuals_degenerate_point_raises(cartan, euclid):
    with pytest.raises(DegeneratePointError):
        integrability_residuals(
            build_system(cartan, euclid, (0.3, 0.4, 0.1), RESIDUAL_MIN_ORDER))


def test_residuals_deterministic_on_perturbed_form(euclid):
    omega = OneForm.parse("dz + y*dx - x*dy + 0.1*x^2*dz")
    p = (0.9, 0.4, -0.3)
    a = integrability_residuals(build_system(omega, euclid, p, RESIDUAL_MIN_ORDER))
    b = integrability_residuals(build_system(omega, euclid, p, RESIDUAL_MIN_ORDER))
    assert a == b


# -- gradient and reconstruction ------------------------------------------

def test_frame_to_coordinate_gradient_consistency(axial):
    omega, metric = axial
    for p in AXIAL_POINTS:
        sys_ = build_system(omega, metric, p)
        g = frame_to_coordinate_gradient(sys_)
        b = np.array([[c.value for c in e]
                      for e in (sys_.frame.E1, sys_.frame.E2, sys_.frame.E3)])
        assert np.allclose(b @ g, [sys_.EQ1.value, sys_.EQ2.value, 0.0],
                           atol=1e-12)


def test_gradient_degenerate_raises(cartan, euclid):
    sys_ = build_system(cartan, euclid, (0.1, 0.2, 0.3))
    with pytest.raises(DegeneratePointError):
        frame_to_coordinate_gradient(sys_)


def test_reconstruct_lnf_oracle(axial):
    # ln f(p) - ln f(base) = ln(lambda(base) / lambda(p))
    omega, metric = axial
    base = (0.0, 0.0, 0.0)
    lam_prog = _axial_lambda(omega, metric)
    lam0 = lam_prog.value(base)
    for p in AXIAL_POINTS:
        got = reconstruct_lnf(omega, metric, base, p)
        want = math.log(lam0 / lam_prog.value(p))
        assert abs(got - want) < 1e-8


def test_reconstruct_lnf_raises_when_quadrature_does_not_converge(axial):
    # a long segment, so that the error estimate of one 21-point
    # Gauss-Kronrod panel is a real quadrature error (about 5e-3) and not
    # only rounding, which can come out exactly 0 on a short one
    omega, metric = axial
    with pytest.raises(JetError, match=r"did not converge on panel t = \[0, 1\].*quad_tol = 1e-300"):
        reconstruct_lnf(omega, metric, (0.0, 0.0, 0.0), (10.0, 10.0, 0.0),
                        quad_tol=1e-300, max_depth=0)


def test_reconstruct_lnf_failure_reports_progress(axial):
    omega, metric = axial
    with pytest.raises(JetError, match=r"abserr = \S+, neval = 21,"):
        reconstruct_lnf(omega, metric, (0.0, 0.0, 0.0), (10.0, 10.0, 0.0),
                        quad_tol=1e-300, max_depth=0)


def test_reconstruct_lnf_one_kronrod_panel(axial, system_points):
    # the integrand is smooth, so QAGS stops after its first 21 nodes
    omega, metric = axial
    reconstruct_lnf(omega, metric, (0.0, 0.0, 0.0), AXIAL_POINTS[0])
    assert len(system_points) == 21 == len(set(system_points))


def test_reconstruct_lnf_closed_form(axial):
    omega, metric = axial
    base = (0.0, 0.0, 0.0)
    lam_prog = _axial_lambda(omega, metric)
    lam0 = lam_prog.value(base)
    for p in AXIAL_POINTS:
        want = math.log(lam0 / lam_prog.value(p))
        assert abs(reconstruct_lnf(omega, metric, base, p) - want) < 1e-12


def test_reconstruct_lnf_detours_around_degenerate_segment(axial, system_points):
    # (0,0,0) -> (1,0,0) lies in the degenerate plane y = 0, and the
    # Kronrod node t = 0.5 is on it; the route through the waypoint
    # (0.5, 0.5, 0) leaves the plane, and f = -sqrt(1 + x^2 + y^2) there
    omega, metric = axial
    got = reconstruct_lnf(omega, metric, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert abs(got - 0.5 * math.log(2)) < 1e-12
    # the direct segment fails at its first node, the midpoint; each leg
    # then takes one 21-point panel, starting at its own midpoint
    assert len(system_points) == 43
    assert system_points[0] == (0.5, 0.0, 0.0)
    assert system_points[1] == (0.25, 0.25, 0.0)
    assert system_points[22] == (0.75, 0.25, 0.0)


def test_reconstruct_lnf_detour_failure_raises_direct_error(heisenberg, euclid,
                                                           system_points):
    # degenerate everywhere: the direct segment fails at its midpoint, the
    # detour at the midpoint of its first leg, and the direct segment's
    # error is raised again, with the detour's as its suppressed context
    with pytest.raises(DegeneratePointError) as info:
        reconstruct_lnf(heisenberg, euclid, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert system_points == [(0.5, 0.0, 0.0), (0.25, 0.25, 0.0)]
    assert info.value.__suppress_context__
    assert isinstance(info.value.__context__, DegeneratePointError)


def test_cli_import_leaves_out_scipy_integrate():
    code = "import sys, srsurf.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_reconstruct_lnf_base_equals_target(axial):
    omega, metric = axial
    assert reconstruct_lnf(omega, metric, (0.2, 0.3, 0.1), (0.2, 0.3, 0.1)) == 0.0


def test_reconstruct_lnf_path_independence(axial):
    omega, metric = axial
    base = (0.0, 0.0, 0.0)
    t1, t2 = AXIAL_POINTS[0], AXIAL_POINTS[1]
    d_direct = reconstruct_lnf(omega, metric, t1, t2)
    d_via_base = (reconstruct_lnf(omega, metric, base, t2)
                  - reconstruct_lnf(omega, metric, base, t1))
    assert abs(d_direct - d_via_base) < 1e-7


def test_reconstruct_quadrature_convergence(axial):
    omega, metric = axial
    base, p = (0.0, 0.0, 0.0), AXIAL_POINTS[2]
    lam_prog = _axial_lambda(omega, metric)
    want = math.log(lam_prog.value(base) / lam_prog.value(p))
    errs = [abs(reconstruct_lnf(omega, metric, base, p, quad_tol=tol) - want)
            for tol in (1e-3, 1e-6, 1e-9)]
    assert errs[-1] <= errs[0] + 1e-12
    assert errs[-1] < 1e-8


# -- V assembly and verification ------------------------------------------

def test_injected_axial_symmetry(axial):
    omega, metric = axial
    f = -1 / FieldProgram(lambda q, n: nonholonomity(omega, metric, q, n))
    for rep in assemble_and_verify_V(omega, metric, AXIAL_POINTS, f=f, order=5):
        assert np.allclose(rep.V, [0, 0, 1], atol=1e-12)
        assert abs(rep.VK) < 1e-10
        assert abs(rep.VM) < 1e-10
        assert abs(rep.E3f) < 1e-10
        assert rep.bracket_defect_1 < 1e-10
        assert rep.bracket_defect_2 < 1e-10


def test_injected_heisenberg_symmetry(heisenberg, euclid, rng):
    f = FieldProgram.parse("sqrt(1 + x^2 + y^2)")
    pts = [(0.0, 0.0, 0.0)] + box_points(rng, 10)
    reports = assemble_and_verify_V(heisenberg, euclid, pts, f=f, order=5)
    assert np.allclose(reports[0].V, [0, 0, -2], atol=1e-12)
    for rep in reports:
        assert abs(rep.VK) < 1e-7
        assert abs(rep.VM) < 1e-7
        assert abs(rep.E3f) < 1e-7
        assert rep.bracket_defect_1 < 1e-7
        assert rep.bracket_defect_2 < 1e-7


def test_injected_zero_f_gives_zero_V(heisenberg, euclid):
    f = FieldProgram.constant(0.0)
    rep = assemble_and_verify_V(heisenberg, euclid, [(0.5, 0.2, 0.1)],
                                f=f, order=5)[0]
    assert np.allclose(rep.V, [0, 0, 0], atol=1e-15)
    assert rep.bracket_defect_1 < 1e-12 and rep.bracket_defect_2 < 1e-12


def test_reconstruction_branch_assembles_symmetry(axial):
    omega, metric = axial
    base = (0.0, 0.0, 0.0)
    lam_prog = _axial_lambda(omega, metric)
    lam0 = lam_prog.value(base)
    for p in AXIAL_POINTS:
        sys_ = build_system(omega, metric, p)
        f, v = reconstructed_V(sys_, reconstruct_lnf(omega, metric, base, p))
        # f is normalized to f(base) = 1, so f = lambda(base)/lambda and
        # V is the corresponding multiple of the true symmetry dz
        want_f = lam0 / lam_prog.value(p)
        assert abs(f - want_f) < 1e-7
        scale = -lam0  # sign flip from normalizing the negative true f
        assert np.allclose(v, [0, 0, scale], atol=1e-6)
        for inv in (sys_.K, sys_.M):
            grad = [inv.partial_value(mi)
                    for mi in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
            assert abs(np.dot(v, grad)) < 1e-8
