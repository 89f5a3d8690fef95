import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import srsurf.symmetry
from srsurf import (BudgetExhausted, DegeneratePointError, FieldProgram,
                    JetError, MAX_ORDER, MetricField, NoncontactError, OneForm,
                    assemble_and_verify_V, build_contact_frame, build_system,
                    frame_to_coordinate_gradient, integrability_residuals,
                    nonholonomity, reconstruct_lnf)
from srsurf.symmetry import (EQ_ORDER, RESIDUAL_MIN_ORDER, TOL_QUAD, WG, WGK, XGK, _qag,
                             reconstructed_V)

from conftest import AXIAL_FORM, AXIAL_METRIC, HEISENBERG, OMEGA_1, box_points


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
    """Every build_system call that reconstruct_lnf makes during the test, in
    order, as ("batch", rows) or ("scalar", [point]), each point a tuple."""
    points = []
    build = srsurf.symmetry.build_system

    def counted(omega, metric, point, *args, **kwargs):
        points.append(("batch", [tuple(r) for r in point.tolist()])
                      if isinstance(point, np.ndarray) else ("scalar", [tuple(point)]))
        return build(omega, metric, point, *args, **kwargs)

    monkeypatch.setattr(srsurf.symmetry, "build_system", counted)
    return points


def _quad_nodes():
    """The nodes QUADPACK's first panel on [0, 1] asks for, in its order."""
    from scipy.integrate import quad
    nodes = []
    quad(lambda t: nodes.append(t) or 0.0, 0.0, 1.0)
    return nodes


def _one_system_per_node(omega, metric, base, target, tol_quad=TOL_QUAD, **tols):
    """(ln f, neval) by QAGS with a one-point build_system at every node, on
    the direct segment only: the reference for reconstruct_lnf's batch."""
    from scipy.integrate import quad
    a = np.array(base, dtype=float)
    d = np.array(target, dtype=float) - a

    def integrand(t):
        sys_ = build_system(omega, metric, tuple((a + t * d).tolist()), EQ_ORDER, **tols)
        if sys_.degenerate:
            raise DegeneratePointError(f"degenerate point on segment at t = {t:.6f}")
        return float(d @ frame_to_coordinate_gradient(sys_)[:, 0])

    value, _, info, *_ = quad(integrand, 0.0, 1.0, epsabs=tol_quad, epsrel=0.0,
                              limit=2 ** 14, full_output=1)
    return value, info["neval"]


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
        for eq, ev in zip((sys_.EQ1, sys_.EQ2), sys_.frame.E.value[:2, :, 0]):
            want = -float(ev @ grad[:, 0]) / lam.value
            assert abs(eq.value - want) < 1e-10 * (1 + abs(want))


def test_quotient_identity(axial):
    omega, metric = axial
    sys_ = build_system(omega, metric, AXIAL_POINTS[0])
    # EQ1 * D and EQ2 * D reproduce their numerators
    from srsurf import directional_derivative as dd
    e1k, e2k, e3k = dd(sys_.K, sys_.frame.E).value
    e1m, e2m, e3m = dd(sys_.M, sys_.frame.E).value
    num1 = e3k * e1m - e1k * e3m
    num2 = e3k * e2m - e2k * e3m
    assert abs(sys_.EQ1.value * sys_.D.value - num1) < 1e-10 * (1 + abs(num1))
    assert abs(sys_.EQ2.value * sys_.D.value - num2) < 1e-10 * (1 + abs(num2))


def test_stacked_system_is_the_scalar_formulas(axial):
    # D, the EQ numerators and the residuals from stacked E and C equal, bit
    # for bit, the scalar formulas on separate directional derivatives, each
    # residual added as ((E_b EQ - E_c EQ) + C eq1) + C eq2, on a batch whose
    # rows on the planes x = 0 and y = 0 are degenerate
    from srsurf import directional_derivative as dd
    omega, metric = axial
    pts = np.array([(0.4, 0.7, -0.2), (0.0, 0.5, 0.1), (0.8, -0.6, 0.3), (0.3, 0.0, -0.4),
                    (-0.3, 0.5, 0.1)])
    for order in range(EQ_ORDER, MAX_ORDER + 1):
        sys_ = build_system(omega, metric, pts, order)
        assert 0 < np.count_nonzero(sys_.degenerate) < len(pts)
        e = [sys_.frame.E[a] for a in range(3)]
        e1k, e2k, e3k = (dd(sys_.K, ea) for ea in e)
        e1m, e2m, e3m = (dd(sys_.M, ea) for ea in e)
        d = e1k * e2m - e2k * e1m
        assert np.array_equal(sys_.D.coeffs, d.coeffs)
        ok = ~sys_.degenerate
        rd = d._like(np.where(ok, d.coeffs, np.eye(len(d.coeffs), 1))).reciprocal()
        for eq, num in ((sys_.EQ1, e3k * e1m - e1k * e3m), (sys_.EQ2, e3k * e2m - e2k * e3m)):
            assert np.array_equal(eq.coeffs[..., ok], (num * rd).coeffs[..., ok])
        if order < RESIDUAL_MIN_ORDER:
            continue
        (c12, c23_31), eq1, eq2 = sys_.C, sys_.EQ1, sys_.EQ2
        want = [((dd(eq2, e[0]) - dd(eq1, e[1])) + c12[0] * eq1) + c12[1] * eq2,
                (dd(eq1, e[2]) + c23_31[1, 0] * eq1) + c23_31[1, 1] * eq2,
                (-dd(eq2, e[2]) + c23_31[0, 0] * eq1) + c23_31[0, 1] * eq2]
        for got, r in zip(integrability_residuals(sys_), want):
            assert np.array_equal(got[ok], r.value[ok])


# -- integrability residuals ----------------------------------------------


def test_all_degenerate_batch_takes_the_one_eq_path(cartan, euclid, rng):
    # EQ divides by the stand-in D = 1 on every degenerate row, so a batch
    # with no other row has finite EQ jets too, which nothing reads
    sys_ = build_system(cartan, euclid, np.array(box_points(rng, 6)), RESIDUAL_MIN_ORDER)
    assert sys_.degenerate.all()
    for eq in (sys_.EQ1, sys_.EQ2):
        assert eq.value.shape == (6,) and np.isfinite(eq.coeffs).all()
    with pytest.raises(DegeneratePointError):
        integrability_residuals(sys_)
    with pytest.raises(DegeneratePointError):
        frame_to_coordinate_gradient(sys_)

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
        g = frame_to_coordinate_gradient(sys_)[:, 0]
        b = sys_.frame.E.value[..., 0]
        assert np.allclose(b @ g, [sys_.EQ1.value[0], sys_.EQ2.value[0], 0.0],
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
    lam0 = lam_prog(base).value[0]
    for p in AXIAL_POINTS:
        got, _ = reconstruct_lnf(omega, metric, base, p)
        want = math.log(lam0 / lam_prog(p).value[0])
        assert abs(got - want) < 1e-8


def test_reconstruct_lnf_raises_when_quadrature_does_not_converge(axial, monkeypatch):
    # a long segment, so that the error estimate of one 21-point
    # Gauss-Kronrod panel is a real quadrature error (about 5e-3) and not
    # only rounding, which can come out exactly 0 on a short one
    omega, metric = axial
    monkeypatch.setattr("srsurf.symmetry.MAX_DEPTH", 0)
    with pytest.raises(JetError, match=r"did not converge on panel t = \[0, 1\].*tol_quad = 1e-300"):
        reconstruct_lnf(omega, metric, (0.0, 0.0, 0.0), (10.0, 10.0, 0.0), tol_quad=1e-300)


def test_reconstruct_lnf_failure_reports_progress(axial, monkeypatch):
    omega, metric = axial
    monkeypatch.setattr("srsurf.symmetry.MAX_DEPTH", 0)
    with pytest.raises(JetError, match=r"abserr = \S+, neval = 21,"):
        reconstruct_lnf(omega, metric, (0.0, 0.0, 0.0), (10.0, 10.0, 0.0), tol_quad=1e-300)


def test_reconstruct_lnf_one_kronrod_panel(axial, system_points):
    # the integrand is smooth, so QAG stops after its first 21 nodes,
    # which are one batch
    omega, metric = axial
    _, info = reconstruct_lnf(omega, metric, (0.0, 0.0, 0.0), AXIAL_POINTS[0])
    assert [kind for kind, _ in system_points] == ["batch"]
    rows = system_points[0][1]
    assert len(rows) == 21 == len(set(rows))
    assert (info["neval"], info["rounds"]) == (21, 1)


def test_reconstruct_lnf_info_schema(axial):
    omega, metric = axial
    lnf, info = reconstruct_lnf(omega, metric, (0.0, 0.0, 0.0), AXIAL_POINTS[0])
    assert type(lnf) is float
    assert set(info) == {"neval", "abserr", "route", "rounds"}
    assert type(info["neval"]) is type(info["rounds"]) is int
    assert type(info["abserr"]) is float and 0 < info["abserr"] <= TOL_QUAD
    assert info["route"] == "direct"


def test_reconstruct_lnf_equals_one_system_per_node(axial, system_points):
    # the batch gives each node the float its own system gives, so ln f is
    # the float scipy's QAGS gives with one system per node; under a tight
    # tol_quad QAG bisects once, as QAGS does, and the two halves' 42 nodes
    # are one batch
    omega, metric = axial
    base = (0.0, 0.0, 0.0)
    for p in AXIAL_POINTS:
        assert (reconstruct_lnf(omega, metric, base, p)[0]
                == _one_system_per_node(omega, metric, base, p)[0])
    target = (2.0, 1.5, 0.3)
    del system_points[:]
    lnf, info = reconstruct_lnf(omega, metric, base, target, tol_quad=1e-12)
    assert [(kind, len(rows)) for kind, rows in system_points] == [("batch", 21), ("batch", 42)]
    want, neval = _one_system_per_node(omega, metric, base, target, tol_quad=1e-12)
    assert lnf == want
    assert info["neval"] == neval == 63 and info["rounds"] == 2


RADIAL_100 = "(1 + x^2 + y^2)^100"


@pytest.mark.parametrize("omega, metric, base, target, tols, text", [
    # a first-panel node other than the midpoint is noncontact, or its metric
    # is not positive definite (for x >= 1)
    (AXIAL_FORM, AXIAL_METRIC, (0.1, 0.1, 0.0), (1.6, 1.6, 0.0), {"tol_contact": 0.5},
     "noncontact"),
    (AXIAL_FORM, ("1 - x", "0", "0", "1", "0", "1"), (0.0, 0.5, 0.0), (1.5, 0.5, 0.1), {},
     "metric not positive definite"),
    # the midpoint's metric is out of range, and the outer nodes' jet products
    # overflow before their metric is checked
    (HEISENBERG, (RADIAL_100, "0", "0", RADIAL_100, "0", RADIAL_100), (0.0, 0.0, 0.0),
     (40.0, 0.0, 0.0), {}, "metric out of range at (20.0, 0.0, 0.0)"),
], ids=["noncontact", "not-positive-definite", "out-of-range"])
def test_reconstruct_lnf_batch_keeps_error_text(omega, metric, base, target, tols, text):
    # the batch is dropped, and the one-point path raises at the first
    # failing node in QUADPACK's order: the same error, and no warning
    omega, metric = OneForm.parse(omega), MetricField.from_upper_triangle(metric)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(JetError) as want:
            _one_system_per_node(omega, metric, base, target, **tols)
        with pytest.raises(JetError) as got:
            reconstruct_lnf(omega, metric, base, target, **tols)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert text in str(got.value)
    assert caught == []



def test_reconstruct_lnf_finds_a_failing_node_by_halves(system_points):
    # g_xx = (x - 0.64)(x - 0.655) < 0 only at the last node of the first
    # panel, x = 0.5 + XGK[8] / 2: each batch that holds it raises and runs
    # again as its halves, 1 + 2 ceil(log2 21) = 11 calls at most, where one
    # node at a time after the batch took 22
    omega = OneForm.parse("dz + y*dx")
    metric = MetricField.from_upper_triangle(("(x - 0.64)*(x - 0.655)", "0", "0", "1", "0", "1"))
    with pytest.raises(JetError) as info:
        reconstruct_lnf(omega, metric, (0.0, 0.5, 0.0), (1.0, 0.5, 0.0))
    assert str(info.value) == "metric not positive definite at (0.6471964313507301, 0.5, 0.0)"
    assert len(system_points) <= 1 + 2 * math.ceil(math.log2(21))
    assert system_points[0][1] == [(t, 0.5, 0.0) for t in _quad_nodes()]
    assert system_points[-1][1] == [(0.6471964313507301, 0.5, 0.0)]

def test_reconstruct_lnf_closed_form(axial):
    omega, metric = axial
    base = (0.0, 0.0, 0.0)
    lam_prog = _axial_lambda(omega, metric)
    lam0 = lam_prog(base).value[0]
    for p in AXIAL_POINTS:
        want = math.log(lam0 / lam_prog(p).value[0])
        assert abs(reconstruct_lnf(omega, metric, base, p)[0] - want) < 1e-12


def test_reconstruct_lnf_detours_around_degenerate_segment(axial, system_points):
    # (0,0,0) -> (1,0,0) lies in the degenerate plane y = 0, and the
    # Kronrod node t = 0.5 is on it; the route through the waypoint
    # (0.5, 0.5, 0) leaves the plane, and f = -sqrt(1 + x^2 + y^2) there
    omega, metric = axial
    got, _ = reconstruct_lnf(omega, metric, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert abs(got - 0.5 * math.log(2)) < 1e-12
    # the direct segment's batch starts at the degenerate midpoint, and its
    # mask raises there with no one-point call; each leg then takes one
    # batch of its 21-point panel, at the points one call per node would
    # take, starting at the leg's own midpoint
    assert [(kind, len(rows)) for kind, rows in system_points] == [("batch", 21)] * 3
    assert system_points[0][1][0] == (0.5, 0.0, 0.0)
    leg = np.array([0.5, 0.5, 0.0])
    for a, d, (_, rows) in ((np.zeros(3), leg, system_points[1]),
                            (leg, np.array([1.0, 0.0, 0.0]) - leg, system_points[2])):
        assert rows == [tuple((a + t * d).tolist()) for t in _quad_nodes()]


def test_reconstruct_lnf_detour_failure_raises_direct_error(heisenberg, euclid,
                                                           system_points):
    # degenerate everywhere: the direct segment fails at its midpoint, the
    # detour at the midpoint of its first leg, and the direct segment's
    # error is raised again, with the detour's as its suppressed context
    # (each from its segment's batch)
    with pytest.raises(DegeneratePointError, match=r"at t = 0\.500000$") as info:
        reconstruct_lnf(heisenberg, euclid, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert [(kind, rows[0]) for kind, rows in system_points] == [
        ("batch", (0.5, 0.0, 0.0)), ("batch", (0.25, 0.25, 0.0))]
    assert [len(rows) for _, rows in system_points] == [21, 21]
    assert info.value.__suppress_context__
    assert isinstance(info.value.__context__, DegeneratePointError)


def test_cli_import_leaves_out_scipy_integrate():
    code = ("import sys, srsurf.cli, srsurf.symmetry; "
            "print('scipy.integrate' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def test_reconstruct_lnf_base_equals_target(axial):
    omega, metric = axial
    assert reconstruct_lnf(omega, metric, (0.2, 0.3, 0.1), (0.2, 0.3, 0.1))[0] == 0.0


def test_reconstruct_lnf_path_independence(axial):
    omega, metric = axial
    base = (0.0, 0.0, 0.0)
    t1, t2 = AXIAL_POINTS[0], AXIAL_POINTS[1]
    d_direct, _ = reconstruct_lnf(omega, metric, t1, t2)
    d_via_base = (reconstruct_lnf(omega, metric, base, t2)[0]
                  - reconstruct_lnf(omega, metric, base, t1)[0])
    assert abs(d_direct - d_via_base) < 1e-7


def test_reconstruct_quadrature_convergence(axial):
    omega, metric = axial
    base, p = (0.0, 0.0, 0.0), AXIAL_POINTS[2]
    lam_prog = _axial_lambda(omega, metric)
    want = math.log(lam_prog(base).value[0] / lam_prog(p).value[0])
    errs = [abs(reconstruct_lnf(omega, metric, base, p, tol_quad=tol)[0] - want)
            for tol in (1e-3, 1e-6, 1e-9)]
    assert errs[-1] <= errs[0] + 1e-12
    assert errs[-1] < 1e-8


def test_reconstruct_lnf_unreachable_tolerance_fails_fast(axial):
    # 1e-14 is below what rounding lets this segment's panels reach: QUADPACK's
    # roundoff counters stop the bisection, long before a panel is too small
    # to bisect or a node lands on a degenerate point
    omega, metric = axial
    start = time.perf_counter()
    with pytest.raises(JetError, match=r"^quadrature did not converge on panel t = \[0, 1\]"):
        reconstruct_lnf(omega, metric, (0.1, 0.2, 0.0), (2.5, -1.9, 0.4), tol_quad=1e-14)
    assert time.perf_counter() - start < 1.0


# -- the QK21 rule and the QAG driver ---------------------------------------

def test_qk21_constants_rederived():
    # the Gauss abscissae and weights from leggauss(10), the Kronrod weights
    # from the Legendre moment equations on the 21 nodes, and the Kronrod
    # abscissae by what defines them: the rule integrates every polynomial of
    # degree up to 31 exactly (Laurie, Math. Comp. 66, 1997)
    legendre = np.polynomial.legendre
    x, w = legendre.leggauss(10)
    assert np.abs(XGK[1:10:2] - x[:4:-1]).max() <= 1e-15
    assert np.abs(WG - w[:4:-1]).max() <= 1e-15
    nodes = np.r_[XGK, -XGK[:10]]
    moments = np.eye(21)[0] * 2  # the integrals of P_0, ..., P_20 over [-1, 1]
    weights = np.linalg.solve(legendre.legvander(nodes, 20).T, moments)
    assert np.abs(weights - np.r_[WGK, WGK[:10]]).max() <= 1e-15
    exact = legendre.legvander(nodes, 31)[:, 21:].T @ np.r_[WGK, WGK[:10]]
    assert np.abs(exact).max() <= 1e-15


def test_qag_asks_for_quadpacks_nodes():
    # the first panel's nodes in QUADPACK's order, bit for bit, as one call
    calls = []
    value, abserr, neval, rounds = _qag(lambda ts: calls.append(ts.tolist()) or 0 * ts, 1e-9)
    assert calls == [_quad_nodes()]
    assert (value, abserr, neval, rounds) == (0.0, 0.0, 21, 1)


@pytest.mark.parametrize("f", [math.exp, lambda t: math.cos(3 * t), lambda t: 1 / (1 + t * t)],
                         ids=["exp", "cos", "rational"])
def test_qk21_matches_scipy_quad(f):
    # one panel each: QK21's value and error estimate, against QUADPACK's own
    from scipy.integrate import quad
    value, abserr, neval, _ = _qag(lambda ts: [f(t) for t in ts.tolist()], 1e-9)
    want, want_err = quad(f, 0.0, 1.0, epsabs=1e-9, epsrel=0.0)
    assert neval == 21
    assert abs(value - want) <= 1e-15 * abs(want)
    assert abs(abserr - want_err) <= 1e-15 * want_err


def test_qag_bisects_as_quadpack():
    # sin(40 t) takes 4 panels at 1e-12; QAGS's extrapolation does not
    # change this integral's course, so QAG's bookkeeping meets scipy's
    from scipy.integrate import quad
    calls = []

    def f(ts):
        calls.append(len(ts))
        return [math.sin(40 * t) for t in ts.tolist()]

    value, abserr, neval, rounds = _qag(f, 1e-12)
    want, want_err, info = quad(lambda t: math.sin(40 * t), 0.0, 1.0, epsabs=1e-12,
                                epsrel=0.0, limit=2 ** 14, full_output=1)
    assert (value, abserr, neval) == (want, want_err, info["neval"])
    assert calls == [21] + [42] * (rounds - 1)


def test_qag_stops_where_a_panel_is_too_small_to_bisect():
    # a jump at t = 1/3: each bisection halves the error, so the roundoff
    # counters stay at 0, until the panel at the jump is too small to bisect
    with pytest.raises(JetError, match=r"did not converge .* neval = 1995,"):
        _qag(lambda ts: (ts > 1 / 3).astype(float), 1e-300)


# -- V assembly and verification ------------------------------------------

def test_injected_axial_symmetry(axial):
    omega, metric = axial

    def f(q, n):
        return -1 / nonholonomity(omega, metric, q, n)

    rep = assemble_and_verify_V(omega, metric, AXIAL_POINTS, f=f)
    assert rep.V.shape == (3, len(AXIAL_POINTS))
    assert np.allclose(rep.V.T, [0, 0, 1], atol=1e-12)
    assert np.all(abs(rep.VK) < 1e-10)
    assert np.all(abs(rep.VM) < 1e-10)
    assert np.all(abs(rep.E3f) < 1e-10)
    assert np.all(rep.bracket_defect_1 < 1e-10)
    assert np.all(rep.bracket_defect_2 < 1e-10)


def test_injected_heisenberg_symmetry(heisenberg, euclid, rng):
    f = FieldProgram.parse("sqrt(1 + x^2 + y^2)")
    pts = [(0.0, 0.0, 0.0)] + box_points(rng, 10)
    rep = assemble_and_verify_V(heisenberg, euclid, pts, f=f)
    assert np.allclose(rep.V[:, 0], [0, 0, -2], atol=1e-12)
    assert np.all(abs(rep.VK) < 1e-7)
    assert np.all(abs(rep.VM) < 1e-7)
    assert np.all(abs(rep.E3f) < 1e-7)
    assert np.all(rep.bracket_defect_1 < 1e-7)
    assert np.all(rep.bracket_defect_2 < 1e-7)


def test_injected_zero_f_gives_zero_V(heisenberg, euclid):
    f = FieldProgram.parse("0")
    rep = assemble_and_verify_V(heisenberg, euclid, [(0.5, 0.2, 0.1)], f=f)
    assert np.allclose(rep.V, 0, atol=1e-15)
    assert rep.bracket_defect_1 < 1e-12 and rep.bracket_defect_2 < 1e-12


def test_noncontact_point_raises_its_own_error(euclid):
    # Sigma of OMEGA_1 is {x = 0}: a batch names its first point there
    omega, f = OneForm.parse(OMEGA_1), FieldProgram.parse("1")
    points = [(0.5, 0.2, 0.1), (0.0, 0.3, -0.2), (0.0, -0.4, 0.6)]
    with pytest.raises(NoncontactError) as batch:
        assemble_and_verify_V(omega, euclid, points, f)
    with pytest.raises(NoncontactError) as alone:
        build_contact_frame(omega, euclid, points[1])
    assert str(batch.value) == str(alone.value)
    assert str(alone.value).startswith("point (0.0, 0.3, -0.2) is noncontact")


def test_reconstruction_branch_assembles_symmetry(axial):
    omega, metric = axial
    base = (0.0, 0.0, 0.0)
    lam_prog = _axial_lambda(omega, metric)
    lam0 = lam_prog(base).value[0]
    for p in AXIAL_POINTS:
        sys_ = build_system(omega, metric, p)
        f, v = reconstructed_V(sys_, reconstruct_lnf(omega, metric, base, p)[0])
        # f is normalized to f(base) = 1, so f = lambda(base)/lambda and
        # V is the corresponding multiple of the true symmetry dz
        want_f = lam0 / lam_prog(p).value[0]
        assert abs(f - want_f) < 1e-7
        scale = -lam0  # sign flip from normalizing the negative true f
        assert np.allclose(v, [0, 0, scale], atol=1e-6)
        for inv in (sys_.K, sys_.M):
            grad = [inv.partial_value(mi)
                    for mi in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
            assert abs(np.dot(v, grad)) < 1e-8
