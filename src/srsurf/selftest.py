"""Built-in fixture checks for the CLI selftest subcommand.

Each check exercises a pinned fixture with known closed-form or oracle
values and reports its maximum deviation against a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List

import numpy as np

from .fields import FieldProgram, MetricField, OneForm, curl
from .frame import (build_contact_frame, delta_basis, jvec_cross, jvec_dot,
                    jvec_values, metric_dot, nonholonomity, structure_functions)
from .invariants import directional_derivative, invariant_K, invariant_M, invariants_at
from .jets import MAX_ORDER, BudgetExhausted, Jet
from .singular import (SINGULAR_FRAME_ORDER, build_singular_frame,
                       characteristic_field, lambda_identities, locate_sigma,
                       sigma_invariants)
from .symmetry import (RESIDUAL_MIN_ORDER, assemble_and_verify_V, build_system,
                       integrability_residuals, reconstruct_lnf)

HEISENBERG = "dz + y*dx - x*dy"
CARTAN = "dz + y*dx"
OMEGA_1 = "dy + x^2*dz"
# the Cartan form under a metric stretched along x: dz is a symmetry with
# f = -1/lambda = -sqrt(1 + x^2 + y^2), and D != 0 off the planes x = 0, y = 0
AXIAL_FORM = CARTAN
AXIAL_METRIC = ("1 + x^2", "0", "0", "1", "0", "1")
# a special form with nonzero Q on Sigma = {x = -sin(y)}, where E3 = d_z
SPECIAL_FORM = "dz + (x + sin(y))^2*dx"
SPECIAL_METRIC = ("2 + y^2", "0.3*z", "0.2*y", "1 + y^2 + z", "0.1*y*z",
                  "1.5 + sin(y)")
SPECIAL_POINT = (-math.sin(0.3), 0.3, -0.2)
# its pullback by (x, y, z) -> (-x, -y, z), and the preimage of SPECIAL_POINT
TURNED_FORM = "dz - (x + sin(y))^2*dx"
TURNED_METRIC = SPECIAL_METRIC[:5] + ("1.5 - sin(y)",)
TURNED_POINT = (math.sin(0.3), -0.3, -0.2)
# a point-dependent SO(2) gauge angle, for `rotated`
GAUGE_ANGLE = "0.3 + x*y - z^2"


# Closed forms of M and K on the Euclidean Heisenberg and Cartan fixtures.
# Plain arithmetic, so that they also take sympy symbols.

def heis_M(x, y, z):
    return 2.25 * (x * x + y * y) ** 2 / (1 + x * x + y * y) ** 4


def heis_K(x, y, z):
    r2 = x * x + y * y
    return 3 * (3 * r2 + 4) / (2 * (1 + r2) ** 2)


def cartan_M(x, y, z):
    return 0.25 * (1 - 2 * y * y) ** 2 / (1 + y * y) ** 4


def cartan_K(x, y, z):
    return (2 * y * y + 5) / (2 * (1 + y * y) ** 2)


@dataclass
class CheckResult:
    name: str
    max_dev: float
    tol: float
    passed: bool
    note: str = ""


def _result(name, devs, tol, note=""):
    """devs: numbers, or arrays of them (one per point)."""
    m = max((float(np.max(d)) for d in devs), default=0.0)
    return CheckResult(name=name, max_dev=m, tol=tol, passed=m < tol, note=note)


def _rng():
    return np.random.default_rng(20240817)


def turn(theta, u, v):
    """(c u + s v, c v - s u), (c, s) = (cos, sin)(theta), theta a number or a jet."""
    c, s = (theta.cos(), theta.sin()) if isinstance(theta, Jet) else \
        (math.cos(theta), math.sin(theta))
    return (tuple(c * a + s * b for a, b in zip(u, v)),
            tuple(c * b - s * a for a, b in zip(u, v)))


def rotated(frame, theta):
    """(frame, C, M, K) of `frame` with (E1, E2) and (eta1, eta2) turned by
    the angle theta (`turn`), so the coframe stays dual; M and K do not see it."""
    e1, e2 = turn(theta, frame.E1, frame.E2)
    eta1, eta2 = turn(theta, frame.eta1, frame.eta2)
    frame = replace(frame, E1=e1, E2=e2, eta1=eta1, eta2=eta2)
    c = structure_functions(frame)
    return frame, c, invariant_M(c), invariant_K(c, frame)


def check_jet_oracle() -> CheckResult:
    """Jet partials of sample expressions vs central finite differences."""
    rng = _rng()
    exprs = ["x^2*y + sin(z)", "sqrt(1 + x^2 + y^2)", "exp(x*y)/(1 + z^2)",
             "cos(x)*ln(2 + y)"]
    progs = [FieldProgram.parse(e) for e in exprs]
    devs = []
    h = 1e-5
    for prog in progs:
        p = rng.uniform(-1, 1, (3, 3))
        j = prog(p)
        for axis, e in enumerate(h * np.eye(3)):
            fd = (prog(p + e, 1).value - prog(p - e, 1).value) / (2 * h)
            mi = tuple(int(a == axis) for a in range(3))
            devs.append(abs(j.partial_value(mi) - fd) / (1 + abs(fd)))
    return _result("jet-vs-finite-difference", devs, 1e-5)


def check_invariant_M_K_closed_forms() -> CheckResult:
    """M and K against the closed forms for the two contact fixtures."""
    g = MetricField.identity()
    devs = []
    fixtures = ((OneForm.parse(HEISENBERG), heis_M, heis_K),
                (OneForm.parse(CARTAN), cartan_M, cartan_K))
    pts = _rng().uniform(-2, 2, (20, 3))
    for omega, m_ref, k_ref in fixtures:
        vals, frame, _ = invariants_at(omega, g, pts)
        x, y, z = pts[frame.rows].T
        for got, ref in ((vals.M, m_ref(x, y, z)), (vals.K, k_ref(x, y, z))):
            devs.append(abs(got.value - ref) / (1 + abs(ref)))
    return _result("invariant-M-K-closed-forms", devs, 1e-8)


def check_frame_identities() -> CheckResult:
    """Orthonormality, duality, C3 row and C1_31 = C2_23 on both fixtures."""
    rng = _rng()
    g = MetricField.identity()
    devs = []
    for text in (HEISENBERG, CARTAN):
        pts = rng.uniform(-2, 2, (10, 3))
        frame, c = build_contact_frame(OneForm.parse(text), g, pts)
        gm = g.evaluate(pts)
        devs += [abs(metric_dot(gm, frame.E1, frame.E1).value - 1),
                 abs(metric_dot(gm, frame.E2, frame.E2).value - 1),
                 abs(metric_dot(gm, frame.E1, frame.E2).value),
                 abs(c.C3_12.value - 1), abs(c.C3_23.value), abs(c.C3_31.value),
                 abs(c.C1_31.value - c.C2_23.value)]
        devs += [abs(jvec_dot(eta, e).value - (a == b)) for a, eta in enumerate(frame.coframe)
                 for b, e in enumerate(frame.frame)]
        a1, a2 = (c.C1_23.value - c.C2_31.value) / 2, c.C1_31.value
        devs.append(abs(invariant_M(c).value - (a1 * a1 + a2 * a2)))
    return _result("frame-identities", devs, 1e-8)


def check_gauge_invariance() -> CheckResult:
    """M and K under rescaling, sign flip and constant or point-dependent re-gauging."""
    rng = _rng()
    g = MetricField.identity()
    phi = FieldProgram.parse("x + 2*y")
    theta = FieldProgram.parse(GAUGE_ANGLE)
    devs = []
    for text in (HEISENBERG, CARTAN):
        omega = OneForm.parse(text)
        scaled = omega.scale(lambda p, n: phi(p, n).exp())
        pts = rng.uniform(-1.5, 1.5, (8, 3))
        ref, frame, _ = invariants_at(omega, g, pts)
        got = [invariants_at(form, g, pts)[0] for form in (scaled, -omega)]
        got = [(v.M, v.K) for v in got] + [rotated(frame, a)[2:] for a in (0.7, theta(pts))]
        for m, k in got:
            devs.append(abs(m.value - ref.M.value) / (1 + abs(ref.M.value)))
            devs.append(abs(k.value - ref.K.value) / (1 + abs(ref.K.value)))
    return _result("gauge-invariance-M-K", devs, 1e-8)


def check_nonholonomity_properties() -> CheckResult:
    """lambda homogeneity under e^phi and d(omega)(E1,E2) = -lambda."""
    rng = _rng()
    g = MetricField.identity()
    phi = FieldProgram.parse("x + 2*y")
    devs = []
    for text in (HEISENBERG, CARTAN, OMEGA_1):
        omega = OneForm.parse(text)
        scaled = omega.scale(lambda p, n: phi(p, n).exp())
        pts = rng.uniform(-1.2, 1.2, (8, 3))
        w = omega.evaluate(pts)
        e1, e2, _, _, lam, _ = delta_basis(w, g.evaluate(pts))
        lam_s = nonholonomity(scaled, g, pts)
        factor = np.exp(phi(pts, 1).value)
        devs.append(abs(lam_s.value - factor * lam.value) / (1 + abs(factor * lam.value)))
        devs.append(abs(jvec_dot(curl(w), jvec_cross(e1, e2)).value + lam.value)
                    / (1 + abs(lam.value)))
    return _result("nonholonomity-properties", devs, 1e-9)


def check_cartan_degenerate() -> CheckResult:
    """The EQ-system denominator D vanishes identically on the y-only fixture."""
    sys_ = build_system(OneForm.parse(CARTAN), MetricField.identity(),
                        _rng().uniform(-2, 2, (15, 3)), RESIDUAL_MIN_ORDER)
    devs = np.abs(sys_.D.value).tolist() + [1.0] * int(np.sum(~sys_.degenerate))
    return _result("cartan-degenerate-branch", devs, 1e-12)


def check_injected_symmetries() -> CheckResult:
    """Injected true symmetries verify: VK, VM, E3 f and bracket defects."""
    g = MetricField.identity()
    devs = []
    pts = _rng().uniform(-1.5, 1.5, (12, 3))
    for text, f in ((HEISENBERG, "sqrt(1 + x^2 + y^2)"), (CARTAN, "-sqrt(1 + y^2)*y")):
        for r in assemble_and_verify_V(OneForm.parse(text), g, pts, f=FieldProgram.parse(f),
                                       order=RESIDUAL_MIN_ORDER):
            devs += [abs(r.VK), abs(r.VM), abs(r.E3f),
                     r.bracket_defect_1, r.bracket_defect_2]
    return _result("injected-symmetry-verification", devs, 1e-7)


def check_symmetry_reconstruction() -> CheckResult:
    """Regular fixture with a known symmetry (z-translation): EQ equals
    -E(lambda)/lambda, residuals vanish, and the reconstructed ln f equals
    ln(lambda(base)/lambda(target))."""
    g = MetricField.from_upper_triangle(AXIAL_METRIC)
    omega = OneForm.parse(AXIAL_FORM)
    pts = [(0.4, 0.3, 0.1), (1.0, -0.5, 0.2), (-0.7, 0.8, 0.0), (0.2, 0.9, -0.3)]
    sys_ = build_system(omega, g, pts, RESIDUAL_MIN_ORDER)
    lam, ok = sys_.frame.lam, ~sys_.degenerate
    devs = [1.0] * int(np.count_nonzero(~ok))
    for eq, e in ((sys_.EQ1, sys_.frame.E1), (sys_.EQ2, sys_.frame.E2)):
        ref = -directional_derivative(lam, e).value / lam.value
        devs.append(abs(eq.value - ref)[ok])
    devs += [abs(r)[ok] for r in integrability_residuals(sys_)]
    base, target = (0.1, 0.2, 0.0), (0.9, -0.4, 0.3)
    lnf, lam = reconstruct_lnf(omega, g, base, target)[0], nonholonomity(omega, g, [base, target])
    devs.append(abs(lnf - math.log(lam.value[0] / lam.value[1])))
    return _result("symmetry-reconstruction-fixture", devs, 1e-7)


def check_singular_fixture() -> CheckResult:
    """Sigma location, characteristic field, lambda identities, Q and its
    rescale invariance for the singular fixture; E3 = d_z at every order and
    Q under (x, y, z) -> (-x, -y, z) for the special form with nonzero Q."""
    g = MetricField.identity()
    omega = OneForm.parse(OMEGA_1)
    devs = []
    roots = locate_sigma(omega, g, [((-1, 0, 0), (1, 0, 0))])[0]
    if [sp.transversal for sp in roots] != [True]:
        return CheckResult("singular-fixture", 1.0, 1e-6, False,
                           "Sigma root not found")
    devs.append(float(np.linalg.norm(roots[0].point)))
    v = jvec_values(characteristic_field(omega.evaluate([(0.5, 0, 0), (0, 0, 0), (0, 0.4, 0.2)])))
    devs.append(np.linalg.norm(np.subtract(v, [[0.0], [1.0], [0.0]]), axis=0))
    frame, c = build_singular_frame(omega, g, [(0.3, 0, 0), (0, 0.5, -0.3)])
    r1, r2 = lambda_identities(frame, c)
    devs += [abs(r1), abs(r2), abs(c.C3_12.value + frame.lam.value),
             abs(c.C3_23.value), abs(c.C3_31.value)]
    q = sigma_invariants(build_singular_frame(omega, g, (0, 0, 0))[1])
    devs += [abs(q.Q112), abs(q.Q212)]
    scaled = omega.scale(lambda p, n: (nonholonomity(omega, g, p, n) ** 2).exp())
    q2 = sigma_invariants(build_singular_frame(scaled, g, (0, 0, 0))[1])
    devs += [abs(q2.Q112 - q.Q112), abs(q2.Q212 - q.Q212)]
    special, turned = ((OneForm.parse(f), MetricField.from_upper_triangle(m), p)
                       for f, m, p in ((SPECIAL_FORM, SPECIAL_METRIC, SPECIAL_POINT),
                                       (TURNED_FORM, TURNED_METRIC, TURNED_POINT)))
    for order in range(SINGULAR_FRAME_ORDER, MAX_ORDER + 1):
        e3 = np.stack([e.coeffs for e in build_singular_frame(*special, order)[0].E3])
        e3[2, 0] -= 1.0  # E3 = d_z
        devs.append(float(np.abs(e3).max()))
    q, q2 = (sigma_invariants(build_singular_frame(*f)[1]) for f in (special, turned))
    devs += [abs(q2.Q112 / q.Q112 - 1.0), abs(q2.Q212 / q.Q212 - 1.0)]
    return _result("singular-fixture", devs, 1e-6)


def check_budget_failure_mode() -> CheckResult:
    """Designed failure: residuals at jet order 2 must exhaust the budget."""
    g = MetricField.from_upper_triangle(AXIAL_METRIC)
    omega = OneForm.parse(AXIAL_FORM)
    try:
        integrability_residuals(build_system(omega, g, (0.4, 0.3, 0.1), order=2))
    except BudgetExhausted:
        return CheckResult("budget-exhaustion-designed-failure", 0.0, 1.0, True)
    except Exception as exc:  # pragma: no cover
        return CheckResult("budget-exhaustion-designed-failure", 1.0, 1.0,
                           False, f"unexpected error {exc!r}")
    return CheckResult("budget-exhaustion-designed-failure", 1.0, 1.0, False,
                       "no error raised")


ALL_CHECKS = (
    check_jet_oracle,
    check_invariant_M_K_closed_forms,
    check_frame_identities,
    check_gauge_invariance,
    check_nonholonomity_properties,
    check_cartan_degenerate,
    check_injected_symmetries,
    check_symmetry_reconstruction,
    check_singular_fixture,
    check_budget_failure_mode,
)


def run_selftest() -> List[CheckResult]:
    results = []
    for fn in ALL_CHECKS:
        try:
            results.append(fn())
        except Exception as exc:
            results.append(CheckResult(name=fn.__name__.replace("check_", "").replace("_", "-"),
                                       max_dev=math.inf, tol=0.0, passed=False,
                                       note=f"error: {exc}"))
    return results
