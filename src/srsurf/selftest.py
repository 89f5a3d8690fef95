"""Built-in fixture checks for the CLI selftest subcommand.

Each check exercises a pinned fixture with known closed-form or oracle
values and gives its deviations from them; `ALL_CHECKS` gives each its
name and tolerance, and `run_selftest` makes every verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import AFTER, NEXT, FieldProgram, MetricField, OneForm, curl
from .frame import build_contact_frame, delta_basis, nonholonomity, structure_functions
from .invariants import (INVARIANTS_ORDER, directional_derivative, invariant_K, invariant_M,
                         invariants_at)
from .jets import MAX_ORDER, BudgetExhausted, Jet, JetError
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


def _rng():
    return np.random.default_rng(20240817)


def turn(theta, u, v):
    """(c u + s v, c v - s u), (c, s) = (cos, sin)(theta), theta a number or a jet."""
    c, s = (theta.cos(), theta.sin()) if isinstance(theta, Jet) else \
        (math.cos(theta), math.sin(theta))
    return c * u + s * v, c * v - s * u


def rotated(frame, theta):
    """(frame, C, M, K) of `frame` with (E1, E2) and (eta1, eta2) turned by
    the angle theta (`turn`), so the coframe stays dual; M and K do not see it.
    The turned E1, E2 are at the order of the stacked E, one below the
    frame's own, so K needs a frame from jets of order
    `invariants.INVARIANTS_ORDER` + 1, else JetError."""
    e, eta = frame.E, frame.eta
    if e.order + 2 < INVARIANTS_ORDER + 1:  # a frame's E is two orders below its jets
        raise JetError(f"rotated needs jets of order {INVARIANTS_ORDER + 1}, got {e.order + 2}")
    e1, e2 = turn(theta, e[0], e[1])
    eta = Jet.stack([*turn(theta, eta[0], eta[1]), eta[2]])
    frame = replace(frame, E=Jet.stack([e1, e2, e[2]]), eta=eta)
    c = structure_functions(e1, e2, e[2], eta)
    return frame, c, invariant_M(c), invariant_K(c, frame)


def jet_oracle():
    """Jet partials of sample expressions vs central finite differences."""
    rng = _rng()
    exprs = ["x^2*y + sin(z)", "sqrt(1 + x^2 + y^2)", "exp(x*y)/(1 + z^2)",
             "cos(x)*ln(2 + y)"]
    progs = [FieldProgram.parse(e) for e in exprs]
    h = 1e-5
    for prog in progs:
        p = rng.uniform(-1, 1, (3, 3))
        j = prog(p)
        for axis, e in enumerate(h * np.eye(3)):
            fd = (prog(p + e, 1).value - prog(p - e, 1).value) / (2 * h)
            mi = tuple(int(a == axis) for a in range(3))
            yield abs(j.partial_value(mi) - fd) / (1 + abs(fd))


def invariant_M_K_closed_forms():
    """M and K against the closed forms for the two contact fixtures."""
    g = MetricField.identity()
    fixtures = ((OneForm.parse(HEISENBERG), heis_M, heis_K),
                (OneForm.parse(CARTAN), cartan_M, cartan_K))
    pts = _rng().uniform(-2, 2, (20, 3))
    for omega, m_ref, k_ref in fixtures:
        m, k, frame, _ = invariants_at(omega, g, pts)
        x, y, z = pts[frame.rows].T
        for got, ref in ((m, m_ref(x, y, z)), (k, k_ref(x, y, z))):
            yield abs(got.value - ref) / (1 + abs(ref))


def frame_identities():
    """Orthonormality, duality, C3 row and C1_31 = C2_23 on both fixtures."""
    rng = _rng()
    g = MetricField.identity()
    for text in (HEISENBERG, CARTAN):
        pts = rng.uniform(-2, 2, (10, 3))
        frame, c = build_contact_frame(OneForm.parse(text), g, pts)
        e, gm = frame.E, g.evaluate(pts)
        ge = (gm * e[:2, :, None]).sum(1)  # g E1, g E2
        c12, c23_31 = (part.value for part in c)
        yield from [abs((e[:2] * ge).sum(-1).value - 1), abs((e[0] * ge[1]).sum().value),
                    abs(c12[2] - 1), abs(c23_31[:, 2]), abs(c23_31[1, 0] - c23_31[0, 1])]
        yield abs((frame.eta[:, None] * e).sum(-1).value - np.eye(3)[..., None])
        a1, a2 = (c23_31[0, 0] - c23_31[1, 1]) / 2, c23_31[1, 0]
        yield abs(invariant_M(c).value - (a1 * a1 + a2 * a2))


def gauge_invariance():
    """M and K under rescaling, sign flip and constant or point-dependent re-gauging."""
    rng = _rng()
    g = MetricField.identity()
    phi = FieldProgram.parse("x + 2*y")
    theta = FieldProgram.parse(GAUGE_ANGLE)
    for text in (HEISENBERG, CARTAN):
        omega = OneForm.parse(text)
        scaled = omega.scale(lambda p, n: phi(p, n).exp())
        pts = rng.uniform(-1.5, 1.5, (8, 3))
        m0, k0, frame, _ = invariants_at(omega, g, pts)
        got = [invariants_at(form, g, pts)[:2] for form in (scaled, -omega)]
        for m, k in got + [rotated(frame, a)[2:] for a in (0.7, theta(pts))]:
            yield abs(m.value - m0.value) / (1 + abs(m0.value))
            yield abs(k.value - k0.value) / (1 + abs(k0.value))


def nonholonomity_properties():
    """lambda homogeneity under e^phi and d(omega)(E1,E2) = -lambda."""
    rng = _rng()
    g = MetricField.identity()
    phi = FieldProgram.parse("x + 2*y")
    for text in (HEISENBERG, CARTAN, OMEGA_1):
        omega = OneForm.parse(text)
        scaled = omega.scale(lambda p, n: phi(p, n).exp())
        pts = rng.uniform(-1.2, 1.2, (8, 3))
        w = omega.evaluate(pts)
        e1, e2, _, _, lam, _ = delta_basis(w, g.evaluate(pts))
        lam_s = nonholonomity(scaled, g, pts)
        factor = np.exp(phi(pts, 1).value)
        yield abs(lam_s.value - factor * lam.value) / (1 + abs(factor * lam.value))
        e1xe2 = e1[NEXT] * e2[AFTER] - e1[AFTER] * e2[NEXT]
        yield abs((curl(w) * e1xe2).sum().value + lam.value) / (1 + abs(lam.value))


def cartan_degenerate():
    """The EQ-system denominator D vanishes identically on the y-only fixture."""
    sys_ = build_system(OneForm.parse(CARTAN), MetricField.identity(),
                        _rng().uniform(-2, 2, (15, 3)), RESIDUAL_MIN_ORDER)
    return [np.abs(sys_.D.value), [1.0] * int(np.sum(~sys_.degenerate))]


def injected_symmetries():
    """Injected true symmetries verify: VK, VM, E3 f and bracket defects."""
    g = MetricField.identity()
    pts = _rng().uniform(-1.5, 1.5, (12, 3))
    for text, f in ((HEISENBERG, "sqrt(1 + x^2 + y^2)"), (CARTAN, "-sqrt(1 + y^2)*y")):
        r = assemble_and_verify_V(OneForm.parse(text), g, pts, f=FieldProgram.parse(f),
                                  order=RESIDUAL_MIN_ORDER)
        yield from [abs(r.VK), abs(r.VM), abs(r.E3f), r.bracket_defect_1, r.bracket_defect_2]


def symmetry_reconstruction():
    """Regular fixture with a known symmetry (z-translation): EQ equals
    -E(lambda)/lambda, residuals vanish, and the reconstructed ln f equals
    ln(lambda(base)/lambda(target))."""
    g = MetricField.from_upper_triangle(AXIAL_METRIC)
    omega = OneForm.parse(AXIAL_FORM)
    pts = [(0.4, 0.3, 0.1), (1.0, -0.5, 0.2), (-0.7, 0.8, 0.0), (0.2, 0.9, -0.3)]
    sys_ = build_system(omega, g, pts, RESIDUAL_MIN_ORDER)
    lam, ok = sys_.frame.lam, ~sys_.degenerate
    yield from [1.0] * int(np.count_nonzero(~ok))
    refs = -directional_derivative(lam, sys_.frame.E[:2]).value / lam.value
    yield from [abs(eq.value - ref)[ok] for eq, ref in zip((sys_.EQ1, sys_.EQ2), refs)]
    yield from [abs(r)[ok] for r in integrability_residuals(sys_)]
    base, target = (0.1, 0.2, 0.0), (0.9, -0.4, 0.3)
    lnf, lam = reconstruct_lnf(omega, g, base, target)[0], nonholonomity(omega, g, [base, target])
    yield abs(lnf - math.log(lam.value[0] / lam.value[1]))


def singular_fixture():
    """Sigma location, characteristic field, lambda identities, Q and its
    rescale invariance for the singular fixture; E3 = d_z at every order and
    Q under (x, y, z) -> (-x, -y, z) for the special form with nonzero Q."""
    g = MetricField.identity()
    omega = OneForm.parse(OMEGA_1)
    roots = locate_sigma(omega, g, [((-1, 0, 0), (1, 0, 0))])
    if roots.transversal.tolist() != [True]:
        raise JetError("Sigma root not found")
    yield np.linalg.norm(roots.point[0])
    v = characteristic_field(omega.evaluate([(0.5, 0, 0), (0, 0, 0), (0, 0.4, 0.2)])).value
    yield np.linalg.norm(np.subtract(v, [[0.0], [1.0], [0.0]]), axis=0)
    frame, c = build_singular_frame(omega, g, [(0.3, 0, 0), (0, 0.5, -0.3)])
    r1, r2 = lambda_identities(frame, c)
    yield from [abs(r1), abs(r2), abs(c[0].value[2] + frame.lam.value), abs(c[1].value[:, 2])]
    q = np.array(sigma_invariants(build_singular_frame(omega, g, (0, 0, 0))[1]))
    yield abs(q)
    scaled = omega.scale(lambda p, n: (nonholonomity(omega, g, p, n) ** 2).exp())
    yield abs(np.array(sigma_invariants(build_singular_frame(scaled, g, (0, 0, 0))[1])) - q)
    special, turned = ((OneForm.parse(f), MetricField.from_upper_triangle(m), p)
                       for f, m, p in ((SPECIAL_FORM, SPECIAL_METRIC, SPECIAL_POINT),
                                       (TURNED_FORM, TURNED_METRIC, TURNED_POINT)))
    for order in range(SINGULAR_FRAME_ORDER, MAX_ORDER + 1):
        e3 = build_singular_frame(*special, order)[0].E[2].coeffs.copy()
        e3[0, 2] -= 1.0  # E3 = d_z
        yield np.abs(e3).max()
    q, q2 = (np.array(sigma_invariants(build_singular_frame(*f)[1])) for f in (special, turned))
    yield abs(q2 / q - 1.0)


def budget_failure_mode():
    """Designed failure: residuals at jet order 2 must exhaust the budget."""
    g = MetricField.from_upper_triangle(AXIAL_METRIC)
    omega = OneForm.parse(AXIAL_FORM)
    try:
        integrability_residuals(build_system(omega, g, (0.4, 0.3, 0.1), order=2))
    except BudgetExhausted:
        return [0.0]
    return [1.0]


# (name, tolerance, deviations): a row passes when its largest deviation is below its tolerance
ALL_CHECKS = (
    ("jet-vs-finite-difference", 1e-5, jet_oracle),
    ("invariant-M-K-closed-forms", 1e-8, invariant_M_K_closed_forms),
    ("frame-identities", 1e-8, frame_identities),
    ("gauge-invariance-M-K", 1e-8, gauge_invariance),
    ("nonholonomity-properties", 1e-9, nonholonomity_properties),
    ("cartan-degenerate-branch", 1e-12, cartan_degenerate),
    ("injected-symmetry-verification", 1e-7, injected_symmetries),
    ("symmetry-reconstruction-fixture", 1e-7, symmetry_reconstruction),
    ("singular-fixture", 1e-6, singular_fixture),
    ("budget-exhaustion-designed-failure", 1.0, budget_failure_mode),
)


def run_selftest() -> list[CheckResult]:
    """One result per row of ALL_CHECKS.  Its deviations are numbers, or arrays of them
    (one per point), and a NaN among them fails the row; so does a row that checks nothing
    or raises, the latter with max_dev inf and the error's text in its note."""
    results = []
    for name, tol, deviations in ALL_CHECKS:
        try:
            devs = np.concatenate([[], *map(np.ravel, deviations())])  # [] if it gives none
            max_dev, note = (float(np.max(devs)), "") if devs.size else \
                (math.nan, "no deviation: checked nothing")
        except Exception as exc:
            max_dev, note = math.inf, f"error: {exc}"
        results.append(CheckResult(name, max_dev, tol, max_dev < tol, note))
    return results
