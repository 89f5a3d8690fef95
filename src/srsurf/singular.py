"""Noncontact analysis: locating the singular locus Sigma, characteristic
fields of special forms, the singular adapted frame, lambda-identities and
the Sigma-invariants Q1_12, Q2_12."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .fields import DEFAULT_ORDER, FieldProgram, MetricField, OneForm, curl
from .frame import (AdaptedFrame, StructureFunctions, adapted_coframe,
                    basis_and_lambda, jvec_cross, jvec_div, jvec_dot,
                    jvec_scale, jvec_values, kernel_complement, nonholonomity,
                    omega_norm, structure_functions, unit)
from .invariants import directional_derivative
from .jets import Jet, JetError

# Least jet orders, from the derivative budget: lambda = omega([E1, E2])
# takes one level; d(lambda) one more; the singular frame's E1 is built
# from d(lambda), and its structure functions bracket E1.
SIGMA_SCAN_ORDER = 1
TRANSVERSALITY_ORDER = SIGMA_SCAN_ORDER + 1
SINGULAR_FRAME_ORDER = TRANSVERSALITY_ORDER + 1


class SingularFrameError(JetError):
    """Singular-frame construction failed (transversality or field)."""


@dataclass
class SigmaPoint:
    point: tuple
    lambda_residual: float
    transversal: bool
    lambda_gradient_on_delta: float


@dataclass
class SigmaInvariants:
    Q112: float
    Q212: float


def _norm_on_delta(f: Jet, e1, e2) -> float:
    """Norm of d(f) restricted to Delta: hypot(E1 f, E2 f)."""
    return float(np.hypot(directional_derivative(f, e1).value,
                          directional_derivative(f, e2).value))


def locate_sigma(omega: OneForm, metric: MetricField, segment,
                 root_tol: float = 1e-10, scan: int = 33,
                 trans_eps: float = 1e-8) -> Optional[SigmaPoint]:
    """Root of lambda along the straight segment (p0, p1), or None.

    The segment is scanned for a sign change, then the bracketed root is
    polished (Brent).  It is accepted when |lambda| / |omega|_g <= root_tol
    and is transversal when |d(lambda)|_Delta| / |omega|_g > trans_eps.
    """
    p0 = np.array([float(c) for c in segment[0]])
    p1 = np.array([float(c) for c in segment[1]])

    def lam(t: float) -> float:
        return nonholonomity(omega, metric, tuple(p0 + t * (p1 - p0)),
                             SIGMA_SCAN_ORDER).value

    ts = np.linspace(0.0, 1.0, scan)
    vals = [lam(t) for t in ts]
    for a, b, fa, fb in zip(ts, ts[1:], vals, vals[1:]):
        if fa == 0.0 or fa * fb < 0.0:
            t_root = a if fa == 0.0 else \
                brentq(lam, a, b, xtol=1e-15, rtol=8.9e-16)
            break
    else:
        if vals[-1] != 0.0:
            return None
        t_root = ts[-1]
    residual = abs(lam(t_root))
    point = tuple(float(c) for c in p0 + t_root * (p1 - p0))
    w, g, e1, e2, lam_jet = basis_and_lambda(omega, metric, point,
                                             TRANSVERSALITY_ORDER)
    scale = omega_norm(w, g)
    if residual / scale > root_tol:
        return None
    grad_norm = _norm_on_delta(lam_jet, e1, e2)
    return SigmaPoint(point=point, lambda_residual=residual,
                      transversal=grad_norm / scale > trans_eps,
                      lambda_gradient_on_delta=grad_norm)


def _dw_vector(form):
    """(|omega|, w, omega(w)) from the jets of omega, with w the
    (d omega)-vector; omega -> c omega scales them by c, c and c^2, so every
    test below compares ratios."""
    w = curl(form)
    return float(np.linalg.norm(jvec_values(form))), w, jvec_dot(form, w)


def _sigma_normal(size: float, mu: Jet):
    """Unit normal direction to Sigma from the gradient of the contact
    defect mu = omega(w) (vanishes exactly on Sigma); size is |omega|."""
    grad = np.array([mu.partial(a).value for a in range(3)])
    n = np.linalg.norm(grad)
    if n < 1e-12 * size ** 2:
        raise SingularFrameError(f"cannot estimate a Sigma-normal at {mu.point}")
    return grad / n


def characteristic_field(omega: OneForm, point, order: int = DEFAULT_ORDER,
                         eps: float = 1e-3, w_tol: float = 1e-6, *, form=None):
    """V = w / omega(w) with w the (d omega)-vector spanning ker(d omega).

    Where both w and omega(w) vanish (on Sigma for a special form), the
    value is recovered by second-order Richardson extrapolation from
    p +/- eps*n and p +/- (eps/2)*n along the Sigma-normal n.  `form`, the
    jets of omega at the point at `order`, saves evaluating omega again.
    """
    if form is None:
        form = omega.evaluate(point, order)
    size, w, omw = _dw_vector(form)
    w_max = max(abs(c.value) for c in w)
    if abs(omw.value) > w_tol * size * (size + w_max):
        return jvec_div(w, omw)
    if w_max > w_tol * size:
        raise SingularFrameError(
            f"omega(w) = 0 with w != 0 at {omw.point}: no normalized "
            "characteristic field")
    # removable degeneration: extrapolate across Sigma
    n = _sigma_normal(size, omw)
    p = np.array([float(c) for c in point])

    def side_average(h: float):
        jets = []
        for sgn in (+1.0, -1.0):
            size_q, wq, omwq = _dw_vector(
                omega.evaluate(tuple(p + sgn * h * n), order))
            if abs(omwq.value) < 1e-14 * size_q ** 2:
                raise SingularFrameError(
                    f"characteristic field degenerate off Sigma near {omw.point}")
            jets.append(jvec_div(wq, omwq))
        coeffs = [0.5 * (jets[0][a].coeffs + jets[1][a].coeffs) for a in range(3)]
        valid = min(j.valid_order for side in jets for j in side)
        return coeffs, valid

    c1, v1 = side_average(eps)
    c2, v2 = side_average(eps / 2.0)
    return tuple(Jet(point, order, (4.0 * c2[a] - c1[a]) / 3.0, min(v1, v2))
                 for a in range(3))


def check_special_rescale(omega: OneForm, phi: FieldProgram, sigma_points,
                          metric: Optional[MetricField] = None,
                          order: int = DEFAULT_ORDER, tol: float = 1e-6):
    """Necessary condition for e^phi omega to stay special: d(phi)|_Delta
    must vanish on Sigma (it must be a lambda-multiple off Sigma).  The
    bound scales with max(1, |d(lambda)|_Delta| / |omega|_g), a ratio that
    omega -> c omega leaves unchanged."""
    metric = metric or MetricField.identity()
    report = []
    for sp in sigma_points:
        p = sp.point if isinstance(sp, SigmaPoint) else tuple(sp)
        w, g, e1, e2, lam = basis_and_lambda(omega, metric, p, order)
        dphi_norm = _norm_on_delta(phi(p, order), e1, e2)
        lam_scale = max(1.0, _norm_on_delta(lam, e1, e2) / omega_norm(w, g))
        report.append({
            "point": p,
            "dphi_on_delta": dphi_norm,
            "lambda_scale": lam_scale,
            "passes": dphi_norm <= tol * lam_scale,
        })
    return report


def build_singular_frame(omega: OneForm, metric: MetricField, point,
                         order: int = DEFAULT_ORDER, trans_eps: float = 1e-8):
    """Adapted frame at/near Sigma for a special form omega.

    E1 spans Delta intersected with ker(d lambda), sign fixed so its first
    nonzero component (x, y, z order) is positive; E2 completes the oriented
    orthonormal basis of Delta; E3 is the characteristic field.  Needs
    order SINGULAR_FRAME_ORDER for the structure functions.
    """
    w, g, e1c, e2c, lam = basis_and_lambda(omega, metric, point, order)
    dlam = tuple(lam.partial(a) for a in range(3))
    if _norm_on_delta(lam, e1c, e2c) / omega_norm(w, g) <= trans_eps:
        raise SingularFrameError(
            f"d(lambda)|_Delta vanishes at {lam.point}: not transversal")

    direction = jvec_cross(w, dlam)  # annihilated by both omega and d(lambda)
    vals = jvec_values(direction)
    largest = max(abs(v) for v in vals)
    sign = 0.0
    for v in vals:
        if abs(v) > 1e-12 * largest:
            sign = 1.0 if v > 0 else -1.0
            break
    if sign == 0.0:
        raise SingularFrameError(
            f"Delta and ker d(lambda) do not intersect cleanly at {lam.point}")
    e1, ge1 = unit(g, jvec_scale(sign, direction))
    e2 = kernel_complement(w, g, ge1)
    e3 = characteristic_field(omega, point, order, form=w)
    eta1, eta2, eta3 = adapted_coframe(g, e1, e2, e3, jvec_div(w, jvec_dot(w, e3)))
    frame = AdaptedFrame(E1=e1, E2=e2, E3=e3, eta1=eta1, eta2=eta2, eta3=eta3,
                         lam=lam, kind="singular")
    return frame, structure_functions(frame)


def lambda_identities(frame: AdaptedFrame, c: StructureFunctions):
    """Residuals of the singular-frame identities: E1(lambda) = 0 and
    lambda_3 = -lambda (C1_31 - C2_23), from d(d eta3) = 0 with
    d eta3 = C3_12 eta1^eta2 = -lambda eta1^eta2."""
    lam = frame.lam
    r1 = directional_derivative(lam, frame.E1).value
    lam3 = directional_derivative(lam, frame.E3).value
    r2 = lam3 + lam.value * (c.C1_31.value - c.C2_23.value)
    return r1, r2


def sigma_invariants(c: StructureFunctions) -> SigmaInvariants:
    """Q1_12 = C1_12 restricted to Sigma, Q2_12 = C2_12 restricted to Sigma
    (invariants of the surface along the singular locus), from the structure
    functions of a singular frame built at a Sigma point."""
    return SigmaInvariants(Q112=c.C1_12.value, Q212=c.C2_12.value)


def sigma_invariant_derivative(omega: OneForm, metric: MetricField, p,
                               direction, h: float = 1e-4,
                               order: int = DEFAULT_ORDER):
    """Central finite difference of (Q1_12, Q2_12) along a direction tangent
    to Sigma; expected ~0 along the flow of a true symmetry."""
    d = np.array([float(c) for c in direction])
    p = np.array([float(c) for c in p])

    def q(step: float) -> SigmaInvariants:
        _, c = build_singular_frame(omega, metric, tuple(p + step * d), order)
        return sigma_invariants(c)

    qp, qm = q(h), q(-h)
    return ((qp.Q112 - qm.Q112) / (2 * h), (qp.Q212 - qm.Q212) / (2 * h))
