"""Noncontact analysis: locating the singular locus Sigma, characteristic
fields of special forms, the singular adapted frame, lambda-identities and
the Sigma-invariants Q1_12, Q2_12."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .fields import (DEFAULT_ORDER, FieldProgram, MetricField, OneForm,
                     exterior_derivative)
from .frame import (AdaptedFrame, StructureFunctions, basis_and_lambda,
                    dual_coframe, float_det3, jvec_cross, jvec_dot, jvec_scale,
                    jvec_sub, jvec_values, metric_dot, metric_inverse_apply,
                    nonholonomity, structure_functions)
from .invariants import directional_derivative
from .jets import Jet, JetError


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
                 order: int = DEFAULT_ORDER, root_tol: float = 1e-10,
                 scan: int = 33, trans_eps: float = 1e-8) -> Optional[SigmaPoint]:
    """Root of lambda along the straight segment (p0, p1), or None.

    The segment is scanned for a sign change, then the bracketed root is
    polished (Brent) until |lambda| < root_tol.
    """
    p0 = np.array([float(c) for c in segment[0]])
    p1 = np.array([float(c) for c in segment[1]])

    def lam(t: float) -> float:
        return nonholonomity(omega, metric, tuple(p0 + t * (p1 - p0)), order).value

    ts = np.linspace(0.0, 1.0, scan)
    vals = [lam(t) for t in ts]
    bracket = None
    for a, b, fa, fb in zip(ts[:-1], ts[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            bracket = (a, a)
            break
        if fa * fb < 0.0:
            bracket = (a, b)
            break
    if bracket is None:
        if vals[-1] == 0.0:
            bracket = (ts[-1], ts[-1])
        else:
            return None
    t_root = bracket[0] if bracket[0] == bracket[1] else \
        brentq(lam, bracket[0], bracket[1], xtol=1e-15, rtol=8.9e-16)
    residual = abs(lam(t_root))
    if residual > root_tol:
        return None
    point = tuple(float(c) for c in p0 + t_root * (p1 - p0))
    _, _, e1, e2, lam_jet = basis_and_lambda(omega, metric, point, order)
    grad_norm = _norm_on_delta(lam_jet, e1, e2)
    return SigmaPoint(point=point, lambda_residual=residual,
                      transversal=grad_norm > trans_eps,
                      lambda_gradient_on_delta=grad_norm)


def _sigma_normal(omega: OneForm, point, order: int):
    """Unit normal direction to Sigma from the gradient of the contact
    defect mu = omega . (d omega)-vector (vanishes exactly on Sigma)."""
    w = omega.evaluate(point, order)
    b = exterior_derivative(omega, point, order).as_vector()
    mu = jvec_dot(w, b)
    grad = np.array([mu.partial(a).value for a in range(3)])
    n = np.linalg.norm(grad)
    if n < 1e-12:
        raise SingularFrameError(f"cannot estimate a Sigma-normal at {mu.point}")
    return grad / n


def characteristic_field(omega: OneForm, point, order: int = DEFAULT_ORDER,
                         eps: float = 1e-3, w_tol: float = 1e-6):
    """V = w / omega(w) with w the (d omega)-vector spanning ker(d omega).

    Where both w and omega(w) vanish (on Sigma for a special form), the
    value is recovered by second-order Richardson extrapolation from
    p +/- eps*n and p +/- (eps/2)*n along the Sigma-normal n.
    """
    w = exterior_derivative(omega, point, order).as_vector()
    omw = jvec_dot(omega.evaluate(point, order), w)
    w_scale = max(abs(c.value) for c in w)
    if abs(omw.value) > w_tol * (1.0 + w_scale):
        return tuple(c / omw for c in w)
    if w_scale > w_tol:
        raise SingularFrameError(
            f"omega(w) = 0 with w != 0 at {omw.point}: no normalized "
            "characteristic field")
    # removable degeneration: extrapolate across Sigma
    n = _sigma_normal(omega, point, order)
    p = np.array([float(c) for c in point])

    def side_average(h: float):
        jets = []
        for sgn in (+1.0, -1.0):
            q = tuple(p + sgn * h * n)
            wq = exterior_derivative(omega, q, order).as_vector()
            omwq = jvec_dot(omega.evaluate(q, order), wq)
            if abs(omwq.value) < 1e-14:
                raise SingularFrameError(
                    f"characteristic field degenerate off Sigma near {omw.point}")
            jets.append(tuple(c / omwq for c in wq))
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
    must vanish on Sigma (it must be a lambda-multiple off Sigma)."""
    metric = metric or MetricField.identity()
    report = []
    for sp in sigma_points:
        p = sp.point if isinstance(sp, SigmaPoint) else tuple(sp)
        _, _, e1, e2, lam = basis_and_lambda(omega, metric, p, order)
        dphi_norm = _norm_on_delta(phi(p, order), e1, e2)
        lam_scale = max(1.0, _norm_on_delta(lam, e1, e2))
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
    orthonormal basis of Delta; E3 is the characteristic field.
    """
    w, g, e1c, e2c, lam = basis_and_lambda(omega, metric, point, order)
    dlam = tuple(lam.partial(a) for a in range(3))
    if _norm_on_delta(lam, e1c, e2c) <= trans_eps:
        raise SingularFrameError(
            f"d(lambda)|_Delta vanishes at {lam.point}: not transversal")

    direction = jvec_cross(w, dlam)  # annihilated by both omega and d(lambda)
    vals = jvec_values(direction)
    sign = 0.0
    for v in vals:
        if abs(v) > 1e-12:
            sign = 1.0 if v > 0 else -1.0
            break
    if sign == 0.0:
        raise SingularFrameError(
            f"Delta and ker d(lambda) do not intersect cleanly at {lam.point}")
    direction = jvec_scale(sign, direction)
    norm = metric_dot(g, direction, direction).sqrt()
    e1 = tuple(c / norm for c in direction)

    # complete the Delta basis, oriented against (E1, E2, omega-hat)
    wsharp = metric_inverse_apply(g, w)
    omega_hat = jvec_scale(1.0 / jvec_dot(w, wsharp).sqrt(), wsharp)
    cand = jvec_cross(w, e1)
    cand = jvec_sub(cand, jvec_scale(metric_dot(g, cand, e1), e1))
    cn = metric_dot(g, cand, cand).sqrt()
    e2 = tuple(c / cn for c in cand)
    if float_det3([jvec_values(e1), jvec_values(e2), jvec_values(omega_hat)]) < 0:
        e2 = jvec_scale(-1.0, e2)

    e3 = characteristic_field(omega, point, order)

    eta1, eta2, eta3 = dual_coframe(e1, e2, e3)
    frame = AdaptedFrame(E1=e1, E2=e2, E3=e3, eta1=eta1, eta2=eta2, eta3=eta3,
                         lam=lam, kind="singular")
    return frame, structure_functions(frame)


def lambda_identities(frame: AdaptedFrame, c: StructureFunctions):
    """Residuals of the singular-frame identities: E1(lambda) = 0 and
    lambda_3 = lambda (C1_31 - C2_23)."""
    lam = frame.lam
    r1 = directional_derivative(lam, frame.E1).value
    lam3 = directional_derivative(lam, frame.E3).value
    r2 = lam3 - lam.value * (c.C1_31.value - c.C2_23.value)
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
