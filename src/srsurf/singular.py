"""Noncontact analysis: locating the singular locus Sigma, characteristic
fields of special forms, the singular adapted frame, lambda-identities and
the Sigma-invariants Q1_12, Q2_12."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.optimize import brentq

from .fields import DEFAULT_ORDER, MetricField, OneForm, curl_and_defect
from .frame import (AdaptedFrame, StructureFunctions, adapted_frame,
                    basis_and_lambda, jvec_cross, jvec_div, jvec_dot,
                    jvec_values, kernel_basis, lambda_jet, nonholonomity,
                    omega_norm)
from .invariants import directional_derivative
from .jets import Jet, JetError, _mul_table, n_coeffs

# Least jet orders, from the derivative budget: lambda takes one level (the
# curl of omega in its numerator); d(lambda) one more; the singular frame's
# E1 is built from d(lambda), and its structure functions bracket E1.
SIGMA_SCAN_ORDER = 1
TRANSVERSALITY_ORDER = SIGMA_SCAN_ORDER + 1
SINGULAR_FRAME_ORDER = TRANSVERSALITY_ORDER + 1

# Thresholds (of ratios that omega -> c omega leaves unchanged).
SIGMA_SCAN_NODES = 33      # equally spaced lambda samples on a probe segment
TRANSVERSALITY_EPS = 1e-8  # transversal: |d(lambda)|_Delta| / |omega|_g above it
CHARACTERISTIC_TOL = 1e-6  # w, omega(w) and w mod omega(w) below it vanish


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


def locate_sigma(omega: OneForm, metric: MetricField, segments,
                 root_tol: float = 1e-10) -> List[Optional[SigmaPoint]]:
    """The root of lambda along each straight segment (p0, p1), or None.

    All the segments are scanned for a sign change in one batch, then each
    bracketed root is polished (Brent).  It is accepted when |lambda| /
    |omega|_g <= root_tol and is transversal when |d(lambda)|_Delta| /
    |omega|_g > TRANSVERSALITY_EPS.
    """
    ends = np.array(segments, dtype=float)
    ts = np.linspace(0.0, 1.0, SIGMA_SCAN_NODES)
    scan = ends[:, :1] + ts[:, None] * (ends[:, 1:] - ends[:, :1])
    scans = nonholonomity(omega, metric, scan.reshape(-1, 3), SIGMA_SCAN_ORDER).value

    def root(p0, p1, vals):  # on one segment, from its scan values
        def lam(t):
            return nonholonomity(omega, metric, p0 + t * (p1 - p0), SIGMA_SCAN_ORDER).value

        for a, b, fa, fb in zip(ts, ts[1:], vals, vals[1:]):
            if fa == 0.0 or fa * fb < 0.0:
                t_root = a if fa == 0.0 else \
                    brentq(lam, a, b, xtol=1e-15, rtol=8.9e-16)
                break
        else:
            if vals[-1] != 0.0:
                return None
            t_root = ts[-1]
        point = tuple(float(c) for c in p0 + t_root * (p1 - p0))
        w, g, e1, e2, lam_jet = basis_and_lambda(omega, metric, point,
                                                 TRANSVERSALITY_ORDER)
        residual = abs(lam_jet.value)
        scale = omega_norm(w, g)
        if residual / scale > root_tol:
            return None
        grad_norm = float(np.hypot(directional_derivative(lam_jet, e1).value,
                                   directional_derivative(lam_jet, e2).value))
        return SigmaPoint(point=point, lambda_residual=residual,
                          transversal=bool(grad_norm / scale > TRANSVERSALITY_EPS),
                          lambda_gradient_on_delta=grad_norm)
    return [root(p0, p1, v) for (p0, p1), v in zip(ends, scans.reshape(len(ends), -1).tolist())]


def _jet_quotient(w, mu: Jet):
    """(u, r): u, one order below mu, fits w = u mu degree by degree by
    least squares against the linear part of mu (mu(p) is dropped), and r
    is the largest coefficient, degree 1 and up, of the remainder w - u mu."""
    n, nu = mu.order, n_coeffs(mu.order - 1)
    ia, ib, io = _mul_table(n)
    keep = (ia < nu) & (ib > 0)
    mul = np.zeros((len(mu.coeffs), nu))  # column j: the coefficients of x^j mu
    mul[io[keep], ia[keep]] = mu.coeffs[ib[keep]]
    wc, u, r = np.stack([c.coeffs for c in w], axis=1), np.zeros((nu, 3)), 0.0
    for d in range(n):  # degree d of u fits degree d + 1 of w
        lo, hi, top = n_coeffs(d - 1), n_coeffs(d), n_coeffs(d + 1)
        rhs = wc[hi:top] - mul[hi:top, :lo] @ u[:lo]
        u[lo:hi] = np.linalg.lstsq(mul[hi:top, lo:hi], rhs, rcond=None)[0]
        r = max(r, np.abs(rhs - mul[hi:top, lo:hi] @ u[lo:hi]).max())
    return tuple(Jet._new(mu.point, n - 1, c.copy()) for c in u.T), r


def characteristic_field(omega: OneForm, point, order: int = DEFAULT_ORDER,
                         *, form=None):
    """V = w / omega(w) with w the (d omega)-vector spanning ker(d omega).

    Where w and omega(w) both vanish (on Sigma for a special form), V is the
    exact quotient `_jet_quotient`, one order lower; the form is not special
    there if omega(w) has no linear part or the remainder is above
    CHARACTERISTIC_TOL times the largest coefficient of w.  `form`, the jets
    of omega at the point at `order`, saves evaluating it.
    """
    if form is None:
        form = omega.evaluate(point, order)
    # omega -> c omega scales |omega|, w and omega(w) by c, c and c^2, so
    # every test below compares ratios
    size = float(np.linalg.norm(jvec_values(form)))
    w, omw = curl_and_defect(form)
    w_max = max(abs(c.value) for c in w)
    if abs(omw.value) > CHARACTERISTIC_TOL * size * (size + w_max):
        return jvec_div(w, omw)
    if w_max > CHARACTERISTIC_TOL * size:
        raise SingularFrameError(
            f"omega(w) = 0 with w != 0 at {omw.point}: no normalized "
            "characteristic field")
    w_scale = max(np.abs(c.coeffs).max() for c in w)
    if max(abs(omw.partial(a).value) for a in range(3)) <= \
            CHARACTERISTIC_TOL * size * w_scale:
        raise SingularFrameError(
            f"omega(w) has no linear part at {omw.point}: not special")
    v, remainder = _jet_quotient(w, omw)
    if remainder > CHARACTERISTIC_TOL * w_scale:
        raise SingularFrameError(
            f"omega(w) does not divide w at {omw.point}: not special")
    return v


def build_singular_frame(omega: OneForm, metric: MetricField, point,
                         order: int = DEFAULT_ORDER):
    """Adapted frame at/near Sigma for a special form omega.

    E1 spans Delta intersected with ker(d lambda), oriented so that
    E2(lambda) > 0; E2 completes the oriented orthonormal basis of Delta; E3
    is the characteristic field.  Sigma must be transversal there:
    E2(lambda) / |omega|_g above TRANSVERSALITY_EPS.  Needs order
    SINGULAR_FRAME_ORDER for the structure functions.
    """
    w = omega.evaluate(point, order)
    g = metric.evaluate(point, order)
    lam = lambda_jet(w, g)
    # D = d(lambda) x omega is annihilated by omega and d(lambda), and zero
    # where d(lambda)|_Delta is; with E1 along D, E2 = unit(omega x g E1) and
    # d(lambda) . (omega x g D) = g(D, D), so E2(lambda) > 0
    direction = jvec_cross(tuple(lam.partial(a) for a in range(3)), w)
    transversal = any(jvec_values(direction))
    if transversal:
        e1, e2 = kernel_basis(w, g, direction)
        transversal = (directional_derivative(lam, e2).value / omega_norm(w, g)
                       > TRANSVERSALITY_EPS)
    if not transversal:
        raise SingularFrameError(
            f"d(lambda)|_Delta vanishes at {lam.point}: not transversal")
    e3 = characteristic_field(omega, point, order, form=w)
    return adapted_frame(g, e1, e2, e3, jvec_div(w, jvec_dot(w, e3)), lam, "singular")


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
