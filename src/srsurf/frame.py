"""Adapted frames for contact points: oriented orthonormal bases of the
distribution, the nonholonomity function, the Reeb field, the dual coframe
and the structure functions — all in jet arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import (AFTER, DEFAULT_ORDER, NEXT, MetricField, OneForm, adjugate, curl,
                     curl_and_defect)
from .jets import Jet, JetError, _as_point, fail_where, row_of

TOL_CONTACT = 1e-9  # least |lambda| / |omega|_g of a contact point (--tol-contact)


class NoncontactError(JetError):
    """Raised when a contact-only construction hits a noncontact point."""


# --------------------------------------------------------------------------
# frame data


@dataclass
class AdaptedFrame:
    E: Jet  # E[a] is the frame field E_{a+1}: a jet of shape (3, 3)
    eta: Jet  # eta[a] is the dual coframe's eta^{a+1}, eta[a](E[b]) = delta_ab: (3, 3)
    lam: Jet
    rows: Optional[np.ndarray] = None  # the rows of a batch's points it covers


# --------------------------------------------------------------------------
# constructions


def lie_bracket(v: Jet, w: Jet) -> Jet:
    """[V, W]^a = V^b d_b W^a - W^b d_b V^a of V, W cut to their least order,
    the terms summed over b as differences; consumes one order."""
    m = min(v.order, w.order)
    v, w = v.cut(m), w.cut(m)
    return (v[:, None] * w.grad() - w[:, None] * v.grad()).sum()


def unit(g: Jet, u: Jet):
    """(u / |u|_g, g u / |u|_g): a g-unit vector and its covector, with g u
    formed as three (3,)-stacked products g[j] u^j of the symmetric g."""
    gu = g[0] * u[0] + g[1] * u[1] + g[2] * u[2]
    r = (u * gu).sum().pow(-0.5)
    return r * u, r * gu


def kernel_basis(w: Jet, g: Jet, v: Jet):
    """(E1, E2, g E1, g E2) with (E1, E2) = (unit(v), unit(omega x g E1)) for
    v in ker omega.  E2 lies in ker omega, is g-orthogonal to E1, and
    E1 x (omega x g E1) = omega, so (E1, E2, g^-1 omega) is positively
    oriented."""
    e1, ge1 = unit(g, v)
    e2, ge2 = unit(g, w[NEXT] * ge1[AFTER] - w[AFTER] * ge1[NEXT])
    return e1, e2, ge1, ge2


def quadratic_form(w: Jet, g: Jet):
    """(adj(g) omega, q, |omega|_g) from one adjugate of the jet g, with w the
    jet of omega: q = omega^T adj(g) omega as a jet, and |omega|_g =
    sqrt(q / det g) from the values (one per point of a batch); lambda /
    |omega|_g and d(lambda) / |omega|_g do not change under omega -> c omega."""
    adj = adjugate(g)
    aw = adj[0] * w[0] + adj[1] * w[1] + adj[2] * w[2]
    q = (w * aw).sum()
    det = g.value[0] * adj.value[0]
    return aw, q, np.sqrt(q.value / (det[0] + det[1] + det[2]))


def lambda_jets(w: Jet, g: Jet):
    """(w, g, adj(g) omega, q, |omega|_g, lambda) from the jets w = omega and g
    at one order N: g, adj(g) omega and q (`quadratic_form`) cut to N - 1, the
    order of lambda = -mu / sqrt(q) with mu = omega . curl(omega).  For any
    g-orthonormal, positively oriented E1, E2 in ker omega, E1 x E2 = omega /
    sqrt(q), so omega([E1, E2]) = -curl(omega) . (E1 x E2) is lambda, whatever
    the gauge."""
    g = g.cut(w.order - 1)
    aw, q, norm = quadratic_form(w.cut(g.order), g)
    return w, g, aw, q, norm, -(curl_and_defect(w)[1] * q.pow(-0.5))


def delta_basis(w: Jet, g: Jet):
    """(E1, E2, g E1, g E2, lambda, |omega|_g) from the jets w = omega and
    g evaluated at one point (or batch) and order N, all from one
    `lambda_jets`: an oriented g-orthonormal basis of ker omega with its
    covectors (`kernel_basis`), lambda and |omega|_g, all at order N - 1.

    E1 is the normalized g-orthogonal projection onto the kernel of the
    coordinate field e_s with the largest projection norm
    |p_s|^2 = g_ss - omega_s^2 / |omega|_g^2 (tie-break x, y, z), chosen at
    each point; a point where it is at most 1e-24 max_s g_ss is rejected.
    E1 = unit(u) with u = (q e_s - omega_s adj(g) omega) / q(p): the
    projection times q / q(p), a positive factor that is 1 at the point p,
    so u does not scale with g.  (For symmetric g, q e_s - omega_s adj(g)
    omega = (g n) x omega with n = omega x g e_s.)  Any other gauge is a
    rotation of this one, which M and K do not see.
    """
    w, g, aw, q, norm, lam = lambda_jets(w, g)
    diag = np.diagonal(g.value).T
    norms = diag - w.value ** 2 / norm ** 2
    fail_where(norms.max(axis=0) <= 1e-24 * diag.max(axis=0), w.point,
               "degenerate projection seed")
    s = norms.argmax(axis=0)  # a batch takes s point by point
    ws = q._like(w.coeffs[:len(q.coeffs), s, np.arange(len(s))])
    e_s = q.coeffs[:, None] * (s == np.arange(3)[:, None])
    u = aw._like((e_s - (ws * aw).coeffs) / q.value)
    return (*kernel_basis(w, g, u), lam, norm)


def lambda_evaluation(omega: OneForm, metric: MetricField, point, order: int):
    """`lambda_jets` at a point or batch, from one evaluation of omega and g."""
    point = _as_point(point)  # one array for the jets of omega and g
    return lambda_jets(omega.evaluate(point, order), metric.evaluate(point, order))


def nonholonomity(omega: OneForm, metric: MetricField, point,
                  order: int = DEFAULT_ORDER) -> Jet:
    """lambda as a jet (`lambda_jets`); vanishes exactly on Sigma."""
    return lambda_evaluation(omega, metric, point, order)[-1]


def structure_functions(e1: Jet, e2: Jet, e3: Jet, eta: Jet):
    """C = (C12, C23_31) with C^a_{bc} = -eta^a([E_b, E_c]), eta[a] = eta^{a+1}:
    C12[a] = C^{a+1}_12, C23_31[0][a] = C^{a+1}_23 and C23_31[1][a] =
    C^{a+1}_31.  Each bracket takes its fields at their own orders, before
    any stack: from jets of order N a contact frame has E1, E2 at N - 1 and
    E3 at N - 2, so C12 is at N - 2, one order above C23_31, as K, which
    differentiates it, needs; from the stacked E it would be at N - 3."""
    c12 = -(eta * lie_bracket(e1, e2)).sum(-1)
    c23_31 = -(eta * Jet.stack([lie_bracket(e2, e3), lie_bracket(e3, e1)])[:, None]).sum(-1)
    return c12, c23_31


def adapted_frame(e1: Jet, e2: Jet, ge1: Jet, ge2: Jet, e3: Jet, eta3: Jet, lam: Jet,
                  rows: Optional[np.ndarray] = None):
    """(frame, C): the frame with its dual coframe eta^a = g E_a - g(E_a, E3) eta3,
    a = 1, 2, from the covectors g E1, g E2 (E1, E2 g-orthonormal in ker eta3,
    eta3(E3) = 1), and its C (`structure_functions`)."""
    eta1, eta2 = (ge - (ge * e3).sum() * eta3 for ge in (ge1, ge2))
    eta = Jet.stack([eta1, eta2, eta3])
    frame = AdaptedFrame(Jet.stack([e1, e2, e3]), eta, lam, rows)
    return frame, structure_functions(e1, e2, e3, eta)


def build_contact_frame(omega: OneForm, metric: MetricField, point,
                        order: int = DEFAULT_ORDER, tol_contact: float = TOL_CONTACT):
    """Adapted frame and structure functions (`adapted_frame`) at a contact point.

    eta3 = -omega / lambda (normalized so d(eta3)(E1, E2) = 1), E3 is the
    Reeb field of eta3, eta1/eta2 complete the dual coframe
    (`adapted_frame`).  A point is contact when |lambda| / |omega|_g >=
    tol_contact, a ratio that omega -> e^phi omega leaves unchanged; the
    frame of a batch covers its contact points, `frame.rows`, if any.
    """
    point = _as_point(point)  # one array for the jets of omega and g
    w = omega.evaluate(point, order)
    e1, e2, ge1, ge2, lam, norm = delta_basis(w, metric.evaluate(point, order))
    contact = abs(lam.value) / norm
    rows = np.flatnonzero(~(contact < tol_contact))
    if not len(rows):
        raise NoncontactError(f"point {row_of(point)} is noncontact "
                              f"(|lambda| / |omega|_g = {contact[0]:.3e})")
    if len(rows) < len(contact):  # the frame keeps the contact points
        kept = lam.point[rows]
        w, e1, e2, ge1, ge2, lam = (Jet(kept, j.order, j.coeffs[..., rows])
                                    for j in (w, e1, e2, ge1, ge2, lam))

    eta3 = w * (-lam).reciprocal()
    # Reeb field: d(eta3)(U, V) = b . (U x V) with b = curl(eta3), so
    # d(eta3)(b, .) = 0 and E3 = b / eta3(b), where eta3(b) = mu / lambda^2
    # = -sqrt(omega^T adj(g) omega) / lambda is nonzero at a contact point.
    b = curl(eta3)
    e3 = b * (eta3 * b).sum().reciprocal()
    return adapted_frame(e1, e2, ge1, ge2, e3, eta3, lam, rows)
