"""Adapted frames for contact points: oriented orthonormal bases of the
distribution, the nonholonomity function, the Reeb field, the dual coframe
and the structure functions — all in jet arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .fields import DEFAULT_ORDER, MetricField, OneForm, adjugate, curl, curl_and_defect
from .jets import Jet, JetError, _as_point, fail_where, row_of

JetVector = Tuple[Jet, Jet, Jet]
TOL_CONTACT = 1e-9  # least |lambda| / |omega|_g of a contact point (--tol-contact)


class NoncontactError(JetError):
    """Raised when a contact-only construction hits a noncontact point."""


# --------------------------------------------------------------------------
# small dense jet linear algebra


def jvec_sub(u: JetVector, v: JetVector) -> JetVector:
    return tuple(a - b for a, b in zip(u, v))


def jvec_scale(s, u: JetVector) -> JetVector:
    return tuple(s * a for a in u)


def jvec_dot(u: JetVector, v: JetVector) -> Jet:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def jvec_cross(u: JetVector, v: JetVector) -> JetVector:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def jvec_values(u: JetVector):
    return tuple(a.value for a in u)


def jvec_div(u: JetVector, s: Jet) -> JetVector:
    """u / s with one reciprocal of s."""
    r = s.reciprocal()
    return tuple(c * r for c in u)


def metric_apply(g, u: JetVector) -> JetVector:
    """g u: the covector of a vector."""
    return tuple(g[i][0] * u[0] + g[i][1] * u[1] + g[i][2] * u[2] for i in range(3))


def metric_dot(g, u: JetVector, v: JetVector) -> Jet:
    return jvec_dot(u, metric_apply(g, v))


# --------------------------------------------------------------------------
# frame data


@dataclass
class AdaptedFrame:
    E1: JetVector
    E2: JetVector
    E3: JetVector
    eta1: JetVector
    eta2: JetVector
    eta3: JetVector
    lam: Jet
    kind: str  # "contact" | "singular"
    rows: Optional[np.ndarray] = None  # the rows of a batch's points it covers

    @property
    def frame(self):
        return (self.E1, self.E2, self.E3)

    @property
    def coframe(self):
        return (self.eta1, self.eta2, self.eta3)


@dataclass
class StructureFunctions:
    """The nine C^a_{bc}, (bc) in {23, 31, 12}, as jets; C = -c where the
    c's are the bracket constants [E_b, E_c] = c^a_{bc} E_a."""

    C1_23: Jet
    C1_31: Jet
    C1_12: Jet
    C2_23: Jet
    C2_31: Jet
    C2_12: Jet
    C3_23: Jet
    C3_31: Jet
    C3_12: Jet


# --------------------------------------------------------------------------
# constructions


def lie_bracket(v: JetVector, w: JetVector) -> JetVector:
    """[V, W]^a = V^b d_b W^a - W^b d_b V^a; consumes one jet order."""
    out = []
    for a in range(3):
        acc = None
        for b in range(3):
            term = v[b] * w[a].partial(b) - w[b] * v[a].partial(b)
            acc = term if acc is None else acc + term
        out.append(acc)
    return tuple(out)


def unit(g, u: JetVector):
    """(u / |u|_g, g u / |u|_g): a g-unit vector and its covector."""
    gu = metric_apply(g, u)
    r = jvec_dot(u, gu).pow(-0.5)
    return jvec_scale(r, u), jvec_scale(r, gu)


def kernel_basis(w: JetVector, g, v: JetVector):
    """(E1, E2, g E1, g E2) with (E1, E2) = (unit(v), unit(omega x g E1)) for
    v in ker omega.  E2 lies in ker omega, is g-orthogonal to E1, and
    E1 x (omega x g E1) = omega, so (E1, E2, g^-1 omega) is positively
    oriented."""
    e1, ge1 = unit(g, v)
    e2, ge2 = unit(g, jvec_cross(w, ge1))
    return e1, e2, ge1, ge2


def quadratic_form(w: JetVector, g):
    """(adj(g) omega, q, |omega|_g) from one adjugate of the jets g, with w the
    jets of omega: q = omega^T adj(g) omega as a jet, and |omega|_g =
    sqrt(q / det g) from the values (one per point of a batch); lambda /
    |omega|_g and d(lambda) / |omega|_g do not change under omega -> c omega."""
    adj = adjugate(g)
    aw = metric_apply(adj, w)
    q = jvec_dot(w, aw)
    return aw, q, np.sqrt(q.value / jvec_dot(jvec_values(g[0]), jvec_values(adj[0])))


def lambda_jet(w: JetVector, q: Jet) -> Jet:
    """lambda = -mu / sqrt(q) from the jets w = omega and q = omega^T adj(g)
    omega (`quadratic_form`), with mu = omega . curl(omega); consumes one jet
    order.  For any g-orthonormal, positively oriented E1, E2 in ker omega,
    E1 x E2 = omega / sqrt(q), so omega([E1, E2]) = -curl(omega) . (E1 x E2)
    is this, whatever the gauge."""
    return -(curl_and_defect(w)[1] * q.pow(-0.5))


def delta_basis(w: JetVector, g):
    """(E1, E2, g E1, g E2, lambda, |omega|_g) from the jets w = omega and
    g evaluated at one point (or batch) and order, all from one
    `quadratic_form`: an oriented g-orthonormal basis of ker omega with its
    covectors (`kernel_basis`), lambda (`lambda_jet`) and |omega|_g.

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
    aw, q, norm = quadratic_form(w, g)
    diag = np.array([g[i][i].value for i in range(3)])
    norms = diag - np.array([c.value ** 2 for c in w]) / norm ** 2
    fail_where(norms.max(axis=0) <= 1e-24 * diag.max(axis=0), w[0].point,
               "degenerate projection seed")
    s = norms.argmax(axis=0)  # a batch takes s point by point
    ws, qv = w[0]._like(np.choose(s, [c.coeffs for c in w])), q.value
    u = tuple(q._like((q.coeffs * (s == i) - (ws * a).coeffs) / qv) for i, a in enumerate(aw))
    return (*kernel_basis(w, g, u), lambda_jet(w, q), norm)


def nonholonomity(omega: OneForm, metric: MetricField, point,
                  order: int = DEFAULT_ORDER) -> Jet:
    """lambda as a jet (`lambda_jet`); vanishes exactly on Sigma."""
    point = _as_point(point)  # one array for the jets of omega and g
    w = omega.evaluate(point, order)
    return lambda_jet(w, quadratic_form(w, metric.evaluate(point, order))[1])


def structure_functions(frame: AdaptedFrame) -> StructureFunctions:
    """C^a_{bc} = -eta^a([E_b, E_c])."""
    e = frame.frame
    eta = frame.coframe
    brackets = {
        "23": lie_bracket(e[1], e[2]),
        "31": lie_bracket(e[2], e[0]),
        "12": lie_bracket(e[0], e[1]),
    }
    vals = {}
    for a in range(3):
        for bc, br in brackets.items():
            vals[f"C{a + 1}_{bc}"] = -jvec_dot(eta[a], br)
    return StructureFunctions(**vals)


def adapted_frame(e1: JetVector, e2: JetVector, ge1: JetVector, ge2: JetVector,
                  e3: JetVector, eta3: JetVector, lam: Jet, kind: str,
                  rows: Optional[np.ndarray] = None):
    """(frame, C): the frame with its dual coframe eta^a = g E_a - g(E_a, E3) eta3,
    a = 1, 2, from the covectors g E1, g E2 (E1, E2 g-orthonormal in ker eta3,
    eta3(E3) = 1), and its C."""
    eta1, eta2 = (jvec_sub(ge, jvec_scale(jvec_dot(ge, e3), eta3)) for ge in (ge1, ge2))
    frame = AdaptedFrame(E1=e1, E2=e2, E3=e3, eta1=eta1, eta2=eta2, eta3=eta3,
                         lam=lam, kind=kind, rows=rows)
    return frame, structure_functions(frame)


def build_contact_frame(omega: OneForm, metric: MetricField, point,
                        order: int = DEFAULT_ORDER, tol_contact: float = TOL_CONTACT):
    """Adapted frame and structure functions at a contact point.

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
        def take(j):
            return (Jet(kept, j.order, j.coeffs[:, rows]) if isinstance(j, Jet)
                    else tuple(map(take, j)))
        kept = lam.point[rows]
        w, e1, e2, ge1, ge2, lam = take((w, e1, e2, ge1, ge2, lam))

    eta3 = jvec_div(w, -lam)
    # Reeb field: d(eta3)(U, V) = b . (U x V) with b = curl(eta3), so
    # d(eta3)(b, .) = 0 and E3 = b / eta3(b), where eta3(b) = mu / lambda^2
    # = -sqrt(omega^T adj(g) omega) / lambda is nonzero at a contact point.
    b = curl(eta3)
    e3 = jvec_div(b, jvec_dot(eta3, b))
    return adapted_frame(e1, e2, ge1, ge2, e3, eta3, lam, "contact", rows)
