"""Adapted frames for contact points: oriented orthonormal bases of the
distribution, the nonholonomity function, the Reeb field, the dual coframe
and the structure functions — all in jet arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import math

import numpy as np

from .fields import DEFAULT_ORDER, MetricField, OneForm, curl, curl_and_defect
from .jets import Jet, JetError

JetVector = Tuple[Jet, Jet, Jet]


class NoncontactError(JetError):
    """Raised when a contact-only construction hits a noncontact point."""


# --------------------------------------------------------------------------
# small dense jet linear algebra


def jvec_add(u: JetVector, v: JetVector) -> JetVector:
    return tuple(a + b for a, b in zip(u, v))


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


def kernel_complement(w: JetVector, g, ge1: JetVector) -> JetVector:
    """E2 = unit(omega x g E1) for a g-unit E1 in ker omega.  E2 lies in
    ker omega, is g-orthogonal to E1, and E1 x (omega x g E1) = omega, so
    (E1, E2, g^-1 omega) is positively oriented."""
    return unit(g, jvec_cross(w, ge1))[0]


def delta_basis(w: JetVector, g, seed: Optional[str] = None,
                rotation: float = 0.0):
    """Oriented g-orthonormal basis (E1, E2) of ker omega, from the jets
    w = omega and g = metric evaluated at one point and order.

    E1 is the normalized g-orthogonal projection onto the kernel of the
    coordinate field e_s with the largest projection norm
    |p_s|^2 = g_ss - omega_s^2 / |omega|_g^2 (tie-break x, y, z):
    E1 = unit((g n) x omega) with n = omega x g e_s, whose g-product with e_s
    is |n|_g^2 > 0.  E2 = unit(omega x g E1) completes the basis with
    (E1, E2, g^-1 omega) positively oriented against dx^dy^dz.  `seed`
    overrides the seed choice ("x"|"y"|"z") and `rotation` applies an extra
    SO(2) gauge rotation — both exist for gauge-invariance testing and for
    pinning a frame to golden values.
    """
    wnorm2 = omega_norm(w, g) ** 2
    norms = [g[i][i].value - w[i].value ** 2 / wnorm2 for i in range(3)]
    if seed is not None:
        seed_idx = "xyz".index(seed)
    else:
        seed_idx = max(range(3), key=lambda i: (norms[i], -i))
    if norms[seed_idx] <= 1e-24:
        raise JetError(f"degenerate projection seed at {w[0].point}")
    n = jvec_cross(w, g[seed_idx])  # g e_s is row s of the symmetric g
    e1, ge1 = unit(g, jvec_cross(metric_apply(g, n), w))
    e2 = kernel_complement(w, g, ge1)

    if rotation != 0.0:
        c, s = math.cos(rotation), math.sin(rotation)
        e1, e2 = (jvec_add(jvec_scale(c, e1), jvec_scale(s, e2)),
                  jvec_add(jvec_scale(-s, e1), jvec_scale(c, e2)))
    return e1, e2


def lambda_jet(w: JetVector, g) -> Jet:
    """lambda = -mu / sqrt(omega^T adj(g) omega) from the jets w = omega and
    g, with mu = omega . curl(omega); consumes one jet order.  For any
    g-orthonormal, positively oriented E1, E2 in ker omega, E1 x E2 =
    omega / sqrt(omega^T adj(g) omega), so omega([E1, E2]) =
    -curl(omega) . (E1 x E2) is this, whatever the gauge."""
    (a, b, c), (_, d, e), (_, _, f) = g  # adj(g) from 6 distinct cofactors
    a01, a02, a12 = e * c - b * f, b * e - d * c, c * b - e * a
    adj = ((d * f - e * e, a01, a02), (a01, f * a - c * c, a12),
           (a02, a12, a * d - b * b))
    return -(curl_and_defect(w)[1] * jvec_dot(w, metric_apply(adj, w)).pow(-0.5))


def basis_and_lambda(omega: OneForm, metric: MetricField, point,
                     order: int = DEFAULT_ORDER, seed: Optional[str] = None,
                     rotation: float = 0.0):
    """(w, g, E1, E2, lambda) at a point, evaluating omega and g once."""
    w = omega.evaluate(point, order)
    g = metric.evaluate(point, order)
    e1, e2 = delta_basis(w, g, seed=seed, rotation=rotation)
    return w, g, e1, e2, lambda_jet(w, g)


def omega_norm(w: JetVector, g) -> float:
    """|omega|_g from the jets w = omega and g; lambda / |omega|_g and
    d(lambda) / |omega|_g do not change under omega -> c omega."""
    wv = np.array(jvec_values(w))
    gv = np.array([[gij.value for gij in row] for row in g])
    return math.sqrt(wv @ np.linalg.solve(gv, wv))


def nonholonomity(omega: OneForm, metric: MetricField, point,
                  order: int = DEFAULT_ORDER) -> Jet:
    """lambda as a jet (`lambda_jet`); vanishes exactly on Sigma."""
    return lambda_jet(omega.evaluate(point, order), metric.evaluate(point, order))


def adapted_coframe(g, e1: JetVector, e2: JetVector, e3: JetVector,
                    eta3: JetVector):
    """Coframe dual to (E1, E2, E3), for g-orthonormal E1, E2 in ker eta3
    and eta3(E3) = 1: eta^a = g E_a - g(E_a, E3) eta3 for a = 1, 2."""
    etas = []
    for e in (e1, e2):
        ge = metric_apply(g, e)
        etas.append(jvec_sub(ge, jvec_scale(jvec_dot(ge, e3), eta3)))
    return etas[0], etas[1], eta3


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


def build_contact_frame(omega: OneForm, metric: MetricField, point,
                        order: int = DEFAULT_ORDER, seed: Optional[str] = None,
                        rotation: float = 0.0, eps_contact: float = 1e-9):
    """Adapted frame and structure functions at a contact point.

    eta3 = -omega / lambda (normalized so d(eta3)(E1, E2) = 1), E3 is the
    Reeb field of eta3, eta1/eta2 complete the dual coframe
    (`adapted_coframe`).  The point counts as contact when
    |lambda| / |omega|_g >= eps_contact, a ratio that omega -> e^phi omega
    leaves unchanged.
    """
    w, g, e1, e2, lam = basis_and_lambda(omega, metric, point, order, seed, rotation)
    contact = abs(lam.value) / omega_norm(w, g)
    if contact < eps_contact:
        raise NoncontactError(f"point {lam.point} is noncontact "
                              f"(|lambda| / |omega|_g = {contact:.3e})")

    eta3 = jvec_div(w, -lam)
    # Reeb field: d(eta3)(U, V) = b . (U x V) with b = curl(eta3), so
    # d(eta3)(b, .) = 0 and E3 = b / eta3(b).
    b = curl(eta3)
    eta3_b = jvec_dot(eta3, b)
    if eta3_b.value == 0.0:
        raise NoncontactError(f"no Reeb field at {lam.point}: eta3(b) = 0")
    e3 = jvec_div(b, eta3_b)

    eta1, eta2, eta3 = adapted_coframe(g, e1, e2, e3, eta3)
    frame = AdaptedFrame(E1=e1, E2=e2, E3=e3,
                         eta1=eta1, eta2=eta2, eta3=eta3,
                         lam=lam, kind="contact")
    return frame, structure_functions(frame)
