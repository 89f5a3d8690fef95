"""Adapted frames for contact points: oriented orthonormal bases of the
distribution, the nonholonomity function, the Reeb field, the dual coframe
and the structure functions — all in jet arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import math

import numpy as np

from .fields import DEFAULT_ORDER, FieldProgram, MetricField, OneForm
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


def det3(m) -> Jet:
    """Determinant of a 3x3 matrix of jets (rows)."""
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def solve3(m, rhs: JetVector) -> JetVector:
    """Cramer solve of a 3x3 jet system m @ x = rhs."""
    d = det3(m)
    if d.value == 0.0:
        raise JetError("singular 3x3 jet system")
    cols = []
    for j in range(3):
        mj = [[rhs[i] if k == j else m[i][k] for k in range(3)] for i in range(3)]
        cols.append(det3(mj) / d)
    return tuple(cols)


def metric_dot(g, u: JetVector, v: JetVector) -> Jet:
    total = None
    for i in range(3):
        for j in range(3):
            term = g[i][j] * u[i] * v[j]
            total = term if total is None else total + term
    return total


def metric_inverse_apply(g, covec: JetVector) -> JetVector:
    """g^{-1} applied to a covector (raises the index)."""
    rows = [tuple(g[i][j] for j in range(3)) for i in range(3)]
    return solve3(rows, covec)


def float_det3(rows) -> float:
    a, b, c = rows
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


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


def _unit(g, u: JetVector) -> JetVector:
    n = metric_dot(g, u, u).sqrt()
    return tuple(c / n for c in u)


def delta_basis(w: JetVector, g, seed: Optional[str] = None,
                rotation: float = 0.0):
    """Oriented g-orthonormal basis (E1, E2) of ker omega, from the jets
    w = omega and g = metric evaluated at one point and order.

    E1 is the normalized g-orthogonal projection onto the kernel of the
    coordinate field with the largest projection norm (tie-break x, y, z);
    E2 completes the basis with (E1, E2, omega-hat) positively oriented
    against dx^dy^dz.  `seed` overrides the seed choice ("x"|"y"|"z") and
    `rotation` applies an extra SO(2) gauge rotation — both exist for
    gauge-invariance testing and for pinning a frame to golden values.
    """
    point, order = w[0].point, w[0].order
    wsharp = metric_inverse_apply(g, w)
    wnorm2 = jvec_dot(w, wsharp)  # = g(wsharp, wsharp) > 0

    projections = []
    for i in range(3):
        e_i = tuple(Jet.constant(1.0 if a == i else 0.0, point, order)
                    for a in range(3))
        p_i = jvec_sub(e_i, jvec_scale(w[i] / wnorm2, wsharp))
        projections.append(p_i)
    norms = [metric_dot(g, p, p).value for p in projections]

    if seed is not None:
        seed_idx = "xyz".index(seed)
    else:
        seed_idx = max(range(3), key=lambda i: (norms[i], -i))
    if norms[seed_idx] <= 1e-24:
        raise JetError(f"degenerate projection seed at {point}")
    e1 = _unit(g, projections[seed_idx])

    omega_hat = jvec_scale(1.0 / wnorm2.sqrt(), wsharp)

    # complement within the kernel, Gram-Schmidt against E1
    best = None
    for j in range(3):
        if j == seed_idx:
            continue
        cand = jvec_sub(projections[j], jvec_scale(metric_dot(g, projections[j], e1), e1))
        n2 = metric_dot(g, cand, cand).value
        if best is None or n2 > best[1]:
            best = (cand, n2)
    if best[1] <= 1e-24:
        raise JetError(f"could not complete kernel basis at {point}")
    e2 = _unit(g, best[0])

    orient = float_det3([jvec_values(e1), jvec_values(e2), jvec_values(omega_hat)])
    if orient < 0.0:
        e2 = jvec_scale(-1.0, e2)

    if rotation != 0.0:
        c, s = math.cos(rotation), math.sin(rotation)
        e1, e2 = (jvec_add(jvec_scale(c, e1), jvec_scale(s, e2)),
                  jvec_add(jvec_scale(-s, e1), jvec_scale(c, e2)))
    return e1, e2


def basis_and_lambda(omega: OneForm, metric: MetricField, point,
                     order: int = DEFAULT_ORDER, seed: Optional[str] = None,
                     rotation: float = 0.0):
    """(w, g, E1, E2, lambda) at a point, evaluating omega and g once."""
    w = omega.evaluate(point, order)
    g = metric.evaluate(point, order)
    e1, e2 = delta_basis(w, g, seed=seed, rotation=rotation)
    return w, g, e1, e2, jvec_dot(w, lie_bracket(e1, e2))


def omega_norm(w: JetVector, g) -> float:
    """|omega|_g from the jets w = omega and g; lambda / |omega|_g and
    d(lambda) / |omega|_g do not change under omega -> c omega."""
    wv = np.array(jvec_values(w))
    gv = np.array([[gij.value for gij in row] for row in g])
    return math.sqrt(wv @ np.linalg.solve(gv, wv))


def nonholonomity(omega: OneForm, metric: MetricField, point,
                  order: int = DEFAULT_ORDER, seed: Optional[str] = None,
                  rotation: float = 0.0) -> Jet:
    """lambda = omega([E1, E2]) as a jet; vanishes exactly on Sigma."""
    return basis_and_lambda(omega, metric, point, order, seed, rotation)[-1]


def nonholonomity_program(omega: OneForm, metric: MetricField) -> FieldProgram:
    return FieldProgram(lambda p, n: nonholonomity(omega, metric, p, n))


def dual_coframe(e1: JetVector, e2: JetVector, e3: JetVector):
    """Covectors eta^a with eta^a(E_b) = delta^a_b, by Cramer inversion."""
    # eta^a(E_b) = sum_i E_b^i eta^a_i = delta^a_b, i.e. M eta^a = unit_a
    # with M the matrix whose rows are the frame vectors.
    m = [list(e) for e in (e1, e2, e3)]
    template = e1[0]
    etas = []
    for a in range(3):
        rhs = tuple(Jet.constant(1.0 if b == a else 0.0, template.point, template.order)
                    for b in range(3))
        etas.append(solve3(m, rhs))
    return tuple(etas)


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
    Reeb field of eta3, eta1/eta2 complete the dual coframe.  The point
    counts as contact when |lambda| / |omega|_g >= eps_contact, a ratio that
    omega -> e^phi omega leaves unchanged.
    """
    w, g, e1, e2, lam = basis_and_lambda(omega, metric, point, order, seed, rotation)
    contact = abs(lam.value) / omega_norm(w, g)
    if contact < eps_contact:
        raise NoncontactError(f"point {lam.point} is noncontact "
                              f"(|lambda| / |omega|_g = {contact:.3e})")

    eta3 = tuple(-c / lam for c in w)

    # d(eta3) as a 2-form vector b = (beta23, beta31, beta12)
    b = (eta3[2].partial(1) - eta3[1].partial(2),
         eta3[0].partial(2) - eta3[2].partial(0),
         eta3[1].partial(0) - eta3[0].partial(1))

    # Reeb field: eta3(E3) = 1, d(eta3)(E3, E1) = 0, d(eta3)(E3, E2) = 0.
    # d(eta3)(U, V) = b . (U x V), so the last two rows are E1 x b, E2 x b.
    template = lam
    rows = [list(eta3),
            list(jvec_cross(e1, b)),
            list(jvec_cross(e2, b))]
    rhs = (Jet.constant(1.0, template.point, template.order),
           Jet.constant(0.0, template.point, template.order),
           Jet.constant(0.0, template.point, template.order))
    try:
        e3 = solve3(rows, rhs)
    except JetError as exc:
        raise NoncontactError(f"Reeb solve failed at {lam.point}: {exc}") from exc

    eta1, eta2, eta3_dual = dual_coframe(e1, e2, e3)
    frame = AdaptedFrame(E1=e1, E2=e2, E3=e3,
                         eta1=eta1, eta2=eta2, eta3=eta3_dual,
                         lam=lam, kind="contact")
    return frame, structure_functions(frame)
