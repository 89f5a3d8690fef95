"""Infinitesimal-symmetry analysis: the obstruction system for ln f, its
integrability residuals, line-integral reconstruction of ln f, and assembly
and verification of the symmetry field V."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .fields import DEFAULT_ORDER, FieldProgram, MetricField, OneForm
from .frame import TOL_CONTACT, AdaptedFrame, StructureFunctions, jvec_values, lie_bracket
from .invariants import INVARIANTS_ORDER, directional_derivative, invariants_at
from .jets import Jet, JetError, row_of

# Least jet orders, from the derivative budget: D and EQ differentiate K
# once, the residuals differentiate EQ once more.
EQ_ORDER = INVARIANTS_ORDER + 1
RESIDUAL_MIN_ORDER = EQ_ORDER + 1

TOL_DEGENERATE = 1e-9  # |D| / (in-plane gradient norms) at or below it: degenerate
TOL_QUAD = 1e-9        # absolute error bound of the ln f quadrature
MAX_DEPTH = 14         # the ln f quadrature takes at most 2 ** MAX_DEPTH panels


class DegeneratePointError(JetError):
    """The denominator D vanishes (relatively); the system is degenerate."""


@dataclass
class SymmetrySystem:
    D: Jet
    EQ1: Optional[Jet]
    EQ2: Optional[Jet]
    degenerate: bool  # for a batch, one per contact row (frame.rows)
    frame: AdaptedFrame
    C: StructureFunctions
    M: Jet
    K: Jet


def build_system(omega: OneForm, metric: MetricField, point,
                 order: int = DEFAULT_ORDER, tol_degenerate: float = TOL_DEGENERATE,
                 tol_contact: float = TOL_CONTACT) -> SymmetrySystem:
    """D = E1K E2M - E2K E1M; EQ1, EQ2 as the quotients of the cross
    numerators by D.  The degeneracy test is relative to the product of the
    in-plane gradient norms ||(E1K, E2K)|| * ||(E1M, E2M)|| (|D| <=
    tol_degenerate * scale flags degenerate), so that both near-parallel gradients and
    vanishing gradients are reported as degenerate, in a batch row by row; a
    degenerate row's EQ divides by a stand-in D = 1 and means nothing."""
    vals, frame, c = invariants_at(omega, metric, point, order, tol_contact=tol_contact)
    m, k = vals.M, vals.K
    e1k, e2k, e3k = (directional_derivative(k, e) for e in frame.frame)
    e1m, e2m, e3m = (directional_derivative(m, e) for e in frame.frame)
    d = e1k * e2m - e2k * e1m
    scale = (np.hypot(e1k.value, e2k.value) * np.hypot(e1m.value, e2m.value))
    degenerate = abs(d.value) <= tol_degenerate * scale
    eq1 = eq2 = None
    if not degenerate.all():
        rd = (d._like(np.where(degenerate, np.eye(len(d.coeffs), 1), d.coeffs))
              if degenerate.any() else d).reciprocal()
        eq1 = (e3k * e1m - e1k * e3m) * rd
        eq2 = (e3k * e2m - e2k * e3m) * rd
    return SymmetrySystem(D=d, EQ1=eq1, EQ2=eq2, degenerate=degenerate,
                          frame=frame, C=c, M=m, K=k)


def integrability_residuals(sys_: SymmetrySystem):
    """The three compatibility residuals of the EQ system, per contact row of a
    batch; zero (numerically) whenever a symmetry exists.  Needs one derivative
    level beyond the EQ system: build it at order RESIDUAL_MIN_ORDER or higher."""
    if sys_.degenerate.all():
        raise DegeneratePointError(f"system degenerate at {row_of(sys_.D.point)}")
    fr, c = sys_.frame, sys_.C
    eq1, eq2 = sys_.EQ1, sys_.EQ2
    # Signs follow from the bracket relations [E_b, E_c] = -C^a_{bc} E_a
    # applied to ln f; injected true symmetries drive all three to zero.
    r1 = (directional_derivative(eq2, fr.E1) - directional_derivative(eq1, fr.E2)
          + c.C1_12 * eq1 + c.C2_12 * eq2)
    r2 = directional_derivative(eq1, fr.E3) + c.C1_31 * eq1 + c.C2_31 * eq2
    r3 = (-directional_derivative(eq2, fr.E3)
          + c.C1_23 * eq1 + c.C2_23 * eq2)
    return r1.value, r2.value, r3.value


def frame_to_coordinate_gradient(sys_: SymmetrySystem) -> np.ndarray:
    """Coordinate gradient of ln f from E1 lnf = EQ1, E2 lnf = EQ2 and
    E3 lnf = 0: d(ln f) = EQ1 eta1 + EQ2 eta2 in the dual coframe."""
    if sys_.degenerate.any():
        raise DegeneratePointError("no EQ system at a degenerate point")
    eta = np.array([jvec_values(e) for e in sys_.frame.coframe])
    return sys_.EQ1.value * eta[0] + sys_.EQ2.value * eta[1]


@lru_cache(maxsize=1)
def _first_panel() -> tuple:
    """QUADPACK's first-panel nodes on [0, 1] in its own order, from a dry run of quad."""
    from scipy.integrate import quad  # kept out of the CLI's start-up
    nodes = []
    quad(lambda t: nodes.append(t) or 0.0, 0.0, 1.0)
    return tuple(nodes)


def reconstruct_lnf(omega: OneForm, metric: MetricField, base, target,
                    tol_quad: float = TOL_QUAD, tol_degenerate: float = TOL_DEGENERATE,
                    tol_contact: float = TOL_CONTACT):
    """(ln f(target), info) with ln f(base) = 0: the line integral of the
    coordinate gradient (the EQ system at EQ_ORDER) along base -> target by
    QUADPACK's QAGS (`scipy.integrate.quad`, 21-point Gauss-Kronrod, at most
    2 ** MAX_DEPTH panels) to an absolute error estimate below tol_quad,
    else JetError.  The 21 nodes of QUADPACK's first panel are one batched
    build_system, each node's value the float a one-point system gives; a
    batch with a noncontact or degenerate row, or one that raises or meets
    a floating-point fault, is dropped, and every node then takes its own
    system.  A segment that meets a degenerate point is retried once via
    base + delta/2 + |delta|/2 e_k, k = argmin |delta_k|, else raised; one
    that meets a noncontact point (tol_contact, as in build_system) raises
    NoncontactError.  info holds quad's neval and abserr, summed over the
    legs of a detour, the route ("direct" or "detour") and `batched`, the
    integrand values the batch served."""
    base, target = (np.array(p, dtype=float) for p in (base, target))
    delta = target - base
    if not delta.any():
        return 0.0, {"neval": 0, "abserr": 0.0, "route": "direct", "batched": 0}
    from scipy.integrate import quad
    tols = {"tol_degenerate": tol_degenerate, "tol_contact": tol_contact}

    def segment(a: np.ndarray, d: np.ndarray):  # from a to a + d: (value, info)
        ts = _first_panel()
        try:  # a floating-point fault drops the batch, so only the one-point path meets it
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                sys_ = build_system(omega, metric, a + np.array(ts)[:, None] * d, EQ_ORDER, **tols)
                grad = frame_to_coordinate_gradient(sys_)  # raises at a degenerate row
            stored = ({t: float(d @ grad[:, k].copy())  # contiguous, summed as one point's
                       for k, t in enumerate(ts)} if len(sys_.frame.rows) == len(ts) else {})
        except (JetError, ValueError, FloatingPointError):
            stored = {}
        batched = len(stored)

        def integrand(t: float) -> float:
            if t in stored:
                return stored.pop(t)
            sys_ = build_system(omega, metric, tuple((a + t * d).tolist()), EQ_ORDER, **tols)
            if sys_.degenerate:
                raise DegeneratePointError(
                    f"degenerate point on segment at t = {t:.6f}")
            return float(d @ frame_to_coordinate_gradient(sys_))

        value, abserr, info, *failed = quad(
            integrand, 0.0, 1.0, epsabs=tol_quad, epsrel=0.0,
            limit=2 ** MAX_DEPTH, full_output=1)
        if failed:
            raise JetError(f"quadrature did not converge on panel t = [0, 1]: "
                           f"abserr = {abserr:.3e}, neval = {info['neval']}, "
                           f"tol_quad = {tol_quad:g}, max_depth = {MAX_DEPTH}")
        return value, {"neval": info["neval"], "abserr": abserr, "batched": batched - len(stored)}

    try:
        value, info = segment(base, delta)
        return value, dict(info, route="direct")
    except DegeneratePointError as direct:
        leg = 0.5 * delta
        leg[np.argmin(np.abs(delta))] += 0.5 * np.linalg.norm(delta)
        try:
            (v1, info1), (v2, info2) = segment(base, leg), segment(base + leg, delta - leg)
        except DegeneratePointError:
            raise direct from None
        return v1 + v2, dict({k: info1[k] + info2[k] for k in info1}, route="detour")


@dataclass
class SymmetryField:
    point: tuple
    f_value: float
    V: tuple  # component values
    VK: float
    VM: float
    E3f: float
    bracket_defect_1: float
    bracket_defect_2: float


def assemble_V(f, e1f, e2f, frame):
    """V = -E2(f) E1 + E1(f) E2 + f E3 from f, E1(f), E2(f) and the frame
    (E1, E2, E3), all jets or all values."""
    return tuple(-e2f * a + e1f * b + f * c for a, b, c in zip(*frame))


def reconstructed_V(sys_: SymmetrySystem, lnf: float, row: int = 0):
    """(f, V) from a reconstructed ln f: f = e^{ln f}, E1 f = f EQ1 and
    E2 f = f EQ2, as values; for a batch, at its row `row`."""
    fv = float(np.exp(lnf))
    return fv, assemble_V(fv, fv * sys_.EQ1.value_at(row), fv * sys_.EQ2.value_at(row),
                          [tuple(c.value_at(row) for c in e) for e in sys_.frame.frame])


def assemble_and_verify_V(omega: OneForm, metric: MetricField, points,
                          f: FieldProgram, order: int = DEFAULT_ORDER):
    """Assemble V (`assemble_V`) from the injected scalar program `f` at
    each point and verify it, all in jets: the report holds
    |VK|, |VM|, |E3 f| and the bracket defects ||[E1,V] - lambda E2||,
    ||[E2,V] + lambda E1||.  A V from a reconstructed ln f comes from
    `reconstructed_V`."""
    out = []
    for p in points:
        vals, frame, _ = invariants_at(omega, metric, p, order)
        fj = f(p, order)
        e1f, e2f, e3f = (directional_derivative(fj, e) for e in frame.frame)
        v = assemble_V(fj, e1f, e2f, frame.frame)
        vk = directional_derivative(vals.K, v).value
        vm = directional_derivative(vals.M, v).value
        br1 = lie_bracket(frame.E1, v)
        br2 = lie_bracket(frame.E2, v)
        lam_mult = sum(frame.eta2[i].value * br1[i].value for i in range(3))
        d1 = np.linalg.norm([br1[i].value - lam_mult * frame.E2[i].value
                             for i in range(3)])
        d2 = np.linalg.norm([br2[i].value + lam_mult * frame.E1[i].value
                             for i in range(3)])
        out.append(SymmetryField(
            point=tuple(p), f_value=fj.value, V=jvec_values(v), VK=vk, VM=vm, E3f=e3f.value,
            bracket_defect_1=float(d1), bracket_defect_2=float(d2)))
    return out
