"""Infinitesimal-symmetry analysis: the obstruction system for ln f, its
integrability residuals, line-integral reconstruction of ln f, and assembly
and verification of the symmetry field V."""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import AFTER, DEFAULT_ORDER, NEXT, FieldProgram, MetricField, OneForm
from .frame import TOL_CONTACT, AdaptedFrame, lie_bracket
from .invariants import INVARIANTS_ORDER, directional_derivative, invariants_at
from .jets import Jet, JetError, _as_point, row_of

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
    degenerate: np.ndarray  # one per contact row (frame.rows)
    frame: AdaptedFrame
    C: tuple  # (C12, C23_31), `frame.structure_functions`
    M: Jet
    K: Jet


def build_system(omega: OneForm, metric: MetricField, point,
                 order: int = DEFAULT_ORDER, tol_degenerate: float = TOL_DEGENERATE,
                 tol_contact: float = TOL_CONTACT) -> SymmetrySystem:
    """D = E1K E2M - E2K E1M; EQ1, EQ2 as the quotients of the cross
    numerators by D, all three from one cross product (E K) x (E M) =
    (-EQ2 D, EQ1 D, D).  The degeneracy test is relative to the product of the
    in-plane gradient norms ||(E1K, E2K)|| * ||(E1M, E2M)|| (|D| <=
    tol_degenerate * scale flags degenerate), so that both near-parallel gradients and
    vanishing gradients are reported as degenerate, in a batch row by row; a
    degenerate row's EQ divides by a stand-in D = 1 and means nothing."""
    m, k, frame, c = invariants_at(omega, metric, point, order, tol_contact=tol_contact)
    ek, em = (directional_derivative(f, frame.E) for f in (k, m))  # E_a K, E_a M
    cross = ek[NEXT] * em[AFTER] - ek[AFTER] * em[NEXT]
    d = cross[2]
    scale = np.hypot(*ek.value[:2]) * np.hypot(*em.value[:2])
    degenerate = abs(d.value) <= tol_degenerate * scale
    eq1 = eq2 = None
    if not degenerate.all():
        rd = (d._like(np.where(degenerate, np.eye(len(d.coeffs), 1), d.coeffs))
              if degenerate.any() else d).reciprocal()
        eq1, eq2 = cross[1] * rd, -cross[0] * rd
    return SymmetrySystem(D=d, EQ1=eq1, EQ2=eq2, degenerate=degenerate,
                          frame=frame, C=c, M=m, K=k)


def integrability_residuals(sys_: SymmetrySystem):
    """The three compatibility residuals of the EQ system, per contact row of a
    batch; zero (numerically) whenever a symmetry exists.  Needs one derivative
    level beyond the EQ system: build it at order RESIDUAL_MIN_ORDER or higher."""
    if sys_.degenerate.all():
        raise DegeneratePointError(f"system degenerate at {row_of(sys_.D.point)}")
    (c12, c23_31), e = sys_.C, sys_.frame.E
    eq1, eq2 = sys_.EQ1, sys_.EQ2
    e_eq1 = directional_derivative(eq1, e[1:])  # E2 EQ1, E3 EQ1
    e_eq2 = directional_derivative(eq2, e[::2])  # E1 EQ2, E3 EQ2
    # Signs follow from the bracket relations [E_b, E_c] = -C^a_{bc} E_a
    # applied to ln f; injected true symmetries drive all three to zero.
    r1 = e_eq2[0] - e_eq1[0] + c12[0] * eq1 + c12[1] * eq2
    r2 = e_eq1[1] + c23_31[1, 0] * eq1 + c23_31[1, 1] * eq2
    r3 = -e_eq2[1] + c23_31[0, 0] * eq1 + c23_31[0, 1] * eq2
    return r1.value, r2.value, r3.value


def frame_to_coordinate_gradient(sys_: SymmetrySystem) -> np.ndarray:
    """Coordinate gradient of ln f from E1 lnf = EQ1, E2 lnf = EQ2 and
    E3 lnf = 0: d(ln f) = EQ1 eta1 + EQ2 eta2 in the dual coframe."""
    if sys_.degenerate.any():
        raise DegeneratePointError("no EQ system at a degenerate point")
    eta = sys_.frame.eta.value
    return sys_.EQ1.value * eta[0] + sys_.EQ2.value * eta[1]


# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1] (dqk21): the Kronrod abscissae, outermost
# first, with the 10-point Gauss ones at the odd places; their weights; the Gauss weights.
XGK = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
                0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
                0.2943928627014602, 0.14887433898163122, 0.0])
WGK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                0.07503967481091996, 0.0931254545836976, 0.10938715880229764, 0.12349197626206584,
                0.13470921731147334, 0.14277593857706009, 0.14773910490133849, 0.1494455540029169])
WG = np.array([0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
               0.26926671930999635, 0.29552422471475287])
PAIRS = np.r_[1:10:2, 0:10:2]  # dqk21 takes the centre, the Gauss pairs, then the Kronrod ones
NODES = np.r_[0.0, np.outer(XGK[PAIRS], (-1.0, 1.0)).ravel()]  # in dqk21's order
EPS, UFLOW = np.finfo(float).eps, np.finfo(float).tiny


def _qk21(f: np.ndarray, h: float):
    """dqk21 on a panel of half-length h from its 21 integrand values in NODES
    order: (result, abserr, resabs, resasc), each sum in dqk21's order."""
    def total(first, terms):  # first + terms[0] + terms[1] + ..., in order, as dqk21's loops add
        return np.concatenate(([first], terms)).cumsum()[-1]
    f1, f2 = f[1::2], f[2::2]  # the pairs, in PAIRS order
    resg = total(0.0, WG * (f1 + f2)[:5])
    resk = total(WGK[10] * f[0], WGK[PAIRS] * (f1 + f2))
    resabs = total(abs(WGK[10] * f[0]), WGK[PAIRS] * (abs(f1) + abs(f2))) * abs(h)
    reskh = resk * 0.5
    resasc = total(WGK[10] * abs(f[0] - reskh),  # pairs in XGK order
                   (WGK[PAIRS] * (abs(f1 - reskh) + abs(f2 - reskh)))[np.argsort(PAIRS)]) * abs(h)
    abserr = abs((resk - resg) * h)
    if resasc != 0 and abserr != 0:
        abserr = resasc * min(1.0, (200 * abserr / resasc) ** 1.5)
    if resabs > UFLOW / (50 * EPS):
        abserr = max(50 * EPS * resabs, abserr)
    return resk * h, abserr, resabs, resasc


def _qag(f, tol_quad: float):
    """QUADPACK's QAG (dqage) with dqk21 over [0, 1], without QAGS's epsilon
    extrapolation: (integral, abserr, neval, rounds) to abserr <= tol_quad in at
    most 2 ** MAX_DEPTH panels, else JetError.  A round calls f once, on the
    first panel's 21 nodes, then on the 42 of the halves of the panel with the
    largest error, each panel's in NODES order."""
    def run(a, b):  # [a, b, result, abserr, resabs, resasc] of each panel [a_k, b_k]
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        values = np.reshape(f((c[:, None] + h[:, None] * NODES).ravel()), (len(c), 21))
        return [[ak, bk, *_qk21(v, hk)] for ak, bk, v, hk in zip(a, b, values, h)]

    limit, iroff1, iroff2, order = 2 ** MAX_DEPTH, 0, 0, [0]
    panels = run(np.zeros(1), np.ones(1))  # each round adds one panel: len(panels) rounds
    _, _, _, errsum, defabs, resabs = panels[0]  # dqage's names for dqk21's resabs, resasc
    stop = limit == 1 or tol_quad < errsum <= 50 * EPS * defabs
    done = (errsum <= tol_quad and errsum != resabs) or errsum == 0
    while not (stop or done):  # bisect the panel with the largest error
        k = order.pop()
        a1, b2, area, errmax = panels[k][:4]
        (_, b1, area1, error1, _, defab1), (a2, _, area2, error2, _, defab2) = halves = run(
            np.r_[a1, 0.5 * (a1 + b2)], np.r_[0.5 * (a1 + b2), b2])
        area12, erro12 = area1 + area2, error1 + error2
        errsum = errsum + erro12 - errmax
        if defab1 != error1 and defab2 != error2:  # QUADPACK's roundoff counters
            iroff1 += abs(area - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax
            iroff2 += len(panels) >= 10 and erro12 > errmax
        done = errsum <= tol_quad
        stop = not done and (  # roundoff, the panel limit, or a panel too small to bisect
            iroff1 >= 6 or iroff2 >= 20 or len(panels) + 1 == limit
            or max(abs(a1), abs(b2)) <= (1 + 100 * EPS) * (abs(a2) + 1000 * UFLOW))
        panels[k], new = halves[::-1] if error2 > error1 else halves  # the larger error keeps k
        panels.append(new)
        for i in (len(panels) - 1, k):  # as dqpsrt orders them: ties go to the newest
            insort(order, i, key=lambda i: panels[i][3])
    neval = 42 * len(panels) - 21
    if stop:
        raise JetError(f"quadrature did not converge on panel t = [0, 1]: "
                       f"abserr = {errsum:.3e}, neval = {neval}, "
                       f"tol_quad = {tol_quad:g}, max_depth = {MAX_DEPTH}")
    return float(np.cumsum([p[2] for p in panels])[-1]), float(errsum), neval, len(panels)


def reconstruct_lnf(omega: OneForm, metric: MetricField, base, target,
                    tol_quad: float = TOL_QUAD, tol_degenerate: float = TOL_DEGENERATE,
                    tol_contact: float = TOL_CONTACT):
    """(ln f(target), info) with ln f(base) = 0: the line integral of the
    coordinate gradient (the EQ system at EQ_ORDER) along base -> target by
    QUADPACK's QAG (`_qag`: 21-point Gauss-Kronrod panels, at most
    2 ** MAX_DEPTH of them) to an absolute error estimate below tol_quad,
    else JetError.  Each round's nodes are one batched build_system, each
    node's value the float its own system gives.  A node that fails
    raises the error its own system gives, the first in QUADPACK's order:
    a float fault raises FloatingPointError.  A segment that meets a
    degenerate point is retried once via base + delta/2 + |delta|/2 e_k,
    k = argmin |delta_k|, else raised; one that meets a noncontact point
    (tol_contact, as in build_system) raises NoncontactError.  info holds
    QUADPACK's neval and abserr and the batched build_system calls, rounds,
    each summed over the legs of a detour, and the route ("direct" or "detour")."""
    base, target = (np.array(p, dtype=float) for p in (base, target))
    delta = target - base
    if not delta.any():
        return 0.0, {"neval": 0, "abserr": 0.0, "route": "direct", "rounds": 0}
    tols = {"tol_degenerate": tol_degenerate, "tol_contact": tol_contact}

    def segment(a: np.ndarray, d: np.ndarray):  # from a to a + d: (value, info)
        def integrand(ts: np.ndarray) -> list:  # d . grad ln f at a + t d, t in ts
            nodes = a + ts[:, None] * d

            def alone(k):  # node k's own system: a failing node's error names it
                return build_system(omega, metric, nodes[k:k + 1], EQ_ORDER, **tols).degenerate[0]

            with np.errstate(divide="raise", over="raise", invalid="raise"):
                try:
                    sys_ = build_system(omega, metric, nodes, EQ_ORDER, **tols)
                    ok = np.zeros(len(ts), dtype=bool)
                    ok[sys_.frame.rows] = ~sys_.degenerate
                    if ok.all():
                        return [float(d @ g) for g in frame_to_coordinate_gradient(sys_).T.copy()]
                except (JetError, ValueError, FloatingPointError):  # the first node failing alone
                    k = next((k for k in range(len(ts)) if alone(k)), None)
                    if k is None:
                        raise
                else:  # the first noncontact or degenerate row; a noncontact one raises alone
                    k = int(np.argmin(ok))
                    if k not in sys_.frame.rows:
                        alone(k)
                raise DegeneratePointError(f"degenerate point on segment at t = {ts[k]:.6f}")

        value, abserr, neval, rounds = _qag(integrand, tol_quad)
        return value, {"neval": neval, "abserr": abserr, "rounds": rounds}

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
    """The report of `assemble_and_verify_V`, a column each, a row per point."""
    point: np.ndarray  # (N, 3)
    f_value: np.ndarray
    V: np.ndarray  # (3, N) component values
    VK: np.ndarray
    VM: np.ndarray
    E3f: np.ndarray
    bracket_defect_1: np.ndarray
    bracket_defect_2: np.ndarray


def assemble_V(f, e1f, e2f, frame):
    """V = -E2(f) E1 + E1(f) E2 + f E3 from f, E1(f), E2(f) and the frame
    E, E[a] = E_{a+1}: scalar jets and a jet of shape (3, 3), or floats and an
    array (3, 3)."""
    return -e2f * frame[0] + e1f * frame[1] + f * frame[2]


def reconstructed_V(sys_: SymmetrySystem, lnf: float, row: int = 0):
    """(f, V) at the system's row `row` from a reconstructed ln f there:
    f = e^{ln f}, E1 f = f EQ1 and E2 f = f EQ2, as floats."""
    fv = float(np.exp(lnf))
    return fv, tuple(assemble_V(fv, fv * sys_.EQ1.value[row], fv * sys_.EQ2.value[row],
                                sys_.frame.E.value[..., row]).tolist())


def assemble_and_verify_V(omega: OneForm, metric: MetricField, points,
                          f: FieldProgram, order: int = DEFAULT_ORDER):
    """Assemble V (`assemble_V`) from the injected scalar program `f` at
    the points and verify it, all in jets of one batch: the report holds, per
    point, VK, VM, E3 f and the bracket defects ||[E1,V] - lambda E2||,
    ||[E2,V] + lambda E1||.  A noncontact point raises NoncontactError, the
    first one's own.  A V from a reconstructed ln f comes from `reconstructed_V`."""
    points = _as_point(points)
    m, k, frame, _ = invariants_at(omega, metric, points, order)
    for row in np.delete(np.arange(len(points)), frame.rows)[:1]:  # raises the first
        invariants_at(omega, metric, points[row:row + 1], order)  # noncontact point's own error
    fj = f(points, order)
    e = frame.E
    ef = directional_derivative(fj, e)  # E_a f
    v = assemble_V(fj, ef[0], ef[1], e)
    vk, vm = (directional_derivative(inv, v).value for inv in (k, m))
    br1, br2 = (lie_bracket(e[a], v).value for a in (0, 1))
    lam_mult = sum(frame.eta.value[1] * br1)
    d = np.stack([br1 - lam_mult * e.value[1], br2 + lam_mult * e.value[0]]).swapaxes(1, 2)
    # ||d|| per point by one dot product each, as np.linalg.norm takes a vector's
    defects = np.sqrt(d[..., None, :] @ d[..., None])[..., 0, 0]
    return SymmetryField(points, fj.value, v.value, vk, vm, ef.value[2], *defects)
