"""Noncontact analysis: locating the singular locus Sigma, characteristic
fields of special forms, the singular adapted frame, lambda-identities and
the Sigma-invariants Q1_12, Q2_12."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .fields import DEFAULT_ORDER, MetricField, OneForm, curl_and_defect
from .frame import (AdaptedFrame, StructureFunctions, adapted_frame, jvec_cross, jvec_div,
                    jvec_dot, jvec_values, kernel_basis, lambda_jet, metric_dot,
                    nonholonomity, quadratic_form)
from .invariants import directional_derivative
from .jets import Jet, JetError, _as_point, _mul_table, multi_indices, n_coeffs, row_of

# Least jet orders, from the derivative budget: lambda takes one level (the
# curl of omega in its numerator); d(lambda) one more; the singular frame's
# E1 is built from d(lambda), and its structure functions bracket E1.
SIGMA_SCAN_ORDER = 1
TRANSVERSALITY_ORDER = SIGMA_SCAN_ORDER + 1
SINGULAR_FRAME_ORDER = TRANSVERSALITY_ORDER + 1

# Thresholds (of ratios that omega -> c omega leaves unchanged).
SIGMA_SCAN_NODES = 33      # equally spaced lambda samples on a probe segment
TOL_ROOT = 1e-10           # a root: |lambda| / |omega|_g at most it
TRANSVERSALITY_EPS = 1e-8  # transversal: |d(lambda)|_Delta| / |omega|_g above it
CHARACTERISTIC_TOL = 1e-6  # w, omega(w) and w mod omega(w) below it vanish
NEWTON_MAX_ITER = 64       # more than bisection needs to shrink a scan bracket to an ulp


class SingularFrameError(JetError):
    """Singular-frame construction failed (transversality or field)."""


@dataclass
class SigmaPoint:
    point: tuple
    lambda_residual: float
    transversal: bool
    lambda_gradient_on_delta: float
    candidate: str  # "sign_change" | "minimum"
    newton_iterations: int
    margin: float  # |lambda| / |omega|_g
    converged: bool


@dataclass
class SigmaInvariants:
    Q112: float
    Q212: float


def _along(c, d, k: int):
    """d^k lambda / dt^k along p + t d, from lambda's Taylor coefficients c (a column per row)."""
    lo = n_coeffs(k - 1)
    return math.factorial(k) * sum(c[lo + j] * np.prod(d ** m, axis=1)
                                   for j, m in enumerate(multi_indices(k)[lo:]))


def _polish(omega, metric, p0, d, t, lo, hi, rising, kind):
    """Safeguarded Newton (Press et al., `rtsafe`) on f = d^k lambda / dt^k, k =
    `kind`, along p0 + t d, row by row from t in [lo, hi], with f < 0 on the
    side of lo where `rising`: each step is one batched `nonholonomity` per
    kind, at TRANSVERSALITY_ORDER + k, on the rows still open.  A Newton step
    that leaves [lo, hi] is a bisection.  A row stops at f = 0 or a step of at
    most 1e-15 + 8.9e-16 |t|, and reports its last evaluated t, lambda's value
    and gradient there, its steps, and whether it stopped within
    NEWTON_MAX_ITER."""
    n = len(t)
    lam, f, slope, grad, steps, rows = (np.zeros(n), np.zeros(n), np.zeros(n), np.zeros((3, n)),
                                        np.zeros(n, int), np.arange(n))
    for _ in range(NEWTON_MAX_ITER):
        for k in (0, 1):
            r = rows[kind[rows] == k]
            if len(r):
                c = nonholonomity(omega, metric, p0[r] + t[r, None] * d[r],
                                  TRANSVERSALITY_ORDER + k).coeffs
                lam[r], grad[:, r], f[r], slope[r] = c[0], c[1:4], _along(c, d[r], k), \
                    _along(c, d[r], k + 1)
        steps[rows] += 1
        tr, fr = t[rows], f[rows]
        up = (fr < 0) == rising[rows]  # the zero of f lies above t
        lo[rows], hi[rows] = np.where(up, tr, lo[rows]), np.where(up, hi[rows], tr)
        with np.errstate(all="ignore"):
            new = tr - fr / slope[rows]
        new = np.where((new >= lo[rows]) & (new <= hi[rows]), new, 0.5 * (lo[rows] + hi[rows]))
        stop = (fr == 0) | (np.abs(new - tr) <= 1e-15 + 8.9e-16 * np.abs(tr))
        t[rows], rows = np.where(stop, tr, new), rows[~stop]
        if not len(rows):
            break
    return t, lam, grad, steps, ~np.isin(np.arange(n), rows)


def locate_sigma(omega: OneForm, metric: MetricField, segments,
                 tol_root: float = TOL_ROOT) -> List[List[SigmaPoint]]:
    """The roots of lambda on each straight segment (p0, p1), in order along it.

    One batch scans every segment at SIGMA_SCAN_NODES nodes.  The candidates:
    each sign change of lambda between nodes, each run of nodes where lambda is
    0 (its first node), and each interior local minimum of |lambda| / |omega|_g
    that ends no sign change (a tangential Sigma).  `_polish` takes the first
    two kinds to a zero of lambda and the minima to one of d(lambda)/dt.  A
    candidate is a root when |lambda| / |omega|_g <= tol_root, or a sign change
    whose polish did not converge (`SigmaPoint.converged`).  A sign change
    is transversal when |d(lambda)|_Delta| / |omega|_g > TRANSVERSALITY_EPS,
    with |d(lambda)|_Delta| = |d(lambda) x omega|_g / sqrt(omega^T adj(g) omega)
    from values; a minimum never is.
    """
    ends = np.array(segments, dtype=float)
    ts = np.linspace(0.0, 1.0, SIGMA_SCAN_NODES)
    scan = (ends[:, :1] + ts[:, None] * (ends[:, 1:] - ends[:, :1])).reshape(-1, 3)
    w = omega.evaluate(scan, SIGMA_SCAN_ORDER)
    _, q, norm = quadratic_form(w, metric.evaluate(scan, SIGMA_SCAN_ORDER))
    lam = lambda_jet(w, q).value.reshape(len(ends), -1)
    ratio, sign = np.abs(lam) / norm.reshape(lam.shape), np.sign(lam)
    change = sign[:, :-1] * sign[:, 1:] < 0
    zero = (sign == 0) & np.diff(sign == 0, prepend=False)  # the first node of a run of zeros
    (s, i), (zs, zi) = np.nonzero(change), np.nonzero(zero)
    ms, mi = np.nonzero((ratio[:, 1:-1] < ratio[:, :-2]) & (ratio[:, 1:-1] <= ratio[:, 2:])
                        & (sign[:, 1:-1] != 0) & ~change[:, :-1] & ~change[:, 1:])
    a, b, mi = lam[s, i], lam[s, i + 1], mi + 1
    # per candidate: segment, kind (1: a minimum), bracket, start (a sign change
    # at the secant) and whether f < 0 below the root (`_polish`)
    seg, kind = np.r_[s, zs, ms], np.repeat([0, 0, 1], [len(s), len(zs), len(ms)])
    lo, hi = np.r_[ts[i], ts[zi], ts[mi - 1]], np.r_[ts[i + 1], ts[zi], ts[mi + 1]]
    t = np.r_[ts[i] + (ts[i + 1] - ts[i]) * (a / (a - b)), ts[zi], ts[mi]]
    rising = np.r_[a < 0, np.zeros(len(zi), bool), lam[ms, mi] > 0]
    out = [[] for _ in ends]
    if not len(t):
        return out
    p0, d = ends[seg, 0], ends[seg, 1] - ends[seg, 0]
    t, lam_t, grad, steps, converged = _polish(omega, metric, p0, d, t, lo, hi, rising, kind)
    points = p0 + t[:, None] * d
    w, g = omega.evaluate(points, SIGMA_SCAN_ORDER), metric.evaluate(points, SIGMA_SCAN_ORDER)
    _, q, scale = quadratic_form(w, g)
    cross = jvec_cross(grad, jvec_values(w))
    grad_norm = np.sqrt(metric_dot(tuple(map(jvec_values, g)), cross, cross) / q.value)
    margin = np.abs(lam_t) / scale
    transversal = (kind == 0) & (grad_norm / scale > TRANSVERSALITY_EPS)
    # a sign change brackets a zero of lambda: unconverged, it is kept and says so
    keep = (margin <= tol_root) | ((kind == 0) & ~converged)
    for j in np.lexsort((t, seg)):
        if keep[j]:
            out[seg[j]].append(SigmaPoint(
                tuple(points[j].tolist()), abs(float(lam_t[j])), bool(transversal[j]),
                float(grad_norm[j]), ("sign_change", "minimum")[kind[j]], int(steps[j]),
                float(margin[j]), bool(converged[j])))
    return out


def _jet_quotient(w, mu: Jet):
    """(u, r) at a batch of one: u, one order below mu, fits w = u mu degree
    by degree by least squares against the linear part of mu (mu(p) is
    dropped); r is the largest coefficient, degree 1 and up, of w - u mu."""
    n, nu = mu.order, n_coeffs(mu.order - 1)
    ia, ib, io = _mul_table(n)
    keep = (ia < nu) & (ib > 0)
    mul = np.zeros((len(mu.coeffs), nu))  # column j: the coefficients of x^j mu
    mul[io[keep], ia[keep]] = mu.coeffs[ib[keep], 0]
    wc, u, r = np.concatenate([c.coeffs for c in w], axis=1), np.zeros((nu, 3)), 0.0
    for d in range(n):  # degree d of u fits degree d + 1 of w
        lo, hi, top = n_coeffs(d - 1), n_coeffs(d), n_coeffs(d + 1)
        rhs = wc[hi:top] - mul[hi:top, :lo] @ u[:lo]
        u[lo:hi] = np.linalg.lstsq(mul[hi:top, lo:hi], rhs, rcond=None)[0]
        r = max(r, np.abs(rhs - mul[hi:top, lo:hi] @ u[lo:hi]).max())
    return tuple(Jet._new(mu.point, n - 1, u[:, [a]]) for a in range(3)), r


def characteristic_field(form):
    """V = w / omega(w) from the jets `form` of omega at a batch of points, with
    w the (d omega)-vector spanning ker(d omega); consumes one jet order.

    Where w and omega(w) both vanish (on Sigma for a special form), V is the
    exact quotient `_jet_quotient`, one order lower still; the form is not
    special there if omega(w) has no linear part or the remainder is above
    CHARACTERISTIC_TOL times the largest coefficient of w.  A batch takes each
    row's branch, and is one order lower wherever a row takes the quotient.
    """
    return _characteristic(*curl_and_defect(form), np.sqrt(sum(v * v for v in jvec_values(form))))


def _characteristic(w, omw: Jet, size):
    """`characteristic_field` from w, omega(w) and |omega| (one per row)."""
    # omega -> c omega scales |omega|, w and omega(w) by c, c and c^2, so
    # every test below compares ratios
    w_max = np.max(np.abs(jvec_values(w)), axis=0)
    if np.all(np.abs(omw.value) > CHARACTERISTIC_TOL * size * (size + w_max)):
        return jvec_div(w, omw)
    if len(size) > 1:  # row by row, each row a batch of one
        def row(j, r):
            return Jet._new(omw.point[r:r + 1], j.order, j.coeffs[:, r:r + 1])
        cols = [_characteristic(tuple(row(c, r) for c in w), row(omw, r), size[r:r + 1])
                for r in range(len(size))]
        m = min(v[0].order for v in cols)
        return tuple(Jet._new(omw.point, m, np.hstack([v[a].coeffs[:n_coeffs(m)] for v in cols]))
                     for a in range(3))
    at = row_of(omw.point)
    if w_max[0] > CHARACTERISTIC_TOL * size[0]:
        raise SingularFrameError(
            f"omega(w) = 0 with w != 0 at {at}: no normalized characteristic field")
    w_scale = max(np.abs(c.coeffs).max() for c in w)
    if max(abs(omw.partial(a).value_at(0)) for a in range(3)) <= \
            CHARACTERISTIC_TOL * size[0] * w_scale:
        raise SingularFrameError(f"omega(w) has no linear part at {at}: not special")
    v, remainder = _jet_quotient(w, omw)
    if remainder > CHARACTERISTIC_TOL * w_scale:
        raise SingularFrameError(f"omega(w) does not divide w at {at}: not special")
    return v


def build_singular_frame(omega: OneForm, metric: MetricField, point,
                         order: int = DEFAULT_ORDER):
    """Adapted frame at/near Sigma for a special form omega, at a point or a
    batch (an (N, 3) array), as `build_contact_frame` takes them.

    E1 spans Delta intersected with ker(d lambda), oriented so that
    E2(lambda) > 0; E2 completes the oriented orthonormal basis of Delta; E3
    is the characteristic field.  Sigma must be transversal there:
    E2(lambda) / |omega|_g above TRANSVERSALITY_EPS.  Needs order
    SINGULAR_FRAME_ORDER for the structure functions.
    """
    point = _as_point(point)  # one array for the jets of omega and g
    w, g = omega.evaluate(point, order), metric.evaluate(point, order)
    _, q, norm = quadratic_form(w, g)
    lam = lambda_jet(w, q)
    # D = d(lambda) x omega is annihilated by omega and d(lambda), and zero
    # where d(lambda)|_Delta is; with E1 along D, E2 = unit(omega x g E1) and
    # d(lambda) . (omega x g D) = g(D, D), so E2(lambda) > 0
    direction = jvec_cross(tuple(lam.partial(a) for a in range(3)), w)
    transversal = np.any(jvec_values(direction), axis=0)
    if np.all(transversal):
        e1, e2, ge1, ge2 = kernel_basis(w, g, direction)
        transversal = directional_derivative(lam, e2).value / norm > TRANSVERSALITY_EPS
    if not np.all(transversal):
        raise SingularFrameError(f"d(lambda)|_Delta vanishes at "
                                 f"{row_of(lam.point, np.argmin(transversal))}: not transversal")
    e3 = characteristic_field(w)
    return adapted_frame(e1, e2, ge1, ge2, e3, jvec_div(w, jvec_dot(w, e3)), lam, "singular")


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
