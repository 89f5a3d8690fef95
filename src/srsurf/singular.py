"""Noncontact analysis: locating the singular locus Sigma, characteristic
fields of special forms, the singular adapted frame, lambda-identities and
the Sigma-invariants Q1_12, Q2_12."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import AFTER, DEFAULT_ORDER, NEXT, MetricField, OneForm, curl_and_defect
from .frame import AdaptedFrame, adapted_frame, kernel_basis, lambda_evaluation
from .invariants import directional_derivative
from .jets import Jet, JetError, _mul_table, multi_indices, n_coeffs, row_of

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


CANDIDATES = np.array(("sign_change", "minimum"))  # by candidate kind


@dataclass
class SigmaRoots:
    """The roots of `locate_sigma`, a column each, a row per root."""
    segment: np.ndarray  # the index of the root's segment
    point: np.ndarray  # (n, 3)
    lambda_residual: np.ndarray  # |lambda|
    transversal: np.ndarray
    lambda_gradient_on_delta: np.ndarray
    candidate: np.ndarray  # "sign_change" | "minimum"
    newton_iterations: np.ndarray
    margin: np.ndarray  # |lambda| / |omega|_g
    converged: np.ndarray


def _along(c, d, k: int):
    """d^k lambda / dt^k along p + t d, from lambda's Taylor coefficients c (a column per row)."""
    lo = n_coeffs(k - 1)
    return math.factorial(k) * sum(c[lo + j] * np.prod(d ** m, axis=1)
                                   for j, m in enumerate(multi_indices(k)[lo:]))


def _polish(omega, metric, p0, d, t, lo, hi, rising, kind):
    """(t, steps, converged, columns): safeguarded Newton (Press et al., `rtsafe`)
    on f = d^k lambda / dt^k, k = `kind`, along p0 + t d, row by row from t in
    [lo, hi], with f < 0 on the side of lo where `rising`.  Each step is one
    batched `lambda_evaluation` of a kind's rows still open, at
    TRANSVERSALITY_ORDER + k; a Newton step that leaves [lo, hi] is a bisection.
    A row converged if it stopped, at f = 0 or a step of at most 1e-15 + 8.9e-16
    |t|, within NEWTON_MAX_ITER; its |lambda|, |omega|_g and `_on_delta` come from that step."""
    n = len(t)
    steps, columns, converged = np.zeros(n, int), np.zeros((4, n)), np.ones(n, bool)
    for k in (0, 1):
        rows = np.flatnonzero(kind == k)
        for _ in range(NEWTON_MAX_ITER):
            if not len(rows):
                break
            w, g, _, q, norm, lam = lambda_evaluation(
                omega, metric, p0[rows] + t[rows, None] * d[rows], TRANSVERSALITY_ORDER + k)
            f, slope = _along(lam.coeffs, d[rows], k), _along(lam.coeffs, d[rows], k + 1)
            steps[rows] += 1
            tr = t[rows]
            up = (f < 0) == rising[rows]  # the zero of f lies above t
            lo[rows], hi[rows] = np.where(up, tr, lo[rows]), np.where(up, hi[rows], tr)
            with np.errstate(all="ignore"):
                new = tr - f / slope
            new = np.where((new >= lo[rows]) & (new <= hi[rows]), new, 0.5 * (lo[rows] + hi[rows]))
            stop = (f == 0) | (np.abs(new - tr) <= 1e-15 + 8.9e-16 * np.abs(tr))
            if stop.any():  # a row that goes on is written again at a later step
                columns[:, rows] = np.abs(lam.value), norm, *_on_delta(w, g, q, norm, lam)[1:]
            t[rows], rows = np.where(stop, tr, new), rows[~stop]
        converged[rows] = False
    return t, steps, converged, columns


def _on_delta(w: Jet, g: Jet, q: Jet, norm, lam: Jet):
    """(D, |d(lambda)|_Delta|, transversal) from one `lambda_evaluation`: the
    jet D = d(lambda) x omega, and from values |D|_g / sqrt(q), which is the
    frame's E2(lambda) since |omega x g D|_g = |D|_g sqrt(q) for omega(D) = 0;
    a row is transversal where it is above TRANSVERSALITY_EPS |omega|_g."""
    dl = lam.grad()
    d = dl[NEXT] * w[AFTER] - dl[AFTER] * w[NEXT]
    dv, gv = d.value, g.value
    dgd = dv * (gv[0] * dv[0] + gv[1] * dv[1] + gv[2] * dv[2])
    size = np.sqrt((dgd[0] + dgd[1] + dgd[2]) / q.value)
    return d, size, size / norm > TRANSVERSALITY_EPS


def locate_sigma(omega: OneForm, metric: MetricField, segments,
                 tol_root: float = TOL_ROOT) -> SigmaRoots:
    """The roots of lambda on the straight segments (p0, p1), by segment and
    in order along each.

    One batch scans every segment at SIGMA_SCAN_NODES nodes.  The candidates:
    each sign change of lambda between nodes, each run of nodes where lambda is
    0 (its first node), and each interior local minimum of |lambda| / |omega|_g
    that ends no sign change (a tangential Sigma).  `_polish` takes the first
    two kinds to a zero of lambda and the minima to one of d(lambda)/dt, with
    |lambda|, |omega|_g and `_on_delta` at its last step, but an unconverged row,
    which moved after it, is evaluated anew.  A root has |lambda| / |omega|_g <=
    tol_root, or is a sign change whose polish did not converge (`converged`).
    """
    ends = np.array(segments, dtype=float)
    if ends.ndim != 3 or not len(ends) or ends.shape[1:] != (2, 3):
        raise JetError(f"segments must have shape (N, 2, 3), N >= 1, got {ends.shape}")
    ts = np.linspace(0.0, 1.0, SIGMA_SCAN_NODES)
    scan = (ends[:, :1] + ts[:, None] * (ends[:, 1:] - ends[:, :1])).reshape(-1, 3)
    *_, norm, lam = lambda_evaluation(omega, metric, scan, SIGMA_SCAN_ORDER)
    lam = lam.value.reshape(len(ends), -1)
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
    p0, d = ends[seg, 0], ends[seg, 1] - ends[seg, 0]
    t, steps, converged, columns = _polish(omega, metric, p0, d, t, lo, hi, rising, kind)
    points = p0 + t[:, None] * d
    if not converged.all():
        w, g, _, q, norm, lam = lambda_evaluation(omega, metric, points[~converged],
                                                  TRANSVERSALITY_ORDER)
        columns[:, ~converged] = np.abs(lam.value), norm, *_on_delta(w, g, q, norm, lam)[1:]
    lam, scale, grad_norm, transversal = columns
    margin = lam / scale
    # a sign change brackets a zero of lambda: unconverged, it is kept and says so
    keep = (margin <= tol_root) | ((kind == 0) & ~converged)
    j = np.lexsort((t, seg))
    j = j[keep[j]]
    return SigmaRoots(seg[j], points[j], lam[j], transversal[j] > 0, grad_norm[j],
                      CANDIDATES[kind[j]], steps[j], margin[j], converged[j])


def _jet_quotient(w: Jet, mu: Jet):
    """(u, r) per row: u, the (n_coeffs(mu.order - 1), 3, N) coefficients of w / mu,
    fits w = u mu degree by degree by least squares against the linear part of
    mu (mu(p) is dropped), a degree one stacked solve for all rows; r is the
    row's largest coefficient, degree 1 and up, of w - u mu."""
    n, nu = mu.order, n_coeffs(mu.order - 1)
    ia, ib, io = _mul_table(n)
    keep = (ia < nu) & (ib > 0)
    mul = np.zeros((mu.coeffs.shape[1], len(mu.coeffs), nu))  # [row, :, j]: x^j mu
    mul[:, io[keep], ia[keep]] = mu.coeffs[ib[keep]].T
    wc = w.coeffs.transpose(2, 0, 1)
    u, r = np.zeros((len(wc), nu, 3)), np.zeros(len(wc))
    for d in range(n):  # degree d of u fits degree d + 1 of w
        lo, hi, top = n_coeffs(d - 1), n_coeffs(d), n_coeffs(d + 1)
        a = mul[:, hi:top, lo:hi]
        rhs = wc[:, hi:top] - mul[:, hi:top, :lo] @ u[:, :lo]
        u[:, lo:hi] = np.linalg.pinv(a) @ rhs
        r = np.maximum(r, np.abs(rhs - a @ u[:, lo:hi]).max(axis=(1, 2)))
    return u.transpose(1, 2, 0), r


def characteristic_field(form: Jet) -> Jet:
    """V = w / omega(w) from the jets `form` of omega at a batch of points, with
    w the (d omega)-vector spanning ker(d omega); consumes one jet order.

    A row where omega(w) vanishes (on Sigma for a special form) takes the
    exact quotient `_jet_quotient`, and then the batch is one order lower.  The
    form is not special there if w does not vanish, omega(w) has no linear
    part or the remainder is above CHARACTERISTIC_TOL times the largest
    coefficient of w: the first such row raises its first failing test.
    """
    w, omw = curl_and_defect(form)
    size = np.sqrt(sum(form.value * form.value))
    # omega -> c omega scales |omega|, w and omega(w) by c, c and c^2, so
    # every test below compares ratios
    w_max = np.abs(w.value).max(axis=0)
    sigma = ~(np.abs(omw.value) > CHARACTERISTIC_TOL * size * (size + w_max))
    # a Sigma row divides by a stand-in 1, and takes the quotient below
    v = w * omw._like(np.where(sigma, np.eye(len(omw.coeffs), 1), omw.coeffs)).reciprocal()
    if not sigma.any():
        return v
    u, remainder = _jet_quotient(w, omw)
    w_scale = np.abs(w.coeffs).max(axis=(0, 1))
    fails = sigma & np.array([w_max > CHARACTERISTIC_TOL * size,
                              np.abs(omw.coeffs[1:4]).max(axis=0)
                              <= CHARACTERISTIC_TOL * size * w_scale,
                              remainder > CHARACTERISTIC_TOL * w_scale])
    if fails.any():
        row = np.argmax(fails.any(axis=0))
        text = ("omega(w) = 0 with w != 0 at {}: no normalized characteristic field",
                "omega(w) has no linear part at {}: not special",
                "omega(w) does not divide w at {}: not special")[np.argmax(fails[:, row])]
        raise SingularFrameError(text.format(row_of(omw.point, row)))
    return Jet._new(v.point, v.order - 1, np.where(sigma, u, v.coeffs[:len(u)]))


def build_singular_frame(omega: OneForm, metric: MetricField, point,
                         order: int = DEFAULT_ORDER):
    """Adapted frame at/near Sigma for a special form omega, at a point or a
    batch (an (N, 3) array), as `build_contact_frame` takes them.

    E1 spans Delta intersected with ker(d lambda), oriented so that
    E2(lambda) > 0; E2 completes the oriented orthonormal basis of Delta; E3
    is the characteristic field.  Sigma must be transversal there (`_on_delta`).
    Needs order SINGULAR_FRAME_ORDER for the structure functions.
    """
    w, g, _, q, norm, lam = lambda_evaluation(omega, metric, point, order)
    direction, _, transversal = _on_delta(w, g, q, norm, lam)
    if not np.all(transversal):
        raise SingularFrameError(f"d(lambda)|_Delta vanishes at "
                                 f"{row_of(lam.point, np.argmin(transversal))}: not transversal")
    # D is annihilated by omega and d(lambda); with E1 along D,
    # E2 = unit(omega x g E1) and d(lambda) . (omega x g D) = g(D, D) > 0
    e1, e2, ge1, ge2 = kernel_basis(w, g, direction)
    e3 = characteristic_field(w)
    return adapted_frame(e1, e2, ge1, ge2, e3, w * (w * e3).sum().reciprocal(), lam, "singular")


def lambda_identities(frame: AdaptedFrame, c):
    """Residuals of the singular-frame identities: E1(lambda) = 0 and
    lambda_3 = -lambda (C1_31 - C2_23), from d(d eta3) = 0 with
    d eta3 = C3_12 eta1^eta2 = -lambda eta1^eta2."""
    lam, c23_31 = frame.lam, c[1].value
    r1, lam3 = directional_derivative(lam, frame.E[::2]).value  # E1, E3 of lambda
    return r1, lam3 + lam.value * (c23_31[1, 0] - c23_31[0, 1])


def sigma_invariants(c):
    """(Q1_12, Q2_12): Q1_12 = C1_12 restricted to Sigma, Q2_12 = C2_12
    restricted to Sigma (invariants of the surface along the singular locus),
    from the structure functions of a singular frame built at a Sigma point."""
    return c[0].value[0], c[0].value[1]
