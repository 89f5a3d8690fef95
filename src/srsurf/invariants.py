"""Scalar invariants M and K of the adapted coframe, from its structure
functions C (`frame.structure_functions`)."""

from __future__ import annotations

from .fields import DEFAULT_ORDER, MetricField, OneForm
from .frame import TOL_CONTACT, AdaptedFrame, build_contact_frame
from .jets import Jet

# Least jet order of M and K: E3 needs d(eta3), the structure functions
# bracket E3, and K differentiates C, three derivative levels in all.
INVARIANTS_ORDER = 3


def directional_derivative(f: Jet, e: Jet) -> Jet:
    """E(f) = E^i d_i f of a scalar f along the vectors e, the last axis of e,
    as a jet: E_a(f) for every a is directional_derivative(f, frame.E);
    consumes one derivative level."""
    return (e * f.grad()).sum(-1)


def invariant_M(c) -> Jet:
    """M = ((C1_23 - C2_31)/2)^2 + (C1_31)^2 from C = (C12, C23_31)
    (`frame.structure_functions`)."""
    c23_31 = c[1]
    a1, a2 = (c23_31[0, 0] - c23_31[1, 1]) / 2.0, c23_31[1, 0]
    return a1 * a1 + a2 * a2


def invariant_K(c, frame: AdaptedFrame) -> Jet:
    """K = E1 C2_12 - E2 C1_12 + (C1_12)^2 + (C2_12)^2 - (C1_23 + C2_31)/2."""
    (c1_12, c2_12, _), c23_31 = c
    return (directional_derivative(c2_12, frame.E[0])
            - directional_derivative(c1_12, frame.E[1])
            + c1_12 * c1_12 + c2_12 * c2_12
            - (c23_31[0, 0] + c23_31[1, 1]) / 2.0)


def invariants_at(omega: OneForm, metric: MetricField, point,
                  order: int = DEFAULT_ORDER, tol_contact: float = TOL_CONTACT):
    """(M, K, frame, C) at a contact point (or the contact points of a batch):
    the invariants, the frame and its structure functions, sharing one set of jets."""
    frame, c = build_contact_frame(omega, metric, point, order, tol_contact=tol_contact)
    return invariant_M(c), invariant_K(c, frame), frame, c
