"""Scalar invariants M and K and the section-level torsion/connection
coefficients of the adapted coframe."""

from __future__ import annotations

from dataclasses import dataclass

from .fields import DEFAULT_ORDER, MetricField, OneForm
from .frame import TOL_CONTACT, AdaptedFrame, StructureFunctions, build_contact_frame
from .jets import Jet

# Least jet order of M and K: E3 needs d(eta3), the structure functions
# bracket E3, and K differentiates C, three derivative levels in all.
INVARIANTS_ORDER = 3


def directional_derivative(f: Jet, e: Jet) -> Jet:
    """E(f) = E^a d_a f of a scalar f along a vector e, as a jet; consumes one derivative level."""
    return (e * f.grad()).sum()


def torsion_and_connection_coeffs(c: StructureFunctions):
    """(a1, a2, p1, p2, p3) at the constructed section (fiber angle 0)."""
    a1 = (c.C1_23 - c.C2_31) / 2.0
    a2 = c.C1_31
    p1 = c.C1_12
    p2 = c.C2_12
    p3 = -(c.C1_23 + c.C2_31) / 2.0
    return a1, a2, p1, p2, p3


def invariant_M(c: StructureFunctions) -> Jet:
    """M = ((C1_23 - C2_31)/2)^2 + (C1_31)^2."""
    a1, a2, _, _, _ = torsion_and_connection_coeffs(c)
    return a1 * a1 + a2 * a2


def invariant_K(c: StructureFunctions, frame: AdaptedFrame) -> Jet:
    """K = E1 C2_12 - E2 C1_12 + (C1_12)^2 + (C2_12)^2 - (C1_23 + C2_31)/2."""
    return (directional_derivative(c.C2_12, frame.E1)
            - directional_derivative(c.C1_12, frame.E2)
            + c.C1_12 * c.C1_12 + c.C2_12 * c.C2_12
            - (c.C1_23 + c.C2_31) / 2.0)


@dataclass
class InvariantValues:
    M: Jet
    K: Jet


def invariants_at(omega: OneForm, metric: MetricField, point,
                  order: int = DEFAULT_ORDER, tol_contact: float = TOL_CONTACT):
    """Frame, structure functions and invariants at a contact point (or the
    contact points of a batch), sharing one set of jets."""
    frame, c = build_contact_frame(omega, metric, point, order, tol_contact=tol_contact)
    return InvariantValues(M=invariant_M(c), K=invariant_K(c, frame)), frame, c
