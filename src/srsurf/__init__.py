"""Numerical analysis of sub-Riemannian surfaces on 3-space.

A sub-Riemannian surface is a 2-plane distribution (the kernel of a 1-form)
with a metric on the planes.  This package constructs adapted frames,
computes the scalar invariants M and K, evaluates the symmetry obstruction
system and reconstructs symmetry fields, and analyzes the singular locus
where the distribution fails to be contact.
"""

from .jets import (BudgetExhausted, Jet, JetError, MAX_ORDER, MIN_ORDER,
                   multi_indices, n_coeffs)
from .fields import (DEFAULT_ORDER, FieldProgram, MetricField, OneForm,
                     ParseError)
from .frame import (AdaptedFrame, NoncontactError, build_contact_frame,
                    delta_basis, lie_bracket, nonholonomity)
from .invariants import directional_derivative, invariant_K, invariant_M, invariants_at
from .symmetry import (DegeneratePointError, SymmetryField, SymmetrySystem,
                       assemble_and_verify_V, build_system,
                       frame_to_coordinate_gradient, integrability_residuals,
                       reconstruct_lnf)
from .singular import (SigmaRoots, SingularFrameError, build_singular_frame,
                       characteristic_field, lambda_identities, locate_sigma,
                       sigma_invariants)

__version__ = "1.0.0"

__all__ = [
    "AdaptedFrame", "BudgetExhausted", "DEFAULT_ORDER",
    "DegeneratePointError", "FieldProgram", "Jet",
    "JetError", "MAX_ORDER", "MIN_ORDER", "MetricField", "NoncontactError",
    "OneForm", "ParseError",
    "SigmaRoots", "SingularFrameError",
    "SymmetryField", "SymmetrySystem",
    "assemble_and_verify_V", "build_contact_frame", "build_singular_frame",
    "build_system", "characteristic_field",
    "delta_basis", "directional_derivative", "frame_to_coordinate_gradient",
    "integrability_residuals", "invariant_K", "invariant_M", "invariants_at",
    "lambda_identities", "lie_bracket", "locate_sigma",
    "multi_indices", "n_coeffs", "nonholonomity",
    "reconstruct_lnf", "sigma_invariants",
]
