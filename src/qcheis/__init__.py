"""Verification toolkit for quaternionic contact geometry on the
quaternionic Heisenberg group.

Exact group arithmetic on flat coordinate vectors, batched second-order
jets, the left-invariant horizontal frame with its rational audit,
conformal-change tensors, the explicit Yamabe extremal family, the
algebraic identity suites, the exact 7x7 divergence-form matrix and a
quasi-Monte Carlo Folland-Stein functional. The qcheis CLI wraps all of
it; see README.
"""

from .quat import Quaternion, qmul
from .jets import (Jet2, DomainError, ScalarField, PolynomialField, JetField,
                   AffineMapField, CombinationField, coordinate_jets,
                   random_positive_polynomial, fd_oracle)
from .heis import (GroupPoint, left_translation_affine, dilation_affine,
                   ContactForm, HorizontalFrame, frame_audit,
                   frame_first_order, frame_second_order)
from .tensors import (project_3_m1, trace_free, TorsionData, random_torsion,
                      AuxForms, aux_forms_from_torsion, f_alternative_from_ds,
                      ebold_from_u, dd_ee_tensors, dd_ee_identity_check,
                      d_from_h_jet, e_from_h_jet, universal_identity_suite,
                      relative_residual, ResidualReport)
from .yamabe import (ExtremalParams, YamabeConstants, h_explicit, phi_from_h,
                     phi_explicit, yamabe_residual, conformal_scal,
                     conformal_torsion, symmetrized_hessian, translated_field,
                     dilated_field, BumpField, bump_field,
                     folland_stein_ratio, functional_estimates,
                     extremal_ratio, FunctionalEstimate)
from .qmatrix import build_q, q_float, char_poly, certify, QMatrix

__version__ = "0.1.0"

__all__ = [
    "Quaternion", "qmul", "Jet2", "DomainError", "ScalarField",
    "PolynomialField", "JetField", "AffineMapField", "CombinationField",
    "coordinate_jets", "random_positive_polynomial", "fd_oracle",
    "GroupPoint", "left_translation_affine", "dilation_affine", "ContactForm",
    "HorizontalFrame", "frame_audit", "frame_first_order",
    "frame_second_order", "project_3_m1", "trace_free", "TorsionData",
    "random_torsion", "AuxForms", "aux_forms_from_torsion",
    "f_alternative_from_ds", "ebold_from_u", "dd_ee_tensors",
    "dd_ee_identity_check", "d_from_h_jet", "e_from_h_jet",
    "universal_identity_suite", "relative_residual", "ResidualReport",
    "ExtremalParams", "YamabeConstants", "h_explicit", "phi_from_h",
    "phi_explicit", "yamabe_residual", "conformal_scal", "conformal_torsion",
    "symmetrized_hessian", "translated_field", "dilated_field", "BumpField",
    "bump_field", "folland_stein_ratio", "functional_estimates",
    "extremal_ratio", "FunctionalEstimate", "build_q", "q_float",
    "char_poly", "certify", "QMatrix",
]
