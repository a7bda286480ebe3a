"""Computable pieces of the Asai / Hilbert-eigenform story over real quadratic fields."""

__version__ = "0.1.0"

from .quadfield import (RealQuadraticField, IdealRep, SplittingType, discriminant,
                        splitting_type, fundamental_unit,
                        totally_positive_generator, ideals_of_norm)
from .coeffs import CoefficientField, QuadElt
from .eigenform import (Weight, HilbertEigenform, load_eigenform, base_change,
                        check_hecke_relations, discriminant_form_ap, synthetic_form)
from .heckealg import (PrimeLabel, HeckePolynomial, normalize,
                       asai_euler_symbolic, verify_split_x2_identity,
                       norm_relation_symbolic)
from .asairep import (tensor_induce_split, tensor_induce_inert, asai_charpoly,
                      asai_charpoly_via_induction, verify_proj_Pl,
                      euler_system_norm_factor, GroupRingElement, AsaiCharPoly)
from .eisenstein import (eisenstein_lattice_sum, eisenstein_continued,
                         siegel_unit, kronecker_limit_check,
                         diagonal_mellin_check)
from .lseries import (AsaiLSeries, imprimitive_L, euler_product_L,
                      unfolding_constant, regulator_constant)
from .padic import (PadicNumber, OrdinaryData, stabilized_params, check_NEZ,
                    pr_interp_factor, gauss_sum)

__all__ = [
    "RealQuadraticField", "IdealRep", "SplittingType", "discriminant",
    "splitting_type", "fundamental_unit",
    "totally_positive_generator", "ideals_of_norm",
    "CoefficientField", "QuadElt",
    "Weight", "HilbertEigenform", "load_eigenform", "base_change",
    "check_hecke_relations", "discriminant_form_ap", "synthetic_form",
    "PrimeLabel", "HeckePolynomial", "normalize", "asai_euler_symbolic",
    "verify_split_x2_identity", "norm_relation_symbolic",
    "tensor_induce_split", "tensor_induce_inert", "asai_charpoly",
    "asai_charpoly_via_induction", "verify_proj_Pl", "euler_system_norm_factor",
    "GroupRingElement", "AsaiCharPoly",
    "eisenstein_lattice_sum", "eisenstein_continued", "siegel_unit",
    "kronecker_limit_check", "diagonal_mellin_check",
    "AsaiLSeries", "imprimitive_L", "euler_product_L", "unfolding_constant",
    "regulator_constant",
    "PadicNumber", "OrdinaryData", "stabilized_params", "check_NEZ",
    "pr_interp_factor", "gauss_sum",
]
