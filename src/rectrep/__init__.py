"""Exact characters of semisimple Lie algebra representations, detection
of rectangular weight multisets, and the classification of faithful
rectangular representations into hypercubic tensor factors.

Everything is integer/rational arithmetic; no floating point is used
anywhere.
"""

from .liealg import (OrthoWeight, SemisimpleAlgebra, SimpleType, Weight,
                     cartan_matrix, dominant_conjugate_coords, ortho_coords,
                     positive_roots, to_orthogonal, weyl_group_order,
                     weyl_orbit)
from .charcalc import (FormalCharacter, RepSpec, character_of, dual,
                       dual_spec, dual_weight, external_tensor,
                       irreducible_character, is_faithful,
                       is_multiplicity_free, restrict_to_factors,
                       weyl_dimension)
from .rectkit import (RectCertificate, WeightMultiset, automorphism_order,
                      detect_rectangular, detect_rectangular_points,
                      from_character, from_rational_points, is_hypercubic,
                      lengths, midpoint_set, transform, translate,
                      verify_certificate, with_ambient_padding)
from .classify import (CatalogueItem, CatalogueMismatchError, Decomposition,
                       NotFaithfulError, NotRectangularError, canonical_form,
                       catalogue_closure, catalogue_lengths, catalogue_spec,
                       decompose, enumerate_rectangular, iter_catalogue_items,
                       long_roots_3space_census, multiplicity_free_irreps,
                       roots_in_plane_census, verify_classification,
                       verify_howe)

__version__ = "0.1.0"

__all__ = [
    "OrthoWeight", "SemisimpleAlgebra", "SimpleType", "Weight",
    "cartan_matrix", "dominant_conjugate_coords", "ortho_coords",
    "positive_roots", "to_orthogonal", "weyl_group_order", "weyl_orbit",
    "FormalCharacter", "RepSpec", "character_of", "dual", "dual_spec",
    "dual_weight", "external_tensor", "irreducible_character", "is_faithful",
    "is_multiplicity_free", "restrict_to_factors", "weyl_dimension",
    "RectCertificate", "WeightMultiset", "automorphism_order",
    "detect_rectangular", "detect_rectangular_points", "from_character",
    "from_rational_points", "is_hypercubic", "lengths", "midpoint_set",
    "transform", "translate", "verify_certificate", "with_ambient_padding",
    "CatalogueItem", "CatalogueMismatchError", "Decomposition",
    "NotFaithfulError", "NotRectangularError", "canonical_form",
    "catalogue_closure",
    "catalogue_lengths", "catalogue_spec", "decompose",
    "enumerate_rectangular", "iter_catalogue_items",
    "long_roots_3space_census", "multiplicity_free_irreps",
    "roots_in_plane_census", "verify_classification", "verify_howe",
    "__version__",
]
