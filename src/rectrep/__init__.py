"""Exact characters of semisimple Lie algebra representations, detection
of rectangular weight multisets, and the classification of faithful
rectangular representations into hypercubic tensor factors.

Everything is integer/rational arithmetic; no floating point is used
anywhere.
"""

from .liealg import (SemisimpleAlgebra, SimpleType, cartan_matrix,
                     dominant_conjugate_coords, ortho_coords)
from .charcalc import (FormalCharacter, RepSpec, character_of, dual_weight,
                       irreducible_character, is_faithful,
                       is_multiplicity_free, restrict_to_factors,
                       weyl_dimension)
from .rectkit import (RectCertificate, WeightMultiset, automorphism_order,
                      detect_rectangular, detect_rectangular_points,
                      from_character, is_hypercubic, lengths, transform,
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
    "SemisimpleAlgebra", "SimpleType", "cartan_matrix",
    "dominant_conjugate_coords", "ortho_coords",
    "FormalCharacter", "RepSpec", "character_of", "dual_weight",
    "irreducible_character", "is_faithful", "is_multiplicity_free",
    "restrict_to_factors", "weyl_dimension",
    "RectCertificate", "WeightMultiset", "automorphism_order",
    "detect_rectangular", "detect_rectangular_points", "from_character",
    "is_hypercubic", "lengths", "transform", "verify_certificate",
    "with_ambient_padding",
    "CatalogueItem", "CatalogueMismatchError", "Decomposition",
    "NotFaithfulError", "NotRectangularError", "canonical_form",
    "catalogue_closure",
    "catalogue_lengths", "catalogue_spec", "decompose",
    "enumerate_rectangular", "iter_catalogue_items",
    "long_roots_3space_census", "multiplicity_free_irreps",
    "roots_in_plane_census", "verify_classification", "verify_howe",
    "__version__",
]
