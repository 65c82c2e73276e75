"""Exact torsion polynomials of sutured manifolds from group presentations.

The pipeline: parse free-group words, differentiate relators and inclusion
words with the left-to-right Fox calculus, abelianize into an exact integer
Laurent ring, take the determinant of the resulting square matrix, and reduce
modulo the +-(monomial) ambiguity.  Supports, lattice hulls, and a complete
rank <= 2 decision procedure for unimodular-affine equivalence sit on top,
together with graded rank tables for sutured solid tori and a built-in
twisted-band knot family used as an end-to-end oracle.
"""

from . import errors
from .abelian import (
    AbelianizationMap,
    LaurentPoly,
    abelianize_presentation,
    integer_determinant,
    integer_rank,
    smith_normal_form,
)
from .equivalence import EquivalenceVerdict, Witness, apply_witness, compare_torsion
from .groupring import (
    GroupRingElement,
    augmentation,
    fox_derivative,
    fox_derivative_power,
)
from .lyon import (
    LyonCase,
    alexander_coefficients,
    expected_torsion,
    lyon_basis,
    lyon_input,
    lyon_presentation,
    lyon_surface_words,
    surface_block_poly,
)
from .polytope import (
    LatticePolygon,
    SupportSet,
    affine_dimension,
    find_affine_map,
    iter_affine_maps,
    newton_polytope,
    polygon_affine_equivalent,
    sfh_polytope,
    support,
    transform_polygon,
)
from .sfh import GradedRanks, tensor_ranks, torus_sfh
from .torsion import (
    TorsionClass,
    TorsionInput,
    det_bareiss,
    det_cofactor,
    determinant,
    fox_matrix,
    is_centrally_symmetric,
    reflect,
    sutured_torsion,
    torsion_normal_form,
)
from .words import Generator, Presentation, Word, parse_word, render_word

__version__ = "0.1.0"

# The one kernel backend; kept because benchmark records carry its name.
BACKEND = "python"

__all__ = [
    "AbelianizationMap",
    "BACKEND",
    "EquivalenceVerdict",
    "GradedRanks",
    "Generator",
    "GroupRingElement",
    "LatticePolygon",
    "LaurentPoly",
    "LyonCase",
    "Presentation",
    "SupportSet",
    "TorsionClass",
    "TorsionInput",
    "Witness",
    "Word",
    "abelianize_presentation",
    "affine_dimension",
    "alexander_coefficients",
    "apply_witness",
    "augmentation",
    "compare_torsion",
    "det_bareiss",
    "det_cofactor",
    "determinant",
    "errors",
    "expected_torsion",
    "find_affine_map",
    "fox_derivative",
    "fox_derivative_power",
    "fox_matrix",
    "integer_determinant",
    "integer_rank",
    "is_centrally_symmetric",
    "iter_affine_maps",
    "lyon_basis",
    "lyon_input",
    "lyon_presentation",
    "lyon_surface_words",
    "newton_polytope",
    "parse_word",
    "polygon_affine_equivalent",
    "reflect",
    "render_word",
    "sfh_polytope",
    "smith_normal_form",
    "support",
    "surface_block_poly",
    "sutured_torsion",
    "tensor_ranks",
    "torsion_normal_form",
    "torus_sfh",
    "transform_polygon",
]
