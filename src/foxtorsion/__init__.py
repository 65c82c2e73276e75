"""Exact torsion polynomials of sutured manifolds from group presentations.

The package exports the names the README's library example uses to go from
a presentation to a torsion class, its support, its Newton and sutured Floer
polytopes and an equivalence verdict, plus ``LaurentPoly``, ``TorsionClass``,
the ``errors`` module and ``BACKEND``.  Everything else is imported from the
module that defines it.  The README describes the pipeline stage by stage.
"""

from . import errors
from .abelian import AbelianizationMap, LaurentPoly, abelianize_presentation
from .equivalence import compare_torsion
from .polytope import newton_polytope, sfh_polytope, support
from .torsion import TorsionClass, TorsionInput, sutured_torsion
from .words import Presentation, parse_word

__version__ = "0.1.0"

# The one kernel backend; kept because benchmark records carry its name.
BACKEND = "python"

__all__ = [
    "AbelianizationMap",
    "BACKEND",
    "LaurentPoly",
    "Presentation",
    "TorsionClass",
    "TorsionInput",
    "abelianize_presentation",
    "compare_torsion",
    "errors",
    "newton_polytope",
    "parse_word",
    "sfh_polytope",
    "support",
    "sutured_torsion",
]
