"""Integral bases and discriminants of sextic trinomial fields.

The package computes, for an irreducible trinomial x^6 + a*x + b over
the rationals, a triangular integral basis of the ring of integers of
the generated number field, the index of the equation order, and the
field discriminant — prime by prime via an explicit 87-configuration
classification, glued together by CRT.

The one-call entry point is `assemble(normalize(a, b))`; everything it
rests on (exact integer kernels, polynomial arithmetic, Newton
polygons, the per-prime case tables, and the independent verification
layer) is importable from the submodules re-exported here.
"""

from .basis import (
    Assembly,
    IntegralBasis,
    assemble,
    canonicalize,
    combine,
    field_discriminant,
    prime_exponent_profile,
)
from .exact import InternalError, PrimeFactorization, factor
from .newton import NewtonPolygon, build_polygon, ore_index
from .poly import Poly, discriminant, is_integral, trinomial
from .sextic import (
    CASE_LABELS,
    REGULAR_ROUTE,
    IrreducibilityReport,
    PAdicBasis,
    PureSexticReport,
    TrinomialField,
    classify,
    irreducibility_check,
    normalize,
    ore_translations,
    p_integral_basis,
    pure_sextic_discriminant,
    trinomial_discriminant,
)
from .verify import (
    OrderPresentation,
    dedekind_maximal_at_p,
    lattice_index,
    maximality_test,
)

__version__ = "0.1.0"

__all__ = [
    "Assembly",
    "CASE_LABELS",
    "IntegralBasis",
    "InternalError",
    "IrreducibilityReport",
    "NewtonPolygon",
    "OrderPresentation",
    "PAdicBasis",
    "Poly",
    "PrimeFactorization",
    "PureSexticReport",
    "REGULAR_ROUTE",
    "TrinomialField",
    "assemble",
    "build_polygon",
    "canonicalize",
    "classify",
    "combine",
    "dedekind_maximal_at_p",
    "discriminant",
    "factor",
    "field_discriminant",
    "irreducibility_check",
    "is_integral",
    "lattice_index",
    "maximality_test",
    "normalize",
    "ore_index",
    "ore_translations",
    "p_integral_basis",
    "prime_exponent_profile",
    "pure_sextic_discriminant",
    "trinomial",
    "trinomial_discriminant",
]
