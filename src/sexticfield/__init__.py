"""Integral bases and discriminants of sextic trinomial fields.

The package computes, for an irreducible trinomial x^6 + a*x + b over
the rationals, a triangular integral basis of the ring of integers of
the generated number field, the index of the equation order, and the
field discriminant — prime by prime via an explicit 87-configuration
classification, glued together by CRT.

The library entry point is `normalize(a, b)`, then
`irreducibility_check` on the field it returns and, for an irreducible
verdict, `assemble` on the same field, as the CLI does: `assemble`
assumes an irreducible trinomial and does not check it.  Everything
this rests on (exact integer kernels, polynomial arithmetic, the
per-prime case tables, and the independent verification layer) and
the Newton polygons that `--explain` draws are importable from the
submodules re-exported here.  The package holds only code the
pipeline runs; the oracles the test suite checks it against (the
Ore/Montes index bound, local exponent profiles, the discriminant as a
norm) are in `tests/oracles.py`.
"""

from .basis import Assembly, IntegralBasis, assemble, combine
from .exact import InternalError, PrimeFactorization, factor
from .newton import NewtonPolygon, build_polygon
from .poly import Poly, is_integral, trinomial
from .sextic import (
    CASE_LABELS,
    IrreducibilityReport,
    PAdicBasis,
    TrinomialField,
    irreducibility_check,
    normalize,
    ore_translations,
    p_integral_basis,
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
    "TrinomialField",
    "assemble",
    "build_polygon",
    "combine",
    "dedekind_maximal_at_p",
    "factor",
    "irreducibility_check",
    "is_integral",
    "lattice_index",
    "maximality_test",
    "normalize",
    "ore_translations",
    "p_integral_basis",
    "trinomial",
    "trinomial_discriminant",
]
