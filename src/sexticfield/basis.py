"""Global integral bases assembled from per-prime triangular bases.

Row by row, a global basis element only needs its coefficients to be
congruent to each local row modulo that row's local denominator, so the
per-prime lattices produced by `sextic.p_integral_basis` glue together
through a CRT lift.  This module performs the gluing and derives the
index of the power basis and the field discriminant.  The glued rows
are reduced by `sextic.reduce_triangular_rows`, so two presentations of
the same lattice come out equal.
"""

from __future__ import annotations

import math

from .exact import FACTOR_BUDGET, InternalError, PrimeFactorization, Record, crt_lift, factor, vp
from .poly import Poly
from .sextic import TrinomialField, p_integral_basis, reduce_triangular_rows

__all__ = [
    "IntegralBasis",
    "Assembly",
    "combine",
    "assemble",
]


class IntegralBasis(Record):
    """Triangular basis (c_i0 + c_i1*theta + ... + theta^i)/t_i.

    `rows[i]` lists the i coefficients below the leading term and
    `denominators[i]` is t_i.  The index of the power-basis lattice in
    the one spanned here is the product of the t_i, and d_K is the
    discriminant of the spanned order.  Every construction checks these
    shapes and that the index is the product of the t_i.
    """

    __slots__ = ("rows", "denominators", "index", "d_K")
    rows: tuple
    denominators: tuple
    index: int
    d_K: int

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if len(self.rows) != 6 or len(self.denominators) != 6:
            raise ValueError("need six rows and six denominators")
        if self.denominators[0] != 1:
            raise ValueError("the first basis element must be 1")
        prod = 1
        for i, (row, t) in enumerate(zip(self.rows, self.denominators)):
            if len(row) != i:
                raise ValueError(f"row {i} must list exactly {i} coefficients")
            if t < 1:
                raise ValueError("denominators must be positive")
            prod *= t
        if prod != self.index:
            raise ValueError("index must equal the product of denominators")

    def element(self, i: int):
        """Row i as (numerator polynomial in theta, denominator)."""
        return Poly(self.rows[i] + (1,)), self.denominators[i]


def combine(p_bases, D: int) -> IntegralBasis:
    """Glue per-prime bases into one basis of the common refinement.

    `p_bases` must hold at most one basis per prime and should cover
    every prime whose local index is nontrivial; extra all-trivial
    entries are harmless.  Coefficients are CRT-lifted to the least
    non-negative residue and then reduced by earlier rows into the
    canonical range.
    """
    seen = set()
    for pb in p_bases:
        if pb.p in seen:
            raise ValueError(f"duplicate prime {pb.p}")
        seen.add(pb.p)
        if vp(D, pb.p) != pb.v_D:
            raise InternalError(
                f"basis at {pb.p} claims v={pb.v_D} but the discriminant "
                f"has v={vp(D, pb.p)}"
            )
    relevant = [pb for pb in p_bases if pb.index_valuation > 0]

    denominators = []
    rows = []
    for i in range(6):
        moduli = [pb.p ** pb.k[i] for pb in relevant]
        t = 1
        for m in moduli:
            t *= m
        denominators.append(t)
        rows.append(
            tuple(
                crt_lift([pb.rows[i][j] for pb in relevant], moduli)
                for j in range(i)
            )
        )

    index = 1
    for t in denominators:
        index *= t
    if D % (index * index):
        raise InternalError(
            f"index {index} squared does not divide the discriminant"
        )
    d_K = D // (index * index)
    if d_K % 4 not in (0, 1):
        raise InternalError(f"discriminant {d_K} is 2 or 3 mod 4")
    return IntegralBasis(
        rows=reduce_triangular_rows(rows, denominators),
        denominators=tuple(denominators),
        index=index,
        d_K=d_K,
    )


class Assembly(Record):
    """Everything the pipeline learned about one field."""

    __slots__ = ("discriminant_factors", "per_prime", "basis", "warnings")
    discriminant_factors: PrimeFactorization
    per_prime: tuple
    basis: IntegralBasis
    warnings: tuple


def assemble(field: TrinomialField, factor_budget: int = FACTOR_BUDGET) -> Assembly:
    """Factor the discriminant, treat every prime factor, and glue.

    The trinomial of `field` is assumed irreducible and is not checked
    here, so callers run `irreducibility_check` first: a reducible one,
    such as (2, 1), still yields an index and a d_K that describe no
    field.

    For p > 5 a prime dividing D and one of a, b divides both, so the
    primes of D that divide ab are those of gcd(a, b).  `normalize`
    factored the gcd under the same budget (`field.gcd_factors`), and
    its primes are divided out of D before `factor` runs rho on the
    rest.  A prime left in the rest's unsplit cofactor is then prime to
    30ab, which puts it in case H11 or H12, where its part of the index
    is p^floor(v_p(D)/2).  So the one assumption left is that this part
    of the cofactor is squarefree; it is recorded as a warning rather
    than an error, since a cofactor that resists the budget is almost
    always squarefree.  A part of the gcd that stays unsplit gets its
    own warning, since its primes can fall in H2-H10 with large index
    powers; its part of D joins the cofactor without a second rho run.
    """
    D = field.D
    warnings = []
    gcd_factors = []
    rest = D
    hidden = 1
    for p in field.gcd_factors.primes():
        e = vp(D, p)
        gcd_factors.append((p, e))
        rest //= p ** e
    unsplit = field.gcd_factors.cofactor
    if unsplit != 1:
        warnings.append(
            f"gcd(a, b) of the normalized pair keeps an unfactored part "
            f"of {unsplit.bit_length()} bits; its primes stay in the "
            f"discriminant's cofactor and are assumed not to divide "
            f"the index"
        )
        while (h := math.gcd(rest, unsplit)) > 1:
            rest //= h
            hidden *= h
    rest_pf = factor(rest, budget=factor_budget)
    pf = PrimeFactorization(
        factors=tuple(sorted(rest_pf.factors + tuple(gcd_factors))),
        cofactor=rest_pf.cofactor * hidden,
    )
    if not rest_pf.complete:
        warnings.append(
            f"discriminant factorization incomplete (cofactor of "
            f"{abs(pf.cofactor).bit_length()} bits); the part of it prime "
            f"to 30ab is assumed squarefree, so no prime in that part "
            f"divides the index"
        )
    per = tuple(p_integral_basis(p, field) for p, _ in pf.factors)
    return Assembly(
        discriminant_factors=pf,
        per_prime=per,
        basis=combine(per, D),
        warnings=tuple(warnings),
    )
