"""Independent certification of computed orders.

Nothing here reuses the case analysis that produced a basis: elements
are checked through characteristic polynomials (`poly.is_integral`,
where a row over denominator 1 needs no test and Berkowitz runs mod
t^6 for a row over t), ring closure through the 21 products e_i * e_j
with i <= j, since the order is commutative, p-maximality of the
power order through the classical gcd criterion, and p-maximality of an
arbitrary order through Cohen's criterion on the p-radical.  Agreement
between these oracles and the table-driven pipeline is what the test
suite leans on.  The CLI calls the two maximality oracles only at
primes with v_p(D) >= 2: at the others the index relation
D = [O_K : Z[theta]]^2 * d_K already proves p-maximality.  Both stay
complete for every p, so the tests can check that they agree there.

All of it is integer arithmetic: lattice coordinates come from one
triangular back-substitution with exact division, and the maximality
test is a rank computation over F_p.
"""

from __future__ import annotations

import dataclasses
import math

from .exact import InternalError, hnf
from .poly import Poly, factor_mod_p, poly_gcd_mod_p

__all__ = [
    "OrderPresentation",
    "lattice_index",
    "dedekind_maximal_at_p",
    "maximality_test",
]


def _solve_triangular(rows, dens, v, den):
    """Integer coordinates of v/den in the lattice spanned by rows[i]/dens[i].

    rows[i] is an integer row whose last nonzero entry is rows[i][i]
    (entries past i may be absent).  Returns None when v/den is not in
    the lattice.  Back-substitution from the top coordinate down, over
    the common denominator, with exact division only.
    """
    L = math.lcm(den, *dens)
    w = [x * (L // den) for x in v]
    x = [0] * len(rows)
    for k in range(len(rows) - 1, -1, -1):
        row, s = rows[k], L // dens[k]
        q, r = divmod(w[k], row[k] * s)
        if r:
            return None
        if q:
            x[k] = q
            for j in range(k + 1):
                w[j] -= q * row[j] * s
    return tuple(x)


@dataclasses.dataclass(frozen=True)
class OrderPresentation:
    """A multiplicatively closed lattice between Z[theta] and the maximal order.

    The basis elements are the triangular theta-power rows over their
    denominators, with lcm `denominator`; `mult_table[i][j]` gives the
    integer coordinates of the product of basis elements i and j back in
    the order basis.  The table is computed eagerly at construction, from
    the 21 products with i <= j since multiplication commutes, and the
    constructor refuses lattices that are not closed under
    multiplication, so holding an OrderPresentation is itself the
    certificate that the lattice is a ring.
    """

    denominator: int
    f: Poly
    mult_table: tuple

    @classmethod
    def from_triangular(cls, rows, denominators, f: Poly) -> "OrderPresentation":
        """Build from triangular rows (c_i0, ..., c_i,i-1) over theta-powers.

        Raises ValueError if the spanned lattice is not closed under
        multiplication (then it is not an order and no presentation
        exists).
        """
        n = f.degree
        if n != 6 or len(rows) != 6 or len(denominators) != 6:
            raise ValueError("expected a sextic with six triangular rows")
        if denominators[0] != 1:
            raise ValueError("the first basis element must be 1")
        # each row is monic over an integer denominator, so the lattice
        # contains 1, theta, ..., theta^5 by construction
        full = [tuple(rows[i]) + (1,) for i in range(6)]
        polys = [Poly(r) for r in full]
        # the order is commutative: e_j * e_i is e_i * e_j, so the 21
        # products with i <= j fill the whole table
        table = [[None] * 6 for _ in range(6)]
        for i in range(6):
            for j in range(i, 6):
                prod = (polys[i] * polys[j]).divmod_by(f)[1]
                coords = _solve_triangular(
                    full, denominators, [prod[k] for k in range(6)],
                    denominators[i] * denominators[j],
                )
                if coords is None:
                    raise ValueError(
                        "lattice is not closed under multiplication"
                    )
                table[i][j] = table[j][i] = coords
        table = tuple(tuple(line) for line in table)
        return cls(
            denominator=math.lcm(*denominators), f=f, mult_table=table
        )

    def multiply(self, u, v):
        """Product of two elements given by integer coordinate vectors."""
        out = [0] * 6
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                w = self.mult_table[i][j]
                for k in range(6):
                    out[k] += ui * vj * w[k]
        return tuple(out)


def lattice_index(basis) -> int:
    """Index of the power-basis lattice inside the one spanned by `basis`.

    With basis elements g_i/t_i this is prod(t_i) / |det N|, N the matrix
    of numerator rows g_i, and |det N| the product of the diagonal of the
    Hermite normal form of N; so it is an oracle independent of the
    denominators' bookkeeping.  Accepts anything with
    element(i) -> (numerator Poly, denominator).
    """
    numerators = []
    scale = 1
    for i in range(6):
        g, t = basis.element(i)
        numerators.append(tuple(g[j] for j in range(6)))
        scale *= t
    try:
        H, _ = hnf(numerators)
    except ValueError:
        raise ValueError("degenerate basis") from None
    det = math.prod(H[i][i] for i in range(6))
    if scale % det:
        raise InternalError("transition determinant is not a unit fraction")
    return scale // det


def dedekind_maximal_at_p(f: Poly, p: int) -> bool:
    """Does p avoid the index of Z[theta] in the maximal order?

    The classical criterion: with f = prod(g_i^e_i) mod p, put
    g = prod(g_i), h = prod(g_i^(e_i - 1)), T = (g*h - f)/p; the power
    order is p-maximal iff gcd(T, g, h) = 1 mod p.
    """
    _, factors = factor_mod_p(f, p)
    g = Poly((1,))
    h = Poly((1,))
    for gbar, e in factors:
        lift = gbar.lift()
        g = g * lift
        for _ in range(e - 1):
            h = h * lift
    diff = g * h - f
    T = []
    for c in diff.coeffs:
        if c % p:
            raise InternalError("lifted factorization does not match mod p")
        T.append(c // p)
    d = poly_gcd_mod_p(g, h, p)
    d = poly_gcd_mod_p(d.lift(), Poly(T), p)
    return d.degree == 0


def _kernel_mod_p(rows, p):
    """Basis of {x : A x = 0} over F_p, A given by rows."""
    m = len(rows)
    n = len(rows[0])
    work = [[x % p for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][c], -1, p)
        work[r] = [(x * inv) % p for x in work[r]]
        for i in range(m):
            if i != r and work[i][c]:
                factor = work[i][c]
                work[i] = [(a - factor * b) % p for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for c in free:
        vec = [0] * n
        vec[c] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-work[i][c]) % p
        basis.append(tuple(vec))
    return basis


def _frobenius_power_rows(order: OrderPresentation, p: int, r: int):
    """Matrix of x -> x^(p^r) on O/pO; row j is the image of basis j."""
    rows = []
    for j in range(6):
        vec = tuple(1 if i == j else 0 for i in range(6))
        acc = tuple(1 if i == 0 else 0 for i in range(6))
        base, e = vec, p
        while e:
            if e & 1:
                acc = tuple(x % p for x in order.multiply(acc, base))
            base = tuple(x % p for x in order.multiply(base, base))
            e >>= 1
        rows.append(list(acc))
    mat = rows
    for _ in range(r - 1):
        mat = [
            [sum(mat[j][i] * rows[i][k] for i in range(6)) % p for k in range(6)]
            for j in range(6)
        ]
    return mat


def maximality_test(order: OrderPresentation, p: int) -> bool:
    """Is the order p-maximal?  Cohen's criterion, exactly and mod p.

    The p-radical I is pO plus the kernel of the iterated p-power map on
    O/pO (iterated until p^r >= 6, which kills every nilpotent).  The
    order is p-maximal iff the multiplier ring of I is O itself, which
    holds iff x -> (multiplication by x on I/pI) is injective on O/pO
    (Cohen, GTM 138, Alg. 6.1.8).  Each product e_j * g_k of a basis
    element of O with an HNF basis element of I is written in the basis
    of I by triangular back-substitution; the resulting 6 x 36 matrix
    over F_p must have a trivial left kernel.
    """
    r = 1
    while p ** r < 6:
        r += 1
    frob = _frobenius_power_rows(order, p, r)
    # left kernel: x with x * frob = 0, i.e. ordinary kernel of the transpose
    transpose = [[frob[j][i] for j in range(6)] for i in range(6)]
    nilpotents = _kernel_mod_p(transpose, p)

    gens = [[p if i == j else 0 for j in range(6)] for i in range(6)]
    gens.extend(list(v) for v in nilpotents)
    BI, den = hnf(gens)
    if den != 1:
        raise InternalError("radical lattice has a denominator")

    ones = (1,) * 6
    # column (k, l) of the image matrix: coordinate l of e_j * g_k, j = 0..5
    columns = [[] for _ in range(36)]
    for j in range(6):
        e_j = tuple(int(i == j) for i in range(6))
        for k, g in enumerate(BI):
            coords = _solve_triangular(BI, ones, order.multiply(e_j, g), 1)
            if coords is None:
                raise InternalError("radical is not an ideal of the order")
            for l in range(6):
                columns[6 * k + l].append(coords[l])
    return not _kernel_mod_p(columns, p)
