"""Independent certification of computed orders.

Nothing here reuses the case analysis that produced a basis: elements
are checked through characteristic polynomials (`poly.is_integral`,
where a row over denominator 1 needs no test and Berkowitz runs mod
t^6 for a row over t), ring closure through the 21 products e_i * e_j
with i <= j, since the order is commutative, p-maximality of the
power order through the classical gcd criterion, and p-maximality of an
arbitrary order through Cohen's criterion on the p-radical.  Agreement
between these oracles and the table-driven pipeline is what the test
suite leans on.  The CLI reports a lattice that `OrderPresentation`
refuses as a failed ring_closure check, and calls one maximality
oracle at each prime with v_p(D) >= 2: the gcd criterion where the
table's k is 0, so that the order is Z[theta] at p, and Cohen's
criterion where k > 0.  At the other primes the index relation
D = [O_K : Z[theta]]^2 * d_K already makes Z[theta] p-maximal, so it
lists no check there.  Both oracles stay complete for every p and every
order, so the tests can check that they agree.

All of it is arithmetic on plain int lists.  The ring table is the
integer convolution of two rows reduced by the monic f, with coordinates
from one triangular back-substitution with exact division.  The
transition determinant is the product of the numerators' leading
coefficients, since they are triangular.  For Cohen's test one
elimination over F_p of the Frobenius rows gives the nilpotents, and
since the radical contains pO its HNF rows are those kernel vectors
themselves; the image sums rows of the table and back-substitutes
inline against that basis.  The Dedekind criterion works mod p^2 on the
F_p[x] kernel of `poly`, from the distinct-degree parts of f mod p with
no factor split.
"""

from __future__ import annotations

import math

from .exact import InternalError, Record
from .poly import Poly, convolve, fp_ddf, fp_gcd, fp_mul, fp_sub, reduce_poly

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


class OrderPresentation(Record):
    """A multiplicatively closed lattice between Z[theta] and the maximal order.

    The basis elements are the triangular theta-power rows over their
    denominators; `mult_table[i][j]` gives the integer coordinates of
    the product of basis elements i and j back in the order basis.  The
    table is computed eagerly at construction, from the 21 products with
    i <= j since multiplication commutes, and the constructor refuses
    lattices that are not closed under multiplication, so holding an
    OrderPresentation is itself the certificate that the lattice is a
    ring.
    """

    __slots__ = ("mult_table",)
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
        if not (f.is_monic() and f.is_integer()):
            raise ValueError("integer monic f expected")
        if denominators[0] != 1:
            raise ValueError("the first basis element must be 1")
        # each row is monic over an integer denominator, so the lattice
        # contains 1, theta, ..., theta^5 by construction
        full = [tuple(rows[i]) + (1,) for i in range(6)]
        # theta^6 = -(f_0 + f_1 theta + ... + f_5 theta^5): the nonzero f_k
        tail = [(k, c) for k, c in enumerate(f.coeffs[:6]) if c]
        # the order is commutative: e_j * e_i is e_i * e_j, so the 21
        # products with i <= j fill the whole table
        table = [[None] * 6 for _ in range(6)]
        for i in range(6):
            for j in range(i, 6):
                prod = convolve(full[i], full[j])
                for top in range(i + j, 5, -1):
                    c = prod.pop()
                    if c:
                        for k, fk in tail:
                            prod[top - 6 + k] -= c * fk
                prod += [0] * (6 - len(prod))
                coords = _solve_triangular(
                    full, denominators, prod, denominators[i] * denominators[j]
                )
                if coords is None:
                    raise ValueError(
                        "lattice is not closed under multiplication"
                    )
                table[i][j] = table[j][i] = coords
        return cls(mult_table=tuple(tuple(line) for line in table))

    def multiply(self, u, v):
        """Product of two elements given by integer coordinate vectors."""
        out = [0] * 6
        for i, ui in enumerate(u):
            if ui:
                line = self.mult_table[i]
                for j, vj in enumerate(v):
                    if vj:
                        c = ui * vj
                        for k, w in enumerate(line[j]):
                            out[k] += c * w
        return tuple(out)


def lattice_index(basis) -> int:
    """Index of the power-basis lattice inside the one spanned by `basis`.

    With basis elements g_i/t_i this is prod(t_i) / |det N|, N the matrix
    of numerator rows g_i.  Each g_i must have degree i, so N is
    triangular and det N is the product of its diagonal; the oracle is
    independent of the denominators' bookkeeping.  Raises ValueError on a
    numerator of another degree.  Accepts anything with element(i) ->
    (numerator Poly, denominator).
    """
    det = scale = 1
    for i in range(6):
        g, t = basis.element(i)
        if g.degree != i:
            raise ValueError(f"numerator {i} has degree {g.degree}: "
                             "the basis is not triangular")
        det *= g[i]
        scale *= t
    if scale % det:
        raise InternalError("transition determinant is not a unit fraction")
    return scale // abs(det)


def dedekind_maximal_at_p(f: Poly, p: int) -> bool:
    """Does p avoid the index of Z[theta] in the maximal order?

    The classical criterion: with f = prod(g_i^e_i) mod p, put
    g = prod(g_i), h = prod(g_i^(e_i - 1)), T = (g*h - f)/p; the power
    order is p-maximal iff gcd(T, g, h) = 1 mod p.  No factor is split:
    the distinct-degree parts of f with multiplicity index 1 multiply to
    g, the rest to h.  Any lifts of g and h give the same verdict, since
    changing them moves T by an element of (g, h).  f must be monic.
    """
    # T mod p needs g*h - f only mod p^2
    q = p * p
    g, h = [1], [1]
    for _, part, e in fp_ddf(p, list(reduce_poly(f, p))):
        if e == 1:
            g = fp_mul(q, g, part)
        else:
            h = fp_mul(q, h, part)
    diff = fp_sub(q, fp_mul(q, g, h), f.coeffs)
    if any(c % p for c in diff):
        raise InternalError("lifted factorization does not match mod p")
    T = [c // p for c in diff]
    d = fp_gcd(p, [c % p for c in g], [c % p for c in h])
    return len(fp_gcd(p, d, T)) == 1


def _left_kernel_mod_p(rows, p):
    """Left kernel {x : sum_j x_j * rows[j] = 0} over F_p, by row index.

    Each row, with a unit vector appended that records how it was
    combined, is reduced against the pivot rows before it.  A row j that
    vanishes leaves the kernel vector of key j in the appended part:
    e_j plus multiples of the earlier pivot rows' records, which live on
    pivot indices below j.  So it is 1 at j and 0 at every other key.
    """
    n = len(rows)
    pivots = []  # (pivot column, row scaled to 1 there)
    kernel = {}
    for j, row in enumerate(rows):
        width = len(row)
        row = [x % p for x in row] + [int(i == j) for i in range(n)]
        for c, b in pivots:
            if row[c]:
                t = row[c]
                row = [(x - t * y) % p for x, y in zip(row, b)]
        c = next((c for c in range(width) if row[c]), None)
        if c is None:
            kernel[j] = tuple(row[width:])
        else:
            t = pow(row[c], -1, p)
            pivots.append((c, [x * t % p for x in row]))
    return kernel


def _frobenius_power_rows(order: OrderPresentation, p: int):
    """Matrix of x -> x^q on O/pO, q the least power of p with q >= 6;
    row j is the image of basis j."""
    q = p
    while q < 6:
        q *= p
    rows = []
    for j in range(6):
        acc = [int(i == 0) for i in range(6)]  # e_0 = 1
        base, e = [int(i == j) for i in range(6)], q
        while e:
            if e & 1:
                acc = [x % p for x in order.multiply(acc, base)]
            e >>= 1
            if e:
                base = [x % p for x in order.multiply(base, base)]
        rows.append(acc)
    return rows


def maximality_test(order: OrderPresentation, p: int) -> bool:
    """Is the order p-maximal?  Cohen's criterion, exactly and mod p.

    The p-radical I is pO plus the kernel of x -> x^q on O/pO, q the
    least power of p with q >= 6, which kills every nilpotent.  The
    order is p-maximal iff the multiplier ring of I is O itself, which
    holds iff x -> (multiplication by x on I/pI) is injective on O/pO
    (Cohen, GTM 138, Alg. 6.1.8).  Each product e_j * g_k of a basis
    element of O with an HNF basis element of I is written in the basis
    of I by triangular back-substitution; the resulting 6 x 36 matrix
    over F_p must have a trivial left kernel.
    """
    BI = _radical_basis(order, p)
    return not _left_kernel_mod_p(_radical_image(order, BI), p)


def _radical_basis(order: OrderPresentation, p: int):
    """HNF basis of the p-radical: pO plus the nilpotents of O/pO.

    The nilpotents are the left kernel of the Frobenius rows, and its
    vector of key c is already the HNF row of column c: 1 at c, 0 at
    every other kernel index, reduced mod p at the pivot indices below
    c, where the HNF rows are p * e_c.
    """
    kernel = _left_kernel_mod_p(_frobenius_power_rows(order, p), p)
    return tuple(
        kernel.get(c, tuple(p * int(i == c) for i in range(6)))
        for c in range(6)
    )


def _radical_image(order: OrderPresentation, BI):
    """The 6 x 36 matrix whose entry (j, 6k + l) is coordinate l of
    e_j * g_k in the basis BI of the radical.

    e_j * g_k = sum_m g_k[m] * (e_j * e_m) is read off the multiplication
    table and written in the lower-triangular integer basis BI by
    back-substitution with exact division.
    """
    terms = [[(m, gm) for m, gm in enumerate(g) if gm] for g in BI]
    # BI from the top row down: its diagonal entry and the nonzero ones
    # left of it
    steps = [(l, BI[l][l], [(i, x) for i, x in enumerate(BI[l][:l]) if x])
             for l in range(5, -1, -1)]
    image = []
    for line in order.mult_table:  # line[m] = e_j * e_m
        out = []
        for tk in terms:
            w = [0] * 6
            for m, gm in tk:
                for l, x in enumerate(line[m]):
                    w[l] += gm * x
            coords = [0] * 6
            for l, d, left in steps:
                q, r = divmod(w[l], d)
                if r:
                    raise InternalError("radical is not an ideal of the order")
                coords[l] = q
                if q:
                    for i, x in left:
                        w[i] -= q * x
            out += coords
        image.append(out)
    return image
