"""The verification kernel as it was on Poly objects, for tests only.

`verify` builds the ring table by integer convolution reduced by the
monic f, and the image behind Cohen's test by summing rows of that
table and back-substituting inline.  The straightforward versions they
replaced are kept here as references: products of `Poly` objects reduced
by `divmod_by`, coordinates by `solve_triangular`, elements multiplied
through the whole table, and Gauss-Jordan kernels over F_p of the
transposed Frobenius matrix and of the 36 x 6 transposed image.
`solve_triangular` is a copy of `verify._solve_triangular`, so that
nothing here runs `verify` code: `tests/reportcheck.py` builds on this
module to check reports from outside the package.  `poly_pow` is the
power of a `Poly` that the tests build polynomials with.

`hnf` is the general Hermite normal form of integer rows, on the
extended Euclid `ext_gcd`.  The radical basis built here through it must
equal the one `verify` reads off an elimination mod p, and
`oracles.prime_exponent_profile` reads a glued basis through it.
"""

import math
import operator

from sexticfield.exact import InternalError
from sexticfield.poly import Poly, convolve


def poly_mul(*factors: Poly) -> Poly:
    """The product of `factors` (1 for none)."""
    coeffs = (1,)
    for F in factors:
        coeffs = convolve(coeffs, F.coeffs)
    return Poly(coeffs)


def poly_pow(F: Poly, e: int) -> Poly:
    """F^e for an integer e >= 0."""
    return poly_mul(*[F] * e)


def solve_triangular(rows, dens, v, den):
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


def ext_gcd(a: int, b: int):
    """Return (g, u, v) with u*a + v*b == g == gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def hnf(rows):
    """Hermite normal form of the lattice spanned by integer rows.

    `rows` is a sequence of equal-length sequences of integers with at
    least as many rows as columns and full column rank; an entry that is
    not an integer (a Fraction, a float) raises TypeError.  Returns H, a
    lower-triangular tuple-of-tuples of ints with positive diagonal and
    entries below the diagonal reduced into [0, diagonal), whose rows
    span the same lattice.
    """
    work = [[operator.index(x) for x in r] for r in rows]
    if not work:
        raise ValueError("empty row list")
    n = len(work[0])
    if any(len(r) != n for r in work):
        raise ValueError("ragged rows")
    if len(work) < n:
        raise ValueError("need at least as many rows as columns")

    m = len(work)
    # eliminate columns right to left; the pivot for column j lands in the
    # last still-active row so the surviving block comes out triangular
    for j in range(n - 1, -1, -1):
        last = j + (m - n)
        pivot = None
        for i in range(last + 1):
            if work[i][j] != 0:
                if pivot is None:
                    pivot = i
                    continue
                a, b = work[pivot][j], work[i][j]
                g, u, v = ext_gcd(a, b)
                r0, r1 = work[pivot], work[i]
                new0 = [u * x + v * y for x, y in zip(r0, r1)]
                new1 = [(a // g) * y - (b // g) * x for x, y in zip(r0, r1)]
                work[pivot], work[i] = new0, new1
        if pivot is None:
            raise ValueError(f"rank deficient: no pivot for column {j}")
        work[pivot], work[last] = work[last], work[pivot]
    # rows above the pivot block must now be zero
    extra = m - n
    for i in range(extra):
        if any(work[i]):
            raise InternalError("nonzero residual row after elimination")
    work = work[extra:]

    for i in range(n):
        if work[i][i] == 0:
            raise ValueError("rank deficient after elimination")
        if work[i][i] < 0:
            work[i] = [-x for x in work[i]]
        for jj in range(i + 1, n):
            if work[i][jj] != 0:
                raise InternalError("matrix not triangular after elimination")

    # reduce below-diagonal entries
    for i in range(n):
        for j in range(i - 1, -1, -1):
            q = work[i][j] // work[j][j]
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[j])]

    return tuple(tuple(r) for r in work)


def kernel_mod_p(rows, p):
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


def table_by_polys(rows, denominators, f):
    """mult_table from the 21 products e_i * e_j, i <= j, of Poly rows.

    Raises ValueError when the lattice is not closed under
    multiplication.
    """
    full = [tuple(rows[i]) + (1,) for i in range(6)]
    polys = [Poly(r) for r in full]
    table = [[None] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(i, 6):
            prod = poly_mul(polys[i], polys[j]).divmod_by(f)[1]
            coords = solve_triangular(
                full, denominators, [prod[k] for k in range(6)],
                denominators[i] * denominators[j],
            )
            if coords is None:
                raise ValueError("lattice is not closed under multiplication")
            table[i][j] = table[j][i] = coords
    return tuple(tuple(line) for line in table)


def multiply(table, u, v):
    """Product of two coordinate vectors through the whole table."""
    out = [0] * 6
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            w = table[i][j]
            for k in range(6):
                out[k] += ui * vj * w[k]
    return tuple(out)


def radical_basis(table, p):
    """HNF basis of pO plus the kernel of x -> x^(p^r) on O/pO."""
    r = 1
    while p ** r < 6:
        r += 1
    rows = []
    for j in range(6):
        acc = tuple(int(i == 0) for i in range(6))
        base, e = tuple(int(i == j) for i in range(6)), p
        while e:
            if e & 1:
                acc = tuple(x % p for x in multiply(table, acc, base))
            base = tuple(x % p for x in multiply(table, base, base))
            e >>= 1
        rows.append(list(acc))
    mat = rows
    for _ in range(r - 1):
        mat = [
            [sum(mat[j][i] * rows[i][k] for i in range(6)) % p
             for k in range(6)]
            for j in range(6)
        ]
    transpose = [[mat[j][i] for j in range(6)] for i in range(6)]
    gens = [[p * int(i == j) for j in range(6)] for i in range(6)]
    gens.extend(list(v) for v in kernel_mod_p(transpose, p))
    return hnf(gens)


def radical_image(table, BI):
    """Row j holds the coordinates in BI of e_j * g_k, k = 0..5, in turn.

    Each product is e_j (a unit vector) times g_k through `multiply`,
    solved against BI with all denominators 1.
    """
    ones = (1,) * 6
    image = []
    for j in range(6):
        e_j = tuple(int(i == j) for i in range(6))
        row = []
        for g in BI:
            coords = solve_triangular(BI, ones, multiply(table, e_j, g), 1)
            if coords is None:
                raise InternalError("radical is not an ideal of the order")
            row.extend(coords)
        image.append(row)
    return image


def is_p_maximal(table, p):
    """Cohen's test: the 36 x 6 transpose of the image has no F_p kernel."""
    image = radical_image(table, radical_basis(table, p))
    return not kernel_mod_p([list(col) for col in zip(*image)], p)
