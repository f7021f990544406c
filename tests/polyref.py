"""The verification kernel as it was on Poly objects, for tests only.

`verify` builds the ring table by integer convolution reduced by the
monic f, and the image behind Cohen's test by summing rows of that
table and back-substituting inline.  The straightforward versions they
replaced are kept here as references: products of `Poly` objects reduced
by `divmod_by`, coordinates by `_solve_triangular`, elements multiplied
through the whole table, and Gauss-Jordan kernels over F_p of the
transposed Frobenius matrix and of the 36 x 6 transposed image.
"""

from sexticfield.exact import InternalError, hnf
from sexticfield.poly import Poly
from sexticfield.verify import _solve_triangular


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
            prod = (polys[i] * polys[j]).divmod_by(f)[1]
            coords = _solve_triangular(
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
            coords = _solve_triangular(BI, ones, multiply(table, e_j, g), 1)
            if coords is None:
                raise InternalError("radical is not an ideal of the order")
            row.extend(coords)
        image.append(row)
    return image


def is_p_maximal(table, p):
    """Cohen's test: the 36 x 6 transpose of the image has no F_p kernel."""
    image = radical_image(table, radical_basis(table, p))
    return not kernel_mod_p([list(col) for col in zip(*image)], p)
