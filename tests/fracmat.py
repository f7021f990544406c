"""Small Fraction matrix helpers (row-major tuples), for tests only.

They are the straightforward rational reference that the integer
verification kernel of the package is checked against, together with
the rational characteristic polynomial that the kernel's integrality
test reads.
"""

from fractions import Fraction

from oracles import char_poly_numerators
from sexticfield.poly import Poly


def mat_identity(n: int):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def mat_mul(A, B):
    Bt = list(zip(*B))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in Bt) for row in A
    )


def mat_det(A):
    """Determinant by Gaussian elimination on Fractions."""
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1)
    for j in range(n):
        piv = next((i for i in range(j, n) if M[i][j] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != j:
            M[j], M[piv] = M[piv], M[j]
            det = -det
        det *= M[j][j]
        inv = 1 / M[j][j]
        for i in range(j + 1, n):
            if M[i][j] != 0:
                c = M[i][j] * inv
                M[i] = [x - c * y for x, y in zip(M[i], M[j])]
    return det


def mat_inv(A):
    """Inverse by Gauss-Jordan on Fractions; ValueError if singular."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    for j in range(n):
        piv = next((i for i in range(j, n) if M[i][j] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        M[j], M[piv] = M[piv], M[j]
        inv = 1 / M[j][j]
        M[j] = [x * inv for x in M[j]]
        for i in range(n):
            if i != j and M[i][j] != 0:
                c = M[i][j]
                M[i] = [x - c * y for x, y in zip(M[i], M[j])]
    return tuple(tuple(row[n:]) for row in M)


def char_poly_of_element(g: Poly, t: int, f: Poly) -> Poly:
    """Characteristic polynomial of g(theta)/t over Q, theta a root of f.

    f must be monic of degree n with integer coefficients, g an integer
    polynomial, t a positive integer.  The result is the monic degree-n
    polynomial whose roots are g(theta_i)/t over all conjugates; its
    coefficient of y^(n-k) is c_k / t^k, with c_k from Berkowitz on the
    integer multiplication matrix of g(theta).
    """
    c = char_poly_numerators(g, t, f)
    n = len(c) - 1
    return Poly(tuple(Fraction(c[n - k], t ** (n - k)) for k in range(n + 1)))
