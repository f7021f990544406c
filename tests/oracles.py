"""Independent oracles the test suite checks the pipeline against.

None of this runs in the package.  The Ore/Montes oracle bounds v_p of
the index by Newton polygons and certifies the bound when every residual
polynomial, over F_{p^r} = F_p[x]/(phi mod p), is squarefree; the
`REGULAR_ROUTE` cases are those it certifies.  `prime_exponent_profile`
reads a glued basis back at one prime, and `discriminant` is the norm
of F'(theta) (`derivative`) from the Berkowitz kernel of `poly`.
`is_prime_by_witnesses` is the 50-base Miller-Rabin test that
`exact.is_prime` ran above its deterministic bound before BPSW; the two
must agree on every input drawn.  `pure_sextic_discriminant` is the
closed form for the field discriminant of x^6 + b, the oracle for the
a = 0 slice of the case tables; it factors b with sympy, so it shares
no code with the pipeline.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import sympy

from polyref import hnf
from sexticfield.exact import (
    _MR_DETERMINISTIC_BOUND,
    _SMALL_PRIMES,
    InternalError,
    _miller_rabin,
    vp,
    vp_fraction,
)
from sexticfield.newton import Edge, build_polygon
from sexticfield.poly import (
    Poly,
    X,
    _berkowitz,
    _check_element,
    _multiplication_matrix,
    convolve,
    factor_mod_p,
    fp_inverse_mod,
    fp_rem,
    gauss_valuation,
    phi_expansion,
    reduce_poly,
    residue_int,
)


# the 50 primes below 230
EXTENDED_WITNESSES = tuple(
    p for p in range(2, 230) if all(p % q for q in range(2, p))
)


def is_prime_by_witnesses(n: int) -> bool:
    """`exact.is_prime` with Miller-Rabin to the 50 bases above the bound."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _MR_DETERMINISTIC_BOUND:
        return _miller_rabin(n, _SMALL_PRIMES)
    return _miller_rabin(n, EXTENDED_WITNESSES)


def derivative(F: Poly) -> Poly:
    """The formal derivative F'."""
    return Poly(tuple(i * c for i, c in enumerate(F.coeffs[1:], start=1)))


class ExtField:
    """F_{p^r} = F_p[x]/(modulus); elements are length-r int tuples."""

    __slots__ = ("p", "modulus", "r", "zero", "one")

    def __init__(self, p: int, modulus):
        # modulus: ascending int coefficients of a monic irreducible over F_p
        mod = tuple(c % p for c in modulus)
        if not mod or mod[-1] != 1:
            raise ValueError("modulus must be monic")
        self.p = p
        self.modulus = mod
        self.r = len(mod) - 1
        self.zero = (0,) * self.r
        self.one = (1,) + (0,) * (self.r - 1)

    def from_coeffs(self, cs):
        """Reduce an arbitrary-length int coefficient list into the field."""
        red = fp_rem(self.p, [c % self.p for c in cs], self.modulus)
        return tuple(red) + (0,) * (self.r - len(red))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        return self.from_coeffs(convolve(a, b))

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0")
        return self.from_coeffs(fp_inverse_mod(self.p, list(a), self.modulus))

    def is_zero(self, a):
        return not any(a)


def _ext_gcd(K, a, b):
    """Monic gcd of two trimmed coefficient lists over the field K."""
    while b:
        a, inv, db = list(a), K.inv(b[-1]), len(b) - 1
        for i in range(len(a) - 1 - db, -1, -1):
            c = K.mul(a[i + db], inv)
            for j in range(db + 1):
                a[i + j] = K.sub(a[i + j], K.mul(c, b[j]))
        a = a[:db]
        while a and K.is_zero(a[-1]):
            a.pop()
        a, b = b, a
    inv = K.inv(a[-1])
    return [K.mul(inv, c) for c in a]


def segments(edge) -> int:
    """Number of minimal lattice segments on a hull edge (= deg of the
    residual polynomial)."""
    return math.gcd(edge.run, abs(edge.rise)) if edge.rise else edge.run


def step(edge):
    """(dx, dy) of one minimal lattice segment of a hull edge."""
    t = segments(edge)
    return edge.run // t, edge.rise // t


@dataclass(frozen=True)
class ResidualPoly:
    """Residual polynomial of a positive edge, monic, over F_{p^r}.

    `coeffs` is ascending in the auxiliary variable; entries are ints
    for r = 1 and int tuples for r >= 2.
    """

    edge: Edge
    p: int
    modulus: tuple  # phi mod p, ascending; () means prime-field residue
    coeffs: tuple

    def field(self) -> ExtField:
        return ExtField(self.p, self.modulus or (0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_squarefree(self) -> bool:
        if self.degree <= 1:
            return True
        K = self.field()
        cs = [c if self.modulus else (c,) for c in self.coeffs]
        d = [tuple(i * x % self.p for x in c) for i, c in enumerate(cs[1:], 1)]
        while d and K.is_zero(d[-1]):
            d.pop()
        return bool(d) and len(_ext_gcd(K, cs, d)) == 1


def residual_polynomial(F: Poly, p: int, polygon, edge) -> ResidualPoly:
    """Monic residual polynomial attached to a positive-slope edge of the
    polygon of F at the prime p.

    Coefficient j (from the leading end) is the residue of
    digit(n - (x0 + e*j)) / p^(y0 + d*j) in F_p[x]/(phi mod p), and is
    zero exactly when that lattice point lies strictly below the digit's
    valuation.  The result is normalized monic.
    """
    if edge.slope <= 0:
        raise ValueError("residual polynomials only attach to positive edges")
    n = polygon.length
    r = polygon.phi.degree
    digits = phi_expansion(F, polygon.phi)
    e, d = step(edge)
    t = segments(edge)
    modulus = reduce_poly(polygon.phi, p) if r > 1 else ()
    field = ExtField(p, modulus or (0, 1))

    cs = []  # by j = 0 .. t, i.e. descending in the auxiliary variable
    for j in range(t + 1):
        xj = edge.x0 + e * j
        yj = edge.y0 + d * j
        digit = digits[n - xj]
        v = gauss_valuation(digit, p)
        if v > yj:
            cs.append(field.zero)
            continue
        if v < yj:
            raise InternalError("digit valuation dips below the hull")
        scaled = [Fraction(c) / p ** yj for c in digit.coeffs]
        cs.append(field.from_coeffs([residue_int(c, p) for c in scaled]))
    if field.is_zero(cs[0]) or field.is_zero(cs[-1]):
        raise InternalError("edge endpoints must give nonzero residues")
    inv = field.inv(cs[0])
    cs = [field.mul(inv, c) for c in cs]
    if r == 1:
        cs = [c[0] for c in cs]
    return ResidualPoly(
        edge=edge, p=p, modulus=modulus, coeffs=tuple(reversed(cs))
    )


def residual_polynomials(F: Poly, p: int, polygon):
    """Residual polynomials of every positive edge of the polygon of F at p."""
    return tuple(
        residual_polynomial(F, p, polygon, e) for e in polygon.edges if e.slope > 0
    )


def ore_index(F: Poly, p: int, translations=()):
    """(lower bound for v_p of the index of Z[x]/F, attained?) via polygons.

    `translations` is a sequence of p-integral rationals; when a
    repeated linear factor x - r of F mod p matches one of them mod p,
    the lift x - beta is used in place of x - r, which can deepen the
    polygon.  The bound is exact when every residual polynomial produced
    along the way is squarefree.
    """
    _, facs = factor_mod_p(F, p)
    total = 0
    attained = True
    for phibar, mult in facs:
        if mult < 2:
            continue
        lift = Poly(phibar)
        if len(phibar) == 2:
            root = -phibar[0] % p
            for beta in translations:
                if vp_fraction(Fraction(beta) - root, p) >= 1:
                    lift = X - Fraction(beta)
                    break
        polygon = build_polygon(F, lift, p)
        total += polygon.index_contribution()
        for rp in residual_polynomials(F, p, polygon):
            if not rp.is_squarefree():
                attained = False
    return total, attained


# Cases whose index count is certified by squarefree residual polynomials,
# so the polygon machinery reproduces sum(k_i) exactly.
REGULAR_ROUTE = frozenset(
    [f"E{i}" for i in range(2, 17)]
    + [f"F{i}" for i in range(2, 25)]
    + [f"G{i}" for i in range(2, 23)]
    + [f"H{i}" for i in range(2, 13)]
)


def prime_exponent_profile(basis, p: int) -> tuple:
    """Local denominator exponents of the spanned lattice at p.

    Clears the prime-to-p part of every row, saturates at all other
    primes, and reads the exponents off the Hermite form diagonal.
    Serves as a round-trip check that gluing preserved each local
    lattice exactly.
    """
    exps = [vp(t, p) for t in basis.denominators]
    K = max(exps)
    T = p ** K
    vecs = []
    for i in range(6):
        scale = T // p ** exps[i]
        vec = [basis.rows[i][j] * scale for j in range(i)]
        vec.append(scale)
        vec.extend([0] * (5 - i))
        vecs.append(vec)
    for j in range(6):
        vecs.append([0] * j + [T] + [0] * (5 - j))
    H = hnf(vecs)
    profile = []
    for i in range(6):
        d = H[i][i]
        e = vp(d, p)
        if p ** e != d:
            raise InternalError(f"diagonal entry {d} is not a power of {p}")
        profile.append(K - e)
    return tuple(profile)


def char_poly_numerators(g: Poly, t: int, f: Poly):
    """det(y*I - M_g) as [1, c_1, ..., c_n], M_g multiplication by g(theta)."""
    _check_element(g, t, f)
    return _berkowitz(_multiplication_matrix(g, f))


def discriminant(F: Poly) -> int:
    """disc(F) = (-1)^(n(n-1)/2) N(F'(theta)) for monic integer F, n >= 1.

    The norm of F'(theta) is (-1)^n c_n, with c_n the constant term of
    its characteristic polynomial from Berkowitz.
    """
    if not F.is_monic():
        raise ValueError("monic polynomial expected")
    n = F.degree
    if n < 1:
        raise ValueError("positive degree expected")
    norm = (-1) ** n * char_poly_numerators(derivative(F), 1, F)[n]
    return (-1) ** (n * (n - 1) // 2) * norm


@dataclass(frozen=True)
class PureSexticReport:
    """Closed-form discriminant data for an irreducible x^6 + b.

    r1 and r2 are the exponents of 2 and 3 in |d_K|; s_p lists the
    exponent 6 - gcd(6, v_p(b)) for every other prime dividing b.
    """

    r1: int
    r2: int
    s_p: tuple
    d_K: int


def pure_sextic_discriminant(b: int) -> PureSexticReport:
    """Field discriminant of Q(b^(1/6)) straight from congruences on b.

    Requires b sixth-power-free and x^6 + b irreducible (equivalently,
    -b neither a square nor a cube); violations raise ValueError.
    """
    if b == 0:
        raise ValueError("b must be nonzero")
    c = -b
    if (c > 0 and sympy.integer_nthroot(c, 2)[1]) or sympy.integer_nthroot(abs(c), 3)[1]:
        raise ValueError(f"x^6 + {b} is reducible: -b is a square or a cube")
    exponents = sympy.factorint(abs(b))
    fb = sorted(exponents.items())
    for p, e in fb:
        if e >= 6:
            raise ValueError(f"b is divisible by {p}^6; normalize first")

    v2b, v3b = exponents.get(2, 0), exponents.get(3, 0)
    b2 = b // 2 ** v2b
    b3 = b // 3 ** v3b

    if v2b == 0:
        r1 = 0 if b % 4 == 3 else 6
    elif v2b in (1, 5):
        r1 = 11
    elif v2b == 3:
        r1 = 9
    else:  # v2b in (2, 4)
        r1 = 4 if b2 % 4 == 3 else 8

    if v3b == 0:
        r2 = 2 if b % 9 in (1, 8) else 6
    elif v3b in (1, 5):
        r2 = 11
    elif v3b in (2, 4):
        r2 = 10
    else:  # v3b == 3
        r2 = 3 if (b3 * b3) % 9 == 1 else 7

    s_p = tuple((p, 6 - math.gcd(6, e)) for p, e in fb if p not in (2, 3))
    d = 2 ** r1 * 3 ** r2
    for p, s in s_p:
        d *= p ** s
    d_K = d if b < 0 else -d
    return PureSexticReport(r1=r1, r2=r2, s_p=s_p, d_K=d_K)
