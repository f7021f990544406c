"""Phi-adic Newton polygons over a prime p.

Given a monic polynomial F and a monic lift phi of an irreducible
factor of F mod p, the digits of the phi-adic expansion of F carry a
lower convex hull whose positive-slope part bounds the p-valuation of
the index [O_K : Z[theta]].  Each positive edge has a residual
polynomial over the residue field F_{p^(deg phi)}; when every residual
polynomial of every repeated factor is squarefree the bound is exact.

Points are indexed from the leading digit: point i has height equal to
the p-valuation of digit number (n - i), so the hull starts at (0, 0)
and climbs to (n, v_p(digit 0)) with increasing slopes.

Residual polynomials live over F_{p^r} = F_p[x]/(phi mod p), with F_p
taken as F_p[x]/(x); `ExtField` and the gcd over it that their squarefree
test needs sit here, on the int-list F_p[x] kernel of `poly`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import INF, InternalError, is_prime, vp_fraction
from .poly import (
    Poly,
    X,
    convolve,
    factor_mod_p,
    fp_inverse_mod,
    fp_rem,
    gauss_valuation,
    phi_expansion,
    reduce_poly,
    residue_int,
)


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


@dataclass(frozen=True)
class Edge:
    """One hull edge from (x0, y0) to (x1, y1), x1 > x0, integer heights."""

    x0: int
    y0: int
    x1: int
    y1: int

    @property
    def run(self) -> int:
        return self.x1 - self.x0

    @property
    def rise(self) -> int:
        return self.y1 - self.y0

    @property
    def slope(self) -> Fraction:
        return Fraction(self.rise, self.run)

    @property
    def segments(self) -> int:
        """Number of minimal lattice segments on the edge (= deg of the
        residual polynomial)."""
        return math.gcd(self.run, abs(self.rise)) if self.rise else self.run

    @property
    def step(self):
        """(dx, dy) of one minimal lattice segment."""
        t = self.segments
        return self.run // t, self.rise // t


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


@dataclass(frozen=True)
class NewtonPolygon:
    p: int
    phi: Poly
    digits: tuple  # phi-adic digits of F, ascending
    points: tuple  # (x, y) with y an int or +inf
    vertices: tuple  # subset of points forming the lower hull
    edges: tuple

    @property
    def length(self) -> int:
        return self.points[-1][0]

    def hull_height(self, x) -> Fraction:
        """Height of the hull above abscissa x, 0 <= x <= length."""
        if not 0 <= x <= self.length:
            raise ValueError("abscissa outside the polygon")
        for e in self.edges:
            if e.x0 <= x <= e.x1:
                return Fraction(e.y0) + e.slope * (x - e.x0)
        # no edges: single-vertex polygon cannot happen (length >= 1)
        raise InternalError("hull interpolation found no edge")

    def positive_edges(self):
        return tuple(e for e in self.edges if e.slope > 0)

    def index_contribution(self) -> int:
        """deg(phi) times the lattice points under the hull.

        Counts integer points (x, y) with 0 < x < length and
        0 < y <= hull(x); multiplying by deg phi gives this factor's
        share of the Ore lower bound for v_p of the index.
        """
        n = self.length
        count = sum(math.floor(self.hull_height(xx)) for xx in range(1, n))
        return count * self.phi.degree

    def residual_polynomials(self):
        return tuple(
            residual_polynomial(self, e) for e in self.positive_edges()
        )


def build_polygon(F: Poly, phi: Poly, p: int) -> NewtonPolygon:
    """Newton polygon of F with respect to the base phi at the prime p.

    F must be monic with p-integral coefficients and not divisible by
    phi; phi must be monic, p-integral, and irreducible modulo p.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not F.is_monic():
        raise ValueError("F must be monic")
    if not phi.is_monic() or phi.degree < 1:
        raise ValueError("phi must be monic of positive degree")
    if phi.degree > 1:
        _, facs = factor_mod_p(phi, p)
        if len(facs) != 1 or facs[0][1] != 1 or len(facs[0][0]) != len(phi.coeffs):
            raise ValueError("phi must be irreducible modulo p")
    digits = phi_expansion(F, phi)
    n = len(digits) - 1
    if n < 1:
        raise ValueError("degenerate polygon: F has a single phi-adic digit")
    vals = [gauss_valuation(d, p) for d in digits]
    if vals[0] == INF:
        raise ValueError("phi divides F")
    if vals[n] != 0:
        raise InternalError("leading digit of a monic expansion must be a p-unit")
    points = tuple((i, vals[n - i]) for i in range(n + 1))

    vertices = [points[0]]
    cur = 0
    while cur < n:
        best = None
        best_slope = None
        for j in range(cur + 1, n + 1):
            y = points[j][1]
            if y == INF:
                continue
            slope = Fraction(y - points[cur][1], j - cur)
            if best_slope is None or slope < best_slope or (
                slope == best_slope and j > best
            ):
                best, best_slope = j, slope
        if best is None:
            raise InternalError("hull ran out of finite points")
        vertices.append(points[best])
        cur = best

    edges = tuple(
        Edge(x0, y0, x1, y1)
        for (x0, y0), (x1, y1) in zip(vertices, vertices[1:])
    )
    return NewtonPolygon(
        p=p,
        phi=phi,
        digits=tuple(digits),
        points=points,
        vertices=tuple(vertices),
        edges=edges,
    )


def residual_polynomial(polygon: NewtonPolygon, edge: Edge) -> ResidualPoly:
    """Monic residual polynomial attached to a positive-slope edge.

    Coefficient j (from the leading end) is the residue of
    digit(n - (x0 + e*j)) / p^(y0 + d*j) in F_p[x]/(phi mod p), and is
    zero exactly when that lattice point lies strictly below the digit's
    valuation.  The result is normalized monic.
    """
    if edge.slope <= 0:
        raise ValueError("residual polynomials only attach to positive edges")
    p = polygon.p
    n = polygon.length
    r = polygon.phi.degree
    e, d = edge.step
    t = edge.segments
    modulus = reduce_poly(polygon.phi, p) if r > 1 else ()
    field = ExtField(p, modulus or (0, 1))

    cs = []  # by j = 0 .. t, i.e. descending in the auxiliary variable
    for j in range(t + 1):
        xj = edge.x0 + e * j
        yj = edge.y0 + d * j
        digit = polygon.digits[n - xj]
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
        for rp in polygon.residual_polynomials():
            if not rp.is_squarefree():
                attained = False
    return total, attained
