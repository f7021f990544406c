"""Phi-adic Newton polygons over a prime p, as `--explain` draws them.

Given a monic polynomial F and a monic lift phi of an irreducible
factor of F mod p, the digits of the phi-adic expansion of F carry a
lower convex hull whose positive-slope part bounds the p-valuation of
the index [O_K : Z[theta]] from below (Ore): deg(phi) times the lattice
points under the hull.  The residual polynomials that decide whether
the bound is attained are not needed by the pipeline; the test suite
keeps them with its index oracle.

Points are indexed from the leading digit: point i has height equal to
the p-valuation of digit number (n - i), so the hull starts at (0, 0)
and climbs to (n, v_p(digit 0)) with increasing slopes.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import INF, InternalError, Record, is_prime
from .poly import Poly, gauss_valuation, irreducible_mod_p, phi_expansion


class Edge(Record):
    """One hull edge from (x0, y0) to (x1, y1), x1 > x0, integer heights."""

    __slots__ = ("x0", "y0", "x1", "y1")
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


class NewtonPolygon(Record):
    __slots__ = ("phi", "points", "vertices", "edges")
    phi: Poly
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

    def index_contribution(self) -> int:
        """deg(phi) times the lattice points under the hull.

        Counts integer points (x, y) with 0 < x < length and
        0 < y <= hull(x); multiplying by deg phi gives this factor's
        share of the Ore lower bound for v_p of the index.
        """
        n = self.length
        count = sum(math.floor(self.hull_height(xx)) for xx in range(1, n))
        return count * self.phi.degree


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
    if phi.degree > 1 and not irreducible_mod_p(phi, p):
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
        phi=phi,
        points=points,
        vertices=tuple(vertices),
        edges=edges,
    )
