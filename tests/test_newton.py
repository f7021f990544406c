import random
from fractions import Fraction

import pytest

from sexticfield.exact import INF
from oracles import (
    ore_index,
    residual_polynomial,
    residual_polynomials,
    segments,
    step,
)
from sexticfield.newton import Edge, build_polygon
from sexticfield.poly import Poly, X, factor_mod_p, trinomial

from polyref import poly_mul


def test_edge_geometry():
    e = Edge(0, 0, 4, 2)
    assert e.run == 4 and e.rise == 2
    assert e.slope == Fraction(1, 2)
    assert segments(e) == 2
    assert step(e) == (2, 1)
    e2 = Edge(4, 0, 6, 5)
    assert segments(e2) == 1
    assert step(e2) == (2, 5)
    flat = Edge(0, 0, 3, 0)
    assert flat.slope == 0
    assert segments(flat) == 3


def test_polygon_quadratic_base_example():
    # built from its phi-expansion, so every digit is known by hand
    phi = Poly((1, 0, 1))  # x^2 + 1
    F = (
        poly_mul(phi, phi, phi)
        + poly_mul(Poly((9, 3)), phi, phi)
        + poly_mul(Poly((9, 12)), phi)
        + Poly((81, 9))
    )
    ng = build_polygon(F, phi, 3)
    assert [tuple(pt) for pt in ng.points] == [(0, 0), (1, 1), (2, 1), (3, 2)]
    assert [tuple(v) for v in ng.vertices] == [(0, 0), (2, 1), (3, 2)]
    assert [e.slope for e in ng.edges] == [Fraction(1, 2), Fraction(1)]
    assert ng.index_contribution() == 2
    # both residual polynomials are linear, hence squarefree
    residuals = residual_polynomials(F, 3, ng)
    assert [rp.degree for rp in residuals] == [1, 1]
    assert all(rp.is_squarefree() for rp in residuals)
    assert ore_index(F, 3)[1]


def test_polygon_tiebreak_takes_farthest_point():
    # digits of (x+5)^4 - 5 in base x; the slope-1/2 tie between
    # (2, 1) and (4, 2) must resolve to the farther point
    F = Poly((620, 500, 150, 20, 1))
    ng = build_polygon(F, X, 2)
    assert [tuple(pt) for pt in ng.points] == [
        (0, 0),
        (1, 2),
        (2, 1),
        (3, 2),
        (4, 2),
    ]
    assert [tuple(v) for v in ng.vertices] == [(0, 0), (4, 2)]
    (rp,) = residual_polynomials(F, 2, ng)
    assert rp.modulus == ()
    assert rp.coeffs == (1, 1, 1)  # Y^2 + Y + 1 over F_2
    assert rp.is_squarefree()


def test_polygon_flat_part_and_hull_height():
    # x^6 + 2x + 4 mod 2 = x^2 (x^4 + ...): base x, orders v(4)=2, v(2)=1
    F = trinomial(2, 4)
    ng = build_polygon(F, X, 2)
    assert ng.points[0] == (0, 0)
    assert ng.points[5] == (5, 1)
    assert ng.points[6] == (6, 2)
    # flat to (5, 1)? no: hull from (0,0) to (5,1) slope 1/5, then to (6,2)
    assert [tuple(v) for v in ng.vertices] == [(0, 0), (5, 1), (6, 2)]
    assert ng.hull_height(5) == 1
    assert ng.hull_height(Fraction(5, 2)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        ng.hull_height(7)


def test_residual_zero_slope_rejected():
    # x^4 + x^3 + 4x^2 + 2x + 4 mod 2 has a simple factor x + 1, so the
    # hull starts with a genuine flat edge (0,0)-(1,0)
    F = Poly((4, 2, 4, 1, 1))
    ng = build_polygon(F, X, 2)
    flat = [e for e in ng.edges if e.slope == 0]
    assert flat and flat[0].x1 == 1
    with pytest.raises(ValueError):
        residual_polynomial(F, 2, ng, flat[0])


def test_build_polygon_errors():
    f = trinomial(1, 1)
    with pytest.raises(ValueError):
        build_polygon(f, Poly((1, 2)), 2)  # non-monic phi
    with pytest.raises(ValueError):
        build_polygon(f, Poly((-1, 0, 1)), 3)  # x^2 - 1 reducible mod 3
    with pytest.raises(ValueError):
        build_polygon(poly_mul(X, X + 1), X, 2)  # phi divides F
    with pytest.raises(ValueError):
        build_polygon(Poly((5, 1)), Poly((0, 0, 1)), 5)  # single digit
    with pytest.raises(ValueError):
        build_polygon(Poly((2, 0, 2)), X, 2)  # non-monic F


def test_ore_index_pinned_pure_sextics():
    # x^6 + 12 at p = 2: single edge (0,0)-(6,2), residual Y^2 + 1 = (Y+1)^2
    f = trinomial(0, 12)
    bound, attained = ore_index(f, 2)
    assert bound == 3
    assert not attained
    _, facs = factor_mod_p(f, 2)
    assert facs == (((0, 1), 6),)
    (rp,) = residual_polynomials(f, 2, build_polygon(f, X, 2))
    assert rp.coeffs == (1, 0, 1)
    assert not rp.is_squarefree()

    # same field at p = 3: slope 1/6 edge, one segment, regular, index 0
    bound, attained = ore_index(f, 3)
    assert bound == 0
    assert attained


def test_ore_index_known_shapes():
    # x^6 + 2^5*3, v_2(b) = 5, v_2(a) = inf: vertices (0,0),(5,?)...
    # digits [96,0,...,1]: single finite interior point only at x=6
    f = trinomial(0, 96)
    ng = build_polygon(f, X, 2)
    assert [tuple(v) for v in ng.vertices] == [(0, 0), (6, 5)]
    # slope 5/6: t = 1, regular; index = sum floor(5x/6) = 0+1+2+3+4 = 10
    bound, attained = ore_index(f, 2)
    assert bound == 10
    assert attained

    # x^6 + 4x + 4 at 2: bound 3 via Y^2+1, not known-attained
    bound, attained = ore_index(trinomial(4, 4), 2)
    assert bound == 3
    assert not attained


def test_ore_index_translation_deepens():
    # at p > 5 with p | D, p coprime to 6ab, the repeated factor of
    # f mod p is a single x - r with r = -6b/5a mod p; the plain lift
    # sees a shallow polygon, the translated lift x - beta the true one
    p = 7
    a = 1
    # choose b with 49 | D: b^5 = 3125/46656 mod 49
    target = 3125 * pow(46656, -1, 49) % 49
    b = next(bb for bb in range(1, 500) if pow(bb, 5, 49) == target % 49)
    D = 3125 * a ** 6 - 46656 * b ** 5
    assert D % 49 == 0 and D % (49 * 7) != 0 and b % 7 != 0
    f = trinomial(a, b)
    beta = Fraction(-6 * b, 5 * a)
    bound, attained = ore_index(f, p, translations=(beta,))
    assert bound == 1
    assert attained
    # the translated polygon: flat to (4, 0), then one edge to (6, 2)
    ng = build_polygon(f, X - beta, p)
    assert ng.vertices[-1] == (6, 2)
    assert ng.hull_height(4) == 0


def test_polygon_random_invariants():
    rng = random.Random(99)
    for _ in range(150):
        p = rng.choice([2, 3, 5, 7])
        deg = rng.randint(2, 7)
        cs = [rng.randint(0, p ** 3) for _ in range(deg)] + [1]
        if cs[0] % p and rng.random() < 0.7:
            cs[0] *= p ** rng.randint(1, 3)
        F = Poly(cs)
        if F.coeffs[0] == 0:
            continue
        ng = build_polygon(F, X, p)
        # slopes strictly increase
        slopes = [e.slope for e in ng.edges]
        assert all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:]))
        # every finite point sits on or above the hull
        for x, y in ng.points:
            if y != INF:
                assert y >= ng.hull_height(x)
        # endpoints are vertices
        assert ng.vertices[0] == ng.points[0]
        assert ng.vertices[-1] == ng.points[-1]
        # index contribution is nonnegative
        assert ng.index_contribution() >= 0
