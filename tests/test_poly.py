import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmat import char_poly_of_element, mat_det
from oracles import ExtField, derivative, discriminant
from polyref import poly_mul, poly_pow

from sexticfield.poly import (
    Poly,
    X,
    factor_degrees_mod_p,
    factor_mod_p,
    fp_add,
    fp_divmod,
    fp_gcd,
    fp_inverse_mod,
    fp_monic,
    fp_mul,
    fp_pow_mod,
    fp_rem,
    fp_sub,
    gauss_valuation,
    irreducible_mod_p,
    is_integral,
    phi_expansion,
    reduce_poly,
    trinomial,
)

x = sympy.Symbol("x")


def to_sympy(F: Poly):
    return sum(sympy.Rational(c) * x ** i for i, c in enumerate(F.coeffs))


def sylvester_resultant(A: Poly, B: Poly):
    """Independent oracle: determinant of the Sylvester matrix."""
    m, n = A.degree, B.degree
    if m < 0 or n < 0:
        return 0
    if m == 0 and n == 0:
        return 1
    size = m + n
    rows = []
    ac = list(reversed(A.coeffs))
    bc = list(reversed(B.coeffs))
    for i in range(n):
        rows.append([0] * i + ac + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + bc + [0] * (size - n - 1 - i))
    d = mat_det([[Fraction(c) for c in r] for r in rows])
    assert d.denominator == 1
    return int(d)


def test_poly_basics():
    f = Poly((1, 2, 3))
    g = Poly((0, 0, 0, 1))
    assert f.degree == 2 and g.degree == 3
    assert (f + g).coeffs == (1, 2, 3, 1)
    assert (f - f).is_zero()
    assert poly_mul(f, g).coeffs == (0, 0, 0, 1, 2, 3)
    assert f(2) == 1 + 4 + 12
    assert Poly(()).degree == -1
    assert Poly((Fraction(4, 2),)).coeffs == (2,)
    assert poly_mul(X, X, X).coeffs == (0, 0, 0, 1)
    assert f[0] == 1 and f[5] == 0
    assert Poly((0, 1, 0)).coeffs == (0, 1)


def test_trinomial_and_derivative():
    f = trinomial(4, 4)
    assert f.coeffs == (4, 4, 0, 0, 0, 0, 1)
    assert f.degree == 6 and f.is_monic()
    assert derivative(f).coeffs == (4, 0, 0, 0, 0, 6)


def test_divmod_invariant():
    rng = random.Random(3)
    for _ in range(100):
        f = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 8))])
        d = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
        if d.is_zero():
            continue
        q, r = f.divmod_by(d)
        assert poly_mul(q, d) + r == f
        assert r.degree < d.degree


def test_phi_expansion_reconstruction():
    f = trinomial(-7, 12)
    for phi in (X + 1, X - 1, Poly((1, 1, 1)), Poly((1, 0, 1)), Poly((2, 3, 0, 1))):
        digits = phi_expansion(f, phi)
        assert all(d.degree < phi.degree for d in digits)
        total = Poly(())
        for i, d in enumerate(digits):
            total = total + poly_mul(d, poly_pow(phi, i))
        assert total == f
    with pytest.raises(ValueError):
        phi_expansion(f, Poly((1, 2)))


def test_phi_expansion_taylor():
    # base x - beta gives Taylor digits f(beta), f'(beta), ...
    a, b = 6, -10
    f = trinomial(a, b)
    beta = Fraction(-6 * b, 5 * a)
    digits = phi_expansion(f, X - beta)
    assert digits[0] == f(beta)
    assert digits[1] == derivative(f)(beta)
    assert digits[2] == 15 * beta ** 4
    assert digits[3] == 20 * beta ** 3
    assert digits[4] == 15 * beta ** 2
    assert digits[5] == 6 * beta
    assert digits[6] == 1


def test_gauss_valuation():
    assert gauss_valuation(Poly((4, 6, 8)), 2) == 1
    assert gauss_valuation(Poly((Fraction(1, 2), 4)), 2) == -1
    assert gauss_valuation(Poly(()), 2) == float("inf")


def test_reduce_poly_and_residues():
    f = Poly((Fraction(1, 3), 5, -1))
    assert reduce_poly(f, 2) == (1, 1, 1)
    with pytest.raises(ValueError):
        reduce_poly(Poly((Fraction(1, 2),)), 2)
    assert reduce_poly(Poly((4, 8)), 2) == ()
    assert reduce_poly(Poly((7, -1)), 5) == (2, 4)
    assert reduce_poly(Poly((7, -1, 5)), 5) == (2, 4)


def test_prime_field():
    # constants of F_7[x]: products, inverses and differences mod 7
    assert fp_mul(7, [3], [5]) == [1]
    assert fp_inverse_mod(7, [3], [0, 1]) == [5]
    assert fp_monic(7, [3]) == [1]
    assert fp_sub(7, [2], [5]) == [4]
    assert fp_add(7, [2, 3], [5, 4]) == []
    with pytest.raises(ZeroDivisionError):
        fp_inverse_mod(7, [0, 1], [0, 0, 1])
    with pytest.raises(ZeroDivisionError):
        fp_divmod(7, [1], [])


def test_ext_field():
    # F_9 = F_3[x]/(x^2 + 1)
    K = ExtField(3, (1, 0, 1))
    assert K.p ** K.r == 9
    i = (0, 1)
    assert K.mul(i, i) == (2, 0)
    for a_ in [(1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (0, 2)]:
        assert K.mul(a_, K.inv(a_)) == K.one
    with pytest.raises(ZeroDivisionError):
        K.inv((0, 0))
    # Frobenius fixes exactly F_3 inside F_27
    K27 = ExtField(3, (1, 2, 0, 1))
    for a_ in [(1, 0, 0), (2, 0, 0)]:
        cube = K27.mul(K27.mul(a_, a_), a_)
        assert cube == a_
    g = (0, 1, 0)
    assert K27.mul(g, K27.inv(g)) == K27.one


def test_fp_gcd_and_powmod():
    a = [1, 0, 1]  # x^2 + 1 = (x+2)(x+3) mod 5
    b = [2, 1]  # x + 2
    g = fp_gcd(5, a, b)
    assert g == [2, 1]
    q, r = fp_divmod(5, a, b)
    assert not r
    assert fp_mul(5, q, b) == a
    # Fermat: x^5 = x mod (x^2 + 2) over F_5 iff the element lies in F_5
    mod = [2, 0, 1]
    assert fp_pow_mod(5, [0, 1], 25, mod) == [0, 1]
    # a non-monic divisor: 3x^2 + 1 = (4x + 3)(2x + 1) + 3 over F_5
    assert fp_divmod(5, [1, 0, 3], [1, 2]) == ([3, 4], [3])
    # monic division and products only reduce, so they serve Z/25 too
    q, r = fp_divmod(25, [24, 0, 1], [1, 1])
    assert fp_add(25, fp_mul(25, q, [1, 1]), r) == [24, 0, 1]


def sympy_factors_mod_p(F: Poly, p: int):
    sf = sympy.Poly(to_sympy(F), x, modulus=p, symmetric=False)
    _, facs = sf.factor_list()
    out = []
    for poly, e in facs:
        cs = [int(c) % p for c in reversed(poly.all_coeffs())]
        out.append(((tuple(cs)), e))
    return sorted(out, key=lambda t: (len(t[0]) - 1, t[0]))


def test_factor_mod_p_against_sympy():
    wants = {}  # sympy's answer by F mod p; the trinomials repeat residues

    def check(F, p):
        unit, facs = factor_mod_p(F, p)
        assert unit == 1
        got = sorted(facs, key=lambda t: (len(t[0]) - 1, t[0]))
        # a reduced polynomial carries no p, so the cache keys on it too
        key = p, reduce_poly(F, p)
        if key not in wants:
            wants[key] = sympy_factors_mod_p(F, p)
        want = wants[key]
        assert got == want, (p, F)
        # multiplicities reconstruct the polynomial
        prod = poly_mul(*(poly_pow(Poly(f), e) for f, e in facs))
        assert reduce_poly(prod, p) == reduce_poly(F, p)

    rng = random.Random(11)

    def monic(p, deg):
        return Poly([rng.randint(0, p - 1) for _ in range(deg)] + [1])

    primes = [2, 3, 5, 7, 13, 17, 101, 1009]
    for _ in range(120):
        p = rng.choice(primes)
        check(monic(p, rng.randint(1, 6)), p)
    # repeated factors g1^e1 * g2^e2 on the one path every prime takes,
    # up to a squared cubic (degree 6) and degree 7
    for p in (2, 3, 5, 7, 11, 13, 1_000_003):
        check(poly_pow(monic(p, 3), 2), p)
        check(poly_mul(poly_pow(monic(p, 3), 2), monic(p, 1)), p)
        for _ in range(12):
            d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
            e1, e2 = rng.randint(1, 3), rng.randint(1, 2)
            if d1 * e1 + d2 * e2 <= 7:
                check(poly_mul(poly_pow(monic(p, d1), e1), poly_pow(monic(p, d2), e2)), p)
    # degree above 7 at p = 2
    check(poly_mul(poly_pow(monic(2, 3), 2), monic(2, 4), poly_pow(monic(2, 2), 3)), 2)
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(-12, 13):
            for b in range(-12, 13):
                check(trinomial(a, b), p)


def test_factor_mod_p_nonmonic_unit():
    unit, facs = factor_mod_p(Poly((2, 0, 4)), 7)
    assert unit == 4
    prod = Poly((unit,))
    for f, e in facs:
        assert f[-1] == 1
        prod = poly_mul(prod, poly_pow(Poly(f), e))
    assert reduce_poly(prod, 7) == reduce_poly(Poly((2, 0, 4)), 7)


_PRIMES_TO_101 = [p for p in range(2, 102) if sympy.isprime(p)]


def _draw_mod_p(rng):
    """(F, p): p a prime <= 101, F of degree 1..8 with a unit lead mod p.

    Half the draws multiply a square into F, so F mod p has a repeated
    factor unless the squared part is a unit.
    """
    p = rng.choice(_PRIMES_TO_101)

    def part(deg):  # coefficients outside [0, p) too
        return Poly([rng.randint(-p, 2 * p) for _ in range(deg)] + [rng.randrange(1, p)])

    deg = rng.randint(1, 8)
    if deg >= 2 and rng.random() < 0.5:
        k = rng.randint(1, deg // 2)
        return poly_mul(poly_pow(part(k), 2), part(deg - 2 * k)), p
    return part(deg), p


def check_degree_modes(count, seed):
    """The three uses of the distinct-degree factorization against sympy.

    On `count` seeded draws: `factor_mod_p` equals sympy's factorization
    mod p, `factor_degrees_mod_p` equals the sorted factor degrees
    counted with multiplicity, and `irreducible_mod_p` holds exactly for
    one factor of multiplicity 1.
    """
    rng = random.Random(seed)
    for _ in range(count):
        F, p = _draw_mod_p(rng)
        want = sympy_factors_mod_p(F, p)
        unit, facs = factor_mod_p(F, p)
        assert unit == F.coeffs[-1] % p, (F, p)
        assert sorted(facs, key=lambda t: (len(t[0]) - 1, t[0])) == want, (F, p)
        degrees = tuple(sorted(len(g) - 1 for g, e in want for _ in range(e)))
        assert factor_degrees_mod_p(F, p) == degrees, (F, p)
        assert irreducible_mod_p(F, p) == (len(want) == 1 and want[0][1] == 1), (F, p)


def test_degree_modes_agree():
    check_degree_modes(400, 1)


def test_degree_modes_edges():
    # a squared irreducible cubic: no part below degree 3, one repeated
    g = Poly((1, 1, 0, 1))  # x^3 + x + 1, irreducible mod 2
    assert irreducible_mod_p(g, 2)
    assert not irreducible_mod_p(poly_mul(g, g), 2)
    assert factor_degrees_mod_p(poly_mul(g, g), 2) == (3, 3)
    # x^4 + 1 mod 3 is a product of two irreducible quadratics: its first
    # distinct-degree part is all of it, yet it is reducible
    assert factor_degrees_mod_p(Poly((1, 0, 0, 0, 1)), 3) == (2, 2)
    assert not irreducible_mod_p(Poly((1, 0, 0, 0, 1)), 3)
    # units are no irreducibles and have no factors
    assert not irreducible_mod_p(Poly((3,)), 7)
    assert factor_degrees_mod_p(Poly((3,)), 7) == ()
    for fn in (factor_mod_p, factor_degrees_mod_p, irreducible_mod_p):
        with pytest.raises(ValueError):
            fn(Poly((7, 14)), 7)


def test_fp_pow_mod_matches_repeated_products():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice((2, 3, 7, 37, 101))
        mod = [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1]
        base = [0, 1] if rng.random() < 0.5 else [rng.randrange(p) for _ in range(8)]
        e = rng.randint(0, 3 * p)
        want = [1]
        for _ in range(e):
            want = fp_rem(p, fp_mul(p, want, base), mod)
        assert fp_pow_mod(p, base, e, mod) == fp_rem(p, want, mod), (p, base, e, mod)


def test_fp_rem_matches_fp_divmod():
    rng = random.Random(5)
    for _ in range(300):
        p = rng.choice((2, 3, 7, 25, 101))
        a = [rng.randint(-3 * p, 3 * p) for _ in range(rng.randint(0, 9))]
        b = [rng.randrange(p) for _ in range(rng.randint(0, 4))] + [rng.randrange(1, p)]
        if p == 25 and b[-1] % 5 == 0:
            continue  # a lead that is no unit mod 25
        assert fp_rem(p, a, b) == fp_divmod(p, a, b)[1]
    with pytest.raises(ZeroDivisionError):
        fp_rem(5, [1], [])


def test_poly_gcd_mod_p():
    # gcds of reduced Q-polynomials run on fp_gcd
    f = trinomial(0, 12)
    g = fp_gcd(2, reduce_poly(f, 2), reduce_poly(derivative(f), 2))
    # mod 2: f = x^6, f' = 0 -> gcd is the monic normalization of x^6
    assert g == [0, 0, 0, 0, 0, 0, 1]
    # x = 2 is no root of x^6 + x + 1 mod 3, so x + 1 is prime to it
    assert fp_gcd(3, reduce_poly(trinomial(1, 1), 3), [1, 1]) == [1]
    # x^6 - 1 and x^2 - 1 mod 7: (x - 1)(x + 1)
    assert fp_gcd(7, reduce_poly(trinomial(0, -1), 7), [6, 0, 1]) == [6, 0, 1]
    assert fp_gcd(5, [2, 0, 4], []) == [3, 0, 1]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=6))
def test_discriminant_matches_sylvester(tail):
    # disc(F) = (-1)^(n(n-1)/2) Res(F, F') for monic F of degree n in 1..6
    F = Poly(tail + [1])
    n = F.degree
    res = sylvester_resultant(F, derivative(F))
    assert discriminant(F) == (-1) ** (n * (n - 1) // 2) * res


def test_discriminant_specific():
    # disc(x^6 + a*x + b) = 5^5 a^6 - 6^6 b^5
    for a, b in [(4, 4), (1, 1), (-7, 12), (0, 5), (3, 0), (-2, -3)]:
        f = trinomial(a, b)
        assert discriminant(f) == 3125 * a ** 6 - 46656 * b ** 5
        ds = sympy.discriminant(to_sympy(f), x)
        assert discriminant(f) == int(ds)
    with pytest.raises(ValueError):
        discriminant(Poly((1,)))


def test_char_poly_scalar_and_linear():
    f = trinomial(4, 4)
    cp = char_poly_of_element(Poly((3,)), 2, f)
    assert cp == poly_pow(X - Fraction(3, 2), 6)
    assert not is_integral(Poly((3,)), 2, f)
    # theta itself: characteristic polynomial is f
    assert char_poly_of_element(X, 1, f) == f
    assert is_integral(X, 1, f)


def test_char_poly_against_sympy_companion():
    rng = random.Random(23)
    for _ in range(25):
        a = rng.randint(-20, 20)
        b = rng.randint(-20, 20)
        f = trinomial(a, b)
        g = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 6))])
        t = rng.randint(1, 8)
        got = char_poly_of_element(g, t, f)
        # oracle: characteristic polynomial of mult-by-g(C)/t on the
        # companion matrix C of f
        C = sympy.Matrix.zeros(6)
        for i in range(5):
            C[i + 1, i] = 1
        for i in range(6):
            C[i, 5] = -sympy.Rational(f.coeffs[i])
        M = sympy.Matrix.zeros(6)
        P = sympy.Matrix.eye(6)
        for c in g.coeffs:
            M += sympy.Rational(c) * P
            P = C * P
        M /= sympy.Rational(t)
        y = sympy.Symbol("y")
        wantc = sympy.Poly(M.charpoly(y).as_expr(), y).all_coeffs()[::-1]
        want = [Fraction(int(sympy.Rational(c).p), int(sympy.Rational(c).q)) for c in wantc]
        assert [Fraction(c) for c in got.coeffs] == want


def test_is_integral_examples():
    # x^6 + 12 has (theta^3)/2 not integral but theta^4/2 ... use known rows:
    # theta^3/2 has char poly y^6 + 12^3/2^6 * ... simplest: for x^6 - 4,
    # theta^3/2 is a square root of 1 -> integral
    f = trinomial(0, -4)
    assert is_integral(Poly((0, 0, 0, 1)), 2, f)
    assert not is_integral(Poly((0, 1)), 2, f)
    f2 = trinomial(0, 12)
    # from the worked integral basis of Q[x]/(x^6+12): theta^3/2 is integral
    assert is_integral(Poly((0, 0, 0, 1)), 2, f2)
    assert not is_integral(Poly((0, 0, 1)), 2, f2)


# denominators of every kind: 1, primes, prime powers and composites
_DENOMINATORS = (1, 2, 3, 5, 7, 4, 8, 9, 25, 27, 32, 6, 10, 12, 30, 36)


@settings(max_examples=300, deadline=None)
@given(
    t=st.sampled_from(_DENOMINATORS),
    ea=st.integers(0, 6),
    eb=st.integers(0, 7),
    u=st.integers(-50, 50),
    v=st.integers(-50, 50),
    h=st.lists(st.integers(-50, 50), min_size=1, max_size=8),
    r=st.lists(st.integers(-3, 3), max_size=6),
)
def test_is_integral_matches_the_rational_char_poly(t, ea, eb, u, v, h, r):
    """is_integral (skipped at t = 1, mod t^6 above) agrees with the
    char poly of g(theta)/t over Q having integer coefficients.

    f = x^6 + a*x + b with a = t^ea * u and b = t^eb * v, and
    g = t*h + r, so theta^i/t sits on the boundary of integrality
    (with r = theta, integral iff t^5 | a and t^6 | b) and r = () gives
    integral elements.
    """
    f = trinomial(t ** ea * u, t ** eb * v)
    g = Poly(tuple(t * x for x in h)) + Poly(tuple(r))
    want = all(
        Fraction(c).denominator == 1
        for c in char_poly_of_element(g, t, f).coeffs
    )
    assert is_integral(g, t, f) == want


def test_is_integral_at_the_modulus_boundary():
    """theta/t has char poly f, so it is integral iff t^5 | a and t^6 | b;
    with b = t^5 only c_6 fails, which reduction mod t^5 would miss."""
    for t in _DENOMINATORS[1:]:
        assert not is_integral(X, t, trinomial(t ** 5, t ** 5))
        assert not is_integral(X, t, trinomial(t ** 4, t ** 6))
        assert is_integral(X, t, trinomial(t ** 5, t ** 6))
        assert is_integral(X + 3 * t, t, trinomial(-(t ** 5), 7 * t ** 6))


def test_is_integral_validates_before_the_t_1_shortcut():
    f = trinomial(4, 4)
    non_monic = Poly((4, 4, 0, 0, 0, 0, 2))
    with pytest.raises(ValueError):
        is_integral(X, 1, non_monic)
    with pytest.raises(ValueError):
        is_integral(Poly((Fraction(1, 2), 1)), 1, f)
    with pytest.raises(ValueError):
        is_integral(X, 0, f)
    assert is_integral(Poly((Fraction(4, 2), 1)), 1, f)
