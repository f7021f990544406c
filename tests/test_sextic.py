import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sexticfield import exact, sextic
from sexticfield.exact import InternalError, vp, vp_fraction
from sexticfield.poly import Poly, is_integral, trinomial
from sexticfield.sextic import (
    CASE_LABELS,
    REGULAR_ROUTE,
    classify,
    irreducibility_check,
    normalize,
    ore_translations,
    p_integral_basis,
    pure_sextic_discriminant,
    reduce_triangular_rows,
    trinomial_discriminant,
)

from casegen import instance


def test_discriminant_values():
    assert trinomial_discriminant(0, 12) == -(2 ** 16) * 3 ** 11
    assert trinomial_discriminant(0, 135) == -(2 ** 6) * 3 ** 21 * 5 ** 5
    assert trinomial_discriminant(4, 4) == -(2 ** 12) * 8539
    assert trinomial_discriminant(1, 1) == 3125 - 46656
    with pytest.raises(ValueError):
        trinomial_discriminant(6, 5)
    with pytest.raises(ValueError):
        trinomial_discriminant(6 * 2 ** 5, 5 * 2 ** 6)


def test_normalize_plain():
    F = normalize(0, 12)
    assert (F.a, F.b) == (0, 12)
    assert F.normalization == ()
    assert F.f == trinomial(0, 12)
    assert F.D == -(2 ** 16) * 3 ** 11
    assert F.D2 == -(3 ** 11)


def test_normalize_strips_content():
    F = normalize(2 ** 5 * 7, 2 ** 6 * 5)
    assert (F.a, F.b) == (7, 5)
    assert F.normalization == ((2, 1),)
    assert F.original == (2 ** 5 * 7, 2 ** 6 * 5)

    F = normalize(3 ** 10, 3 ** 12)
    assert (F.a, F.b) == (1, 1)
    assert F.normalization == ((3, 2),)

    F = normalize(0, 2 ** 6 * 3 ** 6)
    assert (F.a, F.b) == (0, 1)
    assert dict(F.normalization) == {2: 1, 3: 1}


def test_normalize_content_above_the_trial_limit():
    p = 1_000_003
    F = normalize(7 * p ** 5, 5 * p ** 6)
    assert (F.a, F.b) == (7, 5)
    assert F.normalization == ((p, 1),)
    assert F.unsplit_content == 1
    F = normalize(0, -5 * p ** 6)
    assert (F.a, F.b) == (0, -5)
    assert F.normalization == ((p, 1),)
    F = normalize(0, 5 * p ** 12)
    assert (F.a, F.b) == (0, 5)
    assert F.normalization == ((p, 2),)
    # a gcd that rho cannot split within the budget is kept, not guessed at
    m = (2 ** 89 - 1) * (2 ** 107 - 1)
    F = normalize(7 * m, 5 * m, factor_budget=100)
    assert F.normalization == ()
    assert F.unsplit_content == m


def _content_by_sympy(a, b):
    """The normalization of (a, b) from sympy's factorization of gcd(a, b)."""
    out = []
    for q, _ in sorted(sympy.factorint(math.gcd(a, b)).items()):
        e = vp(b, q) // 6
        if a:
            e = min(e, vp(a, q) // 5)
        if e:
            out.append((q, e))
    return tuple(out)


# a gcd of two primes above 10^6 that only rho could split
_BIG_GCD = 1_000_003 * 1_000_033


@settings(max_examples=80, deadline=None)
@given(
    st.integers(-10 ** 23, 10 ** 23),
    st.integers(-10 ** 23, 10 ** 23).filter(bool),
    st.lists(st.sampled_from([2, 3, 5, 16381, 16411, 999_983]), max_size=3),
    st.booleans(),
    st.sampled_from([1, _BIG_GCD]),
)
@example(1, 1, [999_983], False, 1)
@example(1, -1, [999_983], True, 1)
@example(10 ** 14, 10 ** 23, [], False, _BIG_GCD)
def test_normalize_below_10_36_needs_no_rho(c, d, content, zero_a, shared):
    a, b = (0 if zero_a else c * shared), d * shared
    if max(abs(a), abs(b)) >= 10 ** 36:
        a, b = (0 if zero_a else c), d
    for q in content:
        if max(abs(a * q ** 5), abs(b * q ** 6)) < 10 ** 36:
            a, b = a * q ** 5, b * q ** 6

    def no_rho(*args):
        raise AssertionError("normalize called rho below 10^36")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_brent_rho", no_rho)
        try:
            F = normalize(a, b, factor_budget=10)
        except ValueError:  # zero discriminant
            return
    assert F.normalization == _content_by_sympy(a, b)
    scale = math.prod(q ** e for q, e in F.normalization)
    assert (F.a * scale ** 5, F.b * scale ** 6) == (a, b)
    assert F.unsplit_content == 1


def test_normalize_rejects_degenerate():
    with pytest.raises(ValueError):
        normalize(0, 0)
    with pytest.raises(ValueError):
        normalize(3, 0)
    with pytest.raises(ValueError):
        normalize(6, 5)


def test_classify_worked_examples():
    F = normalize(0, 12)
    assert classify(2, F)[0] == "E20"
    assert classify(3, F)[0] == "F3"
    assert classify(7, F)[0] == "H1"

    F = normalize(0, 135)
    assert classify(2, F)[0] == "E17"
    label, params = classify(3, F)
    assert label == "F26"
    assert params["B"] == 5
    assert classify(5, F)[0] == "G8"

    F = normalize(4, 4)
    assert classify(2, F)[0] == "E18"
    assert classify(3, F)[0] == "F1"
    label, params = classify(8539, F)
    assert label == "H12"
    assert params["m"] == 0

    with pytest.raises(ValueError):
        classify(6, F)


def test_basis_worked_example_1_3():
    F = normalize(0, 12)
    B = p_integral_basis(2, F)
    assert B.case == "E20"
    assert B.k == (0, 0, 0, 2, 2, 2)
    assert B.rows[3] == (2, 0, 0)
    assert B.rows[4] == (0, 2, 0, 0)
    assert B.rows[5] == (0, 0, 2, 0, 0)
    assert B.v_dK == 4
    assert B.index_valuation == 6

    B3 = p_integral_basis(3, F)
    assert B3.case == "F3"
    assert B3.k == (0, 0, 0, 0, 0, 0)
    assert B3.v_dK == 11


def test_basis_worked_example_1_4():
    F = normalize(0, 135)
    B2 = p_integral_basis(2, F)
    assert B2.k == (0, 0, 0, 1, 1, 1)
    assert B2.rows[3] == (1, 0, 0)
    assert B2.rows[4] == (0, 1, 0, 0)
    assert B2.rows[5] == (0, 0, 1, 0, 0)
    assert B2.v_dK == 0

    B3 = p_integral_basis(3, F)
    assert B3.k == (0, 0, 1, 1, 2, 3)
    assert B3.rows[2] == (0, 0)
    assert B3.rows[5] == (0, 9, 0, 3, 0)
    assert B3.v_dK == 7

    B5 = p_integral_basis(5, F)
    assert B5.k == (0, 0, 0, 0, 0, 0)
    assert B5.v_dK == 5


def test_basis_worked_example_1_5():
    F = normalize(4, 4)
    B = p_integral_basis(2, F)
    assert B.case == "E18"
    assert B.k == (0, 0, 0, 1, 1, 1)
    assert all(all(c == 0 for c in row) for row in B.rows)
    g, t = B.element(5)
    assert g == Poly((0, 0, 0, 0, 0, 1)) and t == 2

    Bp = p_integral_basis(8539, F)
    assert Bp.k == (0, 0, 0, 0, 0, 0)
    assert Bp.v_dK == 1


def test_reduce_triangular_rows():
    rows = ((), (3,), (7, -5))
    dens = (1, 2, 4)
    out = reduce_triangular_rows(rows, dens)
    assert out[1] == (1,)
    # second row: c10 reduced mod 2; c20 mod 4, c21 mod 2 with carry
    assert 0 <= out[2][1] < 2 and 0 <= out[2][0] < 4
    assert reduce_triangular_rows(out, dens) == out
    with pytest.raises(InternalError):
        reduce_triangular_rows(((), (1,)), (2, 3))


def test_case_dispatch_unique_and_consistent():
    rng = random.Random(99)
    for label in CASE_LABELS:
        for _ in range(3):
            p, F = instance(label, rng)
            got, _ = classify(p, F)
            assert got == label
            B = p_integral_basis(p, F)
            assert vp(F.D, p) == B.v_D
            assert 2 * sum(B.k) + B.v_dK == B.v_D
            assert B.k[0] == 0
            assert all(B.k[i] <= B.k[i + 1] for i in range(5))
            # canonical coefficient ranges
            for i in range(6):
                for j, c in enumerate(B.rows[i]):
                    assert 0 <= c < p ** (B.k[i] - B.k[j])


def test_basis_rows_are_algebraic_integers():
    rng = random.Random(1234)
    # every nontrivial denominator pattern shows up in this selection
    for label in ("E5", "E13", "E14", "E15", "E20", "E22", "F16", "F19",
                  "F22", "F23", "F26", "F27", "G4", "G6", "G7", "H11", "H12"):
        p, F = instance(label, rng)
        B = p_integral_basis(p, F)
        for i in range(6):
            g, t = B.element(i)
            assert is_integral(g, t, F.f), (label, i, g.coeffs, t)


def test_deep_case_parameters():
    rng = random.Random(4321)

    for _ in range(5):
        p, F = instance("E13", rng)
        label, prm = classify(2, F)
        a1 = F.a // 2
        assert prm["beta"] == Fraction(-6 * F.b, 5 * F.a)
        assert prm["s0"] == vp(F.D, 2) - 6 and prm["s1"] == vp(F.D, 2) - 5
        assert vp_fraction(F.f(prm["beta"]), 2) == prm["s0"]
        assert vp_fraction(F.f.derivative()(prm["beta"]), 2) == prm["s1"]
        mod = 2 ** prm["k0"]
        assert (5 * a1 * prm["x0"] + 3 * F.b) % mod == 0

    for _ in range(5):
        p, F = instance("E14", rng)
        _, prm = classify(2, F)
        a1 = F.a // 2
        k5 = (vp(F.D, 2) - 4) // 2
        assert prm["u"] == (vp(F.D, 2) - 6) // 2
        assert prm["delta"] == Fraction(2 ** prm["u"] - 3 * F.b, 5 * a1)
        assert (5 * a1 * prm["x1"] - 2 ** prm["u"] + 3 * F.b) % 2 ** k5 == 0

    for _ in range(5):
        p, F = instance("E15", rng)
        _, prm = classify(2, F)
        a1 = F.a // 2
        k5 = (vp(F.D, 2) - 6) // 2
        assert (5 * a1 * prm["x2"] + 3 * F.b) % 2 ** k5 == 0

    for _ in range(5):
        p, F = instance("F22", rng)
        _, prm = classify(3, F)
        a1 = F.a // 3
        assert (5 * a1 * prm["x1"] + 2 * F.b) % 9 == 0

    for case, xattr, kattr in (("F23", "x2", "k2"), ("F24", "x3", "k3")):
        for _ in range(5):
            p, F = instance(case, rng)
            _, prm = classify(3, F)
            a1 = F.a // 3
            x = prm[xattr]
            kk = prm[kattr]
            assert (5 * a1 * x + 2 * F.b) % 3 ** kk == 0

    for case, kattr, xattr in (("G6", "k0", "x0"), ("G7", "k1", "x1")):
        for _ in range(5):
            p, F = instance(case, rng)
            _, prm = classify(5, F)
            x = prm[xattr]
            kk = prm[kattr]
            assert (F.a * x + 6 * (F.b // 5)) % 5 ** kk == 0
            assert prm["r0"] >= 2 and prm["r1"] >= 2

    for case in ("H11", "H12"):
        for _ in range(5):
            p, F = instance(case, rng)
            _, prm = classify(p, F)
            mod = p ** prm["m"]
            x, y, z, v, w = prm["row_solution"]
            A5, B6 = 5 * F.a, 6 * F.b
            assert (6 * x - A5) % mod == 0
            assert (A5 ** 4 * y - B6 ** 4) % mod == 0
            assert (A5 ** 3 * z + B6 ** 3) % mod == 0
            assert (A5 ** 2 * v - B6 ** 2) % mod == 0
            assert (A5 * w + B6) % mod == 0


def test_unit_sign_cases():
    rng = random.Random(777)
    for _ in range(8):
        p, F = instance("F19", rng)
        _, prm = classify(3, F)
        assert prm["eps"] == (-1 if F.a % 9 == 3 else 1)
        B = p_integral_basis(3, F)
        e = prm["eps"] % 3
        assert B.rows[5] == (e, 1, e, 1, e)
    for _ in range(8):
        p, F = instance("F21", rng)
        _, prm = classify(3, F)
        assert prm["eps"] == (-1 if F.a % 9 == 6 else 1)


def test_regular_route_membership():
    assert "E2" in REGULAR_ROUTE and "E16" in REGULAR_ROUTE
    assert "E17" not in REGULAR_ROUTE and "E18" not in REGULAR_ROUTE
    assert "E1" not in REGULAR_ROUTE
    assert "F24" in REGULAR_ROUTE and "F25" not in REGULAR_ROUTE
    assert "G2" in REGULAR_ROUTE and "G22" in REGULAR_ROUTE
    assert "H2" in REGULAR_ROUTE and "H12" in REGULAR_ROUTE
    assert len(REGULAR_ROUTE) == 15 + 23 + 21 + 11


def test_ore_translations_map():
    rng = random.Random(31415)
    for label, attr in (("E13", "beta"), ("F22", "beta"), ("G6", "beta"),
                        ("H12", "beta"), ("E14", "delta"), ("E15", "delta")):
        p, F = instance(label, rng)
        _, prm = classify(p, F)
        assert ore_translations(prm) == (prm[attr],)
    p, F = instance("E5", rng)
    _, prm = classify(2, F)
    assert ore_translations(prm) == ()


def test_irreducibility_ladder():
    assert irreducibility_check(normalize(4, 4)).status == "irreducible"
    rep = irreducibility_check(normalize(4, 4))
    assert "degree-3" in rep.method or "divisible by 3" in rep.method

    rep = irreducibility_check(normalize(0, 12))
    assert rep.status == "irreducible"

    rep = irreducibility_check(normalize(2, 1))
    assert rep.status == "reducible"
    assert rep.witness == Poly((1, 1))

    rep = irreducibility_check(normalize(0, 8))
    assert rep.status == "reducible"
    assert rep.witness == Poly((2, 0, 1))

    rep = irreducibility_check(normalize(0, -16))
    assert rep.status == "reducible"
    assert rep.witness == Poly((-4, 0, 0, 1))

    rep = irreducibility_check(normalize(5, -2))
    assert rep.status == "reducible"
    q, r = trinomial(5, -2).divmod_by(rep.witness)
    assert r.is_zero()

    rep = irreducibility_check(normalize(-16, 16))
    assert rep.status == "reducible"
    assert rep.witness.degree == 3
    q, r = trinomial(-16, 16).divmod_by(rep.witness)
    assert r.is_zero()

    for a, b in ((7, 3), (1, 1), (-1, 1), (3, 5), (11, -7)):
        rep = irreducibility_check(normalize(a, b))
        assert rep.status == "irreducible", (a, b, rep.method)


def test_irreducibility_never_factors(monkeypatch):
    # a decision with `factor` raising shows that no rung factors b
    def refuse(n, *args, **kwargs):
        raise AssertionError(f"factor({n}) called")

    F = normalize(13257408, 36841224028491259417702852952)
    monkeypatch.setattr(sextic, "factor", refuse)
    rep = irreducibility_check(F)
    assert rep.status == "irreducible"
    assert rep.method.startswith("ramification at 2")


_SMALL_PRIMORIAL = math.prod(p for p in range(2, 100) if sympy.isprime(p))


def _quadratic_times_quartic(u, w):
    """(a, b) with (x^2 + u*x + w) * (monic quartic) = x^6 + a*x + b."""
    c2 = u * u - w
    c1 = -u * c2 + w * u
    c0 = -u * c1 - w * c2
    return u * c0 + w * c1, w * c0


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.tuples(st.integers(-400, 400), st.integers(-400, 400)),
        st.tuples(st.integers(-40, 40), st.integers(-40, 40).filter(bool)).map(
            lambda uw: _quadratic_times_quartic(*uw)
        ),
    )
)
@example((16, 16))
@example((-16, 16))
@example((6, 5 + _SMALL_PRIMORIAL))
@example(_quadratic_times_quartic(_SMALL_PRIMORIAL, _SMALL_PRIMORIAL))
def test_irreducibility_agrees_with_sympy(pair):
    try:
        F = normalize(*pair)
    except ValueError:
        return
    rep = irreducibility_check(F)
    x = sympy.Symbol("x")
    (_, e), *rest = sympy.factor_list(x ** 6 + F.a * x + F.b)[1]
    reducible = bool(rest) or e > 1
    assert rep.status == ("reducible" if reducible else "irreducible"), (pair, rep)
    if reducible:
        assert rep.witness.is_monic() and 1 <= rep.witness.degree <= 5
        assert F.f.divmod_by(rep.witness)[1].is_zero()


def test_irreducibility_beyond_the_sieve_primes():
    # D is divisible by every prime below 100, so no sieve prime is
    # usable and the lift runs modulo the first prime >= 101 prime to D
    F = normalize(6, 5 + _SMALL_PRIMORIAL)  # 5^5 (6s^5)^6 = 6^6 (5s^6)^5 at s = 1
    assert F.D % _SMALL_PRIMORIAL == 0
    assert irreducibility_check(F).method == (
        "no factor of degree 1, 2, 3 exists "
        "(exhaustive search over Hensel lifts modulo 101)"
    )


def test_irreducibility_witnesses_verify():
    # For any u, w there is a unique monic quartic cofactor making
    # (x^2 + u*x + w) * quartic a trinomial; sweep small parameters.
    found = 0
    for u in range(-6, 7):
        for w in range(-6, 7):
            if w == 0:
                continue
            g = Poly((w, u, 1))
            c2 = u * u - w
            c1 = -u * c2 - w * (-u)
            c0 = -u * c1 - w * c2
            h = Poly((c0, c1, c2, -u, 1))
            prod = g * h
            a, b = prod.coeffs[1], prod.coeffs[0]
            if b == 0 or trinomial(a, b) != prod:
                continue
            try:
                F = normalize(a, b)
            except ValueError:
                continue
            if (F.a, F.b) != (a, b):
                continue
            rep = irreducibility_check(F)
            assert rep.status == "reducible", (a, b)
            _, r = F.f.divmod_by(rep.witness)
            assert r.is_zero()
            found += 1
    assert found >= 20


def test_pure_sextic_worked_values():
    rep = pure_sextic_discriminant(135)
    assert (rep.r1, rep.r2) == (0, 7)
    assert rep.s_p == ((5, 5),)
    assert rep.d_K == -(3 ** 7) * 5 ** 5

    rep = pure_sextic_discriminant(12)
    assert (rep.r1, rep.r2) == (4, 11)
    assert rep.d_K == -(2 ** 4) * 3 ** 11

    rep = pure_sextic_discriminant(-7)
    assert rep.d_K > 0

    with pytest.raises(ValueError):
        pure_sextic_discriminant(1)       # x^6 + 1 is reducible
    with pytest.raises(ValueError):
        pure_sextic_discriminant(64)      # reducible and 2^6 | b
    with pytest.raises(ValueError):
        pure_sextic_discriminant(3 ** 6 * 5)
    with pytest.raises(ValueError):
        pure_sextic_discriminant(0)
