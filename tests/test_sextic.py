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
    irreducibility_check,
    normalize,
    ore_translations,
    p_integral_basis,
    reduce_triangular_rows,
    trinomial_discriminant,
)

from casegen import instance
from oracles import REGULAR_ROUTE, derivative, pure_sextic_discriminant
from polyref import poly_mul


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
    assert F.D >> vp(F.D, 2) == -(3 ** 11)


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
def test_normalize_below_10_36_finds_every_content_prime(
    c, d, content, zero_a, shared
):
    a, b = (0 if zero_a else c * shared), d * shared
    if max(abs(a), abs(b)) >= 10 ** 36:
        a, b = (0 if zero_a else c), d
    for q in content:
        if max(abs(a * q ** 5), abs(b * q ** 6)) < 10 ** 36:
            a, b = a * q ** 5, b * q ** 6
    try:
        F = normalize(a, b, factor_budget=10)
    except ValueError:  # zero discriminant
        return
    assert F.normalization == _content_by_sympy(a, b)
    scale = math.prod(q ** e for q, e in F.normalization)
    assert (F.a * scale ** 5, F.b * scale ** 6) == (a, b)
    assert F.unsplit_content == 1


def _handoff_pair(rng):
    """(a, b) = (g^i * u * h^s, g^j * v * h^s) for a prime g of 20 to 60
    bits, a prime h of 20 to 40 bits, s <= 2, i <= 6, j <= 7,
    |u|, |v| <= 99 and v != 0."""
    g = sympy.nextprime(rng.getrandbits(rng.randrange(20, 61)) | 1 << 19)
    h = sympy.nextprime(rng.getrandbits(rng.randrange(20, 41)) | 1 << 19)
    s = rng.randrange(3)
    u = rng.randrange(-99, 100)
    v = rng.choice([x for x in range(-99, 100) if x])
    return g ** rng.randrange(7) * u * h ** s, g ** rng.randrange(8) * v * h ** s


def check_gcd_handoff(count, seed):
    """On `count` seeded pairs from `_handoff_pair`, each at budgets 100
    and 10^4, `normalize` hands `assemble` the factorization of the
    normalized pair's gcd: the normalization rebuilds (a, b),
    `gcd_factors` multiplies out to gcd(F.a, F.b) and no prime of it
    divides its cofactor.  Where B = min(|b|^(1/6), |a|^(1/5)) <= 10^6,
    as on every pair below 10^36, it equals `factor` of that gcd under
    the same budget and `unsplit_content` is 1.  Pairs with a zero discriminant
    are skipped.  Returns how many runs stripped content.

    CI runs a draw of 2,000 as a step of its own with

        python -c "import sys; sys.path[:0] = ['tests'];
                   from test_sextic import check_gcd_handoff;
                   check_gcd_handoff(2000, 1)"
    """
    rng = random.Random(seed)
    stripped = 0
    for _ in range(count):
        a, b = _handoff_pair(rng)
        bound = exact.floor_root(abs(b), 6)
        if a:
            bound = min(bound, exact.floor_root(abs(a), 5))
        for budget in (100, 10 ** 4):
            try:
                F = normalize(a, b, factor_budget=budget)
            except ValueError:  # zero discriminant
                continue
            stripped += bool(F.normalization)
            scale = math.prod(q ** e for q, e in F.normalization)
            assert (F.a * scale ** 5, F.b * scale ** 6) == (a, b)
            gf = F.gcd_factors
            value = gf.cofactor * math.prod(q ** e for q, e in gf.factors)
            assert value == math.gcd(F.a, F.b), (a, b, budget)
            assert all(gf.cofactor % q for q in gf.primes()), (a, b, budget)
            if bound <= exact.TRIAL_LIMIT:
                assert gf == exact.factor(math.gcd(F.a, F.b), budget), (a, b)
                assert F.unsplit_content == 1
    return stripped


def test_gcd_handoff():
    # the draw strips content in 9 of its 80 runs
    assert check_gcd_handoff(40, 6) > 0


def test_normalize_rejects_degenerate():
    with pytest.raises(ValueError):
        normalize(0, 0)
    with pytest.raises(ValueError):
        normalize(3, 0)
    with pytest.raises(ValueError):
        normalize(6, 5)


def test_classify_worked_examples():
    F = normalize(0, 12)
    assert p_integral_basis(2, F).case == "E20"
    assert p_integral_basis(3, F).case == "F3"
    assert p_integral_basis(7, F).case == "H1"

    F = normalize(0, 135)
    assert p_integral_basis(2, F).case == "E17"
    B = p_integral_basis(3, F)
    assert B.case == "F26"
    assert B.params["B"] == 5
    assert p_integral_basis(5, F).case == "G8"

    F = normalize(4, 4)
    assert p_integral_basis(2, F).case == "E18"
    assert p_integral_basis(3, F).case == "F1"
    B = p_integral_basis(8539, F)
    assert B.case == "H12"
    assert B.params["m"] == 0

    with pytest.raises(ValueError):
        p_integral_basis(6, F)


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
            B = p_integral_basis(p, F)
            assert B.case == label
            assert vp(F.D, p) == B.v_D
            assert 2 * sum(B.k) + B.v_dK == B.v_D
            assert B.k[0] == 0
            assert all(B.k[i] <= B.k[i + 1] for i in range(5))
            # canonical coefficient ranges
            for i in range(6):
                for j, c in enumerate(B.rows[i]):
                    assert 0 <= c < p ** (B.k[i] - B.k[j])


def test_case_table_errors(monkeypatch):
    # x^6 + 2x + 2 is E2 at p = 2 (v_2(D) = 6, v_2(d_K) = 6, k = 0) and
    # x^6 + 2x + 4 is E4 (v_2(D) = 6, v_2(d_K) = 4, k_5 = 1)
    table = sextic._TABLES[2]
    rows = {row[0]: i for i, row in enumerate(table)}

    def patched(label, **change):
        i = rows[label]
        lab, pred, v_dK, k, built = table[i]
        row = (lab, pred, change.get("v_dK", v_dK), change.get("k", k), built)
        return table[:i] + (row,) + table[i + 1:]

    e2, e4 = normalize(2, 2), normalize(2, 4)
    assert p_integral_basis(2, e2).case == "E2"
    assert p_integral_basis(2, e4).case == "E4"

    monkeypatch.setitem(sextic._TABLES, 2, table + (("E2bis",) + table[rows["E2"]][1:],))
    with pytest.raises(InternalError, match=r"matched \['E2', 'E2bis'\]; expected exactly one"):
        p_integral_basis(2, e2)

    # the paper's v_2(D) = 6 for E2 follows from the index relation, so a
    # v_dK that is off by 2 cannot pass
    monkeypatch.setitem(sextic._TABLES, 2, patched("E2", v_dK=8))
    with pytest.raises(InternalError, match=r"case E2: 2\*0 \+ 8 != v_p\(D\) = 6"):
        p_integral_basis(2, e2)

    monkeypatch.setitem(sextic._TABLES, 2, patched("E4", k=(0, 0, 0, 0, 1, 0)))
    with pytest.raises(InternalError, match=r"case E4: exponent vector .* not monotone"):
        p_integral_basis(2, e4)


def test_basis_rows_are_algebraic_integers():
    rng = random.Random(1234)
    # every nontrivial denominator pattern shows up in this selection
    for label in ("E5", "E13", "E14", "E15", "E20", "E22", "F16", "F19",
                  "F22", "F23", "F26", "F27", "G4", "G6", "G7", "H11", "H12"):
        p, F = instance(label, rng)
        B = p_integral_basis(p, F)
        for i, (row, k) in enumerate(zip(B.rows, B.k)):
            g, t = Poly(row + (1,)), p ** k
            assert is_integral(g, t, F.f), (label, i, g.coeffs, t)


def test_deep_case_parameters():
    rng = random.Random(4321)

    for _ in range(5):
        p, F = instance("E13", rng)
        prm = p_integral_basis(2, F).params
        a1 = F.a // 2
        assert prm["beta"] == Fraction(-6 * F.b, 5 * F.a)
        assert prm["s0"] == vp(F.D, 2) - 6 and prm["s1"] == vp(F.D, 2) - 5
        assert vp_fraction(F.f(prm["beta"]), 2) == prm["s0"]
        assert vp_fraction(derivative(F.f)(prm["beta"]), 2) == prm["s1"]
        mod = 2 ** prm["k0"]
        assert (5 * a1 * prm["x0"] + 3 * F.b) % mod == 0

    for _ in range(5):
        p, F = instance("E14", rng)
        prm = p_integral_basis(2, F).params
        a1 = F.a // 2
        k5 = (vp(F.D, 2) - 4) // 2
        assert prm["u"] == (vp(F.D, 2) - 6) // 2
        assert prm["delta"] == Fraction(2 ** prm["u"] - 3 * F.b, 5 * a1)
        assert (5 * a1 * prm["x1"] - 2 ** prm["u"] + 3 * F.b) % 2 ** k5 == 0

    for _ in range(5):
        p, F = instance("E15", rng)
        prm = p_integral_basis(2, F).params
        a1 = F.a // 2
        k5 = (vp(F.D, 2) - 6) // 2
        assert (5 * a1 * prm["x2"] + 3 * F.b) % 2 ** k5 == 0

    for _ in range(5):
        p, F = instance("F22", rng)
        prm = p_integral_basis(3, F).params
        a1 = F.a // 3
        assert (5 * a1 * prm["x1"] + 2 * F.b) % 9 == 0

    for case, xattr, kattr in (("F23", "x2", "k2"), ("F24", "x3", "k3")):
        for _ in range(5):
            p, F = instance(case, rng)
            prm = p_integral_basis(3, F).params
            a1 = F.a // 3
            x = prm[xattr]
            kk = prm[kattr]
            assert (5 * a1 * x + 2 * F.b) % 3 ** kk == 0

    for case, kattr, xattr in (("G6", "k0", "x0"), ("G7", "k1", "x1")):
        for _ in range(5):
            p, F = instance(case, rng)
            prm = p_integral_basis(5, F).params
            x = prm[xattr]
            kk = prm[kattr]
            assert (F.a * x + 6 * (F.b // 5)) % 5 ** kk == 0
            assert prm["r0"] >= 2 and prm["r1"] >= 2

    for case in ("H11", "H12"):
        for _ in range(5):
            p, F = instance(case, rng)
            prm = p_integral_basis(p, F).params
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
        prm = p_integral_basis(3, F).params
        assert prm["eps"] == (-1 if F.a % 9 == 3 else 1)
        B = p_integral_basis(3, F)
        e = prm["eps"] % 3
        assert B.rows[5] == (e, 1, e, 1, e)
    for _ in range(8):
        p, F = instance("F21", rng)
        prm = p_integral_basis(3, F).params
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
        prm = p_integral_basis(p, F).params
        assert ore_translations(prm) == (prm[attr],)
    p, F = instance("E5", rng)
    prm = p_integral_basis(2, F).params
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


# (a, b) -> (method, witness coefficients or None), one or more fields
# ending at each rung of the ladder; the status follows from the witness
_LADDER_PINS = {
    (0, 12): ("binomial criterion: -b is neither a square nor a cube", None),
    (0, 8): ("binomial criterion", (2, 0, 1)),
    (2, 1): ("rational root", (1, 1)),
    (-40, -40): (
        "ramification at 2, 5 forces factor degrees divisible by 6, "
        "beyond any proper splitting", None,
    ),
    # narrowed by ramification, settled by the degree patterns
    (-40, -36): (
        "ramification at 2 forces factor degrees divisible by 3, "
        "and no degree-3 factor exists", None,
    ),
    # narrowed by ramification, settled by the Hensel lift modulo 7
    (13257408, 36841224028491259417702852952): (
        "ramification at 2 forces factor degrees divisible by 2, "
        "and no degree-2 factor exists", None,
    ),
    (-40, -37): ("irreducible modulo 3", None),
    (-40, -39): ("irreducible modulo 17", None),  # reducible modulo 3 .. 13
    (-40, -29): ("factor-degree patterns modulo small primes are incompatible", None),
    # two factors modulo 13, 17, 19 and 31 and three or more below 13:
    # the tie goes to the smallest prime
    (-40, -21): (
        "no factor of degree 2 exists "
        "(exhaustive search over Hensel lifts modulo 13)", None,
    ),
    (-25, 34): (
        "no factor of degree 2 exists "
        "(exhaustive search over Hensel lifts modulo 7)", None,
    ),
    (-40, 16): ("explicit degree-1 factor", (-2, 1)),  # lifted modulo 29
    (-33, 20): ("explicit degree-2 factor", (4, -1, 1)),
    (-10, -33): ("explicit degree-2 factor", (3, 2, 1)),  # a tie at 23, 29, 31
    (-16, 16): ("explicit degree-3 factor", (-4, 0, 2, 1)),
}


def test_irreducibility_method_pins():
    for (a, b), (method, witness) in _LADDER_PINS.items():
        rep = irreducibility_check(normalize(a, b))
        assert rep.method == method, (a, b, rep.method)
        if witness is None:
            assert rep.status == "irreducible" and rep.witness is None, (a, b)
        else:
            assert rep.status == "reducible", (a, b)
            assert rep.witness == Poly(witness), (a, b, rep.witness)


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
            prod = poly_mul(g, h)
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
