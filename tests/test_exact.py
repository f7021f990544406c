import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmat import mat_det
from oracles import is_prime_by_witnesses
from polyref import ext_gcd, hnf
from trialloop import factor_by_loop, trial_division_by_blocks

from sexticfield import cli, exact
from sexticfield.exact import (
    INF,
    InternalError,
    PrimeFactorization,
    crt_lift,
    factor,
    floor_root,
    is_prime,
    solve_linear_congruence,
    vp,
    vp_fraction,
)


def test_is_prime_small_scan():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 2000):
        if sieve[i]:
            for j in range(i * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert is_prime(n) == sieve[n], n


def test_is_prime_larger():
    assert is_prime(2 ** 89 - 1)
    assert is_prime(2 ** 107 - 1)
    assert not is_prime((2 ** 89 - 1) * (2 ** 107 - 1))
    assert is_prime(10 ** 18 + 9)
    assert not is_prime(10 ** 18 + 7)
    # Carmichael numbers must not fool it
    for n in (561, 41041, 825265, 321197185):
        assert not is_prime(n)


def test_is_prime_bpsw_at_the_bound():
    # the strong pseudoprime to every base 2..37 sets the bound itself,
    # so it is the first number that BPSW decides
    n = 3317044064679887385961981
    assert n == exact._MR_DETERMINISTIC_BOUND
    assert exact._miller_rabin(n, exact._SMALL_PRIMES)
    assert not exact._strong_lucas(n)
    assert not is_prime(n)


def test_strong_lucas_pseudoprimes():
    # the first strong Lucas pseudoprimes under Selfridge's method A:
    # the Lucas half passes them and the base-2 half catches each
    for n in (5459, 5777, 10877, 16109, 18971):
        assert exact._strong_lucas(n), n
        assert not exact._miller_rabin(n, (2,)), n
    for n in (5, 7, 11, 13, 10 ** 9 + 7, 2 ** 127 - 1):
        assert exact._strong_lucas(n), n


def test_is_prime_rejects_squares_above_the_bound():
    bound = exact._MR_DETERMINISTIC_BOUND
    above = next(q for q in range(bound + 2, bound + 10 ** 4, 2) if is_prime(q))
    # 2_000_000_000_003 is a prime whose square lies above the bound
    for p in (2_000_000_000_003, above, 2 ** 89 - 1, 2 ** 107 - 1):
        assert is_prime(p)
        assert not is_prime(p * p), p


def _drawn_prime(rng, bits):
    """The least prime above a random number of the given bit length."""
    q = rng.getrandbits(bits) | 1 << (bits - 1) | 1
    while not is_prime_by_witnesses(q):
        q += 2
    return q


def check_primality_agreement(count, seed):
    """`is_prime` (BPSW above the bound) agrees with Miller-Rabin to the
    50 prime bases below 230 on `count` seeded draws, a third each: odd
    numbers from 2^82 to 2^400, semiprimes whose factors both exceed
    2^41, and primes of 82 to 400 bits.  Returns how many draws were
    prime.

    CI runs a draw of 20,000 as a step of its own with

        python -c "import sys; sys.path[:0] = ['tests'];
                   from test_exact import check_primality_agreement;
                   check_primality_agreement(20000, 1)"
    """
    rng = random.Random(seed)
    primes = 0
    for i in range(count):
        if i % 3 == 0:
            n = rng.randrange(2 ** 82, 2 ** 400) | 1
        elif i % 3 == 1:
            n = _drawn_prime(rng, rng.randrange(42, 201))
            n *= _drawn_prime(rng, rng.randrange(42, 201))
        else:
            n = _drawn_prime(rng, rng.randrange(82, 401))
        want = is_prime_by_witnesses(n)
        assert is_prime(n) == want, n
        primes += want
    return primes


def test_bpsw_agrees_with_fifty_witnesses():
    assert check_primality_agreement(90, 13) >= 30


def test_vp():
    assert vp(48, 2) == 4
    assert vp(48, 3) == 1
    assert vp(-48, 2) == 4
    assert vp(1, 7) == 0
    assert vp(0, 5) == INF
    with pytest.raises(ValueError):
        vp(12, 4)


def test_vp_fraction():
    assert vp_fraction(Fraction(3, 8), 2) == -3
    assert vp_fraction(Fraction(-9, 5), 3) == 2
    assert vp_fraction(0, 2) == INF
    assert vp_fraction(6, 2) == 1


def test_ext_gcd():
    for a in range(-30, 30):
        for b in range(-30, 30):
            g, u, v = ext_gcd(a, b)
            assert g == math.gcd(a, b)
            assert u * a + v * b == g


def test_solve_linear_congruence_scan():
    # brute-force oracle over a grid
    for M in (1, 2, 3, 4, 8, 9, 12, 25, 27):
        for c in range(-6, 7):
            for d in range(-6, 7):
                want = next(
                    (x for x in range(M) if (c * x + d) % M == 0), None
                )
                if want is None:
                    with pytest.raises(ValueError):
                        solve_linear_congruence(c, d, M)
                else:
                    got = solve_linear_congruence(c, d, M)
                    assert got == want, (c, d, M)


def test_crt_lift():
    x = crt_lift([1, 2, 3], [2, 3, 5])
    assert x % 2 == 1 and x % 3 == 2 and x % 5 == 3
    assert 0 <= x < 30
    assert crt_lift([], []) == 0
    assert crt_lift([5], [8]) == 5
    with pytest.raises(ValueError):
        crt_lift([1, 2], [4, 6])


def _value(pf):
    """The integer a PrimeFactorization stands for."""
    return pf.cofactor * math.prod(p ** e for p, e in pf.factors)


def test_factor_basic():
    pf = factor(-546496)
    assert pf.factors == ((2, 6), (8539, 1))
    assert pf.cofactor == -1
    assert pf.complete
    assert _value(pf) == -546496

    pf = factor(2 ** 16 * 3 ** 11)
    assert pf.factors == ((2, 16), (3, 11))
    assert _value(pf) == 2 ** 16 * 3 ** 11


def test_factor_large_semiprime():
    p = 1_000_000_007
    q = 1_000_000_009
    pf = factor(p * q)
    assert pf.complete
    assert pf.factors == ((p, 1), (q, 1))


def test_factor_perfect_power():
    p = 1_000_003
    pf = factor(p ** 4)
    assert pf.factors == ((p, 4),)
    pf = factor(2 ** 60)
    assert pf.factors == ((2, 60),)
    # m**4 is far beyond the float range, so no float root may be taken
    m = next(q for q in range(10 ** 100 + 1, 10 ** 100 + 10 ** 4, 2) if is_prime(q))
    pf = factor(m ** 4)
    assert pf.factors == ((m, 4),)
    assert pf.complete
    # the exponent is a prime above 43
    pf = factor((1_000_003 * 1_000_033) ** 47, budget=10_000)
    assert pf.factors == ((1_000_003, 47), (1_000_033, 47))
    assert pf.complete
    # 2014 bits: the exponent 101 sits just below the bound (2014 - 1) // 19
    pf = factor(1_000_003 ** 101)
    assert pf.factors == ((1_000_003, 101),)
    assert pf.complete


def test_factor_budget_exhaustion():
    m1 = 2 ** 89 - 1
    m2 = 2 ** 107 - 1
    pf = factor(-(m1 * m2) * 12, budget=100)
    assert not pf.complete
    assert pf.factors == ((2, 2), (3, 1))
    assert pf.cofactor == -(m1 * m2)
    assert _value(pf) == -(m1 * m2) * 12
    # a semiprime with 11-digit factors does split under the default budget
    p, q = 10_000_000_019, 10_000_000_033
    pf2 = factor(p * q)
    assert pf2.complete
    assert pf2.factors == ((p, 1), (q, 1))


def test_factor_cofactor_shares_no_found_prime():
    # rho splits off 9347141 and then gives up on 9347141 * 903245859221;
    # the prime is divided out of that part, and the prime rest recorded
    pf = factor(9347141 ** 2 * 903245859221, budget=10_000)
    assert pf.factors == ((9347141, 2), (903245859221, 1))
    assert pf.complete
    # the same with a composite rest, which stays the cofactor
    p, q, r = 3903511, 787696415797, 9987305529521
    pf = factor(-(p ** 2) * q * r, budget=10_000)
    assert pf.factors == ((p, 2),)
    assert pf.cofactor == -q * r
    assert factor_by_loop(-(p ** 2) * q * r, budget=10_000) == pf


def test_factor_randomized_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2, 10 ** 12)
        if rng.random() < 0.5:
            n = -n
        pf = factor(n)
        assert pf.complete
        assert _value(pf) == n
        for p, e in pf.factors:
            assert is_prime(p)
            assert e >= 1


def _edge_primes():
    """The last prime below and the first prime from each of a few block starts."""
    out = []
    for k in (1, 2, 30, exact._BLOCKS - 1):
        lo = k * exact._BLOCK
        out.append(next(q for q in range(lo - 1, 1, -1) if is_prime(q)))
        out.append(next(q for q in range(lo, 2 * lo) if is_prime(q)))
    return out


_TRIAL_EDGE_CASES = [
    1, 2, 4, 16381, 16411,
    999_983, 999_983 ** 2, 1_000_003, 1_000_003 * 999_983,
    2 * 999_999_999_989, 3 ** 5 * 999_999_999_989, 10 ** 12, 10 ** 12 + 39,
    2 ** 16 * 3 ** 11, 7 ** 3 * 1_000_003 ** 2 * 1_000_033,
]


def test_trial_division_agrees_with_the_loop():
    cases = list(_TRIAL_EDGE_CASES)
    edges = _edge_primes()
    cases += edges
    cases += [p * 2 ** 5 * 3 for p in edges]
    cases += [p * q for p, q in zip(edges, edges[1:])]
    cases += [p ** 2 * 1_000_003 for p in edges[:4]]
    for n in cases:
        for m in (n, -n):
            # budget 1 leaves rho no room to make up for a missed trial prime
            for budget in (1, 5000):
                assert factor(m, budget) == factor_by_loop(m, budget), (m, budget)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(2, 1_100_000), max_size=4),
    st.integers(1, 10 ** 30),
    st.booleans(),
)
def test_trial_division_agrees_with_the_loop_drawn(parts, tail, negative):
    n = math.prod(parts) * tail
    if negative:
        n = -n
    assert factor(n, budget=2000) == factor_by_loop(n, budget=2000)


def test_trial_division_bound_and_leftover():
    found, rest = exact.trial_division(2 * 999_983)
    # the scan stops once lo*lo > rest, so the last prime may stay in rest
    assert found[0] == (2, 1)
    assert math.prod(p ** e for p, e in found) * rest == 2 * 999_983


def check_trial_division_agreement(count, seed):
    """`trial_division` returns what the gcd scan over whole block
    products returns, on fixed edge cases and on `count` seeded draws
    of n with 60 to 2000 bits: a random number times a few primes below
    1.1 * 10^6 to random powers.

    CI runs a draw of 20,000 as a step of its own with

        python -c "import sys; sys.path[:0] = ['tests'];
                   from test_exact import check_trial_division_agreement;
                   check_trial_division_agreement(20000, 1)"
    """
    first_of_last = next(
        q for q in range((exact._BLOCKS - 1) * exact._BLOCK, exact.TRIAL_LIMIT)
        if is_prime(q)
    )
    cases = [1, 2, 3, 16381, 2 * 16381, 999_983, first_of_last,
             2 * 999_983, first_of_last * 999_983 ** 3]
    rng = random.Random(seed)
    for _ in range(count):
        bits = rng.randrange(60, 2001)
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        for _ in range(rng.randrange(4)):
            start = rng.randrange(2, 1_100_000)
            q = next(q for q in itertools.count(start) if is_prime(q))
            n *= q ** rng.randrange(1, 4)
        cases.append(n)
    for n in cases:
        assert exact.trial_division(n) == trial_division_by_blocks(n), n


def test_trial_division_agrees_with_the_block_scan():
    check_trial_division_agreement(40, 13)


def test_block_products_are_built_lazily(monkeypatch, capsys):
    monkeypatch.setattr(exact, "_block_pieces", [])
    # the worked example (0, 12) has D = -2^16 * 3^11
    assert cli.run(["--a", "0", "--b", "12", "--json"]) == 0
    capsys.readouterr()
    assert len(exact._block_pieces) == 1
    factor(999_983 * 1_000_003)
    assert len(exact._block_pieces) == exact._BLOCKS
    primes = [p for k in range(exact._BLOCKS) for p in exact._block_primes(k)]
    assert len(primes) == 78498  # pi(10^6)
    assert primes[-1] == 999_983
    for k in range(exact._BLOCKS):
        pieces = exact._block_pieces[k]
        assert all(0 <= x < 2 ** exact._PIECE_BITS for x in pieces)
        assert sum(x << exact._PIECE_BITS * j for j, x in enumerate(pieces)) == (
            math.prod(exact._block_primes(k))
        )


def test_hnf_identity_lattice():
    H = hnf([[int(i == j) for j in range(4)] for i in range(4)])
    assert H == tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def test_hnf_known():
    assert hnf([(1, 2), (3, 4)]) == ((1, 0), (0, 2))
    # the lattice of 1, (1 + theta)/2, theta^2/3 over the common
    # denominator 6, given through a unimodular mix of its rows
    rows = [(9, 3, 0), (3, 3, 0), (3, 3, 2)]
    assert hnf(rows) == ((6, 0, 0), (3, 3, 0), (0, 0, 2))


def test_hnf_rectangular_and_errors():
    rows = [(2, 0), (0, 2), (1, 1)]
    assert hnf(rows) == ((2, 0), (1, 1))
    with pytest.raises(ValueError):
        hnf([(1, 2, 3), (2, 4, 6), (0, 0, 0)])
    with pytest.raises(ValueError):
        hnf([(1, 2)])


def test_hnf_refuses_non_integer_entries():
    for bad in (Fraction(1, 2), Fraction(1), 1.0):
        with pytest.raises(TypeError):
            hnf([(1, 0), (0, bad)])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    ),
    st.integers(1, 4),
)
def test_hnf_unimodular_invariance(mat, scale):
    # skip singular inputs
    if mat_det(mat) == 0:
        return
    rows = [[x * scale for x in row] for row in mat]
    H1 = hnf(rows)
    # multiply by a fixed unimodular matrix: same lattice, same HNF
    U = [(1, 2, 0), (0, 1, 0), (3, 5, 1)]
    mixed = [
        [sum(U[i][k] * rows[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    assert hnf(mixed) == H1
    # scaling the lattice scales its Hermite form
    assert H1 == tuple(tuple(x * scale for x in row) for row in hnf(mat))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(3, 6),
    st.integers(0, 3),
    st.lists(st.integers(-40, 40), min_size=54, max_size=54),
)
def test_hnf_spans_the_lattice_of_integer_rows(n, extra, entries):
    """With as many rows as columns or more, H is in Hermite form, every
    input row lies in the span of H, and det H is the gcd of the
    maximal minors, the covolume of the input lattice; so both lattices
    are one.  Rank-deficient input raises ValueError."""
    rows = [entries[i * n:(i + 1) * n] for i in range(n + extra)]
    covolume = math.gcd(*(
        int(mat_det(minor)) for minor in itertools.combinations(rows, n)
    ))
    if covolume == 0:
        with pytest.raises(ValueError):
            hnf(rows)
        return
    H = hnf(rows)
    for i in range(n):
        assert H[i][i] > 0
        assert all(x == 0 for x in H[i][i + 1:])
        assert all(0 <= H[i][j] < H[j][j] for j in range(i))
    assert math.prod(H[i][i] for i in range(n)) == covolume
    for row in rows:
        w = list(row)
        for k in range(n - 1, -1, -1):
            q, r = divmod(w[k], H[k][k])
            assert r == 0
            w = [x - q * y for x, y in zip(w, H[k])]
        assert not any(w)


def test_prime_factorization_record():
    pf = PrimeFactorization(factors=((2, 3), (5, 1)), cofactor=-1)
    assert pf.complete
    assert _value(pf) == -40
    assert pf.primes() == (2, 5)


def test_floor_root_small_exhaustive():
    for n in range(200):
        for k in range(1, 8):
            r = floor_root(n, k)
            assert r ** k <= n < (r + 1) ** k


def test_floor_root_large():
    for base in (10 ** 18 + 7, 2 ** 200 + 12345, 3 ** 97):
        for k in (2, 5, 6, 11):
            assert floor_root(base ** k, k) == base
            assert floor_root(base ** k - 1, k) == base - 1
            assert floor_root(base ** k + 1, k) == base
    with pytest.raises(ValueError):
        floor_root(-1, 2)
    with pytest.raises(ValueError):
        floor_root(10, 0)
