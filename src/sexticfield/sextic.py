"""Case analysis and p-integral bases for fields defined by x^6 + a*x + b.

Writing theta for a root of an irreducible trinomial f = x^6 + a*x + b,
the p-adic shape of the maximal order of Q(theta) is controlled by
valuation and congruence data of (a, b) alone.  This module turns that
data into concrete objects:

  * the discriminant D = 3125*a^6 - 46656*b^5 of f and the
    normalization step that strips p^5 | a, p^6 | b common content;
  * the 87-case classification as four tables, one per prime block:
    E1-E26 at p = 2, F1-F27 at p = 3, G1-G22 at p = 5 and H1-H12 for
    every larger prime;
  * an irreducibility test that always decides and names its argument:
    closed-form criteria for binomials, roots +-1 and ramification,
    factor-degree patterns modulo small primes, and finally one Hensel
    lift of f modulo a prime with an exhaustive search over products of
    the lifted factors.  It never factors b.

The closed form for the field discriminant of pure sextics x^6 + b, the
oracle for the a = 0 slice of the tables, is in `tests/oracles.py`.

Each table row is

    (label, predicate, v_p(d_K), k, rows)

`predicate` reads the local data of (a, b) at p: the valuations va, vb,
vD and the residues its block needs.  `k` is the exponent vector of the
triangular basis template

    alpha_i = (c_i0 + c_i1*theta + ... + theta^i) / p^k_i ;

a final None marks a deep row.  The paper's v_p(D) is not stored: the
index relation D = [O_K : Z[theta]]^2 * d_K gives
2*sum(k) + v_p(d_K) = v_p(D), which fixes the last exponent of a deep
row and is checked for every other row.  `rows` maps i to
c_i0 .. c_i,i-1 for the rows other than theta^i.  For the cases whose
rows or parameters depend on (a, b) it is a builder
(local data, k) -> (rows, params) instead; the parameters are
translation points, solutions of linear congruences and unit signs.

One evaluator, `p_integral_basis`, runs all four tables.  It computes the
local data once and insists on exactly one matching predicate.  It
checks the index relation and that k is monotone, and only then calls
the row's builder.  Any violation raises InternalError rather than
guessing.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from types import MappingProxyType, SimpleNamespace

from .exact import (
    FACTOR_BUDGET,
    INF,
    TRIAL_LIMIT,
    InternalError,
    PrimeFactorization,
    Record,
    factor,
    floor_root,
    is_prime,
    solve_linear_congruence,
    vp,
)
from .poly import (
    Poly,
    factor_degrees_mod_p,
    factor_mod_p,
    fp_add,
    fp_divmod,
    fp_inverse_mod,
    fp_mul,
    fp_sub,
    irreducible_mod_p,
    trinomial,
)

__all__ = [
    "TrinomialField",
    "PAdicBasis",
    "IrreducibilityReport",
    "CASE_LABELS",
    "normalize",
    "trinomial_discriminant",
    "p_integral_basis",
    "irreducibility_check",
    "ore_translations",
    "reduce_triangular_rows",
]


# ---------------------------------------------------------------------------
# the field object


class TrinomialField(Record):
    """A normalized trinomial x^6 + a*x + b with its discriminant data.

    `normalization` records the scaling steps applied to the input pair:
    (p, e) means theta was replaced by theta/p^e, i.e. (a, b) was divided
    by (p^(5e), p^(6e)), and `original` is the input pair before it.
    `unsplit_content` is the part of gcd(a, b) that normalization could
    not factor within its budget and that could hide content primes (1
    when every content prime is known).  `gcd_factors` factors gcd(a, b)
    of the normalized pair, read off normalization's factorization of
    the input's gcd.
    """

    __slots__ = (
        "a", "b", "f", "D", "normalization", "original", "unsplit_content",
        "gcd_factors",
    )
    a: int
    b: int
    f: Poly
    D: int
    normalization: tuple
    original: tuple
    unsplit_content: int
    gcd_factors: PrimeFactorization


def trinomial_discriminant(a: int, b: int) -> int:
    """disc(x^6 + a*x + b) = 3125*a^6 - 46656*b^5.

    Raises ValueError when the discriminant vanishes (repeated root, so
    the trinomial is degenerate and no field arises).
    """
    D = 3125 * a ** 6 - 46656 * b ** 5
    if D == 0:
        raise ValueError(
            f"x^6 + {a}*x + {b} has a repeated root (discriminant zero)"
        )
    return D


def normalize(a: int, b: int, factor_budget: int = FACTOR_BUDGET) -> TrinomialField:
    """Strip common p^5 | a, p^6 | b content and package the result.

    Replacing theta by theta/p turns x^6 + a*x + b into
    x^6 + (a/p^5)*x + b/p^6, which defines the same field; this is
    applied e_p = min(v_p(b) // 6, v_p(a) // 5) times at every prime p
    (e_p = v_p(b) // 6 when a = 0).  Such a p divides gcd(a, b), so the
    gcd goes to `factor` under `factor_budget` at every size.  A content
    prime is at most B = min(|b|^(1/6), |a|^(1/5)), and a part of the gcd
    that stays unsplit has no prime up to `TRIAL_LIMIT`, so content can
    hide there only when B > TRIAL_LIMIT; then the part is kept in
    `unsplit_content`, and content there is assumed absent.  The
    normalized pair's gcd divides the input's and loses only primes that
    `factor` found, so its factorization is read off that one and kept
    in `gcd_factors`.  b = 0 is rejected outright (x divides the
    trinomial).
    """
    if b == 0:
        raise ValueError("b = 0: x divides x^6 + a*x, so no sextic field arises")
    original = (a, b)
    bound = floor_root(abs(b), 6)
    if a != 0:
        bound = min(bound, floor_root(abs(a), 5))
    pf = factor(math.gcd(a, b), budget=factor_budget)
    applied = []
    for p in pf.primes():
        e = vp(b, p) // 6
        if a != 0:
            e = min(e, vp(a, p) // 5)
        if e:
            applied.append((p, e))
            a //= p ** (5 * e)
            b //= p ** (6 * e)
    g = math.gcd(a, b)
    found = tuple((p, vp(g, p)) for p in pf.primes() if g % p == 0)
    rest = g // math.prod(p ** e for p, e in found)
    return TrinomialField(
        a=a,
        b=b,
        f=trinomial(a, b),
        D=trinomial_discriminant(a, b),
        normalization=tuple(applied),
        original=original,
        unsplit_content=abs(pf.cofactor) if bound > TRIAL_LIMIT else 1,
        gcd_factors=PrimeFactorization(factors=found, cofactor=rest),
    )


# ---------------------------------------------------------------------------
# basis templates


class PAdicBasis(Record):
    """Triangular p-integral basis (c_i0 + ... + theta^i)/p^k_i.

    `rows` holds six coefficient tuples of lengths 0..5, already reduced
    to the canonical range 0 <= c_ij < p^(k_i - k_j).  `v_D` is v_p(D)
    and `v_dK` the case's v_p(d_K); `p_integral_basis` checks
    2*sum(k) + v_dK == v_D before it builds the rows.  `params` is a
    read-only mapping holding only the names the case sets (see the row
    builders), in a fixed order.
    """

    __slots__ = ("p", "case", "params", "k", "rows", "v_D", "v_dK")
    p: int
    case: str
    params: MappingProxyType
    k: tuple
    rows: tuple
    v_D: int
    v_dK: int

    @property
    def index_valuation(self) -> int:
        return sum(self.k)


def reduce_triangular_rows(rows, denominators):
    """Canonicalize triangular basis rows by subtracting earlier rows.

    rows[i] lists c_i0 .. c_{i,i-1} of (c_i0 + ... + theta^i)/t_i where
    t_i = denominators[i]; each t_j must divide t_i for j < i.  The
    result has every c_ij in [0, t_i // t_j), which pins the basis of
    the spanned lattice uniquely.
    """
    work = [list(r) for r in rows]
    for i in range(len(work)):
        ti = denominators[i]
        for j in range(i - 1, -1, -1):
            tj = denominators[j]
            if ti % tj:
                raise InternalError(
                    f"denominator tower broken: {tj} does not divide {ti}"
                )
            step = ti // tj
            q = work[i][j] // step
            if q:
                work[i][j] -= q * step
                for l in range(j):
                    work[i][l] -= q * step * work[j][l]
    return tuple(tuple(r) for r in work)


def _rows(nontrivial):
    base = [(0,) * i for i in range(6)]
    for i, r in nontrivial.items():
        if len(r) != i:
            raise InternalError(f"row {i} template has wrong length")
        base[i] = tuple(r)
    return tuple(base)


def _quintic_row(x):
    # (theta^5 + x*theta^4 + x^2*theta^3 + x^3*theta^2 + x^4*theta - 5x^5)
    return (-5 * x ** 5, x ** 4, x ** 3, x ** 2, x)


_ZERO_K = (0, 0, 0, 0, 0, 0)
_NO_PARAMS = MappingProxyType({})


def _params(**values):
    return MappingProxyType(values)


# ---------------------------------------------------------------------------
# row builders
#
# Parameter names: beta = -6b/(5a) is the translation point that resolves
# the repeated linear factor in the deep-discriminant cases; delta is its
# shifted variant for the even-discriminant branch at p = 2; s0, s1 are
# the valuations of f and f' at beta; x0..x3 are least non-negative
# solutions of the printed linear congruences, with k0..k3 their
# exponents; eps is a unit sign; B = b/27; r0, r1 are the two valuations
# steering the quintic 5-adic cases; m and row_solution size and fill the
# single nontrivial row at p > 5.  A builder sets only the names its case
# uses, in this order.


def _beta(c):
    return Fraction(-6 * c.b, 5 * c.a)


def _beta_residue(c, k5, shift=0):
    # least x >= 0 with 5a*x + 6b - g*shift = 0 mod g*p^k5, g = gcd(5a, p);
    # the deep rows have v_p(5a) = 1 at p = 2, 3, 5 and p prime to 5a
    # above, so shift = 0 gives beta reduced mod p^k5
    g = math.gcd(5 * c.a, c.p)
    return solve_linear_congruence(5 * c.a, 6 * c.b - g * shift, g * c.p ** k5)


def _e13(c, k):
    x = _beta_residue(c, k[5])
    prm = _params(beta=_beta(c), s0=c.vD - 6, s1=c.vD - 5, x0=x, k0=k[5])
    return {5: _quintic_row(x)}, prm


def _e14(c, k):
    u = (c.vD - 6) // 2
    x = _beta_residue(c, k[5], shift=2 ** u)
    prm = _params(beta=_beta(c), delta=Fraction(2 ** u - 3 * c.b, 5 * (c.a // 2)),
                  s0=c.vD - 6, s1=c.vD - 5, u=u, x1=x, k1=k[5])
    return {5: _quintic_row(x)}, prm


def _e15(c, k):
    u = (c.vD - 6) // 2
    x = _beta_residue(c, k[5])
    prm = _params(beta=_beta(c), delta=Fraction(2 ** u - 3 * c.b, 5 * (c.a // 2)),
                  s0=c.vD - 6, s1=c.vD - 5, u=u, x2=x, k2=k[5])
    return {5: _quintic_row(x)}, prm


def _unit_sign_row(eps):
    return {5: (eps, 1, eps, 1, eps)}, _params(eps=eps)


def _triadic_rows(c, k):
    # row 4 is (theta^4 - beta*theta^3 + beta*theta - 1)/3 with beta
    # reduced mod 3; beta = 1/(a/3) there, so the odd-degree signs
    # follow a mod 9 (theta -> -theta swaps the two branches)
    sgn = 1 if c.a % 9 == 3 else -1
    x = _beta_residue(c, k[5])
    return x, {4: (-1, sgn, 0, -sgn), 5: _quintic_row(x)}


def _f22(c, k):
    x, rows = _triadic_rows(c, k)
    return rows, _params(beta=_beta(c), s0=c.vD - 6, s1=c.vD - 5, x1=x)


def _f23(c, k):
    x, rows = _triadic_rows(c, k)
    return rows, _params(beta=_beta(c), s0=c.vD - 6, s1=c.vD - 5, x2=x, k2=k[5])


def _f24(c, k):
    x, rows = _triadic_rows(c, k)
    return rows, _params(beta=_beta(c), s0=c.vD - 6, s1=c.vD - 5, x3=x, k3=k[5])


def _f26(c, k):
    return {5: (0, 9 * c.B * c.B, 0, 6 * c.B, 0)}, _params(B=c.B)


def _f27(c, k):
    rows = {
        3: (0, 3 * c.B, 0),
        4: (9 * c.B * c.B, 0, 6 * c.B, 0),
        5: (0, 9 * c.B * c.B, 0, 6 * c.B, 0),
    }
    return rows, _params(B=c.B)


def _g_power(c, k):
    return {}, _params(r0=c.r0, r1=c.r1)


def _g_quintic(c, k):
    return {5: (0, 1, -c.a ** 3, c.a * c.a, -c.a)}, _params(r0=c.r0, r1=c.r1)


def _g_rows(c, x):
    return {4: (0, -4 * c.a ** 3, 3 * c.a * c.a, -2 * c.a), 5: _quintic_row(x)}


def _g6(c, k):
    x = _beta_residue(c, k[5])
    s = c.vD - 5
    return _g_rows(c, x), _params(beta=_beta(c), s0=s, s1=s, x0=x, r0=c.r0, r1=c.r1, k0=k[5])


def _g7(c, k):
    x = _beta_residue(c, k[5])
    s = c.vD - 5
    return _g_rows(c, x), _params(beta=_beta(c), s0=s, s1=s, x1=x, r0=c.r0, r1=c.r1, k1=k[5])


def _h_deep(c, k):
    # the quintic row at beta = -6b/(5a): f'(beta) = D/(5a)^5, so
    # beta^5 = -a/6 mod p^vD and the row's constant -5*beta^5 is 5a/6
    m = k[5]
    row = tuple(r % c.p ** m for r in _quintic_row(_beta_residue(c, m)))
    return {5: row}, _params(beta=_beta(c), m=m, row_solution=row)


# ---------------------------------------------------------------------------
# the tables: (label, predicate, v_p(d_K), k, rows); v_p(D) = 2*sum(k) + v_p(d_K)

_DEEP_K = (0, 0, 0, 0, 0, None)
_DEEP_K4 = (0, 0, 0, 0, 1, None)

_TABLE_2 = (
    ("E1", lambda c: c.va == 0, 0, _ZERO_K, {}),
    ("E2", lambda c: c.vb == 1 and c.va == 1, 6, _ZERO_K, {}),
    ("E3", lambda c: c.vb == 1 and c.va >= 2, 11, _ZERO_K, {}),
    ("E4", lambda c: c.vb >= 2 and c.va == 1, 4, (0, 0, 0, 0, 0, 1), {}),
    ("E5", lambda c: c.vb >= 3 and c.va == 2, 4, (0, 0, 0, 1, 1, 2), {}),
    ("E6", lambda c: c.vb == 3 and c.va == 3, 6, (0, 0, 1, 1, 2, 2), {}),
    ("E7", lambda c: c.vb == 3 and c.va >= 4, 9, (0, 0, 1, 1, 2, 2), {}),
    ("E8", lambda c: c.vb >= 4 and c.va == 3, 4, (0, 0, 1, 1, 2, 3), {}),
    ("E9", lambda c: c.vb >= 5 and c.va == 4, 4, (0, 0, 1, 2, 3, 4), {}),
    ("E10", lambda c: c.vb == 5 and c.va == 5, 10, (0, 0, 1, 2, 3, 4), {}),
    ("E11", lambda c: c.vb == 5 and c.va >= 6, 11, (0, 0, 1, 2, 3, 4), {}),
    ("E12", lambda c: c.va == 1 and c.b4 == 3, 7, _ZERO_K, {}),
    ("E13", lambda c: c.va == 1 and c.b4 == 1 and c.vD % 2 == 1, 7, _DEEP_K, _e13),
    # D2 mod 4 detects how far the dyadic double root refines: residue 3
    # forces v2(f(delta)) >= 2u+2 (row denominator 2^(u+1) works), while
    # residue 1 caps v2(f(delta)) at 2u+1 (denominator only 2^u).
    ("E14", lambda c: c.va == 1 and c.b4 == 1 and c.vD % 2 == 0 and c.D2 % 4 == 3,
     4, _DEEP_K, _e14),
    ("E15", lambda c: c.va == 1 and c.b4 == 1 and c.vD % 2 == 0 and c.D2 % 4 == 1,
     6, _DEEP_K, _e15),
    ("E16", lambda c: c.va >= 2 and c.b4 == 1, 6, _ZERO_K, {}),
    ("E17", lambda c: c.va >= 2 and c.b4 == 3, 0, (0, 0, 0, 1, 1, 1),
     {3: (1, 0, 0), 4: (0, 1, 0, 0), 5: (0, 0, 1, 0, 0)}),
    ("E18", lambda c: c.vb == 2 and c.va == 2, 6, (0, 0, 0, 1, 1, 1), {}),
    ("E19", lambda c: c.vb == 2 and c.va == 3 and c.bq == 3, 6, (0, 0, 0, 1, 2, 2),
     {4: (0, 2, 0, 0), 5: (0, 0, 2, 0, 0)}),
    ("E20", lambda c: c.vb == 2 and c.va >= 4 and c.bq == 3, 4, (0, 0, 0, 2, 2, 2),
     {3: (2, 0, 0), 4: (0, 2, 0, 0), 5: (0, 0, 2, 0, 0)}),
    ("E21", lambda c: c.vb == 2 and c.va >= 3 and c.bq == 1, 8, (0, 0, 0, 1, 1, 2),
     {5: (0, 0, 2, 0, 0)}),
    ("E22", lambda c: c.vb == 4 and c.va == 4 and c.bs == 1, 4, (0, 0, 1, 2, 3, 4),
     {4: (0, 4, 0, 0), 5: (0, 8, 4, 0, 0)}),
    ("E23", lambda c: c.vb == 4 and c.va == 4 and c.bs == 3, 6, (0, 0, 1, 2, 3, 3),
     {4: (0, 4, 0, 0), 5: (0, 0, 4, 0, 0)}),
    ("E24", lambda c: c.vb == 4 and c.va == 5 and c.bs == 3, 6, (0, 0, 1, 2, 3, 4),
     {4: (0, 4, 0, 0), 5: (0, 0, 4, 0, 0)}),
    ("E25", lambda c: c.vb == 4 and c.va >= 6 and c.bs == 3, 4, (0, 0, 1, 3, 3, 4),
     {3: (4, 0, 0), 4: (0, 4, 0, 0), 5: (0, 0, 4, 0, 0)}),
    ("E26", lambda c: c.vb == 4 and c.va >= 5 and c.bs == 1, 8, (0, 0, 1, 2, 3, 3),
     {4: (0, 4, 0, 0)}),
)

_TABLE_3 = (
    ("F1", lambda c: c.va == 0, 0, _ZERO_K, {}),
    ("F2", lambda c: c.vb == 1 and c.va == 1, 6, _ZERO_K, {}),
    ("F3", lambda c: c.vb == 1 and c.va >= 2, 11, _ZERO_K, {}),
    ("F4", lambda c: c.vb >= 2 and c.va == 1, 4, (0, 0, 0, 0, 0, 1), {}),
    ("F5", lambda c: c.vb == 2 and c.va == 2, 6, (0, 0, 0, 1, 1, 1), {}),
    ("F6", lambda c: c.vb == 2 and c.va >= 3, 10, (0, 0, 0, 1, 1, 1), {}),
    ("F7", lambda c: c.vb >= 3 and c.va == 2, 4, (0, 0, 0, 1, 1, 2), {}),
    ("F8", lambda c: c.vb >= 4 and c.va == 3, 4, (0, 0, 1, 1, 2, 3), {}),
    ("F9", lambda c: c.vb == 4 and c.va == 4, 8, (0, 0, 1, 2, 2, 3), {}),
    ("F10", lambda c: c.vb == 4 and c.va >= 5, 10, (0, 0, 1, 2, 2, 3), {}),
    ("F11", lambda c: c.vb >= 5 and c.va == 4, 4, (0, 0, 1, 2, 3, 4), {}),
    ("F12", lambda c: c.vb == 5 and c.va == 5, 10, (0, 0, 1, 2, 3, 4), {}),
    ("F13", lambda c: c.vb == 5 and c.va >= 6, 11, (0, 0, 1, 2, 3, 4), {}),
    ("F14", lambda c: c.va == 1 and c.b9 % 3 == 1, 6, _ZERO_K, {}),
    ("F15", lambda c: c.va >= 2 and c.vb == 0 and c.b9 in (4, 7), 6, _ZERO_K, {}),
    ("F16", lambda c: c.va >= 2 and c.vb == 0 and c.b9 == 1, 2, (0, 0, 0, 0, 1, 1),
     {4: (1, 0, -1, 0), 5: (0, 1, 0, -1, 0)}),
    ("F17", lambda c: c.va >= 2 and c.vb == 0 and c.b9 in (2, 5), 6, _ZERO_K, {}),
    ("F18", lambda c: c.va >= 2 and c.vb == 0 and c.b9 == 8, 2, (0, 0, 0, 0, 1, 1),
     {4: (1, 0, 1, 0), 5: (0, 1, 0, 1, 0)}),
    # unit sign: -1 when a = 3 (mod 9), +1 when a = -3 (mod 9)
    ("F19", lambda c: c.va == 1 and c.b9 == 2, 5, (0, 0, 0, 0, 0, 1),
     lambda c, k: _unit_sign_row(-1 if c.a % 9 == 3 else 1)),
    ("F20", lambda c: c.va == 1 and c.b9 == 8, 7, _ZERO_K, {}),
    # unit sign: -1 when a = -3 (mod 9), +1 when a = 3 (mod 9)
    ("F21", lambda c: c.va == 1 and c.b9 == 5 and c.vD == 8, 6, (0, 0, 0, 0, 0, 1),
     lambda c, k: _unit_sign_row(-1 if c.a % 9 == 6 else 1)),
    ("F22", lambda c: c.va == 1 and c.b9 == 5 and c.vD == 9, 3, (0, 0, 0, 0, 1, 2), _f22),
    ("F23", lambda c: c.va == 1 and c.b9 == 5 and c.vD >= 10 and c.vD % 2 == 0,
     4, _DEEP_K4, _f23),
    ("F24", lambda c: c.va == 1 and c.b9 == 5 and c.vD >= 11 and c.vD % 2 == 1,
     3, _DEEP_K4, _f24),
    ("F25", lambda c: c.vb == 3 and c.va == 3, 6, (0, 0, 1, 1, 2, 2), {}),
    ("F26", lambda c: c.vb == 3 and c.va >= 4 and c.vBB == 1, 7, (0, 0, 1, 1, 2, 3), _f26),
    ("F27", lambda c: c.vb == 3 and c.va >= 4 and (c.vBB is not None and c.vBB >= 2),
     3, (0, 0, 1, 2, 3, 3), _f27),
)

_TABLE_5 = (
    ("G1", lambda c: c.vb == 0, 0, _ZERO_K, {}),
    ("G2", lambda c: c.vb == 1 and c.va == 0 and c.r0 == 1 and c.r1 == 1
     and not c.square_match, 5, _ZERO_K, _g_power),
    ("G3", lambda c: c.vb == 1 and c.va == 0 and c.r0 == 1 and c.r1 == 1
     and c.square_match, 6, _ZERO_K, _g_power),
    ("G4", lambda c: c.vb == 1 and c.va == 0 and c.r0 >= 2 and c.r1 == 1,
     3, (0, 0, 0, 0, 0, 1), _g_quintic),
    ("G5", lambda c: c.vb == 1 and c.va == 0 and c.r0 == 1 and c.r1 >= 2,
     5, _ZERO_K, _g_power),
    ("G6", lambda c: c.vb == 1 and c.va == 0 and c.r0 >= 2 and c.r1 >= 2 and c.vD % 2 == 1,
     3, _DEEP_K4, _g6),
    ("G7", lambda c: c.vb == 1 and c.va == 0 and c.r0 >= 2 and c.r1 >= 2 and c.vD % 2 == 0,
     2, _DEEP_K4, _g7),
    ("G8", lambda c: c.vb == 1 and c.va >= 1, 5, _ZERO_K, {}),
    ("G9", lambda c: c.vb >= 2 and c.va == 0 and c.a4 != 1, 5, _ZERO_K, _g_power),
    ("G10", lambda c: c.vb >= 2 and c.va == 0 and c.a4 == 1, 3, (0, 0, 0, 0, 0, 1),
     _g_quintic),
    ("G11", lambda c: c.vb == 2 and c.va == 1, 8, (0, 0, 0, 0, 0, 1), {}),
    ("G12", lambda c: c.vb == 2 and c.va >= 2, 4, (0, 0, 0, 1, 1, 1), {}),
    ("G13", lambda c: c.vb >= 3 and c.va == 1, 9, (0, 0, 0, 0, 0, 1), {}),
    ("G14", lambda c: c.vb == 3 and c.va == 2, 7, (0, 0, 0, 1, 1, 2), {}),
    ("G15", lambda c: c.vb == 3 and c.va >= 3, 3, (0, 0, 1, 1, 2, 2), {}),
    ("G16", lambda c: c.vb >= 4 and c.va == 2, 9, (0, 0, 0, 1, 1, 2), {}),
    ("G17", lambda c: c.vb == 4 and c.va == 3, 6, (0, 0, 1, 1, 2, 3), {}),
    ("G18", lambda c: c.vb == 4 and c.va >= 4, 4, (0, 0, 1, 2, 2, 3), {}),
    ("G19", lambda c: c.vb >= 5 and c.va == 3, 9, (0, 0, 1, 1, 2, 3), {}),
    ("G20", lambda c: c.vb == 5 and c.va == 4, 5, (0, 0, 1, 2, 3, 4), {}),
    ("G21", lambda c: c.vb == 5 and c.va >= 5, 5, (0, 0, 1, 2, 3, 4), {}),
    ("G22", lambda c: c.vb >= 6 and c.va == 4, 9, (0, 0, 1, 2, 3, 4), {}),
)

_TABLE_LARGE = (
    ("H1", lambda c: (c.vb == 0 and c.va >= 1) or (c.va == 0 and c.vb >= 1),
     0, _ZERO_K, {}),
    ("H2", lambda c: c.vb == 1 and c.va >= 1, 5, _ZERO_K, {}),
    ("H3", lambda c: c.va == 1 and c.vb >= 2, 4, (0, 0, 0, 0, 0, 1), {}),
    ("H4", lambda c: c.vb == 2 and c.va >= 2, 4, (0, 0, 0, 1, 1, 1), {}),
    ("H5", lambda c: c.va == 2 and c.vb >= 3, 4, (0, 0, 0, 1, 1, 2), {}),
    ("H6", lambda c: c.vb == 3 and c.va >= 3, 3, (0, 0, 1, 1, 2, 2), {}),
    ("H7", lambda c: c.va == 3 and c.vb >= 4, 4, (0, 0, 1, 1, 2, 3), {}),
    ("H8", lambda c: c.vb == 4 and c.va >= 4, 4, (0, 0, 1, 2, 2, 3), {}),
    ("H9", lambda c: c.va == 4 and c.vb >= 5, 4, (0, 0, 1, 2, 3, 4), {}),
    ("H10", lambda c: c.vb == 5 and c.va >= 5, 5, (0, 0, 1, 2, 3, 4), {}),
    ("H11", lambda c: c.va == 0 and c.vb == 0 and c.vD % 2 == 0, 0, _DEEP_K, _h_deep),
    ("H12", lambda c: c.va == 0 and c.vb == 0 and c.vD % 2 == 1, 1, _DEEP_K, _h_deep),
)

_TABLES = {2: _TABLE_2, 3: _TABLE_3, 5: _TABLE_5}

CASE_LABELS = tuple(
    row[0] for table in (_TABLE_2, _TABLE_3, _TABLE_5, _TABLE_LARGE) for row in table
)

# ---------------------------------------------------------------------------
# the evaluator


def _local_data(p, field, vD):
    """Valuations and residues of (a, b) at p that the table of p reads."""
    a, b = field.a, field.b
    va, vb = vp(a, p), vp(b, p)
    c = SimpleNamespace(p=p, a=a, b=b, va=va, vb=vb, vD=vD)
    if p == 2:
        c.D2 = field.D >> vD  # odd part of D, sign included
        c.b4 = b % 4
        c.bq = (b // 4) % 4 if vb >= 2 else None
        c.bs = (b // 16) % 4 if vb >= 4 else None
    elif p == 3:
        c.b9 = b % 9
        c.B = b // 27 if vb >= 3 else None
        c.vBB = vp(c.B ** 3 - c.B, 3) if vb >= 3 else None
    elif p == 5:
        if va == 0:
            c.a4 = pow(a, 4, 25)
            c.r0 = vp(b + a ** 6 - a * a, 5)
            c.r1 = vp(a - 6 * a ** 5, 5)
        else:
            c.a4 = c.r0 = c.r1 = None
        c.square_match = va == 0 and vb == 1 and (a * a - b // 5) % 5 == 0
    return c


def p_integral_basis(p: int, field: TrinomialField) -> PAdicBasis:
    """Triangular basis of the p-maximal order containing Z[theta].

    The one evaluator of the case tables: exactly one row of the table
    of p must match, and its index relation and exponent vector are
    checked before its builder runs.  When p does not divide D the
    block's trivial case is returned without consulting the predicates.
    """
    table = _TABLES.get(p, _TABLE_LARGE)
    vD = vp(field.D, p)
    if vD == 0:
        # p does not divide D: Z[theta] is already p-maximal, the block's
        # first row
        return PAdicBasis(p, table[0][0], _NO_PARAMS, _ZERO_K, _rows({}), 0, 0)
    c = _local_data(p, field, vD)
    matched = [row for row in table if row[1](c)]
    if len(matched) != 1:
        raise InternalError(
            f"case dispatch at p={p} for (a, b) = ({field.a}, {field.b}) "
            f"matched {[row[0] for row in matched]!r}; expected exactly one case"
        )
    label, _, v_dK, k, rows = matched[0]
    if k[5] is None:
        k = k[:5] + ((vD - v_dK) // 2 - sum(k[:5]),)
    if 2 * sum(k) + v_dK != vD:
        raise InternalError(f"case {label}: 2*{sum(k)} + {v_dK} != v_p(D) = {vD}")
    if k[0] != 0 or any(k[i] > k[i + 1] for i in range(5)):
        raise InternalError(f"case {label}: exponent vector {k} not monotone")
    params = _NO_PARAMS
    if callable(rows):
        rows, params = rows(c, k)
    rows = reduce_triangular_rows(_rows(rows), tuple(p ** e for e in k))
    return PAdicBasis(p, label, params, k, rows, vD, v_dK)


def ore_translations(params):
    """Translation points that resolve the case's repeated linear factor.

    Feeding these to the polygon machinery reproduces the exact index
    valuation for every case on the regular route.  They are delta where
    the case sets it (at p = 2 beta alone leaves a repeated residual
    root; the polygon only separates once the root is refined to delta),
    else beta where the case sets it; other cases need no translation.
    """
    for name in ("delta", "beta"):
        if name in params:
            return (params[name],)
    return ()


# ---------------------------------------------------------------------------
# irreducibility over Q


class IrreducibilityReport(Record):
    """Outcome of the irreducibility test.

    status is "irreducible" or "reducible"; `method` names the deciding
    argument, and `witness` holds a proper monic factor when status is
    "reducible".
    """

    __slots__ = ("status", "method", "witness")
    status: str
    method: str
    witness: Poly | None
    _defaults = {"witness": None}


def _capelli_witness(b):
    """A proper factor of x^6 + b, or None when it is irreducible.

    A binomial x^6 - c is irreducible over Q exactly when c is neither
    a square nor a cube (the -4c^4 obstruction needs 4 | 6).
    """
    c = -b
    if c > 0:
        s = math.isqrt(c)
        if s * s == c:
            return Poly((-s, 0, 0, 1))
    r = floor_root(abs(c), 3)
    r = r if c >= 0 else -r
    for cand in (r - 1, r, r + 1):
        if cand ** 3 == c:
            return Poly((-cand, 0, 1))
    return None


_SIEVE_PRIMES = tuple(p for p in range(2, 101) if is_prime(p))
_DIRECT_PRIMES = tuple(p for p in _SIEVE_PRIMES if p <= 37)


def _hensel_step(f, g, h, s, t, m):
    """Lift f = g*h, s*g + t*h = 1 from modulus m to m^2; h monic.

    von zur Gathen and Gerhard, Modern Computer Algebra, Algorithm 15.10,
    on int lists reduced mod m^2.
    """
    m *= m
    e = fp_sub(m, f, fp_mul(m, g, h))
    q, r = fp_divmod(m, fp_mul(m, s, e), h)
    g = fp_add(m, fp_mul(m, g, fp_add(m, q, [1])), fp_mul(m, t, e))
    h = fp_add(m, h, r)
    c = fp_sub(m, fp_add(m, fp_mul(m, s, g), fp_mul(m, t, h)), [1])
    q, r = fp_divmod(m, fp_mul(m, s, c), h)
    t = fp_sub(m, t, fp_add(m, fp_mul(m, t, c), fp_mul(m, q, g)))
    return g, h, fp_sub(m, s, r), t


def _hensel_lift(f, factors, p, M):
    """Monic lifts modulo M = p^(2^j) of the factors of a squarefree f mod p.

    Each factor in turn is split off the product of the ones after it,
    and the pair is lifted quadratically from p to M.  Polynomials are
    int lists.
    """
    lifts = []
    f = list(f.coeffs)
    for i, g in enumerate(factors[:-1]):
        g = list(g)
        h = [1]
        for other in factors[i + 1:]:
            h = fp_mul(p, h, other)
        s = fp_inverse_mod(p, g, h)
        t, _ = fp_divmod(p, fp_sub(p, [1], fp_mul(p, s, g)), h)
        m = p
        while m < M:
            g, h, s, t = _hensel_step(f, g, h, s, t, m)
            m *= m
        lifts.append(g)
        f = h
    return lifts + [f]


def _lifted_factor(f, factors, p, need, bound):
    """A monic factor of f of a degree in `need`, or None if none exists.

    `factors` are the factors of f modulo p, which must not divide
    disc(f).  A monic integer factor g of f is congruent modulo M to the
    product of some of their lifts, and once M > 2*bound, bound covering
    its coefficients, the symmetric residues of that product are g.
    """
    M = p
    while M <= 2 * bound:
        M *= M
    lifts = _hensel_lift(f, [g for g, _ in factors], p, M)
    for deg in need:
        for size in range(1, deg + 1):
            for combo in itertools.combinations(lifts, size):
                if sum(len(g) - 1 for g in combo) != deg:
                    continue
                cand = [1]
                for g in combo:
                    cand = fp_mul(M, cand, g)
                cand = Poly(tuple(c - M if 2 * c > M else c for c in cand))
                if f.divmod_by(cand)[1].is_zero():
                    return cand
    return None


def irreducibility_check(field: TrinomialField) -> IrreducibilityReport:
    """Decide irreducibility of x^6 + a*x + b with a certificate.

    The ladder: binomial criterion for a = 0; rational roots +-1; the
    ramification bound (a prime with 6*v_p(a) >= 5*v_p(b) >= 5 forces
    every factor degree to be a multiple of 6/gcd(6, v_p(b)), which
    either proves irreducibility outright or narrows the possible
    degrees); direct irreducibility modulo a prime up to 37, skipped
    when ramification narrowed the degrees; intersection of
    factor-degree patterns modulo primes not dividing D; finally one
    Hensel lift of the factorization of f modulo a prime p not dividing
    D and an exhaustive search over the products of its lifted factors
    (Zassenhaus).  The direct rung stops each distinct-degree
    factorization modulo p at its first nontrivial gcd, the pattern rung
    counts factor degrees without splitting them, and only the Hensel
    prime, the one with the fewest factors (the smallest on a tie), is
    factored completely.  Every answer is proven; b is never factored.
    """
    a, b = field.a, field.b
    f = field.f

    if a == 0:
        witness = _capelli_witness(b)
        if witness is not None:
            return IrreducibilityReport("reducible", "binomial criterion", witness)
        return IrreducibilityReport(
            "irreducible", "binomial criterion: -b is neither a square nor a cube"
        )

    for r in (1, -1):
        if f(r) == 0:
            return IrreducibilityReport("reducible", "rational root", Poly((-r, 1)))

    possible = {1, 2, 3, 4, 5}
    forced = 1
    forcing = []
    for p in _DIRECT_PRIMES:
        vb = vp(b, p)
        if vb == 0 or vb == INF:
            continue
        va = vp(a, p)
        if 6 * va >= 5 * vb:
            e = 6 // math.gcd(6, vb)
            forcing.append(p)
            forced = forced * e // math.gcd(forced, e)
    ramified = None
    if forced > 1:
        at = ", ".join(str(p) for p in forcing)
        possible = {dgr for dgr in possible if dgr % forced == 0}
        if not possible:
            return IrreducibilityReport(
                "irreducible",
                f"ramification at {at} forces factor degrees "
                f"divisible by {forced}, beyond any proper splitting",
            )
        ramified = (
            f"ramification at {at} forces factor degrees divisible "
            f"by {forced}, and no degree-{forced} factor exists"
        )

    # primes not dividing D that a rung looked at, all in ascending order
    tried = []
    degrees = {}  # p -> factor degrees of f modulo p, for p in tried

    def degrees_mod(p):
        if p not in degrees:
            degrees[p] = factor_degrees_mod_p(f, p)
        return degrees[p]

    if ramified is None:
        # a monic f that is irreducible modulo a prime is irreducible
        for p in _DIRECT_PRIMES:
            if field.D % p:
                tried.append(p)
                if irreducible_mod_p(f, p):
                    return IrreducibilityReport("irreducible", f"irreducible modulo {p}")

    used = 0
    for p in _SIEVE_PRIMES:
        if field.D % p == 0:
            continue
        if p not in tried:
            tried.append(p)
        sums = {0}
        for dgr in degrees_mod(p):
            sums |= {s + dgr for s in sums}
        possible &= sums
        used += 1
        if not possible or used >= 8:
            break
    if not possible:
        return IrreducibilityReport(
            "irreducible",
            ramified or "factor-degree patterns modulo small primes are incompatible",
        )

    need = sorted({min(dgr, 6 - dgr) for dgr in possible})
    if tried:
        # fewest factors, the smallest prime on a tie
        p = min(tried, key=lambda q: len(degrees_mod(q)))
    else:
        p = next(q for q in itertools.count(101) if field.D % q and is_prime(q))
    # Fujiwara's bound R on the roots; a monic factor of degree <= 3
    # has coefficients of size at most 3R^3
    R = 2 * max(floor_root(abs(a), 5) + 1, floor_root(abs(b), 6) + 1)
    witness = _lifted_factor(f, factor_mod_p(f, p)[1], p, need, 3 * R ** 3)
    if witness is not None:
        return IrreducibilityReport(
            "reducible", f"explicit degree-{witness.degree} factor", witness
        )
    degrees_txt = ", ".join(str(d) for d in need)
    return IrreducibilityReport(
        "irreducible",
        ramified or f"no factor of degree {degrees_txt} exists "
        f"(exhaustive search over Hensel lifts modulo {p})",
    )
