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
  * a closed form for the field discriminant of pure sextics x^6 + b,
    used as an independent cross-check of the main pipeline;
  * an irreducibility test that always decides and names its argument:
    closed-form criteria for binomials, roots +-1 and ramification,
    factor-degree patterns modulo small primes, and finally one Hensel
    lift of f modulo a prime with an exhaustive search over products of
    the lifted factors.  It never factors b.

Each table row is

    (label, predicate, exact v_p(D) or None, v_p(d_K), k, rows)

`predicate` reads the local data of (a, b) at p: the valuations va, vb,
vD and the residues its block needs.  `k` is the exponent vector of the
triangular basis template

    alpha_i = (c_i0 + c_i1*theta + ... + theta^i) / p^k_i ;

a final None marks a deep row, whose exponent follows from the index
relation 2*sum(k) + v_p(d_K) = v_p(D).  `rows` maps i to c_i0 .. c_i,i-1
for the rows other than theta^i.  For the cases whose rows or parameters
depend on (a, b) it is a builder (local data, k) -> (rows, params)
instead; the parameters are translation points, solutions of linear
congruences and unit signs.

One evaluator, `p_integral_basis`, runs all four tables.  It computes the
local data once and insists on exactly one matching predicate.  It
checks the exact v_p(D), the index relation and that k is monotone, and
only then calls the row's builder.  Any violation raises InternalError
rather than guessing.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction
from types import MappingProxyType, SimpleNamespace

from .exact import (
    INF,
    TRIAL_LIMIT,
    InternalError,
    PrimeFactorization,
    factor,
    floor_root,
    is_prime,
    solve_linear_congruence,
    trial_division,
    vp,
)
from .poly import (
    Poly,
    PrimeField,
    factor_mod_p,
    fp_divmod,
    fp_inverse_mod,
    fp_mul,
    fp_sub,
    trinomial,
)

__all__ = [
    "TrinomialField",
    "PAdicBasis",
    "PureSexticReport",
    "IrreducibilityReport",
    "REGULAR_ROUTE",
    "CASE_LABELS",
    "normalize",
    "trinomial_discriminant",
    "classify",
    "p_integral_basis",
    "pure_sextic_discriminant",
    "irreducibility_check",
    "ore_translations",
    "reduce_triangular_rows",
]


# ---------------------------------------------------------------------------
# the field object


@dataclasses.dataclass(frozen=True)
class TrinomialField:
    """A normalized trinomial x^6 + a*x + b with its discriminant data.

    `normalization` records the scaling steps applied to the input pair:
    (p, e) means theta was replaced by theta/p^e, i.e. (a, b) was divided
    by (p^(5e), p^(6e)).  `D2` is the odd part of D (sign included).
    `unsplit_content` is the part of gcd(a, b) that normalization could
    not factor within its budget (1 when every content prime is known).
    `gcd_factors` factors gcd(a, b) of the normalized pair when
    normalization had to call `factor` on the input's gcd, so that
    `assemble` need not factor it again; it is None when normalization
    only trial-divided.
    """

    a: int
    b: int
    f: Poly
    D: int
    D2: int
    normalization: tuple
    original: tuple
    unsplit_content: int = 1
    gcd_factors: PrimeFactorization | None = None


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


def normalize(a: int, b: int, factor_budget: int = 2_000_000) -> TrinomialField:
    """Strip common p^5 | a, p^6 | b content and package the result.

    Replacing theta by theta/p turns x^6 + a*x + b into
    x^6 + (a/p^5)*x + b/p^6, which defines the same field; this is
    applied e_p = min(v_p(b) // 6, v_p(a) // 5) times at every prime p
    (e_p = v_p(b) // 6 when a = 0).  Such a p divides gcd(a, b) and is
    at most B = min(|b|^(1/6), |a|^(1/5)), so while B <= 10^6 trial
    division of the gcd up to B finds every one of them.  Above that
    the gcd goes to `factor` under `factor_budget`; a part of it that
    stays unsplit is kept in `unsplit_content`, and content there is
    assumed absent.  The normalized pair's gcd divides the input's and
    loses only primes that `factor` found, so its factorization is read
    off that one and kept in `gcd_factors`.  b = 0 is rejected outright
    (x divides the trinomial).
    """
    if b == 0:
        raise ValueError("b = 0: x divides x^6 + a*x, so no sextic field arises")
    original = (a, b)
    g = math.gcd(a, b)
    bound = floor_root(abs(b), 6)
    if a != 0:
        bound = min(bound, floor_root(abs(a), 5))
    unsplit = 1
    pf = None
    if bound <= TRIAL_LIMIT:
        # p^5 | g keeps g >= p^2 until p's block, so trial division
        # strips every content prime and the rest can be dropped
        primes = [p for p, _ in trial_division(g, bound)[0]]
    else:
        pf = factor(g, budget=factor_budget)
        primes = pf.primes()
        unsplit = abs(pf.cofactor)
    applied = []
    for p in primes:
        e = vp(b, p) // 6
        if a != 0:
            e = min(e, vp(a, p) // 5)
        if e:
            applied.append((p, e))
            a //= p ** (5 * e)
            b //= p ** (6 * e)
    gcd_factors = None
    if pf is not None:
        rest = math.gcd(a, b)
        found = []
        for p in primes:
            e = vp(rest, p)
            if e:
                found.append((p, e))
                rest //= p ** e
        gcd_factors = PrimeFactorization(factors=tuple(found), cofactor=rest)
    D = trinomial_discriminant(a, b)
    D2 = D >> vp(D, 2)
    return TrinomialField(
        a=a,
        b=b,
        f=trinomial(a, b),
        D=D,
        D2=D2,
        normalization=tuple(applied),
        original=original,
        unsplit_content=unsplit,
        gcd_factors=gcd_factors,
    )


# ---------------------------------------------------------------------------
# basis templates


@dataclasses.dataclass(frozen=True)
class PAdicBasis:
    """Triangular p-integral basis (c_i0 + ... + theta^i)/p^k_i.

    `rows` holds six coefficient tuples of lengths 0..5, already reduced
    to the canonical range 0 <= c_ij < p^(k_i - k_j).  `v_D` and `v_dK`
    are the case's claimed valuations; they satisfy
    2*sum(k) + v_dK == v_D by construction.  `params` is the case's
    read-only parameter mapping (see `classify`).
    """

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

    def element(self, i: int):
        """Row i as (numerator polynomial in theta, denominator)."""
        return Poly(tuple(self.rows[i]) + (1,)), self.p ** self.k[i]


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
    # least x >= 0 with (5a*x + 6b)/p = shift mod p^k5; the deep rows at
    # p = 2, 3, 5 have v_p(5a) = 1 and p | 6b, so shift = 0 gives beta
    # reduced mod p^k5
    return solve_linear_congruence(5 * c.a // c.p, 6 * c.b // c.p - shift, c.p ** k5)


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
    # one deep row whose five coefficients solve, mod p^m,
    #   6x = 5a, (5a)^4 y = (6b)^4, (5a)^3 z = -(6b)^3,
    #   (5a)^2 v = (6b)^2, 5a w = -6b.
    m = k[5]
    mod = c.p ** m
    A5, B6 = 5 * c.a, 6 * c.b
    x = solve_linear_congruence(6, -A5, mod)
    y = solve_linear_congruence(A5 ** 4, -(B6 ** 4), mod)
    z = solve_linear_congruence(A5 ** 3, B6 ** 3, mod)
    v = solve_linear_congruence(A5 ** 2, -(B6 ** 2), mod)
    w = solve_linear_congruence(A5, B6, mod)
    return {5: (x, y, z, v, w)}, _params(beta=_beta(c), m=m, row_solution=(x, y, z, v, w))


# ---------------------------------------------------------------------------
# the tables: (label, predicate, exact v_p(D) or None, v_p(d_K), k, rows)

_DEEP_K = (0, 0, 0, 0, 0, None)
_DEEP_K4 = (0, 0, 0, 0, 1, None)

_TABLE_2 = (
    ("E1", lambda c: c.va == 0, 0, 0, _ZERO_K, {}),
    ("E2", lambda c: c.vb == 1 and c.va == 1, 6, 6, _ZERO_K, {}),
    ("E3", lambda c: c.vb == 1 and c.va >= 2, 11, 11, _ZERO_K, {}),
    ("E4", lambda c: c.vb >= 2 and c.va == 1, 6, 4, (0, 0, 0, 0, 0, 1), {}),
    ("E5", lambda c: c.vb >= 3 and c.va == 2, 12, 4, (0, 0, 0, 1, 1, 2), {}),
    ("E6", lambda c: c.vb == 3 and c.va == 3, 18, 6, (0, 0, 1, 1, 2, 2), {}),
    ("E7", lambda c: c.vb == 3 and c.va >= 4, 21, 9, (0, 0, 1, 1, 2, 2), {}),
    ("E8", lambda c: c.vb >= 4 and c.va == 3, 18, 4, (0, 0, 1, 1, 2, 3), {}),
    ("E9", lambda c: c.vb >= 5 and c.va == 4, 24, 4, (0, 0, 1, 2, 3, 4), {}),
    ("E10", lambda c: c.vb == 5 and c.va == 5, 30, 10, (0, 0, 1, 2, 3, 4), {}),
    ("E11", lambda c: c.vb == 5 and c.va >= 6, 31, 11, (0, 0, 1, 2, 3, 4), {}),
    ("E12", lambda c: c.va == 1 and c.b4 == 3, 7, 7, _ZERO_K, {}),
    ("E13", lambda c: c.va == 1 and c.b4 == 1 and c.vD % 2 == 1, None, 7, _DEEP_K, _e13),
    # D2 mod 4 detects how far the dyadic double root refines: residue 3
    # forces v2(f(delta)) >= 2u+2 (row denominator 2^(u+1) works), while
    # residue 1 caps v2(f(delta)) at 2u+1 (denominator only 2^u).
    ("E14", lambda c: c.va == 1 and c.b4 == 1 and c.vD % 2 == 0 and c.D2 % 4 == 3,
     None, 4, _DEEP_K, _e14),
    ("E15", lambda c: c.va == 1 and c.b4 == 1 and c.vD % 2 == 0 and c.D2 % 4 == 1,
     None, 6, _DEEP_K, _e15),
    ("E16", lambda c: c.va >= 2 and c.b4 == 1, 6, 6, _ZERO_K, {}),
    ("E17", lambda c: c.va >= 2 and c.b4 == 3, 6, 0, (0, 0, 0, 1, 1, 1),
     {3: (1, 0, 0), 4: (0, 1, 0, 0), 5: (0, 0, 1, 0, 0)}),
    ("E18", lambda c: c.vb == 2 and c.va == 2, 12, 6, (0, 0, 0, 1, 1, 1), {}),
    ("E19", lambda c: c.vb == 2 and c.va == 3 and c.bq == 3, 16, 6, (0, 0, 0, 1, 2, 2),
     {4: (0, 2, 0, 0), 5: (0, 0, 2, 0, 0)}),
    ("E20", lambda c: c.vb == 2 and c.va >= 4 and c.bq == 3, 16, 4, (0, 0, 0, 2, 2, 2),
     {3: (2, 0, 0), 4: (0, 2, 0, 0), 5: (0, 0, 2, 0, 0)}),
    ("E21", lambda c: c.vb == 2 and c.va >= 3 and c.bq == 1, 16, 8, (0, 0, 0, 1, 1, 2),
     {5: (0, 0, 2, 0, 0)}),
    ("E22", lambda c: c.vb == 4 and c.va == 4 and c.bs == 1, 24, 4, (0, 0, 1, 2, 3, 4),
     {4: (0, 4, 0, 0), 5: (0, 8, 4, 0, 0)}),
    ("E23", lambda c: c.vb == 4 and c.va == 4 and c.bs == 3, 24, 6, (0, 0, 1, 2, 3, 3),
     {4: (0, 4, 0, 0), 5: (0, 0, 4, 0, 0)}),
    ("E24", lambda c: c.vb == 4 and c.va == 5 and c.bs == 3, 26, 6, (0, 0, 1, 2, 3, 4),
     {4: (0, 4, 0, 0), 5: (0, 0, 4, 0, 0)}),
    ("E25", lambda c: c.vb == 4 and c.va >= 6 and c.bs == 3, 26, 4, (0, 0, 1, 3, 3, 4),
     {3: (4, 0, 0), 4: (0, 4, 0, 0), 5: (0, 0, 4, 0, 0)}),
    ("E26", lambda c: c.vb == 4 and c.va >= 5 and c.bs == 1, 26, 8, (0, 0, 1, 2, 3, 3),
     {4: (0, 4, 0, 0)}),
)

_TABLE_3 = (
    ("F1", lambda c: c.va == 0, 0, 0, _ZERO_K, {}),
    ("F2", lambda c: c.vb == 1 and c.va == 1, 6, 6, _ZERO_K, {}),
    ("F3", lambda c: c.vb == 1 and c.va >= 2, 11, 11, _ZERO_K, {}),
    ("F4", lambda c: c.vb >= 2 and c.va == 1, 6, 4, (0, 0, 0, 0, 0, 1), {}),
    ("F5", lambda c: c.vb == 2 and c.va == 2, 12, 6, (0, 0, 0, 1, 1, 1), {}),
    ("F6", lambda c: c.vb == 2 and c.va >= 3, 16, 10, (0, 0, 0, 1, 1, 1), {}),
    ("F7", lambda c: c.vb >= 3 and c.va == 2, 12, 4, (0, 0, 0, 1, 1, 2), {}),
    ("F8", lambda c: c.vb >= 4 and c.va == 3, 18, 4, (0, 0, 1, 1, 2, 3), {}),
    ("F9", lambda c: c.vb == 4 and c.va == 4, 24, 8, (0, 0, 1, 2, 2, 3), {}),
    ("F10", lambda c: c.vb == 4 and c.va >= 5, 26, 10, (0, 0, 1, 2, 2, 3), {}),
    ("F11", lambda c: c.vb >= 5 and c.va == 4, 24, 4, (0, 0, 1, 2, 3, 4), {}),
    ("F12", lambda c: c.vb == 5 and c.va == 5, 30, 10, (0, 0, 1, 2, 3, 4), {}),
    ("F13", lambda c: c.vb == 5 and c.va >= 6, 31, 11, (0, 0, 1, 2, 3, 4), {}),
    ("F14", lambda c: c.va == 1 and c.b3 == 1, 6, 6, _ZERO_K, {}),
    ("F15", lambda c: c.va >= 2 and c.vb == 0 and c.b9 in (4, 7), 6, 6, _ZERO_K, {}),
    ("F16", lambda c: c.va >= 2 and c.vb == 0 and c.b9 == 1, 6, 2, (0, 0, 0, 0, 1, 1),
     {4: (1, 0, -1, 0), 5: (0, 1, 0, -1, 0)}),
    ("F17", lambda c: c.va >= 2 and c.vb == 0 and c.b9 in (2, 5), 6, 6, _ZERO_K, {}),
    ("F18", lambda c: c.va >= 2 and c.vb == 0 and c.b9 == 8, 6, 2, (0, 0, 0, 0, 1, 1),
     {4: (1, 0, 1, 0), 5: (0, 1, 0, 1, 0)}),
    # unit sign: -1 when a = 3 (mod 9), +1 when a = -3 (mod 9)
    ("F19", lambda c: c.va == 1 and c.b9 == 2, 7, 5, (0, 0, 0, 0, 0, 1),
     lambda c, k: _unit_sign_row(-1 if c.a % 9 == 3 else 1)),
    ("F20", lambda c: c.va == 1 and c.b9 == 8, 7, 7, _ZERO_K, {}),
    # unit sign: -1 when a = -3 (mod 9), +1 when a = 3 (mod 9)
    ("F21", lambda c: c.va == 1 and c.b9 == 5 and c.vD == 8, None, 6, (0, 0, 0, 0, 0, 1),
     lambda c, k: _unit_sign_row(-1 if c.a % 9 == 6 else 1)),
    ("F22", lambda c: c.va == 1 and c.b9 == 5 and c.vD == 9, None, 3, (0, 0, 0, 0, 1, 2),
     _f22),
    ("F23", lambda c: c.va == 1 and c.b9 == 5 and c.vD >= 10 and c.vD % 2 == 0,
     None, 4, _DEEP_K4, _f23),
    ("F24", lambda c: c.va == 1 and c.b9 == 5 and c.vD >= 11 and c.vD % 2 == 1,
     None, 3, _DEEP_K4, _f24),
    ("F25", lambda c: c.vb == 3 and c.va == 3, 18, 6, (0, 0, 1, 1, 2, 2), {}),
    ("F26", lambda c: c.vb == 3 and c.va >= 4 and c.vBB == 1, 21, 7, (0, 0, 1, 1, 2, 3),
     _f26),
    ("F27", lambda c: c.vb == 3 and c.va >= 4 and (c.vBB is not None and c.vBB >= 2),
     21, 3, (0, 0, 1, 2, 3, 3), _f27),
)

_TABLE_5 = (
    ("G1", lambda c: c.vb == 0, 0, 0, _ZERO_K, {}),
    ("G2", lambda c: c.vb == 1 and c.va == 0 and c.r0 == 1 and c.r1 == 1
     and not c.square_match, 5, 5, _ZERO_K, _g_power),
    ("G3", lambda c: c.vb == 1 and c.va == 0 and c.r0 == 1 and c.r1 == 1
     and c.square_match, 6, 6, _ZERO_K, _g_power),
    ("G4", lambda c: c.vb == 1 and c.va == 0 and c.r0 >= 2 and c.r1 == 1,
     5, 3, (0, 0, 0, 0, 0, 1), _g_quintic),
    ("G5", lambda c: c.vb == 1 and c.va == 0 and c.r0 == 1 and c.r1 >= 2,
     5, 5, _ZERO_K, _g_power),
    ("G6", lambda c: c.vb == 1 and c.va == 0 and c.r0 >= 2 and c.r1 >= 2 and c.vD % 2 == 1,
     None, 3, _DEEP_K4, _g6),
    ("G7", lambda c: c.vb == 1 and c.va == 0 and c.r0 >= 2 and c.r1 >= 2 and c.vD % 2 == 0,
     None, 2, _DEEP_K4, _g7),
    ("G8", lambda c: c.vb == 1 and c.va >= 1, 5, 5, _ZERO_K, {}),
    ("G9", lambda c: c.vb >= 2 and c.va == 0 and c.a4 != 1, 5, 5, _ZERO_K, _g_power),
    ("G10", lambda c: c.vb >= 2 and c.va == 0 and c.a4 == 1, 5, 3, (0, 0, 0, 0, 0, 1),
     _g_quintic),
    ("G11", lambda c: c.vb == 2 and c.va == 1, 10, 8, (0, 0, 0, 0, 0, 1), {}),
    ("G12", lambda c: c.vb == 2 and c.va >= 2, 10, 4, (0, 0, 0, 1, 1, 1), {}),
    ("G13", lambda c: c.vb >= 3 and c.va == 1, 11, 9, (0, 0, 0, 0, 0, 1), {}),
    ("G14", lambda c: c.vb == 3 and c.va == 2, 15, 7, (0, 0, 0, 1, 1, 2), {}),
    ("G15", lambda c: c.vb == 3 and c.va >= 3, 15, 3, (0, 0, 1, 1, 2, 2), {}),
    ("G16", lambda c: c.vb >= 4 and c.va == 2, 17, 9, (0, 0, 0, 1, 1, 2), {}),
    ("G17", lambda c: c.vb == 4 and c.va == 3, 20, 6, (0, 0, 1, 1, 2, 3), {}),
    ("G18", lambda c: c.vb == 4 and c.va >= 4, 20, 4, (0, 0, 1, 2, 2, 3), {}),
    ("G19", lambda c: c.vb >= 5 and c.va == 3, 23, 9, (0, 0, 1, 1, 2, 3), {}),
    ("G20", lambda c: c.vb == 5 and c.va == 4, 25, 5, (0, 0, 1, 2, 3, 4), {}),
    ("G21", lambda c: c.vb == 5 and c.va >= 5, 25, 5, (0, 0, 1, 2, 3, 4), {}),
    ("G22", lambda c: c.vb >= 6 and c.va == 4, 29, 9, (0, 0, 1, 2, 3, 4), {}),
)

_TABLE_LARGE = (
    ("H1", lambda c: (c.vb == 0 and c.va >= 1) or (c.va == 0 and c.vb >= 1),
     0, 0, _ZERO_K, {}),
    ("H2", lambda c: c.vb == 1 and c.va >= 1, 5, 5, _ZERO_K, {}),
    ("H3", lambda c: c.va == 1 and c.vb >= 2, 6, 4, (0, 0, 0, 0, 0, 1), {}),
    ("H4", lambda c: c.vb == 2 and c.va >= 2, 10, 4, (0, 0, 0, 1, 1, 1), {}),
    ("H5", lambda c: c.va == 2 and c.vb >= 3, 12, 4, (0, 0, 0, 1, 1, 2), {}),
    ("H6", lambda c: c.vb == 3 and c.va >= 3, 15, 3, (0, 0, 1, 1, 2, 2), {}),
    ("H7", lambda c: c.va == 3 and c.vb >= 4, 18, 4, (0, 0, 1, 1, 2, 3), {}),
    ("H8", lambda c: c.vb == 4 and c.va >= 4, 20, 4, (0, 0, 1, 2, 2, 3), {}),
    ("H9", lambda c: c.va == 4 and c.vb >= 5, 24, 4, (0, 0, 1, 2, 3, 4), {}),
    ("H10", lambda c: c.vb == 5 and c.va >= 5, 25, 5, (0, 0, 1, 2, 3, 4), {}),
    ("H11", lambda c: c.va == 0 and c.vb == 0 and c.vD % 2 == 0, None, 0, _DEEP_K, _h_deep),
    ("H12", lambda c: c.va == 0 and c.vb == 0 and c.vD % 2 == 1, None, 1, _DEEP_K, _h_deep),
)

_TABLES = {2: _TABLE_2, 3: _TABLE_3, 5: _TABLE_5}

CASE_LABELS = tuple(
    row[0] for table in (_TABLE_2, _TABLE_3, _TABLE_5, _TABLE_LARGE) for row in table
)

# Cases whose index count is certified by squarefree residual polynomials,
# so the polygon machinery reproduces sum(k_i) exactly.
REGULAR_ROUTE = frozenset(
    [f"E{i}" for i in range(2, 17)]
    + [f"F{i}" for i in range(2, 25)]
    + [f"G{i}" for i in range(2, 23)]
    + [f"H{i}" for i in range(2, 13)]
)


# ---------------------------------------------------------------------------
# the evaluator


def _local_data(p, field, vD):
    """Valuations and residues of (a, b) at p that the table of p reads."""
    a, b = field.a, field.b
    va, vb = vp(a, p), vp(b, p)
    c = SimpleNamespace(p=p, a=a, b=b, va=va, vb=vb, vD=vD)
    if p == 2:
        c.D2 = field.D2
        c.b4 = b % 4
        c.bq = (b // 4) % 4 if vb >= 2 else None
        c.bs = (b // 16) % 4 if vb >= 4 else None
    elif p == 3:
        c.b3, c.b9 = b % 3, b % 9
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
    of p must match, and its v_p(D), index relation and exponent vector
    are checked before its builder runs.  When p does not divide D the
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
    label, _, exact_vD, v_dK, k, rows = matched[0]
    if exact_vD is not None and vD != exact_vD:
        raise InternalError(f"case {label}: v_{p}(D) = {vD}, table says {exact_vD}")
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


def classify(p: int, field: TrinomialField):
    """(case label, parameters) for the prime p.

    Exactly one of the 87 cases matches a normalized (a, b); zero or
    multiple matches raise InternalError.  The parameters are a
    read-only mapping holding only the names the case sets (see the row
    builders), in a fixed order.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    pb = p_integral_basis(p, field)
    return pb.case, pb.params


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
# pure sextics x^6 + b


@dataclasses.dataclass(frozen=True)
class PureSexticReport:
    """Closed-form discriminant data for an irreducible x^6 + b.

    r1 and r2 are the exponents of 2 and 3 in |d_K|; s_p lists the
    exponent 6 - gcd(6, v_p(b)) for every other prime dividing b.
    b2 and b3 are b with the full power of 2 resp. 3 removed.
    """

    b: int
    r1: int
    r2: int
    s_p: tuple
    b2: int
    b3: int
    d_K: int


def pure_sextic_discriminant(b: int, factor_budget: int = 2_000_000) -> PureSexticReport:
    """Field discriminant of Q(b^(1/6)) straight from congruences on b.

    Requires b sixth-power-free and x^6 + b irreducible (equivalently,
    -b neither a square nor a cube); violations raise ValueError.
    """
    if b == 0:
        raise ValueError("b must be nonzero")
    witness = _capelli_witness(b)
    if witness is not None:
        raise ValueError(f"x^6 + {b} is reducible: {witness!r} divides it")
    fb = factor(b, budget=factor_budget)
    if not fb.complete:
        raise ValueError(
            f"cannot certify b = {b} sixth-power-free: unfactored part {fb.cofactor}"
        )
    for p, e in fb.factors:
        if e >= 6:
            raise ValueError(f"b is divisible by {p}^6; normalize first")

    v2b, v3b = fb.exponent(2), fb.exponent(3)
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

    s_p = tuple(
        (p, 6 - math.gcd(6, e)) for p, e in fb.factors if p not in (2, 3)
    )
    d = 2 ** r1 * 3 ** r2
    for p, s in s_p:
        d *= p ** s
    d_K = d if b < 0 else -d
    return PureSexticReport(b=b, r1=r1, r2=r2, s_p=s_p, b2=b2, b3=b3, d_K=d_K)


# ---------------------------------------------------------------------------
# irreducibility over Q


@dataclasses.dataclass(frozen=True)
class IrreducibilityReport:
    """Outcome of the irreducibility test.

    status is "irreducible" or "reducible"; `method` names the deciding
    argument, and `witness` holds a proper monic factor when status is
    "reducible".
    """

    status: str
    method: str
    witness: Poly | None = None

    @property
    def proven_irreducible(self) -> bool:
        return self.status == "irreducible"


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


def _reduce(P, m):
    return Poly(tuple(c % m for c in P.coeffs))


def _hensel_step(f, g, h, s, t, m):
    """Lift f = g*h, s*g + t*h = 1 from modulus m to m^2; h monic.

    von zur Gathen and Gerhard, Modern Computer Algebra, Algorithm 15.10.
    """
    m *= m
    e = _reduce(f - g * h, m)
    q, r = _reduce(s * e, m).divmod_by(h)
    g, h = _reduce(g + t * e + q * g, m), _reduce(h + r, m)
    c = _reduce(s * g + t * h - 1, m)
    q, r = _reduce(s * c, m).divmod_by(h)
    return g, h, _reduce(s - r, m), _reduce(t - t * c - q * g, m)


def _hensel_lift(f, factors, p, M):
    """Monic lifts modulo M = p^(2^j) of the factors of a squarefree f mod p.

    Each factor in turn is split off the product of the ones after it,
    and the pair is lifted quadratically from p to M.
    """
    K = PrimeField(p)
    lifts = []
    for i, g in enumerate(factors[:-1]):
        h = [1]
        for other in factors[i + 1:]:
            h = fp_mul(K, h, list(other.coeffs))
        s = fp_inverse_mod(K, list(g.coeffs), h)
        t, _ = fp_divmod(K, fp_sub(K, [1], fp_mul(K, s, list(g.coeffs))), h)
        g, h, s, t, m = g.lift(), Poly(h), Poly(s), Poly(t), p
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
                if sum(g.degree for g in combo) != deg:
                    continue
                cand = Poly((1,))
                for g in combo:
                    cand = _reduce(cand * g, M)
                cand = Poly(tuple(c - M if 2 * c > M else c for c in cand.coeffs))
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
    (Zassenhaus).  f is factored modulo each prime at most once.  Every
    answer is proven; b is never factored.
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

    mod = {}  # p -> factors of f modulo p, for primes p not dividing D

    def factors_mod(p):
        if p not in mod:
            mod[p] = factor_mod_p(f, p)[1]
        return mod[p]

    if ramified is None:
        # f mod p is squarefree for p not dividing D, so one factor
        # means irreducible
        for p in _DIRECT_PRIMES:
            if field.D % p and len(factors_mod(p)) == 1:
                return IrreducibilityReport("irreducible", f"irreducible modulo {p}")

    used = 0
    for p in _SIEVE_PRIMES:
        if field.D % p == 0:
            continue
        sums = {0}
        for g, _ in factors_mod(p):
            sums |= {s + g.degree for s in sums}
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
    if mod:
        p = min(mod, key=lambda q: len(mod[q]))
    else:
        p = next(q for q in itertools.count(101) if field.D % q and is_prime(q))
    # Fujiwara's bound R on the roots; a monic factor of degree <= 3
    # has coefficients of size at most 3R^3
    R = 2 * max(floor_root(abs(a), 5) + 1, floor_root(abs(b), 6) + 1)
    witness = _lifted_factor(f, factors_mod(p), p, need, 3 * R ** 3)
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
