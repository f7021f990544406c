"""Exact integer and rational utilities shared by the whole package.

Everything here is deterministic and allocation-light: valuations,
modular arithmetic, integer roots, a budgeted integer factorizer and
Hermite normal form for rational row lattices.  There are no matrix
inverses or determinants over Fractions: the verification layer works
with integer triangular solves, Berkowitz characteristic polynomials
and ranks mod p instead.  No floating point is used anywhere except
the `math.inf` sentinel for the valuation of zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

INF = math.inf


class InternalError(RuntimeError):
    """An invariant that should be unreachable was violated."""


# ---------------------------------------------------------------------------
# primality and valuations


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Deterministic Miller-Rabin with the witness set 2..37 is proven correct
# strictly below this bound.
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

_EXTENDED_WITNESSES = tuple(
    p for p in range(2, 230) if all(p % q for q in range(2, p))
)


def _miller_rabin(n: int, bases) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=65536)
def is_prime(n: int) -> bool:
    """Primality test.

    Deterministic for n below ~3.3e24; for larger n a fixed extended
    witness set is used, which is a (very strong) probable-prime test.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _MR_DETERMINISTIC_BOUND:
        return _miller_rabin(n, _SMALL_PRIMES)
    return _miller_rabin(n, _EXTENDED_WITNESSES)


def vp(n: int, p: int):
    """p-adic valuation of an integer.  vp(0, p) is +infinity."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n == 0:
        return INF
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(q, p: int):
    """p-adic valuation extended to Fractions (can be negative)."""
    q = Fraction(q)
    if q == 0:
        return INF
    return vp(q.numerator, p) - vp(q.denominator, p)


def ext_gcd(a: int, b: int):
    """Return (g, u, v) with u*a + v*b == g == gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def solve_linear_congruence(c: int, d: int, modulus: int) -> int:
    """Least x >= 0 with c*x + d == 0 (mod modulus).

    Requires gcd(c, modulus) to divide d; raises ValueError otherwise.
    A modulus of 1 returns 0.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if modulus == 1:
        return 0
    g, u, _ = ext_gcd(c, modulus)
    if (-d) % g:
        raise ValueError(f"congruence {c}*x + {d} = 0 mod {modulus} has no solution")
    m = modulus // g
    x = (u * ((-d) // g)) % m
    return x


def crt_lift(residues, moduli) -> int:
    """Combine x = r_i (mod m_i) for pairwise coprime moduli.

    Returns the least non-negative solution.  Raises ValueError if the
    moduli are not pairwise coprime (detected pair by pair as we fold).
    """
    x = 0
    m = 1
    for r, mi in zip(residues, moduli):
        if mi <= 0:
            raise ValueError("moduli must be positive")
        g, u, _ = ext_gcd(m, mi)
        if g != 1:
            raise ValueError(f"moduli not coprime (gcd {g})")
        # x' = x + m * t with x + m*t = r (mod mi)  =>  t = (r - x)/m mod mi
        t = (u * (r - x)) % mi
        x = x + m * t
        m *= mi
        x %= m
    return x


def floor_root(n: int, k: int) -> int:
    """Largest r >= 0 with r**k <= n (n >= 0, k >= 1)."""
    if k < 1:
        raise ValueError("root index must be positive")
    if n < 0:
        raise ValueError("floor_root needs a non-negative argument")
    if n < 2 or k == 1:
        return n
    # integer Newton iteration from an upper bound, then exact touch-up
    r = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


# ---------------------------------------------------------------------------
# integer factorization


@dataclass(frozen=True)
class PrimeFactorization:
    """Partial or complete factorization of a nonzero integer.

    `factors` is a sorted tuple of (prime, exponent) pairs and `cofactor`
    carries the sign together with any part that was not split within
    the budget.  The factorization is complete iff cofactor is +-1.
    """

    factors: tuple
    cofactor: int

    @property
    def complete(self) -> bool:
        return self.cofactor in (1, -1)

    def value(self) -> int:
        n = self.cofactor
        for p, e in self.factors:
            n *= p ** e
        return n

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def primes(self):
        return tuple(p for p, _ in self.factors)


_TRIAL_LIMIT = 1_000_000


def _brent_rho(n: int, budget: int):
    """Brent's cycle-finding rho.  Returns (divisor_or_None, budget_left).

    The c-sweep is deterministic so repeated runs agree.  `budget`
    counts f-evaluations across the whole sweep.
    """
    if n % 2 == 0:
        return 2, budget
    for c in itertools.count(1):
        if budget <= 0:
            return None, 0
        y, r, q = 2, 1, 1
        g = 1
        while g == 1 and budget > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            budget -= r
            k = 0
            while k < r and g == 1:
                ys = y
                step = min(128, r - k)
                for _ in range(step):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget -= step
                g = math.gcd(q, n)
                k += step
            r *= 2
        if g == n:
            # backtrack one at a time from the saved point
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
                budget -= 1
                if budget <= 0:
                    break
        if 1 < g < n:
            return g, budget
        if budget <= 0:
            return None, 0
        # g == n even after backtracking: retry with the next c


def _perfect_power(n: int):
    """If n = m**k for a prime k, return (m, k) for the least such k; else None.

    Exact integer roots only: a float root misses every m above 2**53.
    """
    for k in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
        if 2 ** k > n:
            break
        m = floor_root(n, k)
        if m ** k == n:
            return m, k
    return None


def factor(n: int, budget: int = 2_000_000) -> PrimeFactorization:
    """Factor n with trial division, perfect powers, and budgeted rho.

    Never fails: whatever cannot be split within the budget is returned
    in the cofactor.  n must be nonzero.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if n < 0 else 1
    n = abs(n)
    found = {}

    def record(p, e=1):
        found[p] = found.get(p, 0) + e

    d = 2
    while d <= _TRIAL_LIMIT and d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            record(d, e)
        d += 1 if d == 2 else 2
    if n > 1 and n <= _TRIAL_LIMIT * _TRIAL_LIMIT:
        # leftover below the square of the trial bound is prime
        record(n)
        n = 1

    stack = [(n, 1)] if n > 1 else []
    cofactor = 1
    while stack:
        m, mult = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            record(m, mult)
            continue
        pw = _perfect_power(m)
        if pw is not None:
            stack.append((pw[0], mult * pw[1]))
            continue
        divisor, budget = _brent_rho(m, budget)
        if divisor is None:
            cofactor *= m ** mult
            continue
        stack.append((divisor, mult))
        stack.append((m // divisor, mult))

    factors = tuple(sorted(found.items()))
    return PrimeFactorization(factors=factors, cofactor=sign * cofactor)


# ---------------------------------------------------------------------------
# Hermite normal form for rational row lattices


def hnf(rows):
    """Hermite normal form of the lattice spanned by rational rows.

    `rows` is a sequence of equal-length sequences of ints/Fractions
    with at least as many rows as columns and full column rank.  Returns
    (H, den) where H is a lower-triangular tuple-of-tuples of ints with
    positive diagonal, entries below the diagonal reduced into
    [0, diagonal), and the lattice equals {r/den : r in rowspan(H)}.
    The pair is normalized so gcd(den, all entries of H) = 1.
    """
    rows = [list(r) for r in rows]
    if not rows:
        raise ValueError("empty row list")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("ragged rows")
    if len(rows) < n:
        raise ValueError("need at least as many rows as columns")

    den = 1
    for r in rows:
        for x in r:
            f = Fraction(x)
            den = den * f.denominator // math.gcd(den, f.denominator)
    work = [[int(Fraction(x) * den) for x in r] for r in rows]

    m = len(work)
    # eliminate columns right to left; the pivot for column j lands in the
    # last still-active row so the surviving block comes out triangular
    for j in range(n - 1, -1, -1):
        last = j + (m - n)
        pivot = None
        for i in range(last + 1):
            if work[i][j] != 0:
                if pivot is None:
                    pivot = i
                    continue
                a, b = work[pivot][j], work[i][j]
                g, u, v = ext_gcd(a, b)
                r0, r1 = work[pivot], work[i]
                new0 = [u * x + v * y for x, y in zip(r0, r1)]
                new1 = [(a // g) * y - (b // g) * x for x, y in zip(r0, r1)]
                work[pivot], work[i] = new0, new1
        if pivot is None:
            raise ValueError(f"rank deficient: no pivot for column {j}")
        work[pivot], work[last] = work[last], work[pivot]
    # rows above the pivot block must now be zero
    extra = m - n
    for i in range(extra):
        if any(work[i]):
            raise InternalError("nonzero residual row after elimination")
    work = work[extra:]

    for i in range(n):
        if work[i][i] == 0:
            raise ValueError("rank deficient after elimination")
        if work[i][i] < 0:
            work[i] = [-x for x in work[i]]
        for jj in range(i + 1, n):
            if work[i][jj] != 0:
                raise InternalError("matrix not triangular after elimination")

    # reduce below-diagonal entries
    for i in range(n):
        for j in range(i - 1, -1, -1):
            q = work[i][j] // work[j][j]
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[j])]

    g = den
    for r in work:
        for x in r:
            g = math.gcd(g, x)
            if g == 1:
                break
        if g == 1:
            break
    if g > 1:
        den //= g
        work = [[x // g for x in r] for r in work]
    return tuple(tuple(r) for r in work), den
