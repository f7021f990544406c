"""Exact integer and rational utilities shared by the whole package.

Everything here is deterministic and allocation-light: valuations,
modular arithmetic, integer roots, primality and a budgeted integer
factorizer.
`is_prime` is a proof below 3.3e24 (Miller-Rabin to the prime bases up
to 37); from there up it is BPSW, a strong test to base 2 and a strong
Lucas test, so a "prime" there is a probable prime: no composite is
known to pass, but that is not a proof.  The factorizer's trial stage
divides by gcds, not by single primes (Bernstein, "How to find small
factors of integers"): the primes up to 10^6 fall into blocks of fixed
width, the product of each block's primes is built on first use by a
segmented sieve and kept in 4096-bit pieces, and one gcd with it,
reduced mod n by multiplying the pieces, finds every prime of the
block that divides n.  Perfect powers are found with exact integer
roots, and what remains goes to Brent's rho under an iteration budget.
There are no matrix inverses or determinants over Fractions: the
verification layer works with integer triangular solves, Berkowitz
characteristic polynomials, determinants of triangular matrices and
eliminations mod p instead.  No floating point is used anywhere except
the `math.inf` sentinel for the valuation of zero.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

INF = math.inf

# Brent rho iterations allowed per `factor` call unless the caller (or
# --factor-budget) says otherwise
FACTOR_BUDGET = 2_000_000


class InternalError(RuntimeError):
    """An invariant that should be unreachable was violated."""


class Record:
    """Base of the immutable result records; a subclass's fields are its
    `__slots__`.

    A record is built from its fields by position or keyword, and a
    field left out takes its value from the class's `_defaults`.  Two
    records are equal when they are of the same class with equal fields,
    and a record hashes as the tuple of its fields, so one holding an
    unhashable value is unhashable.  A record is no tuple: it does not
    unpack and never equals a tuple.
    """

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if args:
            if len(args) > len(names) or not kwargs.keys().isdisjoint(names[:len(args)]):
                raise TypeError(f"{type(self).__name__} takes the fields {names}")
            kwargs.update(zip(names, args))
        if self._defaults:
            kwargs = {**self._defaults, **kwargs}
        for name in names:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__} needs the field {name!r}")
            object.__setattr__(self, name, kwargs[name])
        if len(kwargs) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# primality and valuations


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Deterministic Miller-Rabin with the witness set 2..37 is proven correct
# strictly below this bound; it is itself a strong pseudoprime to every
# one of those bases.
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


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


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters.

    n must be odd, above 1 and not a perfect square (else the search
    for D need not end).  Method A: D is the first of 5, -7, 9, -11, ...
    with (D / n) = -1, P = 1 and Q = (1 - D) / 4.  With n + 1 = d * 2^s,
    n passes when n divides U_d or one of V_d, V_2d, ..., V_(d*2^(s-1)).
    Every prime passes (Baillie and Wagstaff, Math. Comp. 35 (1980)).
    """
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            # D shares a factor with n: n is prime only as |D| itself
            return n == abs(D)
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Lucas chain over the bits of d for (V_k, V_(k+1), Q^k), with
    # V_2k = V_k^2 - 2Q^k and V_(2k+1) = V_k V_(k+1) - Q^k as P = 1
    v, w, qk = 2, 1, 1
    for bit in bin(d)[2:]:
        if bit == "1":
            v, w, qk = (v * w - qk) % n, (w * w - 2 * qk * Q) % n, qk * qk * Q % n
        else:
            v, w, qk = (v * v - 2 * qk) % n, (v * w - qk) % n, qk * qk % n
    # D * U_d = 2 V_(d+1) - V_d, and D is prime to n
    if v == 0 or (2 * w - v) % n == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


@lru_cache(maxsize=65536)
def is_prime(n: int) -> bool:
    """Primality test.

    A proof below 3.3e24 (Miller-Rabin to the prime bases up to 37).
    From there up, "prime" means a BPSW probable prime: not a perfect
    square, a strong probable prime to base 2 and a strong Lucas
    probable prime (Baillie and Wagstaff 1980).  No composite is known
    to pass BPSW, but that is not a proof.
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
    r = math.isqrt(n)
    return r * r != n and _miller_rabin(n, (2,)) and _strong_lucas(n)


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


def solve_linear_congruence(c: int, d: int, modulus: int) -> int:
    """Least x >= 0 with c*x + d == 0 (mod modulus).

    Requires gcd(c, modulus) to divide d; raises ValueError otherwise.
    A modulus of 1 returns 0.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    g = math.gcd(c, modulus)
    if (-d) % g:
        raise ValueError(f"congruence {c}*x + {d} = 0 mod {modulus} has no solution")
    m = modulus // g
    # pow(x, -1, 1) is 0, so a modulus of 1 gives 0
    return (-d) // g * pow(c // g, -1, m) % m


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
        g = math.gcd(m, mi)
        if g != 1:
            raise ValueError(f"moduli not coprime (gcd {g})")
        # x' = x + m * t with x + m*t = r (mod mi)  =>  t = (r - x)/m mod mi
        t = (r - x) * pow(m, -1, mi) % mi
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


class PrimeFactorization(Record):
    """Partial or complete factorization of a nonzero integer.

    `factors` is a sorted tuple of (prime, exponent) pairs and `cofactor`
    carries the sign together with any part that was not split within
    the budget.  The factorization is complete iff cofactor is +-1.
    """

    __slots__ = ("factors", "cofactor")
    factors: tuple
    cofactor: int

    @property
    def complete(self) -> bool:
        return self.cofactor in (1, -1)

    def primes(self):
        return tuple(p for p, _ in self.factors)


TRIAL_LIMIT = 1_000_000
_BLOCK = 1 << 14  # width of one block of the trial range [0, TRIAL_LIMIT]
_BLOCKS = TRIAL_LIMIT // _BLOCK + 1


def _odd_primes_upto(n: int):
    flags = bytearray([1]) * (n + 1)
    for p in range(3, math.isqrt(n) + 1, 2):
        if flags[p]:
            flags[p * p::2 * p] = bytes(len(range(p * p, n + 1, 2 * p)))
    return tuple(p for p in range(3, n + 1, 2) if flags[p])


# the odd primes up to sqrt(TRIAL_LIMIT), which sieve every block
_SIEVING_PRIMES = _odd_primes_upto(math.isqrt(TRIAL_LIMIT))

# A block's prime product P, about 24k bits, is kept as pieces of
# W = _PIECE_BITS bits, least significant first.  The gcd with n then
# starts from sum(piece_j * (2^(W*j) mod n)), which is P mod n up to a
# multiple of n, built from a few multiplications instead of the long
# division of P by n that gcd(P, n) would start with.
_PIECE_BITS = 4096

# _block_pieces[k] holds the pieces of block k's product; the list grows
# on first use, block by block, and is the only state kept
_block_pieces = []


def _block_primes(k: int):
    """The primes of block k, [k*_BLOCK, (k+1)*_BLOCK) cut at TRIAL_LIMIT.

    A segmented sieve over the odd numbers of the block: flag i stands
    for lo + 2*i + 1.
    """
    lo = k * _BLOCK
    hi = min(lo + _BLOCK, TRIAL_LIMIT + 1)
    flags = bytearray([1]) * ((hi - lo) // 2)
    for p in _SIEVING_PRIMES:
        if p * p >= hi:
            break
        start = max(p * p, -(-lo // p) * p)
        if start % 2 == 0:
            start += p
        i = (start - lo) // 2
        flags[i::p] = bytes(len(range(i, len(flags), p)))
    if lo == 0:
        flags[0] = 0  # 1 is not prime
    primes = list(itertools.compress(range(lo + 1, hi, 2), flags))
    return [2] + primes if lo == 0 else primes


def _pieces_of_block(k: int):
    while len(_block_pieces) <= k:
        xs = _block_primes(len(_block_pieces))
        while len(xs) > 1:  # pairwise rounds keep the operands balanced
            xs = list(map(operator.mul, xs[::2], xs[1::2])) + xs[len(xs) & ~1:]
        mask = (1 << _PIECE_BITS) - 1
        _block_pieces.append(tuple(
            xs[0] >> i & mask for i in range(0, xs[0].bit_length(), _PIECE_BITS)
        ))
    return _block_pieces[k]


def trial_division(n: int):
    """Divide the primes p <= TRIAL_LIMIT out of n >= 1.

    Trial division by gcds (Bernstein, "How to find small factors of
    integers"): one gcd of n with the product of the primes of a block
    finds every prime of that block dividing n, and only a block with a
    gcd above 1 is split prime by prime.  The gcd is taken with the sum
    of the product's pieces times 2^(W*j) mod n, which is congruent to
    the product mod n.  The scan stops at the first block whose start lo
    has lo*lo > n.

    Returns (found, rest): `found` lists (p, e) with p^e exactly
    dividing n, in increasing p, and rest = n / prod(p^e).  No prime
    p <= TRIAL_LIMIT with p*p <= rest divides rest, so a rest of at
    most TRIAL_LIMIT**2 is 1 or a prime.
    """
    found = []
    shifts = []  # 2^(W*j) mod n for j = 0, 1, ..., rebuilt when n shrinks
    for k in range(_BLOCKS):
        lo = k * _BLOCK
        if lo * lo > n:
            break
        pieces = _pieces_of_block(k)
        if not shifts:
            shifts = [1 % n, pow(2, _PIECE_BITS, n)]
        while len(shifts) < len(pieces):
            shifts.append(shifts[-1] * shifts[1] % n)
        g = math.gcd(sum(map(operator.mul, pieces, shifts)), n)
        if g == 1:
            continue
        # g is a product of distinct primes of the block: divide it by
        # the block's numbers in turn (a composite one shares no factor
        # with what is left) until what is left is 1 or a prime
        hits = []
        d = 2 if lo == 0 else lo + 1
        while d * d <= g:
            if g % d == 0:
                hits.append(d)
                g //= d
            d += 1 if d == 2 else 2
        if g > 1:
            hits.append(g)
        for p in hits:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            found.append((p, e))
        shifts = []
    return found, n


def _brent_rho(n: int, budget: int):
    """Brent's cycle-finding rho.  Returns (divisor_or_None, budget_left).

    The c-sweep is deterministic so repeated runs agree.  `budget`
    counts f-evaluations across the whole sweep, but it is checked only
    between Brent rounds, and a round of length r costs 2r; so a run can
    spend up to about twice its budget.  At budget 10^4 a run that finds
    nothing spends 16382 evaluations (rounds r = 1 .. 4096).
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
                    q = q * (x - y) % n
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
                g = math.gcd(x - y, n)
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

    n must have no prime factor up to TRIAL_LIMIT, as every n on
    `factor`'s stack does (a cofactor left by trial division, or a rho
    split of one).  Exact integer roots only: a float root misses every
    m above 2**53.
    """
    # m > TRIAL_LIMIT >= 2**t, so n = m**k > 2**(t*k) and k <= (bits - 1) // t
    t = TRIAL_LIMIT.bit_length() - 1
    for k in range(2, (n.bit_length() - 1) // t + 1):
        if not is_prime(k):
            continue
        m = floor_root(n, k)
        if m ** k == n:
            return m, k
    return None


def factor(n: int, budget: int = FACTOR_BUDGET) -> PrimeFactorization:
    """Factor n with trial division, perfect powers, and budgeted rho.

    Never fails: whatever cannot be split within the budget is returned
    in the cofactor, which no found prime divides.  n must be nonzero.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if n < 0 else 1
    small, n = trial_division(abs(n))
    found = dict(small)

    def record(p, e=1):
        found[p] = found.get(p, 0) + e

    if n > 1 and n <= TRIAL_LIMIT * TRIAL_LIMIT:
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

    # rho may split off a prime that divides a part it then gave up on
    rest = cofactor
    for p in found:
        while rest % p == 0:
            rest //= p
            record(p)
    if 1 < rest < cofactor and (rest <= TRIAL_LIMIT ** 2 or is_prime(rest)):
        record(rest)
        rest = 1
    factors = tuple(sorted(found.items()))
    return PrimeFactorization(factors=factors, cofactor=sign * rest)
