"""The factorizer's former trial stages, for tests only.

`factor_by_loop` is `exact.factor` with a d += 2 loop to 10^6 in place
of the gcd trial division over prime blocks.  The rest (the leftover
rule, perfect powers, budgeted rho) is the same code calling the
package's own helpers, so the two must return the same factorization.

`trial_division_by_blocks` is `exact.trial_division` as it was before
the block products were cut into pieces: one gcd of n with each whole
block product.  It must return the same (found, rest) for every n.
"""

import math
from functools import lru_cache

from sexticfield.exact import (
    _BLOCK,
    _BLOCKS,
    FACTOR_BUDGET,
    TRIAL_LIMIT,
    PrimeFactorization,
    _block_primes,
    _brent_rho,
    _perfect_power,
    is_prime,
)


@lru_cache(maxsize=None)
def _block_product(k: int) -> int:
    return math.prod(_block_primes(k))


def trial_division_by_blocks(n: int):
    found = []
    for k in range(_BLOCKS):
        lo = k * _BLOCK
        if lo * lo > n:
            break
        g = math.gcd(_block_product(k), n)
        if g == 1:
            continue
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
    return found, n


def factor_by_loop(n: int, budget: int = FACTOR_BUDGET) -> PrimeFactorization:
    sign = -1 if n < 0 else 1
    n = abs(n)
    found = {}

    def record(p, e=1):
        found[p] = found.get(p, 0) + e

    d = 2
    while d <= TRIAL_LIMIT and d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            record(d, e)
        d += 1 if d == 2 else 2
    if n > 1 and n <= TRIAL_LIMIT * TRIAL_LIMIT:
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

    rest = cofactor
    for p in found:
        while rest % p == 0:
            rest //= p
            record(p)
    if 1 < rest < cofactor and (rest <= TRIAL_LIMIT ** 2 or is_prime(rest)):
        record(rest)
        rest = 1
    return PrimeFactorization(
        factors=tuple(sorted(found.items())), cofactor=sign * rest
    )
