"""The factorizer's former trial stage, a d += 2 loop to 10^6, for tests only.

`factor_by_loop` is `exact.factor` with that loop in place of the gcd
trial division over prime blocks.  The rest (the leftover rule, perfect
powers, budgeted rho) is the same code calling the package's own
helpers, so the two must return the same factorization.
"""

from sexticfield.exact import (
    FACTOR_BUDGET,
    TRIAL_LIMIT,
    PrimeFactorization,
    _brent_rho,
    _perfect_power,
    is_prime,
)


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

    return PrimeFactorization(
        factors=tuple(sorted(found.items())), cofactor=sign * cofactor
    )
