"""Polynomials over Z/Q and over small finite fields.

The `Poly` class stores coefficients ascending (coeffs[i] is the
coefficient of x^i) as ints or Fractions.  On top of it sit the
phi-adic expansion used by the Newton-polygon machinery, the
integrality test for algebraic numbers given in root-power coordinates
(their characteristic polynomials by division-free Berkowitz on the
integer multiplication matrix, run modulo t^n for an element over
denominator t, and skipped for t = 1), and factoring modulo a prime.
One distinct-degree factorization (DDF), `fp_ddf`, serves every p and
four uses: `factor_mod_p` splits each of its parts into irreducibles by
equal-degree splitting; `factor_degrees_mod_p` reads the factor
degrees off the parts with no split; `irreducible_mod_p` stops at
the first part, so a reducible polynomial costs only the degrees up to
its first nontrivial gcd; and the Dedekind criterion of `verify`
multiplies the parts into the product of the distinct irreducible
factors and its cofactor, with no split.

Arithmetic in F_p[x] is one kernel on plain int lists: every `fp_*`
helper takes the prime p first and lists of ascending coefficients in
[0, p), trimmed, and reduces with `%` on whole lists, so no call is made
per coefficient.  The factorizer, the Hensel lift of `sextic` and the
Dedekind criterion of `verify` all run on it; `fp_add`, `fp_sub`,
`fp_mul` and division by a monic polynomial only reduce, so they serve
any modulus.  A `Poly` crosses into F_p[x] through `reduce_poly` and
comes back from `factor_mod_p` as plain coefficient tuples: there is no
polynomial type over F_p, so a value reduced mod p carries no p, and a
cache of such values is keyed by (p, coefficients).
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from .exact import INF, InternalError, Record, vp_fraction


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class Poly(Record):
    """Dense univariate polynomial with int/Fraction coefficients.

    An immutable record over its trimmed coefficient tuple; unlike other
    records it also equals the int or Fraction of a constant.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_norm_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_integer(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i <= self.degree else 0

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == Poly((other,)).coeffs
        return NotImplemented

    __hash__ = Record.__hash__

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self[i] + other[i] for i in range(n)))

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        return self + (-other)

    def __call__(self, x):
        v = 0
        for c in reversed(self.coeffs):
            v = v * x + c
        return _norm_coeff(v) if isinstance(v, Fraction) else v

    def divmod_by(self, divisor: "Poly"):
        """Euclidean division self = q*divisor + r with deg r < deg divisor."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        d = divisor.degree
        if self.degree < d:
            return Poly(()), self
        lead = divisor.coeffs[-1]
        rem = list(self.coeffs)
        q = [0] * (self.degree - d + 1)
        for i in range(self.degree - d, -1, -1):
            top = rem[i + d]
            if top == 0:
                continue
            c = top if lead == 1 else Fraction(top) / lead
            q[i] = c
            for j in range(d + 1):
                rem[i + j] -= c * divisor.coeffs[j]
        return Poly(q), Poly(rem[:d])

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{head}x" if i == 1 else f"{head}x^{i}")
        return "Poly(" + " + ".join(parts) + ")"


X = Poly((0, 1))


def trinomial(a, b) -> Poly:
    """x^6 + a*x + b."""
    return Poly((b, a, 0, 0, 0, 0, 1))


def phi_expansion(F: Poly, phi: Poly):
    """Digits of F in base phi, ascending: F = sum digits[i] * phi^i.

    phi must be monic of degree >= 1; every digit has degree < deg phi.
    """
    if not phi.is_monic() or phi.degree < 1:
        raise ValueError("phi must be monic of positive degree")
    digits = []
    cur = F
    while not cur.is_zero():
        cur, r = cur.divmod_by(phi)
        digits.append(r)
    if not digits:
        digits = [Poly(())]
    return digits


def gauss_valuation(F: Poly, p: int):
    """min_i v_p(coefficient i); +infinity for the zero polynomial."""
    return min((vp_fraction(c, p) for c in F.coeffs), default=INF)


# ---------------------------------------------------------------------------
# polynomials over F_p: plain int lists, ascending, trimmed, entries in [0, p)


def convolve(a, b):
    """Product of two integer coefficient sequences, untrimmed."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _fp_strip(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def fp_add(p, a, b):
    return _fp_strip([(x + y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def fp_sub(p, a, b):
    return _fp_strip([(x - y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def fp_mul(p, a, b):
    """a*b mod p; only reduces, so it serves any modulus."""
    return _fp_strip([c % p for c in convolve(a, b)])


def fp_divmod(p, a, b):
    """(q, r) with a = q*b + r mod p, deg r < deg b.

    The leading coefficient of b must be a unit mod p; for monic b the
    division is exact over Z/p for any modulus p.  Entries of a may lie
    outside [0, p); only the nonzero low coefficients of b are visited.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) <= db:
        return [], _fp_strip([x % p for x in a])
    a = list(a)
    inv_lead = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    low = [(j, y) for j, y in enumerate(b[:db]) if y]
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        c = a[i + db] * inv_lead % p
        if c:
            q[i] = c
            for j, y in low:
                a[i + j] -= c * y
    return _fp_strip(q), _fp_strip([x % p for x in a[:db]])


def fp_rem(p, a, b):
    """a mod b, as `fp_divmod` computes it, with no quotient built."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    a = list(a)
    inv_lead = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    low = [(j, y) for j, y in enumerate(b[:db]) if y]
    for i in range(len(a) - 1 - db, -1, -1):
        c = a[i + db] * inv_lead % p
        if c:
            for j, y in low:
                a[i + j] -= c * y
    return _fp_strip([x % p for x in a[:db]])


def fp_monic(p, a):
    if not a:
        return []
    c = pow(a[-1], -1, p)
    return [c * x % p for x in a]


def fp_gcd(p, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, fp_rem(p, a, b)
    return fp_monic(p, a)


def fp_inverse_mod(p, a, m):
    """s with s*a = 1 (mod m) and deg s < deg m, for a prime to m.

    Extended Euclid in F_p[x] between m and a, tracking s with
    s*a = r (mod m) for the current remainder r.  Raises
    ZeroDivisionError when gcd(a, m) is not a unit.
    """
    r0, r1 = list(m), _fp_strip(list(a))
    s0, s1 = [], [1]
    while len(r1) > 1:
        q, r = fp_divmod(p, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, fp_sub(p, s0, fp_mul(p, q, s1))
    if not r1:
        raise ZeroDivisionError("not invertible: a and m share a factor")
    c = pow(r1[0], -1, p)
    return fp_rem(p, [c * x for x in s1], m)


def fp_pow_mod(p, base, e: int, mod):
    """base^e mod (p, mod), squaring from the top bit of e down.

    For base = x, the power of the leading bits of e is the monomial
    x^v, reduced at once while v <= 2*(deg mod - 1), the degree of a
    square; each later multiplication by x is a shift.  So x^p, the first
    power of every distinct-degree factorization, costs a few squarings.
    """
    if not e:
        return [1]
    bits = bin(e)[2:]
    base = fp_rem(p, base, mod)
    by_x = base == [0, 1]
    k = 1
    if by_x:
        while k < len(bits) and int(bits[:k + 1], 2) <= 2 * (len(mod) - 2):
            k += 1
        result = fp_rem(p, [0] * int(bits[:k], 2) + [1], mod)
    else:
        result = base
    for bit in bits[k:]:
        result = fp_rem(p, convolve(result, result), mod)
        if bit == "1":
            result = fp_rem(p, [0] + result if by_x else convolve(result, base), mod)
    return result


# ---------------------------------------------------------------------------
# reduction of Q-polynomials mod p


def residue_int(c, p: int) -> int:
    """Image of a p-integral rational in Z/p."""
    if isinstance(c, int):
        return c % p
    c = Fraction(c)
    if c.denominator % p == 0:
        raise ValueError(f"{c} is not p-integral at p={p}")
    return c.numerator * pow(c.denominator, -1, p) % p


def reduce_poly(F: Poly, p: int) -> tuple:
    """F modulo p as a trimmed tuple of ascending coefficients in [0, p).

    F must have p-integral coefficients.
    """
    return tuple(_fp_strip([residue_int(c, p) for c in F.coeffs]))


# ---------------------------------------------------------------------------
# factorization over F_p


def fp_ddf(p, f):
    """Distinct-degree factorization of a monic f over F_p, lazily.

    Yields (d, g, e), lowest d first and, for each d, e = 1, 2, ...: g
    is the product of the distinct degree-d irreducibles that divide f
    at least e times.  At step d every factor of degree < d has been
    divided out of f with its multiplicity, so gcd(x^(p^d) - x, f) is
    the product of the distinct degree-d irreducibles left in f
    (x^(p^d) - x is squarefree), whatever the characteristic.  It is
    yielded as soon as it is found, then divided out once, and its gcd
    with what is left holds the factors of higher multiplicity.  Once
    2d > deg f, what remains cannot hold two factors of degree >= d, so
    it is irreducible with multiplicity 1.
    """
    w = [0, 1]  # x^(p^d) mod f
    d = 0
    while len(f) > 1:
        d += 1
        if 2 * d >= len(f):
            yield len(f) - 1, f, 1
            return
        w = fp_pow_mod(p, w, p, f)
        g = fp_gcd(p, f, fp_sub(p, w, [0, 1]))
        if len(g) == 1:
            continue
        e = 1
        yield d, g, e
        f, _ = fp_divmod(p, f, g)
        while True:
            q, r = fp_divmod(p, f, g)
            if r:
                g = fp_gcd(p, g, r)  # gcd(g, f)
                if len(g) == 1:
                    break
                q, _ = fp_divmod(p, f, g)
            e += 1
            yield d, g, e
            f = q
        w = fp_rem(p, w, f)


def _candidate_split_polys(p: int):
    """Deterministic, inexhaustible supply of split candidates over F_p."""
    for c in range(p):
        yield [c, 1]
    for deg in itertools.count(2):
        for tail in itertools.product(range(p), repeat=deg):
            yield list(tail) + [1]


def _edf(p, f, d):
    """Split a product of distinct degree-d irreducibles over F_p.

    Cantor-Zassenhaus with a deterministic candidate supply: u splits f
    through gcd(u, f) or gcd(u^((p^d-1)/2) - 1, f).  For p = 2 the second
    gcd need not ever split; the first does, because the supply lists
    every monic polynomial, the factors of f among them, so the split
    terminates for every p.
    """
    if len(f) <= 2 * d:  # fewer than two degree-d factors: irreducible
        return [f]
    e = (p ** d - 1) // 2
    for u in _candidate_split_polys(p):
        g = fp_gcd(p, f, u)
        if 1 < len(g) < len(f):
            rest, _ = fp_divmod(p, f, g)
            return _edf(p, g, d) + _edf(p, rest, d)
        s = fp_pow_mod(p, u, e, f)
        g = fp_gcd(p, f, fp_sub(p, s, [1]))
        if 1 < len(g) < len(f):
            rest, _ = fp_divmod(p, f, g)
            return _edf(p, g, d) + _edf(p, rest, d)
    raise InternalError("equal-degree splitting ran out of candidates")


def _monic_mod(F: Poly, p: int):
    """(lead, monic f) for F modulo p, F p-integral and nonzero mod p."""
    f = list(reduce_poly(F, p))
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    return f[-1], f if f[-1] == 1 else fp_monic(p, f)


def factor_mod_p(F: Poly, p: int):
    """Complete factorization of F modulo p, for every prime p.

    F must have p-integral coefficients.  Returns (unit, factors) where
    unit is in [1, p) and factors is a tuple of (g, multiplicity), g the
    trimmed tuple of ascending coefficients of a monic irreducible over
    F_p, sorted by degree then by coefficient tuple.
    """
    unit, f = _monic_mod(F, p)
    # an irreducible dividing f exactly e times splits out of the first
    # e parts of its degree, so counting the splits gives multiplicities
    parts = fp_ddf(p, f)
    counts = Counter(tuple(irr) for d, g, _ in parts for irr in _edf(p, g, d))
    return unit, tuple(sorted(counts.items(), key=lambda t: (len(t[0]), t[0])))


def factor_degrees_mod_p(F: Poly, p: int) -> tuple:
    """Degrees of the irreducible factors of F modulo p, ascending.

    Each degree appears once per factor and multiplicity, as in
    `factor_mod_p`, but no factor is split off: a product of distinct
    degree-d irreducibles holds deg/d of them.
    """
    return tuple(
        d for d, g, _ in fp_ddf(p, _monic_mod(F, p)[1]) for _ in range((len(g) - 1) // d)
    )


def irreducible_mod_p(F: Poly, p: int) -> bool:
    """Is F modulo p irreducible (one factor, multiplicity 1)?

    The distinct-degree factorization stops at its first nontrivial gcd,
    or at the remainder past deg F / 2; F is irreducible exactly when
    that part is F itself.  A repeated factor has degree at most
    deg F / 2, so it is found before then.
    """
    f = _monic_mod(F, p)[1]
    first = next(fp_ddf(p, f), None)
    return first is not None and first[0] == len(f) - 1


# ---------------------------------------------------------------------------
# characteristic polynomials and the integrality test


def _berkowitz(M, modulus=0):
    """[1, c_1, ..., c_n] with det(y*I - M) = y^n + c_1 y^(n-1) + ... + c_n.

    Berkowitz (1984): the characteristic polynomial of each leading
    principal submatrix is a Toeplitz matrix times that of the one
    before, using only ring operations, so integer input stays integer.
    With a nonzero `modulus` every intermediate vector is reduced into
    [0, modulus), which gives the c_k mod modulus.
    """
    vect = [1, -M[0][0]]
    for r in range(1, len(M)):
        R = M[r][:r]
        col = [1, -M[r][r]]
        v = [M[i][r] for i in range(r)]
        for _ in range(r):
            col.append(-sum(x * y for x, y in zip(R, v)))
            v = [sum(M[i][j] * v[j] for j in range(r)) for i in range(r)]
            if modulus:
                v = [x % modulus for x in v]
        vect = [
            sum(col[i - j] * vect[j] for j in range(min(i, r) + 1))
            for i in range(r + 2)
        ]
        if modulus:
            vect = [x % modulus for x in vect]
    return vect


def _check_element(g: Poly, t: int, f: Poly) -> None:
    """Input of the integrality kernel: t > 0, f monic over Z, g over Z."""
    if t <= 0:
        raise ValueError("denominator must be positive")
    if not (f.is_monic() and f.is_integer() and g.is_integer()):
        raise ValueError("integer monic f and integer g expected")


def _multiplication_matrix(g: Poly, f: Poly, modulus=0):
    """Rows g(theta)*theta^r in the power basis, r = 0..n-1.

    With a nonzero `modulus` the entries are reduced into [0, modulus).
    """
    n = f.degree
    h = g.divmod_by(f)[1]
    fc = f.coeffs[:n]
    row = [h[k] for k in range(n)]
    M = []
    for _ in range(n):
        if modulus:
            row = [x % modulus for x in row]
        M.append(row)
        # times theta: shift up one power and subtract top * f
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [x - top * c for x, c in zip(row, fc)]
    return M


def is_integral(g: Poly, t: int, f: Poly) -> bool:
    """Is g(theta)/t an algebraic integer (theta a root of monic f)?

    Exactly when t^k divides every c_k of det(y*I - M_g).  A row over
    denominator 1 needs no test: after the input checks the answer is
    True for every integer g.  For t > 1 Berkowitz runs in Z/t^n,
    n = deg f, since t^k | c_k depends only on c_k mod t^n for k <= n.
    """
    _check_element(g, t, f)
    if t == 1:
        return True
    m = t ** f.degree
    c = _berkowitz(_multiplication_matrix(g, f, m), m)
    return all(ck % t ** k == 0 for k, ck in enumerate(c))

