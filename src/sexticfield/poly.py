"""Polynomials over Z/Q and over small finite fields.

The `Poly` class stores coefficients ascending (coeffs[i] is the
coefficient of x^i) as ints or Fractions.  On top of it sit the
phi-adic expansion used by the Newton-polygon machinery, the
integrality test for algebraic numbers given in root-power coordinates
(their characteristic polynomials by division-free Berkowitz on the
integer multiplication matrix, run modulo t^n for an element over
denominator t, and skipped for t = 1), the discriminant as the norm of
f'(theta) from that same kernel over Z, and complete factorization
modulo a prime by one distinct-degree / equal-degree factorizer that
serves every p.

Finite-field arithmetic is written generically against a small "field
object" protocol (PrimeField / ExtField) so the same gcd and power-mod
code serves both F_p and F_{p^r}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exact import INF, InternalError, vp_fraction


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class Poly:
    """Dense univariate polynomial with int/Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_norm_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

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

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self[i] + other[i] for i in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return Poly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        r = Poly((1,))
        base = self
        while e:
            if e & 1:
                r = r * base
            base = base * base
            e >>= 1
        return r

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

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs[1:], start=1)))

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
# finite fields


class PrimeField:
    """F_p with elements represented as ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        self.p = p

    zero = 0
    one = 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    @property
    def order(self):
        return self.p


class ExtField:
    """F_{p^r} = F_p[x]/(modulus); elements are length-r int tuples."""

    __slots__ = ("p", "modulus", "r", "zero", "one")

    def __init__(self, p: int, modulus):
        # modulus: ascending int coefficients of a monic irreducible over F_p
        mod = tuple(c % p for c in modulus)
        if not mod or mod[-1] != 1:
            raise ValueError("modulus must be monic")
        self.p = p
        self.modulus = mod
        self.r = len(mod) - 1
        self.zero = (0,) * self.r
        self.one = (1,) + (0,) * (self.r - 1)

    def from_int(self, n: int):
        return (n % self.p,) + (0,) * (self.r - 1)

    def from_coeffs(self, cs):
        """Reduce an arbitrary-length int coefficient list into the field."""
        K = PrimeField(self.p)
        red = fp_rem(K, [c % self.p for c in cs], list(self.modulus))
        red = red + [0] * (self.r - len(red))
        return tuple(red)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        out = [0] * (2 * self.r - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        K = PrimeField(self.p)
        red = fp_rem(K, [c % self.p for c in out], list(self.modulus))
        red = red + [0] * (self.r - len(red))
        return tuple(red)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0")
        res = fp_inverse_mod(PrimeField(self.p), [x % self.p for x in a],
                             list(self.modulus))
        return tuple(res + [0] * (self.r - len(res)))

    def is_zero(self, a):
        return all(x % self.p == 0 for x in a)

    @property
    def order(self):
        return self.p ** self.r


# polynomials over a field object: plain lists, ascending, trimmed


def fp_deg(cs):
    return len(cs) - 1


def fp_sub(K, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else K.zero
        y = b[i] if i < len(b) else K.zero
        out.append(K.sub(x, y))
    return _fp_strip(K, out)


def _fp_strip(K, cs):
    while cs and K.is_zero(cs[-1]):
        cs.pop()
    return cs


def fp_mul(K, a, b):
    if not a or not b:
        return []
    out = [K.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not K.is_zero(x):
            for j, y in enumerate(b):
                out[i + j] = K.add(out[i + j], K.mul(x, y))
    return _fp_strip(K, out)


def fp_divmod(K, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, lead = fp_deg(b), b[-1]
    if fp_deg(a) < db:
        return [], _fp_strip(K, a)
    inv_lead = K.inv(lead)
    q = [K.zero] * (fp_deg(a) - db + 1)
    for i in range(fp_deg(a) - db, -1, -1):
        top = a[i + db]
        if K.is_zero(top):
            continue
        c = K.mul(top, inv_lead)
        q[i] = c
        for j in range(db + 1):
            a[i + j] = K.sub(a[i + j], K.mul(c, b[j]))
    return _fp_strip(K, q), _fp_strip(K, a[:db])


def fp_rem(K, a, b):
    return fp_divmod(K, a, b)[1]


def fp_monic(K, a):
    if not a:
        return []
    c = K.inv(a[-1])
    return [K.mul(c, x) for x in a]


def fp_gcd(K, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, fp_rem(K, a, b)
    return fp_monic(K, a)


def fp_inverse_mod(K, a, m):
    """s with s*a = 1 (mod m) and deg s < deg m, for a prime to m.

    Extended Euclid in K[x] between m and a, tracking s with
    s*a = r (mod m) for the current remainder r.  Raises
    ZeroDivisionError when gcd(a, m) is not a unit.
    """
    r0, r1 = list(m), _fp_strip(K, list(a))
    s0, s1 = [], [K.one]
    while fp_deg(r1) > 0:
        q, r = fp_divmod(K, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, fp_sub(K, s0, fp_mul(K, q, s1))
    if not r1:
        raise ZeroDivisionError("not invertible: a and m share a factor")
    c = K.inv(r1[0])
    return fp_rem(K, [K.mul(c, x) for x in s1], list(m))


def fp_deriv(K, a):
    return _fp_strip(
        K, [K.mul(K.from_int(i), c) for i, c in enumerate(a[1:], start=1)]
    )


def fp_pow_mod(K, base, e: int, mod):
    result = [K.one]
    base = fp_rem(K, list(base), mod)
    while e:
        if e & 1:
            result = fp_rem(K, fp_mul(K, result, base), mod)
        base = fp_rem(K, fp_mul(K, base, base), mod)
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# reduction of Q-polynomials mod p, and ModPoly values


def residue_int(c, p: int) -> int:
    """Image of a p-integral rational in Z/p."""
    if isinstance(c, int):
        return c % p
    c = Fraction(c)
    if c.denominator % p == 0:
        raise ValueError(f"{c} is not p-integral at p={p}")
    return c.numerator * pow(c.denominator, -1, p) % p


@dataclass(frozen=True)
class ModPoly:
    """A polynomial over F_p, canonical coefficients in [0, p)."""

    p: int
    coeffs: tuple  # ascending ints, trimmed

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def lift(self) -> Poly:
        return Poly(self.coeffs)

    def sort_key(self):
        return (self.degree, self.coeffs)


def reduce_poly(F: Poly, p: int) -> ModPoly:
    """F modulo p; F must have p-integral coefficients."""
    cs = [residue_int(c, p) for c in F.coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return ModPoly(p, tuple(cs))


# ---------------------------------------------------------------------------
# factorization over F_p


def _ddf(K, f):
    """Factorization [(irreducible, multiplicity)] of a monic f over F_p.

    At step d every factor of degree < d has been divided out of f with
    its multiplicity, so gcd(x^(p^d) - x, f) is the product of the
    distinct degree-d irreducibles left in f (x^(p^d) - x is
    squarefree), whatever the characteristic.  Each is split off by
    `_edf` and divided out as often as it goes.  Once 2d > deg f, what
    remains cannot hold two factors of degree >= d, so it is
    irreducible with multiplicity 1.
    """
    p = K.p
    out = []
    w = [0, 1]  # x^(p^d) mod f
    d = 0
    while fp_deg(f) >= 1:
        d += 1
        if 2 * d > fp_deg(f):
            out.append((f, 1))
            break
        w = fp_pow_mod(K, w, p, f)
        g = fp_gcd(K, fp_sub(K, w, [0, 1]), f)
        if fp_deg(g) == 0:
            continue
        for irr in _edf(K, g, d):
            e = 0
            while True:
                q, r = fp_divmod(K, f, irr)
                if r:
                    break
                f, e = q, e + 1
            out.append((irr, e))
        w = fp_rem(K, w, f)
    return out


def _candidate_split_polys(p: int):
    """Deterministic, inexhaustible supply of split candidates over F_p."""
    for c in range(p):
        yield [c, 1]
    for deg in itertools.count(2):
        for tail in itertools.product(range(p), repeat=deg):
            yield list(tail) + [1]


def _edf(K, f, d):
    """Split a product of distinct degree-d irreducibles over F_p.

    Cantor-Zassenhaus with a deterministic candidate supply: u splits f
    through gcd(u, f) or gcd(u^((p^d-1)/2) - 1, f).  For p = 2 the second
    gcd need not ever split; the first does, because the supply lists
    every monic polynomial, the factors of f among them, so the split
    terminates for every p.
    """
    if fp_deg(f) < 2 * d:  # fewer than two degree-d factors: irreducible
        return [f]
    p = K.p
    e = (p ** d - 1) // 2
    for u in _candidate_split_polys(p):
        g = fp_gcd(K, u, f)
        if 0 < fp_deg(g) < fp_deg(f):
            rest, _ = fp_divmod(K, f, g)
            return _edf(K, g, d) + _edf(K, rest, d)
        s = fp_pow_mod(K, u, e, f)
        g = fp_gcd(K, fp_sub(K, s, [1]), f)
        if 0 < fp_deg(g) < fp_deg(f):
            rest, _ = fp_divmod(K, f, g)
            return _edf(K, g, d) + _edf(K, rest, d)
    raise InternalError("equal-degree splitting ran out of candidates")


def factor_mod_p(F: Poly, p: int):
    """Complete factorization of F modulo p, for every prime p.

    F must have p-integral coefficients.  Returns (unit, factors) where
    unit is in [1, p) and factors is a tuple of (monic irreducible
    ModPoly, multiplicity) sorted by degree then by coefficient tuple.
    """
    fb = reduce_poly(F, p)
    if not fb.coeffs:
        raise ValueError("cannot factor the zero polynomial")
    K = PrimeField(p)
    unit = fb.coeffs[-1]
    found = _ddf(K, fp_monic(K, list(fb.coeffs)))
    factors = tuple(
        sorted(
            ((ModPoly(p, tuple(g)), e) for g, e in found),
            key=lambda t: t[0].sort_key(),
        )
    )
    return unit, factors


def poly_gcd_mod_p(A: Poly, B: Poly, p: int) -> ModPoly:
    K = PrimeField(p)
    a = list(reduce_poly(A, p).coeffs)
    b = list(reduce_poly(B, p).coeffs)
    return ModPoly(p, tuple(fp_gcd(K, a, b)))


# ---------------------------------------------------------------------------
# characteristic polynomials and the discriminant


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


def _char_poly_numerators(g: Poly, t: int, f: Poly):
    """det(y*I - M_g) as [1, c_1, ..., c_n], M_g multiplication by g(theta)."""
    _check_element(g, t, f)
    return _berkowitz(_multiplication_matrix(g, f))


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


def discriminant(F: Poly) -> int:
    """disc(F) = (-1)^(n(n-1)/2) N(F'(theta)) for monic integer F, n >= 1.

    The norm of F'(theta) is (-1)^n c_n, with c_n the constant term of
    its characteristic polynomial from Berkowitz.
    """
    if not F.is_monic():
        raise ValueError("monic polynomial expected")
    n = F.degree
    if n < 1:
        raise ValueError("positive degree expected")
    norm = (-1) ** n * _char_poly_numerators(F.derivative(), 1, F)[n]
    return (-1) ** (n * (n - 1) // 2) * norm
