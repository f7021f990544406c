"""Steered random (a, b) generators hitting each classification case.

Every generator produces raw coefficient pairs whose valuations and
residues at the target prime land in one specific row of the case
table; `instance` normalizes, classifies, and retries until the label
is confirmed, so tests can demand an exact case by name.
"""

import math
import random

from sexticfield.sextic import CASE_LABELS, normalize, p_integral_basis

BOUND = 10 ** 12


def _unit(rng, p, hi=10 ** 6):
    """Nonzero signed integer not divisible by p."""
    while True:
        n = rng.randrange(-hi, hi + 1)
        if n and n % p:
            return n


def _resmod(rng, m, r, hi=10 ** 6):
    """Nonzero integer congruent to r mod m, either sign."""
    while True:
        n = m * rng.randrange(-hi, hi + 1) + r
        if n:
            return n


def _fifth_root_mod_2k(t, k):
    # x -> x^5 permutes the odd residues mod 2^k; invert with the
    # exponent 5^-1 taken mod the group exponent 2^(k-2)
    if k <= 2:
        return t % (1 << k)
    e = pow(5, -1, 1 << (k - 2))
    return pow(t, e, 1 << k)


def _fifth_root_mod_3k(t, k):
    # (Z/3^k)* is cyclic of order 2*3^(k-1), coprime to 5
    e = pow(5, -1, 2 * 3 ** (k - 1))
    return pow(t, e, 3 ** k)


def _scaled(rng, p, ea, eb, hi=10 ** 6):
    """(p^ea * unit, p^eb * unit) kept inside the sweep bound."""
    ha = max(1, min(hi, BOUND // p ** ea))
    hb = max(1, min(hi, BOUND // p ** eb))
    return p ** ea * _unit(rng, p, ha), p ** eb * _unit(rng, p, hb)


def _vals(va, vb, ja=0, jb=0):
    def gen(rng, p):
        ea = va + (rng.randrange(ja + 1) if ja else 0)
        eb = vb + (rng.randrange(jb + 1) if jb else 0)
        return _scaled(rng, p, ea, eb)
    return gen


# -- p = 2 ------------------------------------------------------------------

def _gen_e1(rng, p):
    return _resmod(rng, 2, 1), rng.randrange(-10 ** 9, 10 ** 9) or 7


def _odd_res4(rng, r):
    return _resmod(rng, 4, r)


def _gen_e12(rng, p):
    return 2 * _resmod(rng, 2, 1), _odd_res4(rng, 3)


def _gen_e16(rng, p):
    return 4 * _unit(rng, 2) * rng.choice((1, 2, 4)), _odd_res4(rng, 1)


def _gen_e17(rng, p):
    return 4 * _unit(rng, 2) * rng.choice((1, 2, 4)), _odd_res4(rng, 3)


def _deep_dyadic(rng, h, c_res):
    """a = 2*odd and b with v2(3125*(a/2)^6 - 729*b^5) pinned.

    c_res None: valuation 2h+1 exactly (odd cofactor free).
    c_res 1 or 3: valuation 2h exactly with cofactor = c_res mod 4.
    """
    a1 = _resmod(rng, 2, 1, 10 ** 4)
    if c_res is None:
        shift, modbits = 2 * h + 1, 2 * h + 2
        c = _resmod(rng, 2, 1, 10 ** 4)
    else:
        shift, modbits = 2 * h, 2 * h + 2
        c = _resmod(rng, 4, c_res, 10 ** 4)
    M = 1 << modbits
    t = ((3125 * a1 ** 6 - (1 << shift) * c) * pow(729, -1, M)) % M
    b0 = _fifth_root_mod_2k(t, modbits)
    b = b0 + M * rng.randrange(-10 ** 6, 10 ** 6)
    return 2 * a1, b or b0 + M


def _gen_e13(rng, p):
    return _deep_dyadic(rng, rng.choice((1, 2, 3)), None)


def _gen_e14(rng, p):
    return _deep_dyadic(rng, rng.choice((1, 2, 3)), 3)


def _gen_e15(rng, p):
    return _deep_dyadic(rng, rng.choice((1, 2, 3)), 1)


def _res_scaled_b(rng, p, ea, scale, res_m, res_r, ja=0):
    ea = ea + (rng.randrange(ja + 1) if ja else 0)
    ha = max(1, min(10 ** 6, BOUND // p ** ea))
    a = p ** ea * _unit(rng, p, ha)
    b = scale * _resmod(rng, res_m, res_r, min(10 ** 6, BOUND // (scale * res_m)))
    return a, b


_P2_GENERATORS = {
    "E1": _gen_e1,
    "E2": _vals(1, 1),
    "E3": _vals(2, 1, ja=2),
    "E4": _vals(1, 2, jb=3),
    "E5": _vals(2, 3, jb=2),
    "E6": _vals(3, 3),
    "E7": _vals(4, 3, ja=2),
    "E8": _vals(3, 4, jb=2),
    "E9": _vals(4, 5, jb=2),
    "E10": _vals(5, 5),
    "E11": _vals(6, 5, ja=2),
    "E12": _gen_e12,
    "E13": _gen_e13,
    "E14": _gen_e14,
    "E15": _gen_e15,
    "E16": _gen_e16,
    "E17": _gen_e17,
    "E18": _vals(2, 2),
    "E19": lambda rng, p: _res_scaled_b(rng, 2, 3, 4, 4, 3),
    "E20": lambda rng, p: _res_scaled_b(rng, 2, 4, 4, 4, 3, ja=2),
    "E21": lambda rng, p: _res_scaled_b(rng, 2, 3, 4, 4, 1, ja=2),
    "E22": lambda rng, p: _res_scaled_b(rng, 2, 4, 16, 4, 1),
    "E23": lambda rng, p: _res_scaled_b(rng, 2, 4, 16, 4, 3),
    "E24": lambda rng, p: _res_scaled_b(rng, 2, 5, 16, 4, 3),
    "E25": lambda rng, p: _res_scaled_b(rng, 2, 6, 16, 4, 3, ja=2),
    "E26": lambda rng, p: _res_scaled_b(rng, 2, 5, 16, 4, 1, ja=2),
}


# -- p = 3 ------------------------------------------------------------------

def _gen_f1(rng, p):
    return _unit(rng, 3), rng.randrange(-10 ** 9, 10 ** 9) or 5


def _gen_f14(rng, p):
    return 3 * _unit(rng, 3), _resmod(rng, 3, 1)


def _b_mod9(rng, choices):
    return _resmod(rng, 9, rng.choice(choices))


def _gen_f19(rng, p):
    return 3 * _unit(rng, 3), _b_mod9(rng, (2,))


def _gen_f20(rng, p):
    return 3 * _unit(rng, 3), _b_mod9(rng, (8,))


def _deep_triadic(rng, v):
    """a = 3*unit and b with v3(3125*(a/3)^6 - 64*b^5) = v exactly."""
    a1 = _unit(rng, 3, 10 ** 4)
    c = _unit(rng, 3, 10 ** 4)
    k = v + 1
    M = 3 ** k
    t = ((3125 * a1 ** 6 - 3 ** v * c) * pow(64, -1, M)) % M
    b0 = _fifth_root_mod_3k(t, k)
    b = b0 + M * rng.randrange(-10 ** 5, 10 ** 5)
    return 3 * a1, b or b0 + M


def _gen_f21(rng, p):
    return _deep_triadic(rng, 2)


def _gen_f22(rng, p):
    return _deep_triadic(rng, 3)


def _gen_f23(rng, p):
    return _deep_triadic(rng, rng.choice((4, 6)))


def _gen_f24(rng, p):
    return _deep_triadic(rng, rng.choice((5, 7)))


def _b27(choices, ja):
    def gen(rng, p):
        ea = 4 + rng.randrange(ja + 1)
        ha = max(1, min(10 ** 6, BOUND // 3 ** ea))
        a = 3 ** ea * _unit(rng, 3, ha)
        B = _resmod(rng, 9, rng.choice(choices), 10 ** 6)
        return a, 27 * B
    return gen


def _gen_f_unit_a(res_choices):
    def gen(rng, p):
        ea = 2 + rng.randrange(3)
        a = 3 ** ea * _unit(rng, 3, max(1, min(10 ** 6, BOUND // 3 ** ea)))
        return a, _b_mod9(rng, res_choices)
    return gen


_P3_GENERATORS = {
    "F1": _gen_f1,
    "F2": _vals(1, 1),
    "F3": _vals(2, 1, ja=2),
    "F4": _vals(1, 2, jb=3),
    "F5": _vals(2, 2),
    "F6": _vals(3, 2, ja=2),
    "F7": _vals(2, 3, jb=2),
    "F8": _vals(3, 4, jb=2),
    "F9": _vals(4, 4),
    "F10": _vals(5, 4, ja=1),
    "F11": _vals(4, 5, jb=2),
    "F12": _vals(5, 5),
    "F13": _vals(6, 5, ja=1),
    "F14": _gen_f14,
    "F15": _gen_f_unit_a((4, 7)),
    "F16": _gen_f_unit_a((1,)),
    "F17": _gen_f_unit_a((2, 5)),
    "F18": _gen_f_unit_a((8,)),
    "F19": _gen_f19,
    "F20": _gen_f20,
    "F21": _gen_f21,
    "F22": _gen_f22,
    "F23": _gen_f23,
    "F24": _gen_f24,
    "F25": _vals(3, 3),
    "F26": _b27((2, 4, 5, 7), 2),
    "F27": _b27((1, 8), 2),
}


# -- p = 5 ------------------------------------------------------------------

_R1_DEEP = (6, 8, 17, 19)     # a mod 25 with a^4 = 21 (mod 25), i.e. r1 >= 2
_R0_DEEP = (1, 7, 18, 24)     # a mod 25 with a^4 = 1 (mod 25)


def _gen_g1(rng, p):
    return rng.randrange(-10 ** 9, 10 ** 9), _unit(rng, 5)


def _a_avoiding_deep_r1(rng):
    while True:
        a = _unit(rng, 5, 10 ** 5)
        if a % 25 not in _R1_DEEP:
            return a


def _w_of(a):
    return ((a ** 6 - a * a) // 5) % 5


def _gen_g2(rng, p):
    while True:
        a = _a_avoiding_deep_r1(rng)
        w = _w_of(a)
        b1 = _unit(rng, 5)
        if (b1 + w) % 5 and (b1 - a * a) % 5:
            return a, 5 * b1


def _gen_g3(rng, p):
    while True:
        a = _a_avoiding_deep_r1(rng)
        w = _w_of(a)
        if (a * a + w) % 5 == 0:
            continue
        b1 = _resmod(rng, 5, (a * a) % 5)
        return a, 5 * b1


def _gen_g4(rng, p):
    while True:
        a = _a_avoiding_deep_r1(rng)
        w = _w_of(a)
        b1 = _resmod(rng, 5, (-w) % 5)
        if b1 % 5:
            return a, 5 * b1


def _gen_g5(rng, p):
    while True:
        a = _unit(rng, 5, 10 ** 5)
        if a % 25 not in _R1_DEEP:
            continue
        w = _w_of(a)
        b1 = _unit(rng, 5)
        if (b1 + w) % 5:
            return a, 5 * b1


def _perturbed_double_root(rng, p, exponents):
    """(6t^5, 5t^6 + eta*p^e): a perturbation of the discriminant-zero
    family, forcing the repeated-root branch.  The leading discriminant
    term is -46656*5^5*t^24*eta*p^e, so v_p(D) = e + 5 at p = 5 (for
    e >= 2) and v_p(D) = e at larger primes (for e >= 1)."""
    while True:
        t = rng.randrange(-70, 71)
        if t and t % 5 and t % p:
            break
    e = rng.choice(exponents)
    while True:
        eta = rng.randrange(-40, 41)
        if eta and eta % p and math.gcd(eta, 6 * t) == 1:
            break
    return 6 * t ** 5, 5 * t ** 6 + eta * p ** e


def _gen_g6(rng, p):
    # v5(D) = e + 5 must be odd and >= 7
    return _perturbed_double_root(rng, 5, (2, 4, 6))


def _gen_g7(rng, p):
    # v5(D) = e + 5 must be even and >= 8
    return _perturbed_double_root(rng, 5, (3, 5, 7))


def _gen_g9(rng, p):
    while True:
        a = _unit(rng, 5, 10 ** 5)
        if pow(a, 4, 25) != 1:
            break
    eb = 2 + rng.randrange(3)
    return a, 5 ** eb * _unit(rng, 5, max(1, min(10 ** 6, BOUND // 5 ** eb)))


def _gen_g10(rng, p):
    a = _resmod(rng, 25, rng.choice(_R0_DEEP), 40000)
    eb = 2 + rng.randrange(3)
    return a, 5 ** eb * _unit(rng, 5, max(1, min(10 ** 6, BOUND // 5 ** eb)))


_P5_GENERATORS = {
    "G1": _gen_g1,
    "G2": _gen_g2,
    "G3": _gen_g3,
    "G4": _gen_g4,
    "G5": _gen_g5,
    "G6": _gen_g6,
    "G7": _gen_g7,
    "G8": _vals(1, 1, ja=3),
    "G9": _gen_g9,
    "G10": _gen_g10,
    "G11": _vals(1, 2),
    "G12": _vals(2, 2, ja=2),
    "G13": _vals(1, 3, jb=2),
    "G14": _vals(2, 3),
    "G15": _vals(3, 3, ja=2),
    "G16": _vals(2, 4, jb=2),
    "G17": _vals(3, 4),
    "G18": _vals(4, 4, ja=1),
    "G19": _vals(3, 5, jb=1),
    "G20": _vals(4, 5),
    "G21": _vals(5, 5, ja=1),
    "G22": _vals(4, 6, jb=1),
}


# -- p > 5 ------------------------------------------------------------------

_H_SMALL = (7, 11, 13, 17, 19, 23)
_H_WIDE = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 53, 61, 71, 83, 97)


def _gen_h1(rng, p):
    if rng.randrange(2):
        ea = 1 + rng.randrange(3)
        return p ** ea * _unit(rng, p, max(1, BOUND // p ** ea)), _unit(rng, p)
    eb = 1 + rng.randrange(3)
    return _unit(rng, p), p ** eb * _unit(rng, p, max(1, BOUND // p ** eb))


def _gen_h11(rng, p):
    return _perturbed_double_root(rng, p, (2, 4))


def _gen_h12(rng, p):
    return _perturbed_double_root(rng, p, (1, 3, 5))


_PH_GENERATORS = {
    "H1": _gen_h1,
    "H2": _vals(1, 1, ja=3),
    "H3": _vals(1, 2, jb=3),
    "H4": _vals(2, 2, ja=2),
    "H5": _vals(2, 3, jb=2),
    "H6": _vals(3, 3, ja=2),
    "H7": _vals(3, 4, jb=1),
    "H8": _vals(4, 4, ja=1),
    "H9": _vals(4, 5, jb=1),
    "H10": _vals(5, 5, ja=1),
    "H11": _gen_h11,
    "H12": _gen_h12,
}


def _pick_prime(label, rng):
    if label.startswith("E"):
        return 2
    if label.startswith("F"):
        return 3
    if label.startswith("G"):
        return 5
    if label in ("H11", "H12"):
        return rng.choice(_H_SMALL)
    # keep p^6 * unit inside the bound for the deep-valuation rows
    if label in ("H8", "H9", "H10"):
        return rng.choice(_H_SMALL)
    return rng.choice(_H_WIDE)


_GENERATORS = {}
_GENERATORS.update(_P2_GENERATORS)
_GENERATORS.update(_P3_GENERATORS)
_GENERATORS.update(_P5_GENERATORS)
_GENERATORS.update(_PH_GENERATORS)

assert set(_GENERATORS) == set(CASE_LABELS)


def instance(label, rng):
    """(p, field) whose classification at p is exactly `label`."""
    gen = _GENERATORS[label]
    for _ in range(60):
        p = _pick_prime(label, rng)
        a, b = gen(rng, p)
        if not (0 < abs(b) <= BOUND and abs(a) <= BOUND):
            continue
        try:
            field = normalize(a, b)
        except ValueError:
            continue
        if p_integral_basis(p, field).case == label:
            return p, field
    raise AssertionError(f"could not steer an instance of case {label}")


def all_labels():
    return CASE_LABELS
