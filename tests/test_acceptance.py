"""End-to-end acceptance checks.

One test per promised behavior: the three fully worked fields, the
polygon walkthroughs, the lattice-point identity, the steered sweep
over all 87 classification cases (with ring verification), the
exhaustive box of small coefficients at 2, 3 and 5, the Ore
oracle, the pure-sextic closed form, the local exponent round-trip,
and the discriminant formula.
"""

import math
import random
import time
from fractions import Fraction

from sexticfield.basis import assemble, combine
from sexticfield.exact import vp
from sexticfield.newton import build_polygon
from sexticfield.poly import Poly, X, is_integral, trinomial
from sexticfield.sextic import (
    irreducibility_check,
    normalize,
    ore_translations,
    p_integral_basis,
)
from sexticfield.verify import (
    OrderPresentation,
    dedekind_maximal_at_p,
    maximality_test,
)

from casegen import all_labels, instance
from fracmat import mat_det, mat_inv, mat_mul
from oracles import (
    REGULAR_ROUTE,
    discriminant,
    ore_index,
    prime_exponent_profile,
    pure_sextic_discriminant,
    residual_polynomials,
)
from polyref import poly_mul


def _coord_matrix(rows, denominators):
    mat = []
    for i, (row, den) in enumerate(zip(rows, denominators)):
        entries = list(row) + [1] + [0] * (5 - len(row))
        mat.append(tuple(Fraction(c, den) for c in entries))
    return tuple(mat)


def _same_lattice(basis, ref_rows, ref_dens):
    """Do the basis and the reference span the same Z-lattice?"""
    got = _coord_matrix(basis.rows, basis.denominators)
    want = _coord_matrix(ref_rows, ref_dens)
    trans = mat_mul(got, mat_inv(want))
    if any(x.denominator != 1 for row in trans for x in row):
        return False
    return abs(mat_det(trans)) == 1


def test_field_0_12_end_to_end():
    start = time.monotonic()
    field = normalize(0, 12)
    assert field.D == -(2 ** 16) * 3 ** 11
    assert p_integral_basis(2, field).case == "E20"
    asm = assemble(field)
    assert asm.warnings == ()
    assert _same_lattice(
        asm.basis,
        ((), (0,), (0, 0), (2, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0, 0)),
        (1, 1, 1, 4, 4, 4),
    )
    assert asm.basis.index == 2 ** 6
    assert asm.basis.d_K == -(2 ** 4) * 3 ** 11
    assert time.monotonic() - start < 1.0


def test_field_0_135_end_to_end():
    start = time.monotonic()
    field = normalize(0, 135)
    for p, label in ((2, "E17"), (3, "F26"), (5, "G8")):
        assert p_integral_basis(p, field).case == label
    asm = assemble(field)
    assert _same_lattice(
        asm.basis,
        ((), (0,), (0, 0), (3, 0, 0), (0, 27, 0, 0), (0, 36, 27, 30, 0)),
        (1, 1, 3, 6, 18, 54),
    )
    assert asm.basis.d_K == -(3 ** 7) * 5 ** 5
    assert time.monotonic() - start < 1.0


def test_field_4_4_end_to_end():
    start = time.monotonic()
    field = normalize(4, 4)
    rep = irreducibility_check(field)
    assert rep.status == "irreducible"
    # the proof must come from the wild-ramification degree bound, not
    # from a lucky factorization pattern
    assert "ramification at 2" in rep.method
    assert p_integral_basis(2, field).case == "E18"
    asm = assemble(field)
    assert _same_lattice(
        asm.basis,
        ((), (0,), (0, 0), (0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0, 0)),
        (1, 1, 1, 2, 2, 2),
    )
    assert asm.basis.d_K == -(2 ** 6) * 8539
    assert time.monotonic() - start < 1.0


def test_polygon_walkthroughs():
    # a quadratic base: F is assembled from its own phi-adic digits
    phi = Poly((1, 0, 1))
    F = (
        poly_mul(phi, phi, phi)
        + poly_mul(Poly((9, 3)), phi, phi)
        + poly_mul(Poly((9, 12)), phi)
        + Poly((81, 9))
    )
    ng = build_polygon(F, phi, 3)
    assert [tuple(v) for v in ng.vertices] == [(0, 0), (2, 1), (3, 2)]
    assert ng.index_contribution() == 2

    # a single edge whose residual polynomial has degree two
    G = Poly((620, 500, 150, 20, 1))  # (x + 5)^4 - 5
    ng = build_polygon(G, X, 2)
    assert [tuple(v) for v in ng.vertices] == [(0, 0), (4, 2)]
    (rp,) = residual_polynomials(G, 2, ng)
    assert rp.coeffs == (1, 1, 1)  # Y^2 + Y + 1 over F_2


def test_lattice_point_count_identity():
    """Points under a segment of width n, height t: brute force agrees
    with the closed form (n-1)(t-1)/2 + (gcd(t,n)-1)/2 and with the
    polygon's own count."""
    start = time.monotonic()
    for n in range(1, 51):
        for t in range(1, 51):
            s = sum(i * t // n for i in range(1, n))
            g = math.gcd(t, n)
            assert 2 * s == (n - 1) * (t - 1) + g - 1
            if n >= 2 and n <= 10 and t <= 10:
                # x^n + p^t has the one-edge polygon from (0,0) to (n,t)
                F = Poly((2 ** t,) + (0,) * (n - 1) + (1,))
                assert build_polygon(F, X, 2).index_contribution() == s
    assert time.monotonic() - start < 1.0


_SWEEP_CACHE = []


def _sweep():
    """Twenty steered instances of each of the 87 cases, generated once."""
    if not _SWEEP_CACHE:
        rng = random.Random(871206)
        for label in all_labels():
            for _ in range(20):
                p, field = instance(label, rng)
                pb = p_integral_basis(p, field)
                _SWEEP_CACHE.append((label, p, field, pb.params, pb))
    return _SWEEP_CACHE


def test_case_table_sweep():
    start = time.monotonic()
    seen = {}
    for label, p, field, params, pb in _sweep():
        assert abs(field.a) <= 10 ** 12 and abs(field.b) <= 10 ** 12
        seen[label] = seen.get(label, 0) + 1

        # the dispatcher matched this label (and raises internally if
        # the condition lists ever overlap, so the match is unique)
        assert pb.case == label
        assert pb.v_D == vp(field.D, p)
        assert 2 * sum(pb.k) + pb.v_dK == pb.v_D

        for i, (row, k) in enumerate(zip(pb.rows, pb.k)):
            assert is_integral(Poly(row + (1,)), p ** k, field.f), (label, i)

        order = OrderPresentation.from_triangular(
            pb.rows, tuple(p ** k for k in pb.k), field.f
        )
        assert maximality_test(order, p), label
        assert dedekind_maximal_at_p(field.f, p) == (sum(pb.k) == 0), label

    assert len(seen) == 87
    assert all(count >= 20 for count in seen.values())
    assert time.monotonic() - start < 600.0


def check_box(R):
    """Every (a, b) with |a|, |b| <= R, b != 0 and D != 0, at each of
    2, 3 and 5 that divides D: the table of p matches exactly one row
    (`p_integral_basis` raises otherwise) and Cohen's test proves that
    row's basis p-maximal.  Returns the number of checks and the set of
    labels reached.

    R = 150 holds a representative of every residue class of (a, b)
    mod 2^8, 3^5 and 5^3; CI runs that box as a step of its own with

        python -c "import sys; sys.path[:0] = ['tests'];
                   from test_acceptance import check_box; check_box(150)"
    """
    checks, labels = 0, set()
    for a in range(-R, R + 1):
        for b in range(-R, R + 1):
            if b == 0 or 3125 * a ** 6 == 46656 * b ** 5:
                continue
            field = normalize(a, b)
            for p in (2, 3, 5):
                if field.D % p:
                    continue
                pb = p_integral_basis(p, field)
                order = OrderPresentation.from_triangular(
                    pb.rows, tuple(p ** k for k in pb.k), field.f
                )
                assert maximality_test(order, p), (a, b, p, pb.case)
                checks += 1
                labels.add(pb.case)
    return checks, labels


def test_case_table_box():
    checks, labels = check_box(40)
    assert checks == 6730
    assert len(labels) == 55


def test_ore_oracle_agreement():
    checked = 0
    for label, p, field, params, pb in _sweep():
        if label not in REGULAR_ROUTE:
            continue
        total, attained = ore_index(field.f, p, ore_translations(params))
        assert attained, (label, field.a, field.b)
        assert total == sum(pb.k), (label, field.a, field.b)
        checked += 1
    assert checked >= 20 * len(REGULAR_ROUTE)


def test_pure_sextic_cross_check():
    rng = random.Random(114)
    primes = (2, 3, 5, 7, 11, 13)
    done = 0
    while done < 200:
        b = rng.choice((1, -1))
        for q in primes:
            b *= q ** rng.randrange(6)
        if abs(b) == 1:
            continue
        field = normalize(0, b)
        assert field.b == b  # sixth-power-free, so nothing to absorb
        if irreducibility_check(field).status != "irreducible":
            continue
        closed_form = pure_sextic_discriminant(b)
        asm = assemble(field)
        assert closed_form.d_K == asm.basis.d_K, b
        done += 1


def test_local_exponent_round_trip():
    for label, p, field, params, pb in _sweep():
        rebuilt = combine([pb], field.D)
        assert prime_exponent_profile(rebuilt, p) == pb.k, label


def test_discriminant_closed_form():
    rng = random.Random(55)
    pairs = [(0, 0), (0, 1), (1, 0), (6, 5), (-6, 5), (4, 4), (0, 12)]
    while len(pairs) < 10 ** 4:
        scale = 10 ** rng.randrange(1, 13)
        pairs.append(
            (rng.randrange(-scale, scale), rng.randrange(-scale, scale))
        )
    for a, b in pairs:
        f = trinomial(a, b)
        assert discriminant(f) == 3125 * a ** 6 - 46656 * b ** 5
