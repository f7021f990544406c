import random
from fractions import Fraction

import pytest
import sympy

import polyref
from casegen import all_labels, instance
from fracmat import char_poly_of_element, mat_inv
from sexticfield.basis import assemble, combine
from sexticfield.exact import InternalError, factor
from sexticfield.poly import Poly, is_integral, trinomial
from sexticfield.sextic import normalize, p_integral_basis
from sexticfield.verify import (
    OrderPresentation,
    _left_kernel_mod_p,
    _radical_basis,
    _radical_image,
    _solve_triangular,
    dedekind_maximal_at_p,
    lattice_index,
    maximality_test,
)

POWER_ROWS = ((), (0,), (0, 0), (0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0, 0))


def test_is_integral_examples():
    assert is_integral(Poly((0, 0, 0, 0, 0, 1)), 2, trinomial(2, 4))
    assert is_integral(Poly((1, 0, 0, 1)), 2, trinomial(0, 135))
    assert not is_integral(Poly((0, 1)), 2, trinomial(0, 12))


def test_order_presentation_accepts_orders():
    f = trinomial(0, 12)
    OrderPresentation.from_triangular(POWER_ROWS, (1,) * 6, f)
    f = trinomial(4, 4)
    order = OrderPresentation.from_triangular(
        POWER_ROWS, (1, 1, 1, 2, 2, 2), f
    )
    # e_0 = 1, so its line of the table holds the unit vectors
    assert order.mult_table[0] == tuple(
        tuple(int(i == j) for i in range(6)) for j in range(6)
    )


def test_order_presentation_rejects_non_ring():
    f = trinomial(0, 12)
    rows = ((), (0,), (0, 0), (0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        OrderPresentation.from_triangular(rows, (1, 1, 1, 1, 1, 2), f)


def test_order_presentation_rejects_non_monic_or_rational_f():
    for f in (Poly((4, 4, 0, 0, 0, 0, 2)),
              Poly((Fraction(1, 2), 4, 0, 0, 0, 0, 1))):
        with pytest.raises(ValueError):
            OrderPresentation.from_triangular(POWER_ROWS, (1,) * 6, f)


def test_pipeline_bases_are_rings():
    rng = random.Random(17)
    for label in ("E13", "E20", "F26", "G6", "H11", "F19"):
        p, field = instance(label, rng)
        pb = p_integral_basis(p, field)
        dens = tuple(p ** k for k in pb.k)
        OrderPresentation.from_triangular(pb.rows, dens, field.f)


def test_lattice_index():
    basis = assemble(normalize(0, 12)).basis
    assert lattice_index(basis) == 2 ** 6
    basis = assemble(normalize(0, 135)).basis
    assert lattice_index(basis) == 2 ** 3 * 3 ** 7
    basis = assemble(normalize(4, 4)).basis
    assert lattice_index(basis) == 2 ** 3

    field = normalize(0, 135)
    pb = p_integral_basis(3, field)
    assert lattice_index(combine([pb], field.D)) == 3 ** pb.index_valuation

    # the same lattice in the unimodular basis b_i + b_(i+1), b_5: the
    # numerators are no longer triangular, so the diagonal is no
    # determinant and the basis is refused
    class Mixed:
        def element(self, i):
            g, t = basis.element(i)
            if i == 5:
                return g, t
            h, u = basis.element(i + 1)
            return (
                polyref.poly_mul(g, Poly((u,))) + polyref.poly_mul(h, Poly((t,))),
                t * u,
            )

    # a degenerate basis, with two equal numerator rows
    class Twice:
        def element(self, i):
            return basis.element(min(i, 4))

    for bad in (Mixed(), Twice()):
        with pytest.raises(ValueError, match="not triangular"):
            lattice_index(bad)


def test_dedekind_criterion():
    assert dedekind_maximal_at_p(trinomial(4, 4), 8539)
    assert not dedekind_maximal_at_p(trinomial(0, 12), 2)
    assert dedekind_maximal_at_p(trinomial(0, 12), 7)
    # v_3(D) = 11 yet the index at 3 is trivial: all eleven 3s are wild
    assert dedekind_maximal_at_p(trinomial(0, 12), 3)
    assert not dedekind_maximal_at_p(trinomial(0, 135), 3)
    assert dedekind_maximal_at_p(trinomial(1, 1), 2)


def test_maximality_oracle_on_worked_examples():
    f = trinomial(4, 4)
    order = OrderPresentation.from_triangular(
        POWER_ROWS, (1, 1, 1, 2, 2, 2), f
    )
    assert maximality_test(order, 2)

    f = trinomial(0, 12)
    power = OrderPresentation.from_triangular(POWER_ROWS, (1,) * 6, f)
    assert not maximality_test(power, 2)

    basis = assemble(normalize(0, 12)).basis
    order = OrderPresentation.from_triangular(
        basis.rows, basis.denominators, f
    )
    assert maximality_test(order, 2)
    assert maximality_test(order, 3)


def test_maximality_test_agrees_with_dedekind():
    """Both oracles decide p-maximality of Z[theta]; they must agree."""
    rng = random.Random(2718)
    pairs = 0
    while pairs < 20:
        a = rng.randint(-3000, 3000)
        b = rng.randint(-3000, 3000)
        D = 3125 * a ** 6 - 46656 * b ** 5
        if b == 0 or D == 0:
            continue
        f = trinomial(a, b)
        power = OrderPresentation.from_triangular(POWER_ROWS, (1,) * 6, f)
        pf = factor(D)
        assert pf.complete
        for p in pf.primes():
            assert maximality_test(power, p) == dedekind_maximal_at_p(f, p), \
                (a, b, p)
        pairs += 1


def test_oracles_confirm_the_low_valuation_proof():
    """At v_p(D) <= 1 both oracles return what the index relation proves.

    The CLI skips them there, since D = [O_K : Z[theta]]^2 * d_K keeps
    p out of the index; computed anyway, they must agree, for the glued
    order and for Z[theta] itself.
    """
    rng = random.Random(6131)
    checked = 0
    pairs = 0
    while pairs < 20:
        a = rng.randint(-3000, 3000)
        b = rng.randint(-3000, 3000)
        if b == 0 or 3125 * a ** 6 == 46656 * b ** 5:
            continue
        field = normalize(a, b)
        assembly = assemble(field)
        assert assembly.discriminant_factors.complete
        basis = assembly.basis
        f = field.f
        order = OrderPresentation.from_triangular(
            basis.rows, basis.denominators, f
        )
        power = OrderPresentation.from_triangular(POWER_ROWS, (1,) * 6, f)
        for p, e in assembly.discriminant_factors.factors:
            if e > 1:
                continue
            assert maximality_test(order, p), (a, b, p)
            assert maximality_test(power, p), (a, b, p)
            assert dedekind_maximal_at_p(f, p), (a, b, p)
            checked += 1
        pairs += 1
    assert checked >= 20


def test_solve_triangular_against_inverse():
    """Coordinates by back-substitution equal v/den times the inverse."""
    rng = random.Random(404)
    for _ in range(60):
        n = rng.randint(1, 6)
        dens = [rng.choice((1, 2, 3, 4, 6, 9)) for _ in range(n)]
        rows = [
            [rng.randint(-5, 5) for _ in range(i)] + [rng.choice((1, -1, 2, 3))]
            for i in range(n)
        ]
        basis = [
            [Fraction(c, d) for c in row] + [0] * (n - len(row))
            for row, d in zip(rows, dens)
        ]
        inverse = mat_inv(basis)
        for _ in range(4):
            den = rng.choice((1, 2, 3, 5, 12))
            v = [rng.randint(-30, 30) for _ in range(n)]
            want = [
                sum(Fraction(v[i], den) * inverse[i][j] for i in range(n))
                for j in range(n)
            ]
            got = _solve_triangular(rows, dens, v, den)
            if all(x.denominator == 1 for x in want):
                assert got == tuple(want)
            else:
                assert got is None


def _draw_for_dedekind(rng):
    """(F, p): p a prime up to 13, F monic of degree 2 to 8.

    F is a product of random monic factors, each raised to a power from
    1 to 3 (so p-th powers at 2 and 3 are among them), plus p times a
    random polynomial of lower degree.  The factors need not be
    irreducible or coprime mod p, and their coefficients run outside
    [0, p), so neither the factorization nor its lifts are known.
    """
    p = rng.choice((2, 3, 5, 7, 11, 13))
    n = rng.randint(2, 8)
    F = Poly((1,))
    while F.degree < n:
        e = rng.randint(1, min(3, n - F.degree))
        d = rng.randint(1, (n - F.degree) // e)
        part = Poly([rng.randint(-p, 2 * p) for _ in range(d)] + [1])
        F = polyref.poly_mul(F, polyref.poly_pow(part, e))
    return F + Poly([p * rng.randint(-p, p) for _ in range(n)]), p


def _dedekind_by_sympy(F, p):
    """Dedekind's criterion on sympy's factorization of F mod p.

    g is the product of the lifted distinct irreducible factors, h the
    product of their lifts to the power e - 1, T = (g*h - F)/p, and the
    power order is p-maximal iff gcd(T, g, h) = 1 mod p.
    """
    x = sympy.Symbol("x")
    f = sympy.Poly(list(reversed(F.coeffs)), x)
    g = h = sympy.Poly(1, x)
    for phi, e in sympy.Poly(f, modulus=p).factor_list()[1]:
        lift = sympy.Poly([int(c) % p for c in phi.all_coeffs()], x)
        g, h = g * lift, h * lift ** (e - 1)
    T = (g * h - f).exquo_ground(p)
    d = sympy.Poly(g, modulus=p).gcd(sympy.Poly(h, modulus=p))
    return d.gcd(sympy.Poly(T, modulus=p)).degree() == 0


def check_dedekind_agreement(count, seed):
    """On `count` seeded draws, `dedekind_maximal_at_p` equals the
    criterion evaluated on sympy's factorization mod p, which shares no
    F_p[x] code with the package.  Returns [how many draws are not
    p-maximal, how many are].  CI runs 20,000 draws as a step of its own
    with

        python -c "import sys; sys.path[:0] = ['tests'];
                   from test_verify import check_dedekind_agreement;
                   check_dedekind_agreement(20000, 1)"
    """
    rng = random.Random(seed)
    verdicts = [0, 0]
    for _ in range(count):
        F, p = _draw_for_dedekind(rng)
        got = dedekind_maximal_at_p(F, p)
        assert got == _dedekind_by_sympy(F, p), (F, p)
        verdicts[got] += 1
    return verdicts


def test_dedekind_agrees_with_sympy():
    not_maximal, maximal = check_dedekind_agreement(300, 1)
    assert not_maximal >= 30 and maximal >= 30


def test_dedekind_agrees_with_case_tables():
    rng = random.Random(801)
    for label in ("E2", "E17", "F5", "F27", "G8", "G11", "H3", "H12"):
        for _ in range(2):
            p, field = instance(label, rng)
            pb = p_integral_basis(p, field)
            assert dedekind_maximal_at_p(field.f, p) == (pb.index_valuation == 0), \
                (label, field.a, field.b)


def _char_poly_by_matrix(g, t, f):
    # multiplication matrix of g(theta)/t on the power basis, then
    # Faddeev-LeVerrier for its characteristic polynomial
    n = f.degree
    rows = []
    for j in range(n):
        prod = polyref.poly_mul(g, Poly((0,) * j + (1,))).divmod_by(f)[1]
        rows.append([Fraction(prod[k], t) for k in range(n)])
    M = rows
    coeffs = [Fraction(1)]
    A = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            A[i][i] += coeffs[-1]
        A = [[sum(M[i][l] * A[l][j] for l in range(n)) for j in range(n)]
             for i in range(n)]
        c = -sum(A[i][i] for i in range(n)) / k
        coeffs.append(c)
    coeffs.reverse()
    return Poly(tuple(coeffs))


def test_char_poly_matrix_cross_check():
    rng = random.Random(5150)
    for _ in range(12):
        a = rng.randrange(-50, 51)
        b = rng.randrange(-50, 51)
        if b == 0 or 3125 * a ** 6 == 46656 * b ** 5:
            continue
        f = trinomial(a, b)
        g = Poly(tuple(rng.randrange(-6, 7) for _ in range(6)))
        t = rng.choice((1, 2, 3, 4))
        assert _char_poly_by_matrix(g, t, f) == char_poly_of_element(g, t, f)


def _table_by_fractions(rows, denominators, f):
    """Multiplication table from all 36 products, solved over Q."""
    basis = [
        [Fraction(c, t) for c in tuple(row) + (1,)] + [0] * (5 - len(row))
        for row, t in zip(rows, denominators)
    ]
    inverse = mat_inv(basis)
    elements = [Poly(tuple(row) + (1,)) for row in rows]
    table = []
    for i in range(6):
        line = []
        for j in range(6):
            prod = polyref.poly_mul(elements[i], elements[j]).divmod_by(f)[1]
            den = denominators[i] * denominators[j]
            coords = [
                sum(Fraction(prod[k], den) * inverse[k][l] for k in range(6))
                for l in range(6)
            ]
            assert all(c.denominator == 1 for c in coords), (i, j)
            line.append(tuple(int(c) for c in coords))
        table.append(tuple(line))
    return tuple(table)


def test_symmetric_table_matches_all_36_products():
    """from_triangular computes 21 products and mirrors the rest; on two
    instances of every case the table equals the one built from all 36,
    and raising one denominator by p (a lattice no longer inside the
    integers, so not a ring) still raises."""
    rng = random.Random(36)
    for label in all_labels():
        for _ in range(2):
            p, field = instance(label, rng)
            pb = p_integral_basis(p, field)
            dens = tuple(p ** k for k in pb.k)
            order = OrderPresentation.from_triangular(pb.rows, dens, field.f)
            assert order.mult_table == _table_by_fractions(
                pb.rows, dens, field.f
            ), (label, field.a, field.b)
            for i in range(1, 6):
                bad = dens[:i] + (dens[i] * p,) + dens[i + 1:]
                with pytest.raises(ValueError):
                    OrderPresentation.from_triangular(pb.rows, bad, field.f)


def check_kernel_agreement(per_label, seed):
    """On `per_label` instances of every case, for the case's order and
    for Z[theta]: the convolution table equals the Poly-based one, the
    radical basis equals the HNF of pO plus the Gauss-Jordan nilpotents,
    the inline image equals the one built through `multiply` and
    `_solve_triangular`, and Cohen's test agrees.  CI runs 30 per label
    as a step of its own with

        python -c "import sys; sys.path[:0] = ['tests'];
                   from test_verify import check_kernel_agreement;
                   check_kernel_agreement(30, 1)"
    """
    rng = random.Random(seed)
    for label in all_labels():
        for _ in range(per_label):
            p, field = instance(label, rng)
            pb = p_integral_basis(p, field)
            for rows, dens in ((pb.rows, tuple(p ** k for k in pb.k)),
                               (POWER_ROWS, (1,) * 6)):
                order = OrderPresentation.from_triangular(rows, dens, field.f)
                table = polyref.table_by_polys(rows, dens, field.f)
                where = (label, field.a, field.b, dens)
                assert order.mult_table == table, where
                BI = _radical_basis(order, p)
                assert BI == polyref.radical_basis(table, p), where
                assert _radical_image(order, BI) == \
                    polyref.radical_image(table, BI), where
                assert maximality_test(order, p) == \
                    polyref.is_p_maximal(table, p), where


def test_integer_kernels_match_the_poly_references():
    check_kernel_agreement(2, 87)


def test_radical_image_refuses_a_lattice_that_is_no_ideal():
    # pO + Z*theta: theta * theta = theta^2 lies outside it
    order = OrderPresentation.from_triangular(
        POWER_ROWS, (1,) * 6, trinomial(0, 12)
    )
    gens = [[2 * int(i == j) for j in range(6)] for i in range(6)]
    BI = polyref.hnf(gens + [[0, 1, 0, 0, 0, 0]])
    with pytest.raises(InternalError):
        _radical_image(order, BI)
    with pytest.raises(InternalError):
        polyref.radical_image(order.mult_table, BI)


def test_left_kernel_against_gauss_jordan():
    """The left kernel spans the same subspace as the Gauss-Jordan kernel
    of the transpose: equal dimension, and equal lattices p*Z^n + span.
    Each kernel vector is 1 at its own row index and 0 at every other
    kernel row's index, which makes the kernel vectors of the Frobenius
    rows the radical's HNF rows."""
    rng = random.Random(1729)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7))
        width = rng.choice((6, 36))
        rank = rng.randint(0, 6)
        base = [[rng.randrange(p) for _ in range(width)] for _ in range(rank)]
        rows = [
            [sum(rng.randrange(p) * b[c] for b in base) + p * rng.randint(-2, 2)
             for c in range(width)]
            for _ in range(6)
        ]
        kernel = _left_kernel_mod_p(rows, p)
        for j, x in kernel.items():
            assert all(sum(x[i] * rows[i][c] for i in range(6)) % p == 0
                       for c in range(width))
            assert [x[i] for i in kernel] == [int(i == j) for i in kernel]
        got = list(kernel.values())
        want = polyref.kernel_mod_p([list(col) for col in zip(*rows)], p)
        assert len(got) == len(want)
        lattice = [[p * int(i == j) for j in range(6)] for i in range(6)]
        assert polyref.hnf(lattice + [list(x) for x in got]) == \
            polyref.hnf(lattice + [list(x) for x in want])
