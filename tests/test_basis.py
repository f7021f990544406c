import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from casegen import instance
from fracmat import mat_det
from oracles import prime_exponent_profile
from sexticfield.basis import IntegralBasis, assemble, combine
from sexticfield.exact import InternalError, is_prime, vp
from sexticfield.sextic import (
    PAdicBasis,
    normalize,
    p_integral_basis,
    reduce_triangular_rows,
)


def _paper_basis(rows, denominators, index, d_K):
    return IntegralBasis(
        rows=rows, denominators=denominators, index=index, d_K=d_K
    )


def _with_v_D(pb, v_D):
    """`pb` with v_p(D) replaced, built through the class."""
    return PAdicBasis(
        p=pb.p, case=pb.case, params=pb.params, k=pb.k, rows=pb.rows,
        v_D=v_D, v_dK=pb.v_dK,
    )


def test_combine_single_prime_golden():
    field = normalize(0, 12)
    result = assemble(field)
    want = _paper_basis(
        ((), (0,), (0, 0), (2, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0, 0)),
        (1, 1, 1, 4, 4, 4),
        64,
        -(2 ** 4) * 3 ** 11,
    )
    assert result.basis == want
    assert result.basis.d_K == -(2 ** 4) * 3 ** 11
    assert result.basis.index == 2 ** 6
    assert result.warnings == ()


def test_combine_two_primes_golden():
    field = normalize(0, 135)
    result = assemble(field)
    want = _paper_basis(
        (
            (),
            (0,),
            (0, 0),
            (3, 0, 0),
            (0, 27, 0, 0),
            (0, 36, 27, 30, 0),
        ),
        (1, 1, 3, 6, 18, 54),
        2 ** 3 * 3 ** 7,
        -(3 ** 7) * 5 ** 5,
    )
    assert result.basis == _paper_basis(
        reduce_triangular_rows(want.rows, want.denominators),
        want.denominators,
        want.index,
        want.d_K,
    )
    assert result.basis.d_K == -(3 ** 7) * 5 ** 5


def test_combine_all_trivial_gives_power_basis():
    field = normalize(4, 4)
    pb = p_integral_basis(8539, field)
    assert pb.index_valuation == 0
    got = combine([pb], field.D)
    assert got.denominators == (1, 1, 1, 1, 1, 1)
    assert got.index == 1
    assert got.d_K == field.D
    assert combine([], field.D).index == 1


def test_combine_consistency_errors():
    field = normalize(0, 12)
    pb = p_integral_basis(2, field)
    with pytest.raises(ValueError):
        combine([pb, pb], field.D)
    broken = _with_v_D(pb, pb.v_D + 2)
    with pytest.raises(InternalError):
        combine([broken], field.D)
    with pytest.raises(InternalError):
        combine([pb], field.D * 4)  # v_2 changes, caught by the v check


def test_field_discriminant():
    # combine divides the index squared out of D and checks it divides
    for a, b, d_K in ((4, 4, -(2 ** 6) * 8539), (0, 135, -(3 ** 7) * 5 ** 5)):
        field = normalize(a, b)
        basis = assemble(field).basis
        assert basis.d_K == d_K
        assert field.D == basis.index ** 2 * d_K
    pb = p_integral_basis(2, normalize(4, 4))
    with pytest.raises(InternalError, match="squared does not divide"):
        combine([_with_v_D(pb, 0)], 5)


def test_canonicalize_idempotent_and_unimodular_invariant():
    field = normalize(0, 135)
    basis = assemble(field).basis
    assert reduce_triangular_rows(basis.rows, basis.denominators) == basis.rows

    # adding a multiple of an earlier row leaves the lattice unchanged
    rows = [list(r) for r in basis.rows]
    t3, t1 = basis.denominators[3], basis.denominators[1]
    step = t3 // t1
    rows[3][1] += 2 * step
    messy = tuple(tuple(r) for r in rows)
    assert messy != basis.rows
    assert reduce_triangular_rows(messy, basis.denominators) == basis.rows


def test_transition_determinant_is_reciprocal_index():
    for a, b in ((0, 12), (0, 135), (4, 4), (2, 3)):
        basis = assemble(normalize(a, b)).basis
        mat = []
        for i in range(6):
            g, t = basis.element(i)
            row = [Fraction(g.coeffs[j] if j < len(g.coeffs) else 0, t)
                   for j in range(6)]
            mat.append(tuple(row))
        assert abs(mat_det(tuple(mat))) == Fraction(1, basis.index)


def test_prime_exponent_profile_round_trip():
    rng = random.Random(99)
    labels = ("E5", "E14", "E20", "F16", "F26", "G6", "H11", "F7", "G17")
    for label in labels:
        for _ in range(3):
            p, field = instance(label, rng)
            pb = p_integral_basis(p, field)
            glued = combine([pb], field.D)
            assert prime_exponent_profile(glued, p) == pb.k
            # a prime away from the lattice reads back all zeros
            assert prime_exponent_profile(glued, 101) == (0,) * 6


def test_prime_exponent_profile_multi_prime():
    field = normalize(0, 135)
    basis = assemble(field).basis
    assert prime_exponent_profile(basis, 2) == (0, 0, 0, 1, 1, 1)
    assert prime_exponent_profile(basis, 3) == (0, 0, 1, 1, 2, 3)
    assert prime_exponent_profile(basis, 5) == (0, 0, 0, 0, 0, 0)


def test_integral_basis_validation():
    with pytest.raises(ValueError):
        IntegralBasis(rows=((),) * 5, denominators=(1,) * 5, index=1, d_K=5)
    with pytest.raises(ValueError):
        IntegralBasis(
            rows=((), (), (0, 0), (0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0, 0)),
            denominators=(2, 1, 1, 1, 1, 1),
            index=2,
            d_K=5,
        )
    with pytest.raises(ValueError):
        IntegralBasis(
            rows=((), (), (0, 0), (0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0, 0)),
            denominators=(1, 1, 1, 1, 1, 2),
            index=4,
            d_K=5,
        )


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2 ** 40, 2 ** 60),
    st.integers(1, 6),
    st.integers(1, 7),
    st.integers(-10 ** 6, 10 ** 6).filter(bool),
    st.integers(-10 ** 6, 10 ** 6).filter(bool),
)
def test_gcd_primes_reach_the_case_tables(g, i, j, u, v):
    """A 40-60-bit prime of gcd(a, b) is classified at a tiny budget.

    a = g^i * u and b = g^j * v with (i, j) not normalizable, so g stays
    in gcd(a, b) and divides D to a power that rho cannot reach in 100
    steps; assemble must find it through the gcd anyway.
    """
    while not is_prime(g):
        g += 1
    assume(i < 5 or j < 6)
    a, b = g ** i * u, g ** j * v
    assume(3125 * a ** 6 != 46656 * b ** 5)
    field = normalize(a, b, factor_budget=100)
    assembly = assemble(field, factor_budget=100)
    assert dict(assembly.discriminant_factors.factors)[g] == vp(field.D, g) > 0
    assert p_integral_basis(g, field) in assembly.per_prime
