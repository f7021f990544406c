from fractions import Fraction

import pytest

from fracmat import mat_det, mat_identity, mat_inv, mat_mul


def test_mat_helpers():
    A = ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(5)))
    assert mat_det(A) == -1
    Ainv = mat_inv(A)
    assert mat_mul(A, Ainv) == mat_identity(2)
    with pytest.raises(ValueError):
        mat_inv(((1, 2), (2, 4)))
