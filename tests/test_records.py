"""The result records: immutable values over `__slots__`, no tuples."""

import copy
import pickle

import pytest

from sexticfield.basis import assemble
from sexticfield.exact import Record
from sexticfield.newton import build_polygon
from sexticfield.poly import Poly, X
from sexticfield.sextic import irreducibility_check, normalize
from sexticfield.verify import OrderPresentation


class _Pair(Record):
    __slots__ = ("x", "y")
    _defaults = {"y": 0}


class _OtherPair(Record):
    __slots__ = ("x", "y")


def test_record_construction():
    assert _Pair(1, (2, 3)) == _Pair(1, y=(2, 3)) == _Pair(y=(2, 3), x=1)
    assert _Pair(1) == _Pair(1, 0)
    assert repr(_Pair(1, (2, 3))) == "_Pair(x=1, y=(2, 3))"
    for args, kwargs in (
        ((), {}),  # x has no default
        ((1, 2, 3), {}),
        ((1,), {"x": 2}),
        ((1,), {"z": 2}),
    ):
        with pytest.raises(TypeError):
            _Pair(*args, **kwargs)
    with pytest.raises(TypeError):
        _OtherPair(1)  # no defaults at all


def test_record_immutable_value_and_no_tuple():
    r = _Pair(1, (2, 3))
    for mutate in (
        lambda: setattr(r, "x", 5),
        lambda: setattr(r, "z", 5),
        lambda: delattr(r, "x"),
    ):
        with pytest.raises(AttributeError):
            mutate()
    assert r.x == 1 and r.y == (2, 3)
    same = _Pair(1, (2, 3))
    assert r == same and not r != same and hash(r) == hash(same)
    assert r != _Pair(1, (2, 4))
    # equal fields in another class, or in a tuple, are never equal
    assert r != _OtherPair(1, (2, 3)) and _OtherPair(1, (2, 3)) != r
    assert r != (1, (2, 3)) and (1, (2, 3)) != r
    assert not isinstance(r, tuple)
    with pytest.raises(TypeError):
        x, y = r
    with pytest.raises(TypeError):
        hash(_Pair(1, [2]))  # hashes over its fields
    assert pickle.loads(pickle.dumps(r)) == r
    assert copy.copy(r) == r and copy.deepcopy(r) == r


def _pipeline_records():
    field = normalize(0, 12)
    assembly = assemble(field)
    basis = assembly.basis
    polygon = build_polygon(field.f, X, 2)
    return [
        field,  # TrinomialField
        field.gcd_factors,  # PrimeFactorization
        irreducibility_check(field),  # IrreducibilityReport
        assembly,  # Assembly
        assembly.per_prime[0],  # PAdicBasis
        basis,  # IntegralBasis
        polygon,  # NewtonPolygon
        polygon.edges[0],  # Edge
        OrderPresentation.from_triangular(basis.rows, basis.denominators, field.f),
    ]


def test_the_nine_records():
    records = _pipeline_records()
    assert len({type(r) for r in records}) == 9
    assert records[2].witness is None  # the default of an irreducible verdict
    for r in records:
        cls = type(r)
        assert tuple(cls.__annotations__) == cls.__slots__  # typed fields
        rebuilt = cls(**{name: getattr(r, name) for name in cls.__slots__})
        assert rebuilt == r and rebuilt is not r
        with pytest.raises(AttributeError):
            setattr(r, cls.__slots__[0], None)
        with pytest.raises(AttributeError):
            r.extra = None
        assert not isinstance(r, tuple)
        assert repr(r).startswith(cls.__name__ + "(")
        assert copy.copy(r) == r
        for other in records:
            assert (r == other) == (other is r)
        if cls.__name__ in ("PAdicBasis", "Assembly"):
            # params is a MappingProxyType, which has no hash
            with pytest.raises(TypeError):
                hash(r)
        else:
            assert hash(rebuilt) == hash(r)


def test_poly_and_the_records_that_hold_one_copy_and_pickle():
    field = normalize(4, 4)
    values = [
        Poly((1, 2)),
        Poly(()),
        field.f,  # a Poly with int coefficients
        Poly((1, 0, 2)).divmod_by(Poly((0, 3)))[0],  # Fraction coefficients
        field,  # TrinomialField
        build_polygon(field.f, X, 2),  # NewtonPolygon
        irreducibility_check(normalize(2, 1)),  # IrreducibilityReport with a witness
    ]
    assert values[-1].witness == Poly((1, 1))
    for value in values:
        for clone in (
            copy.copy(value),
            copy.deepcopy(value),
            pickle.loads(pickle.dumps(value)),
        ):
            assert clone == value and type(clone) is type(value)
            assert hash(clone) == hash(value)
    # a Poly, rebuilt or not, is as immutable as every record: its
    # coefficients can be neither replaced nor deleted
    for poly in (Poly((1, 2)), copy.deepcopy(Poly((1, 2)))):
        for mutate in (
            lambda: setattr(poly, "coeffs", (3,)),
            lambda: delattr(poly, "coeffs"),
        ):
            with pytest.raises(AttributeError):
                mutate()
        assert poly.coeffs == (1, 2)
