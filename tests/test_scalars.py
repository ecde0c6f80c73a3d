"""Arithmetic axioms and report form of the Gaussian-rational scalar type."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from afpath import Scalar, ZERO, ONE, I, as_scalar

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
scalars = st.builds(Scalar, rationals, rationals)


def test_constants():
    assert ZERO == 0
    assert ONE == 1
    assert I * I == -1
    assert not ZERO
    assert ONE and I


def test_mixed_equality():
    assert Scalar(3) == 3
    assert Scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert Scalar(3, 1) != 3
    assert Scalar(0, 1) != 0


def test_as_scalar():
    assert as_scalar(2) == Scalar(2)
    assert as_scalar(Fraction(-5, 3)) == Scalar(Fraction(-5, 3))
    s = Scalar(1, 2)
    assert as_scalar(s) is s
    with pytest.raises(TypeError):
        as_scalar("x")
    with pytest.raises(TypeError):
        as_scalar(0.5)


def test_int_and_fraction_operands():
    s = Scalar(Fraction(1, 2), Fraction(1, 3))
    assert 2 * s == s * 2 == Scalar(1, Fraction(2, 3))
    assert s + 1 == 1 + s == Scalar(Fraction(3, 2), Fraction(1, 3))
    assert 1 - s == Scalar(Fraction(1, 2), Fraction(-1, 3))
    assert s - Fraction(1, 2) == Scalar(0, Fraction(1, 3))


def test_foreign_types_are_rejected():
    with pytest.raises(TypeError):
        Scalar(1) + "x"
    with pytest.raises(TypeError):
        Scalar(1) * 0.5
    assert Scalar(1).__add__("x") is NotImplemented
    assert Scalar(1).__mul__(0.5) is NotImplemented


@given(scalars, scalars, scalars)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(scalars)
def test_units_and_negation(x):
    assert x + ZERO == x
    assert x * ONE == x
    assert x + (-x) == ZERO
    assert x - x == ZERO


@given(scalars, scalars)
def test_conjugation(x, y):
    assert x.conjugate().conjugate() == x
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x * x.conjugate() == Scalar(x.abs_sq())


@given(scalars, scalars)
def test_abs_sq_multiplicative(x, y):
    assert (x * y).abs_sq() == x.abs_sq() * y.abs_sq()
    assert x.abs_sq() >= 0


def test_to_report():
    assert Scalar(Fraction(1, 2), Fraction(-3, 4)).to_report() == "1/2+-3/4*i"
    assert ZERO.to_report() == "0/1+0/1*i"
    assert ONE.to_report() == "1/1+0/1*i"
    assert I.to_report() == "0/1+1/1*i"


@given(scalars, scalars)
def test_to_report_is_injective(x, y):
    if x != y:
        assert x.to_report() != y.to_report()


def test_str_forms():
    assert str(Scalar(2)) == "2"
    assert str(Scalar(0, Fraction(1, 2))) == "1/2*i"
    assert str(Scalar(1, -1)) == "1-1*i"


def test_hashable():
    assert hash(Scalar(1, 0)) == hash(Scalar(Fraction(1), Fraction(0)))
    assert len({Scalar(1), Scalar(1, 0), ONE}) == 1


def test_hash_agrees_with_mixed_equality():
    assert hash(Scalar(3)) == hash(3)
    assert {3: "x"}.get(Scalar(3)) == "x"
    assert hash(Scalar(Fraction(-5, 3))) == hash(Fraction(-5, 3))
    assert {Fraction(-5, 3): "y"}.get(Scalar(Fraction(-5, 3))) == "y"
    assert {Scalar(1, Fraction(1, 2)): "z"}.get(Scalar(Fraction(2, 2), Fraction(2, 4))) == "z"
    assert {0: "w"}.get(Scalar(0, 1)) is None


@given(scalars, scalars)
def test_equal_scalars_hash_equal(x, y):
    if x == y:
        assert hash(x) == hash(y)
    if not x.im:
        assert hash(x) == hash(x.re)
