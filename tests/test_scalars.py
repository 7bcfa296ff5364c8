"""Field arithmetic of the exact scalars."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resurgentia.largeradius import UCoeffSeries, ULaurent
from resurgentia.scalars import ExactScalar
from resurgentia.series import PowerSeries

fractions = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def scalars(gaussian: bool = True):
    if gaussian:
        return st.builds(ExactScalar, fractions, fractions)
    return st.builds(ExactScalar, fractions)


def test_reduction_and_equality():
    assert ExactScalar(Fraction(2, 4)) == ExactScalar(Fraction(1, 2))
    assert ExactScalar(1, 0) == ExactScalar.one()
    assert ExactScalar(0) == ExactScalar.zero()
    assert ExactScalar.i() == ExactScalar(0, 1)
    assert ExactScalar(3) != ExactScalar(3, 1)


def test_mode_tracking():
    a = ExactScalar(Fraction(1, 3))
    assert a.is_rational()
    b = ExactScalar(1, 2)
    assert not b.is_rational()
    # rational results of gaussian arithmetic stay recognizable by value
    c = b * b.conjugate()
    assert c.im == 0


def test_pow_against_repeated_multiplication():
    z = ExactScalar(Fraction(2, 3), Fraction(-1, 5))
    acc = ExactScalar.one()
    for k in range(6):
        assert z ** k == acc
        acc = acc * z
    assert z ** 0 == ExactScalar.one()


def test_conversions():
    z = ExactScalar(Fraction(1, 4), Fraction(-3, 2))
    assert complex(z) == 0.25 - 1.5j
    assert float(ExactScalar(Fraction(7, 8))) == 0.875
    with pytest.raises((TypeError, ValueError)):
        float(z)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ExactScalar.one() / ExactScalar.zero()


def test_str_roundtrip():
    for z in (
        ExactScalar(Fraction(5, 72)),
        ExactScalar(0, 1),
        ExactScalar(Fraction(-3, 7), Fraction(2, 9)),
        ExactScalar.zero(),
    ):
        assert ExactScalar.from_str(z.to_str()) == z


@given(scalars(), scalars())
def test_add_sub_roundtrip(a, b):
    assert (a + b) - b == a


@given(scalars(), scalars())
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(scalars(), scalars(), scalars())
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(scalars(), scalars())
def test_division_inverts(a, b):
    if b.is_zero():
        return
    assert (a * b) / b == a


@given(scalars(), scalars())
def test_conjugation_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(scalars())
def test_norm_is_rational(a):
    n = a * a.conjugate()
    assert n.im == 0
    assert n.re >= 0


@given(scalars())
def test_int_coercion_matches(a):
    assert a + 1 == a + ExactScalar.one()
    assert 2 * a == a + a
    assert 1 - a == ExactScalar.one() - a


@pytest.mark.parametrize(
    "build",
    [
        lambda: ExactScalar(0.1),
        lambda: ExactScalar(1, 0.5),
        lambda: ExactScalar(1j),
        lambda: ExactScalar.one() + 0.5,
        lambda: PowerSeries.from_coeffs([1, 0.5]),
        lambda: PowerSeries(1, (Fraction(1, 2), 2j)),
        lambda: PowerSeries.one(3).scale(0.25),
        lambda: ULaurent({0: 0.1}),
        lambda: ULaurent.mono(2, 0.25),
        lambda: ULaurent.const(1.0),
        lambda: UCoeffSeries("gs2", 0, (ULaurent.const(1),)).scale(2.0),
        lambda: ULaurent({2.5: 1}),
        lambda: ULaurent.mono(1.5, 1),
        lambda: ULaurent({"3": 1}),
    ],
    ids=["scalar-re", "scalar-im", "scalar-complex", "scalar-add", "series-from-coeffs", "series-init",
         "series-scale", "ulaurent-init", "ulaurent-mono", "ulaurent-const", "ucoeff-scale",
         "ulaurent-float-exponent", "ulaurent-mono-float-exponent", "ulaurent-str-exponent"],
)
def test_exact_layer_refuses_floats(build):
    # 0.1 would otherwise enter as the binary fraction 3602879701896397/36028797018963968;
    # a u-exponent 2.5 or "3" would otherwise enter as int(2.5) = 2 or int("3") = 3
    with pytest.raises(TypeError):
        build()
