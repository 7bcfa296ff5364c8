"""Exact window arithmetic for series in z^{-1}."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from resurgentia.scalars import ExactScalar
from resurgentia.series import DEFAULT_ORDER, PowerSeries

coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def series_strategy(order=6, unit=False, no_constant=False):
    def build(cs):
        cs = list(cs)
        if unit:
            cs[0] = Fraction(1)
        if no_constant:
            cs[0] = Fraction(0)
        return PowerSeries.from_coeffs(cs, order)

    return st.lists(coeff, min_size=order + 1, max_size=order + 1).map(build)


def test_constructors_and_window():
    s = PowerSeries.from_coeffs([1, 2, 3])
    assert s.order == 2 and s.coeff(1) == ExactScalar(2)
    assert PowerSeries.one(4).coeff(0) == ExactScalar.one()
    assert PowerSeries.monomial(2, 4, Fraction(1, 3)).coeff(2) == ExactScalar(Fraction(1, 3))
    with pytest.raises(ValueError):
        PowerSeries.monomial(5, 4)
    assert DEFAULT_ORDER == 64


def test_truncation_window_rules():
    a = PowerSeries.from_coeffs([1, 1, 1, 1], 3)
    b = PowerSeries.from_coeffs([1, 2], 1)
    assert (a + b).order == 1
    assert (a * b).order == 1


def test_inverse_requires_unit():
    s = PowerSeries.from_coeffs([0, 1], 3)
    with pytest.raises(ValueError):
        s.inverse()


def test_log_exp_preconditions():
    with pytest.raises(ValueError, match="wrong constant term"):
        PowerSeries.from_coeffs([2, 1], 3).log()
    with pytest.raises(ValueError, match="wrong constant term"):
        PowerSeries.from_coeffs([1, 1], 3).exp()


def test_compose_constant_guard():
    a = PowerSeries.from_coeffs([1, 1], 4)
    shift = PowerSeries.from_coeffs([1, 0], 4)
    with pytest.raises(ValueError, match="zero constant term"):
        a.compose_shift(shift)
    a.compose_shift(shift, allow_constant=True)


def test_reflect_involution():
    a = PowerSeries.from_coeffs([1, 2, 3, 4], 3)
    assert a.reflect().reflect() == a
    assert a.reflect().coeff(1) == ExactScalar(-2)


def test_json_roundtrip():
    a = PowerSeries.from_coeffs([Fraction(5, 72), 1, Fraction(-3, 4)], 4)
    assert PowerSeries.from_json(a.to_json()) == a


@given(series_strategy(), series_strategy())
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(series_strategy(5), series_strategy(5), series_strategy(5))
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(series_strategy(unit=True))
def test_inverse_of_unit(a):
    assert a * a.inverse() == PowerSeries.one(a.order)


@given(series_strategy(no_constant=True))
def test_exp_log_roundtrip(a):
    assert a.exp().log() == a


@given(series_strategy(unit=True))
def test_log_exp_roundtrip(a):
    assert a.log().exp() == a


@given(series_strategy(6), series_strategy(6))
def test_diff_leibniz(a, b):
    lhs = (a * b).diff()
    rhs = a.diff() * b.truncate(a.diff().order) + a.truncate(b.diff().order) * b.diff()
    assert lhs == rhs.truncate(lhs.order)


@given(series_strategy(6))
def test_compose_identity_shift(a):
    zero = PowerSeries.zero(a.order)
    assert a.compose_shift(zero) == a


def test_compose_against_sympy():
    """a(z + phi) expanded symbolically must match the window composition."""
    order = 6
    a_coeffs = [Fraction(1), Fraction(5, 72), Fraction(-3, 8), Fraction(2, 7), Fraction(0), Fraction(1, 5), Fraction(-1, 9)]
    p_coeffs = [Fraction(0), Fraction(-1, 2), Fraction(1, 6), Fraction(2, 3), Fraction(-1, 4), Fraction(0), Fraction(1, 8)]
    a = PowerSeries.from_coeffs(a_coeffs, order)
    phi = PowerSeries.from_coeffs(p_coeffs, order)
    got = a.compose_shift(phi)

    z, w = sympy.symbols("z w", positive=True)
    phi_expr = sum(sympy.Rational(c) * z ** (-k) for k, c in enumerate(p_coeffs))
    shifted = z + phi_expr
    a_expr = sum(sympy.Rational(c) * shifted ** (-k) for k, c in enumerate(a_coeffs))
    expanded = sympy.series(a_expr.subs(z, 1 / w), w, 0, order + 1).removeO()
    poly = sympy.Poly(sympy.expand(expanded), w)
    for k in range(order + 1):
        want = poly.coeff_monomial(w ** k) if k > 0 else poly.coeff_monomial(1)
        assert got.coeff(k).re == Fraction(str(want)), k


@given(series_strategy(5, no_constant=True), series_strategy(5, no_constant=True))
def test_exp_homomorphism(a, b):
    assert (a + b).exp() == a.exp() * b.exp()
