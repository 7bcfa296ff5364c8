"""Exact window arithmetic for series in z^{-1}."""

import copy
import json
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from resurgentia.scalars import ExactScalar
from resurgentia.series import DEFAULT_ORDER, PowerSeries, _rescale
from test_scalars import _from_str

coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _from_json_dict(d: dict) -> PowerSeries:
    return PowerSeries(int(d["order"]), tuple(_from_str(s) for s in d["coeffs"]))


def _from_json(s: str) -> PowerSeries:
    return _from_json_dict(json.loads(s))


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


def test_inverse_of_a_purely_imaginary_unit():
    # the unit guard reads both parts of c_0: i q is a unit, 0 + c_1 i is not
    s = PowerSeries.from_coeffs([ExactScalar(0, Fraction(2, 3)), 1, ExactScalar(Fraction(1, 2), -1), 5], 3)
    inv = s.inverse()
    assert inv.coeff(0) == ExactScalar(0, Fraction(-3, 2))
    assert s * inv == PowerSeries.one(3)
    _assert_same_window(inv, _reference_inverse(s))
    with pytest.raises(ValueError, match="not a unit"):
        PowerSeries.from_coeffs([0, ExactScalar(0, 1), 2], 3).inverse()


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


def test_reflect_involution():
    a = PowerSeries.from_coeffs([1, 2, 3, 4], 3)
    assert a.reflect().reflect() == a
    assert a.reflect().coeff(1) == ExactScalar(-2)


def test_json_roundtrip():
    a = PowerSeries.from_coeffs([Fraction(5, 72), 1, Fraction(-3, 4)], 4)
    assert _from_json(a.to_json()) == a


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


# -- the integer-numerator kernels against the term-by-term scalar loops --------


def _reference_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """The ExactScalar loop the product kernel replaces."""
    n = min(a.order, b.order)
    out = [ExactScalar.zero()] * (n + 1)
    for i in range(n + 1):
        ai = a.coeffs[i]
        if ai.is_zero():
            continue
        for j in range(n + 1 - i):
            bj = b.coeffs[j]
            if not bj.is_zero():
                out[i + j] = out[i + j] + ai * bj
    return PowerSeries(n, tuple(out))


def _reference_inverse(s: PowerSeries) -> PowerSeries:
    n = s.order
    inv0 = ExactScalar.one() / s.coeffs[0]
    out = [inv0] + [ExactScalar.zero()] * n
    for k in range(1, n + 1):
        acc = ExactScalar.zero()
        for j in range(1, k + 1):
            acc = acc + s.coeffs[j] * out[k - j]
        out[k] = -inv0 * acc
    return PowerSeries(n, tuple(out))


def _reference_log(s: PowerSeries) -> PowerSeries:
    n = s.order
    out = [ExactScalar.zero()] * (n + 1)
    for k in range(1, n + 1):
        acc = ExactScalar.zero()
        for j in range(1, k):
            acc = acc + out[j] * s.coeffs[k - j] * j
        out[k] = s.coeffs[k] - acc / k
    return PowerSeries(n, tuple(out))


def _reference_exp(s: PowerSeries) -> PowerSeries:
    n = s.order
    out = [ExactScalar.one()] + [ExactScalar.zero()] * n
    for k in range(1, n + 1):
        acc = ExactScalar.zero()
        for j in range(1, k + 1):
            acc = acc + s.coeffs[j] * out[k - j] * j
        out[k] = acc / k
    return PowerSeries(n, tuple(out))


# gaussian scalars include ones whose imaginary part is 0
rational_scalars = coeff.map(ExactScalar)
gaussian_scalars = st.builds(
    ExactScalar,
    coeff,
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 7)]) | coeff,
)
window_scalars = {
    "rational": rational_scalars,
    "gaussian": gaussian_scalars,
    "mixed": rational_scalars | gaussian_scalars,
}


@st.composite
def windows(draw, c0=None, max_order=9):
    """Rational, gaussian or mixed windows; half of them sparse (zero rows,
    monomials, the zero window)."""
    n = draw(st.integers(0, max_order))
    scalars = window_scalars[draw(st.sampled_from(sorted(window_scalars)))]
    if draw(st.booleans()):
        cs = [ExactScalar.zero()] * (n + 1)
        for k in draw(st.sets(st.integers(0, n), max_size=2)):
            cs[k] = draw(scalars)
    else:
        cs = draw(st.lists(scalars, min_size=n + 1, max_size=n + 1))
    if c0 is not None:
        cs[0] = draw(c0)
    return PowerSeries(n, tuple(cs))


def _assert_same_window(got: PowerSeries, want: PowerSeries):
    assert got.to_json() == want.to_json()


units = (rational_scalars | gaussian_scalars).filter(lambda c: not c.is_zero())
ones = st.just(ExactScalar(1))
zeros = st.just(ExactScalar(0))


@given(windows(), windows())
def test_mul_matches_scalar_loop(a, b):
    # operands of unequal order are truncated to the shorter window
    _assert_same_window(a * b, _reference_mul(a, b))
    _assert_same_window(b * a, _reference_mul(b, a))


@given(windows())
def test_square_matches_product_with_a_copy(s):
    # s * s forms each unordered pair of rows once; s * twin is the general product
    twin = copy.copy(s)
    assert twin is not s
    square = s * s
    assert square == s * twin
    _assert_same_window(square, _reference_mul(s, s))


@given(windows(c0=units))
def test_inverse_matches_scalar_loop(s):
    _assert_same_window(s.inverse(), _reference_inverse(s))


@given(windows(c0=ones))
def test_log_matches_scalar_loop(s):
    _assert_same_window(s.log(), _reference_log(s))


@given(windows(c0=zeros))
def test_exp_matches_scalar_loop(s):
    _assert_same_window(s.exp(), _reference_exp(s))


def test_recurrences_rescale_the_shared_denominator():
    # each new output brings a new prime into the denominator of the store
    s = PowerSeries.from_coeffs([1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)])
    _assert_same_window(s.inverse(), _reference_inverse(s))
    _assert_same_window(s.log(), _reference_log(s))
    t = s - PowerSeries.one(s.order)
    _assert_same_window(t.exp(), _reference_exp(t))
    assert s * s.inverse() == PowerSeries.one(s.order)


def _pow(self: PowerSeries, k: int) -> PowerSeries:
    """self^k by binary powering; a negative k inverts first."""
    if k < 0:
        return _pow(self.inverse(), -k)
    out = PowerSeries.one(self.order)
    base = self
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def test_pow_forms_no_wasted_square(monkeypatch):
    """k-th power: popcount(k) products into the result and bit_length(k) - 1
    squarings, none after the last bit."""
    s = PowerSeries.from_coeffs([1, Fraction(1, 2), Fraction(-1, 3)], 4)
    calls = []
    mul = PowerSeries.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    for k in (1, 2, 5, 8):
        want = PowerSeries.one(s.order)
        for _ in range(k):
            want = _reference_mul(want, s)
        monkeypatch.setattr(PowerSeries, "__mul__", counted)
        calls.clear()
        got = _pow(s, k)
        monkeypatch.undo()
        assert len(calls) == bin(k).count("1") + k.bit_length() - 1
        _assert_same_window(got, want)


# -- the native window operations against the term-by-term scalar loops ---------


def _reference_add(a: PowerSeries, b: PowerSeries, sign: int = 1) -> PowerSeries:
    n = min(a.order, b.order)
    return PowerSeries(n, tuple(a.coeffs[k] + b.coeffs[k] * sign for k in range(n + 1)))


def _reference_scale(s: PowerSeries, c: ExactScalar) -> PowerSeries:
    return PowerSeries(s.order, tuple(c * x for x in s.coeffs))


def _reference_diff(s: PowerSeries) -> PowerSeries:
    n = s.order - 1
    out = [ExactScalar.zero()] * (n + 1)
    for k in range(2, n + 1):
        out[k] = s.coeffs[k - 1] * (-(k - 1))
    return PowerSeries(n, tuple(out))


def _reference_deriv_in_window(s: PowerSeries, times: int) -> PowerSeries:
    out = [ExactScalar.zero()] * (s.order + 1)
    for d in range(times, s.order + 1):
        fac = 1
        for j in range(times):
            fac *= -(d - times + j)
        out[d] = s.coeffs[d - times] * fac
    return PowerSeries(s.order, tuple(out))


def _reference_reflect(s: PowerSeries) -> PowerSeries:
    return PowerSeries(s.order, tuple(c if k % 2 == 0 else -c for k, c in enumerate(s.coeffs)))


def _assert_canonical(s: PowerSeries):
    """den > 0 and gcd(den, every numerator) == 1, over the order + 1 window."""
    assert s.den > 0 and gcd(s.den, *s.re, *s.im) == 1
    assert len(s.re) == len(s.im) == s.order + 1
    assert all(type(x) is int for x in s.re + s.im)


def _assert_native(got: PowerSeries, want: PowerSeries):
    _assert_same_window(got, want)
    _assert_canonical(got)
    assert got == want and hash(got) == hash(want)


scale_factors = (
    rational_scalars
    | gaussian_scalars
    | st.sampled_from([ExactScalar(0, 1), ExactScalar(0, -1), ExactScalar(0), ExactScalar(-1)])
)


@given(windows(), windows())
def test_add_sub_neg_match_scalar_loop(a, b):
    _assert_native(a + b, _reference_add(a, b))
    _assert_native(a - b, _reference_add(a, b, -1))
    _assert_native(-a, _reference_scale(a, ExactScalar(-1)))


@given(windows(), scale_factors)
def test_scale_matches_scalar_loop(s, c):
    # rationals, gaussian values, and +-i (a swap and a negation)
    _assert_native(s.scale(c), _reference_scale(s, c))
    if c.is_rational():
        _assert_native(s.scale(c.re), _reference_scale(s, c))


@given(windows(), st.integers(0, 11))
def test_calculus_and_window_ops_match_scalar_loop(s, k):
    if s.order:
        _assert_native(s.diff(), _reference_diff(s))
    deriv = s
    for _ in range(k):
        deriv = deriv._deriv_in_window()
    _assert_native(deriv, _reference_deriv_in_window(s, k))
    _assert_native(s.reflect(), _reference_reflect(s))
    cut = min(k, s.order)
    _assert_native(s.truncate(cut), PowerSeries(cut, s.coeffs[: cut + 1]))


@given(windows(max_order=40))
def test_reflect_and_negation_return_canonical_forms(s):
    # a sign flip keeps gcd(den, numerators) == 1, so both wrap without a gcd
    _assert_native(s.reflect(), _reference_reflect(s))
    _assert_native(-s, _reference_scale(s, ExactScalar(-1)))


@given(windows(), windows(), windows())
def test_equal_series_have_equal_numerators(a, b, c):
    """Every result is canonical: equal values give equal (den, re, im) and
    equal hashes, whichever way they were computed."""
    for x, y in (((a + b) - b, a.truncate(min(a.order, b.order))),
                 ((a * b) * c, a * (b * c)),
                 (a.scale(ExactScalar(2, 3)).scale(ExactScalar(Fraction(2, 13), Fraction(-3, 13))), a),
                 (a * (b + c), a * b + a * c)):
        _assert_canonical(x)
        assert (x.order, x.den, x.re, x.im) == (y.order, y.den, y.re, y.im)
        assert hash(x) == hash(y)


def _rescaled_by_loop(s: PowerSeries, r: Fraction) -> PowerSeries:
    """coefficient k times r^k, one ExactScalar at a time."""
    return PowerSeries(s.order, tuple(c * ExactScalar(r ** k) for k, c in enumerate(s.coeffs)))


@given(windows(), st.sampled_from([(72, 1), (1, 72), (3, 2), (5, 7)]))
def test_rescale_round_trip_is_exact(s, pq):
    # the families run log, inverse and exp in the variable z/72: s -> s(z/72)
    # and back must be the identity, on canonical numerators
    p, q = pq
    there = _rescale(s, p, q)
    _assert_same_window(there, _rescaled_by_loop(s, Fraction(p, q)))
    assert _rescale(there, q, p) == s


@given(windows(c0=ones), windows(c0=zeros), windows(c0=units), windows(), windows())
def test_log_inverse_exp_and_products_commute_with_the_rescale(unit1, nil, unit, a, b):
    def there(x):
        return _rescale(x, 72, 1)

    def back(x):
        return _rescale(x, 1, 72)

    assert back(there(unit1).log()) == unit1.log()
    assert back(there(nil).exp()) == nil.exp()
    assert back(there(unit).inverse()) == unit.inverse()
    assert back(there(a) * there(b)) == a * b
    assert back(there(a).reflect()) == a.reflect()
