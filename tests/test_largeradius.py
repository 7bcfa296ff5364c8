"""Large-radius layer: exact u-series generators, the lifted alien calculus,
and the numeric sums restricted to the principal branch."""

import cmath
import copy
import hashlib
import json
import math
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from resurgentia import borel, families, largeradius
from resurgentia.alien import IDX, NVARS, ONE_POLY, Caps, Poly, TransElement, apply_delta, apply_stokes, formal_integral
from resurgentia.borel import BranchCutError, DomainError, connection_check
from resurgentia.largeradius import (
    UCoeffSeries,
    ULaurent,
    gen_H0,
    gen_Hn,
    gen_phi_u,
    gen_R,
    lr_bridge_check,
    lr_connection_check,
    lr_stokes_check,
    lr_sum,
    lr_transseries,
    make_context,
    u_equation_residual,
)
from resurgentia.scalars import ExactScalar
from resurgentia.series import PowerSeries, _series

F = Fraction


def UL(d):
    return ULaurent({e: F(*v) if isinstance(v, tuple) else F(v) for e, v in d.items()})


def _neg(a: ULaurent) -> ULaurent:
    return ULaurent({e: -c for e, c in a.terms.items()})


def _scale(a: ULaurent, c) -> ULaurent:
    return ULaurent({e: v * c for e, v in a.terms.items()})


def _diff(a: ULaurent) -> ULaurent:
    return ULaurent({e - 1: e * c for e, c in a.terms.items() if e})


def _head(grading: str, order: int, c0: ULaurent) -> UCoeffSeries:
    """The window c0, 0, ..., 0."""
    return UCoeffSeries(grading, order, (c0,) + (ULaurent(),) * order)


# the row operations u_equation_residual was composed of before it became one
# integer pass; they build the oracle _composed_u_residual below


def _diff_u(s: UCoeffSeries) -> UCoeffSeries:
    """d/du; d/du (log_u log u) = log_u u^{-1}."""
    if s.exp_tag != 0:
        raise ValueError("u-derivative not supported under an exponential prefactor")
    rows = tuple({e - 1: e * c for e, c in row.items() if e} for row in s.rows)
    out = largeradius._ucs(s.grading, s.order, s.den, rows)
    return out + _head(s.grading, s.order, ULaurent.mono(-1, s.log_u)) if s.log_u else out


def _shift_u(s: UCoeffSeries, k: int) -> UCoeffSeries:
    """Multiply by u^k."""
    assert s.log_u == 0
    rows = tuple({e + k: c for e, c in row.items()} for row in s.rows)
    return largeradius._ucs(s.grading, s.order, s.den, rows, F(0), s.exp_tag)


def _mul_gs2(s: UCoeffSeries) -> UCoeffSeries:
    """Multiply by g_s^2: in the gs2 grading coefficient k moves to k + 1, the top one leaves."""
    assert s.grading == "gs2"
    return largeradius._ucs("gs2", s.order, s.den, ({},) + s.rows[: s.order], s.log_u, s.exp_tag)


def _cut(s: UCoeffSeries, order: int) -> UCoeffSeries:
    """s cut to, or padded with zero rows up to, the given order."""
    rows = s.rows[: order + 1] + ({},) * (order - s.order)
    return largeradius._ucs(s.grading, order, s.den, rows, s.log_u, s.exp_tag)


def _composed_u_residual(H: UCoeffSeries) -> UCoeffSeries:
    """The u-equation residual composed of series operations, each one canonical."""
    d1 = _diff_u(H)
    d2 = _diff_u(d1)
    # _mul_gs2 drops the top row of inner, so (d_u H)^2 is formed through row N - 1 only
    low = _cut(d1, H.order - 1)
    sq = _cut(low * low, H.order)
    inner = d1 + _shift_u(d2, 1).scale(F(1, 3)) + _shift_u(sq, 1).scale(F(1, 3))
    lhs = d1 - _mul_gs2(_shift_u(inner, 3).scale(F(3, 2)))
    return lhs - _head("gs2", lhs.order, ULaurent.mono(-1, F(1, 2)) + ULaurent.mono(-2, 1))


def _eval_partial(s: UCoeffSeries, gs: complex, u: complex, nterms: Optional[int] = None) -> complex:
    """Numeric partial sum through g_s^{2(nterms-1)} (principal log u)."""
    if s.grading != "gs2":
        raise ValueError("numeric partial sums use the gs2 grading")
    n = s.order + 1 if nterms is None else min(nterms, s.order + 1)
    x = complex(gs) ** 2
    total = 0.0 + 0.0j
    for k in range(n - 1, -1, -1):
        total = total * x + s.coeff(k).eval(u)
    if s.log_u != 0:
        total += complex(s.log_u) * cmath.log(u)
    if s.exp_tag:
        total *= cmath.exp(2.0 * s.exp_tag / u)
    return total


def _lambda_s_squared(N: int) -> UCoeffSeries:
    """lambda_s^2 = g_s^2 u^3 (1-2t)^{-3/2} = sum_l (2l-1)!/(2^{l-1}((l-1)!)^2) u^{2l+1} g_s^{2l}."""
    return largeradius._at_z1(PowerSeries.from_coeffs([0, Fraction(1, 3)]), N)


# -- exact u-Laurent layer -----------------------------------------------------


def test_ulaurent_basics():
    a = UL({2: (1, 2), -1: 3})
    assert a.coeff(2) == F(1, 2) and a.coeff(0) == 0
    assert a.deg_max() == 2 and a.deg_min() == -1
    assert a.shift(3) == UL({5: (1, 2), 2: 3})
    assert a.eval(2.0) == pytest.approx(2.0 + 1.5)
    assert a.to_map() == {"-1": "3", "2": "1/2"}
    assert (a + _neg(a)).is_zero()


def _binomial_series(a: Fraction, x: Fraction, n: int) -> list:
    """The coefficients 0..n of (1 + x s)^a, each binom(a, k) x^k formed on its own."""
    out = []
    for k in range(n + 1):
        binom = F(1)
        for j in range(k):
            binom *= (a - j) / (j + 1)
        out.append(binom * x ** k)
    return out


@pytest.mark.parametrize("N", [0, 1, 3, 12, 40])
def test_one_plus_x_is_the_series_of_the_three_halves_power(N):
    # 1 + X(s) = z1/z2 = (1 - 2s/3)^{3/2}, and X_1 = -1 cancels the 1/u of e^{-2n(phi_u + 1/u)}
    got = largeradius._one_plus_x(N)
    assert got.order == N and not any(got.im)
    assert [got.coeff(k).re for k in range(N + 1)] == _binomial_series(F(3, 2), F(-2, 3), N)
    assert [got.coeff(k).re for k in range(min(N, 3) + 1)] == [1, -1, F(1, 6), F(1, 54)][: N + 1]


fracs = st.fractions(min_value=-20, max_value=20, max_denominator=10)
ulaurents = st.dictionaries(
    st.integers(min_value=-3, max_value=3), fracs, max_size=4
).map(ULaurent)


@given(ulaurents, ulaurents, ulaurents)
def test_ulaurent_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c


@given(ulaurents, ulaurents)
def test_ulaurent_diff_is_a_derivation(a, b):
    assert _diff(a * b) == _diff(a) * b + a * _diff(b)


def _reference_zs_mul(a: list, b: list, N: int) -> list:
    """The ULaurent loop the integer-numerator product of UCoeffSeries replaces."""
    out = [ULaurent()] * (N + 1)
    for i, x in enumerate(a):
        if i > N or x.is_zero():
            continue
        for j, y in enumerate(b):
            if i + j > N:
                break
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return out


def _window(xs: list, N: int) -> UCoeffSeries:
    """The first N + 1 entries of xs, padded with zeros, as an order-N series."""
    xs = list(xs[: N + 1]) + [ULaurent()] * (N + 1 - len(xs))
    return UCoeffSeries("gs2", N, tuple(xs))


# few exponents and small values, so products collide and cancel; windows hold
# zero rows and may be shorter or longer than N + 1
small_ulaurents = st.dictionaries(
    st.integers(min_value=-2, max_value=2),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    max_size=3,
).map(ULaurent)
ul_windows = st.lists(small_ulaurents, min_size=1, max_size=7)


@given(ul_windows, ul_windows, st.integers(min_value=0, max_value=8))
@example(
    # the second pair's product first cancels the u^0 term of the first pair,
    # then restores it
    [UL({0: 1}), UL({1: 1, -1: 1})], [UL({-1: -1, 1: 2}), UL({0: 1, 5: 1})], 1
)
def test_zs_mul_matches_ulaurent_loop(a, b, N):
    prod = _window(a, N) * _window(b, N)
    got, want = prod.coeffs, _reference_zs_mul(a, b, N)
    assert [x.to_map() for x in got] == [x.to_map() for x in want]
    same = _window(want, N)
    assert prod == same and hash(prod) == hash(same) and (prod.den, prod.rows) == (same.den, same.rows)
    assert all(type(c) is Fraction for x in got for c in x.terms.values())


@given(st.sampled_from(["gs2", "z2"]), ul_windows, st.integers(min_value=-2, max_value=2))
def test_ucoeff_square_matches_product_with_a_copy(grading, xs, tag):
    # s * s forms each unordered pair of rows once; s * twin is the general product
    s = UCoeffSeries(grading, len(xs) - 1, tuple(xs), exp_tag=tag)
    twin = copy.copy(s)
    assert twin is not s
    square = s * s
    assert square == s * twin and square.exp_tag == 2 * tag
    assert [x.to_map() for x in square.coeffs] == [x.to_map() for x in _reference_zs_mul(xs, xs, s.order)]


def _reference_add(a: UCoeffSeries, b: UCoeffSeries, sign: int = 1) -> tuple:
    return tuple(x + _scale(y, sign) for x, y in zip(a.coeffs, b.coeffs)), a.log_u + sign * b.log_u


def _reference_diff_u(s: UCoeffSeries) -> tuple:
    out = [_diff(x) for x in s.coeffs]
    out[0] = out[0] + ULaurent.mono(-1, s.log_u)
    return tuple(out), Fraction(0)


def _assert_native_u(got: UCoeffSeries, want: tuple):
    """got has the reference's coefficients and log u scalar, is canonical, and
    equals (with equal hash and (den, rows)) the series built from them."""
    coeffs, log_u = want
    assert got.coeffs == tuple(coeffs) and got.log_u == log_u
    assert got.den > 0 and math.gcd(got.den, *(c for row in got.rows for c in row.values())) == 1
    assert all(type(c) is int and c for row in got.rows for c in row.values())
    same = UCoeffSeries(got.grading, got.order, coeffs, log_u, got.exp_tag)
    assert got == same and hash(got) == hash(same) and (got.den, got.rows) == (same.den, same.rows)


log_us = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-3, 4)])


@st.composite
def u_series(draw, N):
    return UCoeffSeries("gs2", N, tuple(draw(st.lists(small_ulaurents, min_size=N + 1, max_size=N + 1))),
                       draw(log_us))


@st.composite
def u_series_pairs(draw):
    N = draw(st.integers(0, 6))
    return draw(u_series(N)), draw(u_series(draw(st.integers(N, 7))))


@given(u_series_pairs(), fracs, st.integers(-3, 3))
def test_ucoeff_ops_match_ulaurent_loops(pair, c, k):
    a, b = pair
    _assert_native_u(a + b, _reference_add(a, b))
    _assert_native_u(b + a, _reference_add(b, a))
    _assert_native_u(a - b, _reference_add(a, b, -1))
    _assert_native_u(a.scale(c), (tuple(_scale(x, c) for x in a.coeffs), a.log_u * c))
    # the parts of the composed u-residual oracle
    _assert_native_u(_diff_u(a), _reference_diff_u(a))
    flat = a - UCoeffSeries("gs2", a.order, (ULaurent(),) * (a.order + 1), a.log_u)  # log u dropped
    _assert_native_u(_shift_u(flat, k), (tuple(x.shift(k) for x in flat.coeffs), Fraction(0)))
    _assert_native_u(_mul_gs2(flat), ((ULaurent(),) + flat.coeffs[: a.order], Fraction(0)))
    _assert_native_u(flat * flat, (tuple(_reference_zs_mul(flat.coeffs, flat.coeffs, a.order)), Fraction(0)))


def test_ucoeff_series_are_canonical():
    # equal values computed along different routes store equal numerators
    H = gen_H0(10)
    assert (H + H.scale(F(2, 3))) - H.scale(F(2, 3)) == H
    d1 = _diff_u(gen_H0(10))
    lhs, rhs = (d1 * d1) * d1, d1 * (d1 * d1)
    assert (lhs.den, lhs.rows) == (rhs.den, rhs.rows) and hash(lhs) == hash(rhs)
    assert d1.scale(3).scale(F(1, 3)) == d1 and d1.scale(0).den == 1


def _validated_arithmetic() -> dict:
    """The ULaurent methods that rebuild every result through the validating
    constructor (Fraction(c) and a zero check per coefficient)."""

    def add(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return ULaurent(out)

    def mul(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
        return ULaurent(out)

    return {
        "__add__": add,
        "__mul__": mul,
        "shift": lambda self, k: ULaurent({e + k: c for e, c in self.terms.items()}),
        "mono": staticmethod(lambda e, c: ULaurent({e: Fraction(c)})),
        "const": staticmethod(lambda c: ULaurent({0: Fraction(c)})),
    }


def test_trusted_constructor_matches_validating_one(monkeypatch):
    """gen_H0(24), the parts of its u-residual, and H^(2) with its Pol_2 give equal
    terms whether the arithmetic trusts its inputs or re-validates every
    coefficient."""

    def build():
        H = gen_H0(24)
        d1 = _diff_u(H)
        d2u = _shift_u(_diff_u(d1), 1)
        inner = d1 + d2u.scale(F(1, 3)) + _shift_u(d1 * d1, 1).scale(F(1, 3))
        _, Hn, pols = gen_Hn(2, 4)
        series = (H, H.scale(F(-2, 3)), d2u, inner, Hn, u_equation_residual(gen_H0(12)))
        uls = [c for x in series for c in x.coeffs] + pols
        return [x.terms for x in uls]

    got = build()
    with monkeypatch.context() as m:
        for name, fn in _validated_arithmetic().items():
            m.setattr(ULaurent, name, fn)
        want = build()
    assert got == want
    assert all(type(c) is Fraction and c for terms in got for c in terms.values())
    assert ULaurent.mono(3, 0).is_zero()
    assert (UL({1: 2, 0: 1}) + UL({1: -2})).terms == {0: F(1)}


# -- graded series container ---------------------------------------------------


def test_series_container_validation():
    with pytest.raises(ValueError, match="grading"):
        UCoeffSeries("bad", 1, (ULaurent(), ULaurent()))
    with pytest.raises(ValueError, match="does not match the order"):
        UCoeffSeries("gs2", 2, (ULaurent(),))
    # an order -1 window would be an empty series that is_zero() calls zero
    with pytest.raises(ValueError, match="order must be nonnegative"):
        UCoeffSeries("gs2", -1, ())
    # the exponential prefactor e^{2n/u} takes an int n, as the u-exponents do
    for tag in (0.5, 1.0, True, Fraction(1), "1"):
        with pytest.raises(TypeError, match="exp_tag must be an int"):
            UCoeffSeries("gs2", 0, (ULaurent(),), exp_tag=tag)


def test_series_container_guards():
    r = gen_R(3)
    z2s = gen_phi_u(4)
    with pytest.raises(ValueError, match="grading mismatch"):
        r + z2s
    with pytest.raises(ValueError, match="exponential prefactor mismatch"):
        gen_Hn(1, 2)[1] + gen_Hn(2, 2)[1]
    with pytest.raises(ValueError, match="log u term"):
        r * r
    with pytest.raises(ValueError, match="exponential prefactor"):
        u_equation_residual(gen_Hn(1, 2)[1])
    with pytest.raises(ValueError, match="gs2 grading"):
        _eval_partial(z2s, 0.1, 1.0, 2)


def test_series_container_json_shape():
    r = gen_R(2)
    d = r.to_json_dict()
    assert set(d) == {"grading", "order", "log_u", "exp_tag", "coeffs"}
    assert d["grading"] == "gs2" and d["order"] == 2
    assert len(d["coeffs"]) == 3
    assert d["coeffs"][0] == r.coeff(0).to_map()
    json.dumps(d)


# -- generators -------------------------------------------------------------


def test_phi_u_coefficients():
    phi = gen_phi_u(6)
    assert phi.grading == "z2"
    assert phi.coeff(0) == UL({-1: -1})
    assert phi.coeff(1) == UL({-2: (1, 6)})
    assert phi.coeff(2) == UL({-3: (1, 54)})
    with pytest.raises(ValueError, match="at least one term"):
        gen_phi_u(0)


def test_R_series():
    r = gen_R(6)
    assert r.log_u == F(1, 2)
    assert r.coeff(0) == UL({-1: -1})
    assert r.coeff(1) == UL({2: (1, 2), 1: (1, 2)})
    with pytest.raises(ValueError, match="nonnegative"):
        gen_R(-1)


def _closed_form_R(N: int) -> UCoeffSeries:
    """R expanded on its own: the log part gives 2^k/(4k) u^{2k} and the square-root
    part A_{k+1}/3 u^{2k-1} at g_s^{2k}, with A the t-coefficients of (1-2t)^{3/2}."""
    A = _binomial_series(F(3, 2), F(-2), N + 1)
    coeffs = [ULaurent.mono(-1, -1)] + [
        ULaurent.mono(2 * k, F(2 ** k, 4 * k)) + ULaurent.mono(2 * k - 1, A[k + 1] / 3)
        for k in range(1, N + 1)]
    return UCoeffSeries("gs2", N, tuple(coeffs), log_u=F(1, 2))


@pytest.mark.parametrize("N", [0, 1, 2, 5, 17, 30])
def test_R_is_rtilde_regraded(N):
    got, want = gen_R(N), _closed_form_R(N)
    assert got == want and hash(got) == hash(want)


def test_lambda_squared():
    lam = _lambda_s_squared(6)
    assert lam.coeff(0).is_zero()
    assert lam.coeff(1) == UL({3: 1})
    assert lam.coeff(2) == UL({5: 3})
    assert lam.coeff(3) == UL({7: (15, 2)})


def test_H0_frozen_coefficients():
    H0 = gen_H0(8)
    assert H0.log_u == F(1, 2)
    assert H0.coeff(0) == UL({-1: -1})
    assert H0.coeff(1) == UL({3: (5, 24), 2: (1, 2), 1: (1, 2)})
    assert H0.coeff(2) == UL({6: (5, 16), 5: (5, 8), 4: (1, 2), 3: (1, 6)})
    assert H0.coeff(3) == UL(
        {9: (1105, 1152), 8: (15, 8), 7: (25, 16), 6: (2, 3), 5: (1, 8)}
    )
    # genus >= 2 parts vanish as u -> 0
    for g in range(2, 9):
        assert H0.coeff(g).deg_min() >= 1
    with pytest.raises(ValueError, match="at least 1"):
        gen_H0(0)


@pytest.mark.parametrize("route", ["psi closed form", "G_1 via exp", "H0 route (a)", "H0 route (b)"])
def test_two_route_cross_checks_raise_on_disagreement(monkeypatch, route):
    # each check compares two independent constructions; spoil one of them by
    # one unit in its top coefficient (for psi, in its integer numerator over 72^N N!)
    if route == "psi closed form":
        orig = families._psi_by_ode_recursion
        monkeypatch.setattr(families, "_psi_by_ode_recursion", lambda n: orig(n)[:-1] + [orig(n)[-1] + 1])
        build = lambda: families.gen_psi_phi(8)
    elif route == "G_1 via exp":
        exp = PowerSeries.exp
        monkeypatch.setattr(PowerSeries, "exp", lambda s: exp(s) + PowerSeries.monomial(s.order, s.order))
        build = lambda: families.gen_Gn(8, 2)
    else:
        top = UCoeffSeries("gs2", 6, (ULaurent(),) * 6 + (ULaurent.mono(18, 1),))
        if route == "H0 route (a)":
            at_z1 = largeradius._at_z1
            monkeypatch.setattr(largeradius, "_at_z1", lambda c, N: at_z1(c, N) + top)
        else:
            z2_route = largeradius._h0_z2_route
            monkeypatch.setattr(largeradius, "_h0_z2_route", lambda N, g: z2_route(N, g) + top)
        build = lambda: gen_H0(6)
    with pytest.raises(ArithmeticError, match="disagreement"):
        build()


def _one(grading: str, N: int) -> UCoeffSeries:
    return UCoeffSeries(grading, N, (ULaurent.const(1),) + (ULaurent(),) * N)


@pytest.mark.parametrize("N", [1, 2, 8, 30])
def test_route_b_geometric_series_inverts_one_plus_x(N):
    # x = z2^{-1} phi_u as route (b) of gen_H0 uses it, one u-monomial per row,
    # is X(s) at s = 1/(u z2); W = 1/(1 + X) is PowerSeries.inverse
    one_plus_x = largeradius._one_plus_x(N)
    x = _index_shift(gen_phi_u(N + 1))
    assert [one_plus_x.coeff(k).re for k in range(1, N + 1)] == [x.coeff(k).coeff(-k) for k in range(1, N + 1)]
    assert one_plus_x.coeff(0) == 1 and all(len(x.coeff(k).terms) == 1 for k in range(1, N + 1))
    assert one_plus_x.inverse() * one_plus_x == PowerSeries.one(N)


@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=1, max_size=30))
def test_geometric_series_inverts_one_plus_x(xs):
    # random rational windows X(s) with X(0) = 0, zero rows included
    one_plus_x = PowerSeries.from_coeffs([1, *xs])
    N = len(xs)
    assert one_plus_x.inverse() * one_plus_x == PowerSeries.one(N)


def _index_shift(s: UCoeffSeries) -> UCoeffSeries:
    """Coefficient k moves to k + 1 (times z2^{-1}); the top one leaves."""
    return UCoeffSeries(s.grading, s.order, (ULaurent(),) + s.coeffs[: s.order], s.log_u)


def _route_b_by_products(N: int, g: PowerSeries) -> UCoeffSeries:
    """Route (b) before its power table: 1/(1 + x) as sum (-x)^j, then
    sum_n w^n b_n, with N UCoeffSeries products and N sums."""
    x = _index_shift(gen_phi_u(N + 1))
    one = _one("z2", N)
    inv = term = one
    for _ in range(N):
        term = term * x.scale(-1)
        inv = inv + term
    w = _index_shift(inv)
    total = UCoeffSeries("z2", N, (ULaurent(),) * (N + 1))
    wn = one
    for n in range(1, N + 1):
        wn = wn * w
        bn = g.coeff(n).re
        if bn:
            total = total + wn.scale(bn)
    return largeradius._z2_to_gs2(total)


@pytest.mark.parametrize("N", range(1, 17))
def test_route_b_power_table_matches_the_product_loop(N):
    g = families.gen_g_f(N)[0].series
    got, want = largeradius._h0_z2_route(N, g), _route_b_by_products(N, g)
    assert got == want
    assert [list(row.items()) for row in got.rows] == [list(row.items()) for row in want.rows]


def _reference_exp(x: UCoeffSeries) -> UCoeffSeries:
    """sum_{j<=N} x^j / j!, truncated, by repeated products."""
    N = x.order
    out = term = _one(x.grading, N)
    for j in range(1, N + 1):
        term = (term * x).scale(Fraction(1, j))
        out = out + term
    return out


@pytest.mark.parametrize("N", range(13))
@pytest.mark.parametrize("n", [k for k in range(-6, 7) if k])
def test_exp_phi_is_the_truncated_exponential(n, N):
    # x = -2n (phi_u + 1/u) from UCoeffSeries sums; its exp by repeated products
    x = (gen_phi_u(N + 1) + _head("z2", N, ULaurent.mono(-1, 1))).scale(-2 * n)
    got, want = largeradius._exp_phi(n, N), _reference_exp(x)
    assert (got.den, got.rows) == (want.den, want.rows)
    # the power sum fills each row in ascending u-exponents, which the ordered pins hash
    assert all(list(row) == sorted(row) for row in got.rows)
    assert got * largeradius._exp_phi(-n, N) == _one("z2", N)


@pytest.mark.parametrize("k", [0, 1, 3, 6])
@pytest.mark.parametrize("build", ["context", "H0"])
def test_one_unit_spoil_inside_the_power_sum_raises(monkeypatch, build, k):
    # one numerator of Y (make_context's factors) or of W (H0's route (b)) off by one
    power_sum = largeradius._power_sum

    def spoiled(P, a, q, zeta, N):
        re = list(P.re)
        re[k] += 1
        return power_sum(_series(P.order, P.den, tuple(re), P.im), a, q, zeta, N)

    monkeypatch.setattr(largeradius, "_power_sum", spoiled)
    with pytest.raises(ArithmeticError, match="fail to invert|disagreement"):
        make_context.__wrapped__(8) if build == "context" else gen_H0(8)


def test_u_equation_residual_vanishes():
    H0 = gen_H0(8)
    assert u_equation_residual(H0).is_zero()
    with pytest.raises(ValueError, match="gs2 grading"):
        u_equation_residual(gen_phi_u(4))


@st.composite
def u_residual_inputs(draw):
    """UCoeffSeries of order 0..10 with random Laurent rows and a log u scalar."""
    N = draw(st.integers(0, 10))
    rows = draw(st.lists(small_ulaurents, min_size=N + 1, max_size=N + 1))
    return UCoeffSeries("gs2", N, tuple(rows), draw(st.sampled_from([F(0), F(1, 2), F(-3, 5)])))


@given(u_residual_inputs())
def test_u_equation_residual_matches_the_composed_formula(H):
    got, want = u_equation_residual(H), _composed_u_residual(H)
    assert got == want and (got.den, got.rows) == (want.den, want.rows)


@pytest.mark.parametrize("N", [1, 2, 3, 8, 17])
def test_u_equation_residual_of_H0_matches_the_composed_formula(N):
    H = gen_H0(N)
    spoiled = H + _head("gs2", N, ULaurent.mono(2, 1))
    for x in (H, spoiled):
        got, want = u_equation_residual(x), _composed_u_residual(x)
        assert got == want and (got.den, got.rows) == (want.den, want.rows)


@pytest.mark.parametrize("k", [0, 1, 4, 12])
def test_one_unit_spoil_of_H0_shows_at_its_row(k):
    # one unit on the numerator of the lowest u-power of row k (never u^0, which
    # the equation cannot see) moves d_u H in row k, while rows below k are untouched
    N = 12
    H = gen_H0(N)
    e = min(H.rows[k])
    assert e != 0
    spoil = UCoeffSeries("gs2", N, tuple(ULaurent.mono(e, F(1, H.den)) if j == k else ULaurent()
                                         for j in range(N + 1)))
    res = u_equation_residual(H + spoil)
    assert not any(res.rows[:k]) and res.rows[k]


def test_u_equation_detects_perturbation():
    H0 = gen_H0(6)
    pert = UCoeffSeries(
        "gs2", 6, (ULaurent(), ULaurent.mono(1, 1)) + (ULaurent(),) * 5
    )
    assert not u_equation_residual(H0 + pert).is_zero()


@given(st.lists(fracs, min_size=7, max_size=7))
def test_u_equation_shift_invariance(consts):
    # the equation only sees u-derivatives, so any C(g_s) shift is silent
    H0 = gen_H0(6)
    shift = UCoeffSeries("gs2", 6, tuple(ULaurent.const(c) for c in consts))
    assert u_equation_residual(H0 + shift).is_zero()


def test_Hn_prefactor_and_leading_terms():
    pref, S1, pols = gen_Hn(1, 4)
    assert pref == "exp(2/u)"
    assert S1.exp_tag == 1
    assert S1.coeff(0) == UL({0: -1})
    assert pols[0] == UL({2: (5, 12), 0: 1})
    assert pols[1] == UL({4: (-25, 288), 3: (5, 4), 2: (-5, 12), 1: (1, 3), 0: (-1, 2)})
    assert pols[2] == UL(
        {6: (20015, 10368), 5: (-25, 48), 4: (925, 288), 3: (-25, 18),
         2: (11, 24), 1: (-1, 3), 0: (1, 6)}
    )
    assert pols[3] == UL(
        {8: (-398425, 497664), 7: (20015, 1152), 6: (-41615, 10368), 5: (6775, 864),
         4: (-2125, 576), 3: (73, 72), 2: (-3, 8), 1: (1, 6), 0: (-1, 24)}
    )


def test_Hn_degree_and_constant_term():
    for n in (1, 2, 3):
        _, Sn, pols = gen_Hn(n, 4)
        assert Sn.coeff(0) == UL({0: F(-1, n)})
        for g in range(1, 5):
            assert pols[g - 1].deg_max() == 2 * g
            assert Sn.coeff(g) == pols[g - 1].shift(g)
    with pytest.raises(ValueError, match="positive"):
        gen_Hn(0, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        gen_Hn(1, -1)


def hn_oracle(n: int, gmax: int) -> list:
    """-(1/n) e^{-2n(phi_u + 1/u)} ((phi/psi)^n)(z2 + phi_u), z2-graded."""
    phiN = gen_phi_u(gmax + 1).coeffs
    phat = [ULaurent()] + list(phiN[1 : gmax + 1])  # phi_u + 1/u, valuation 1
    while len(phat) < gmax + 1:
        phat.append(ULaurent())
    scaled = [_scale(c, -2 * n) for c in phat]
    expfac = [ULaurent.const(1)] + [ULaurent()] * gmax
    term = expfac[:]
    for j in range(1, gmax + 1):
        term = [_scale(c, F(1, j)) for c in _reference_zs_mul(term, scaled, gmax)]
        if all(c.is_zero() for c in term):
            break
        expfac = [a + b for a, b in zip(expfac, term)]
    # w = (z2 + phi_u)^{-1}, valuation 1
    x = [ULaurent()] + list(phiN[:gmax])
    geo = [ULaurent.const(1)] + [ULaurent()] * gmax
    t = geo[:]
    negx = [_neg(c) for c in x]
    for _ in range(gmax):
        t = _reference_zs_mul(t, negx, gmax)
        if all(c.is_zero() for c in t):
            break
        geo = [a + b for a, b in zip(geo, t)]
    w = [ULaurent()] + geo[:gmax]
    Gn = families.gen_Gn(gmax + 2, n)[n - 1].series
    comp = [ULaurent()] * (gmax + 1)
    sign = F((-1) ** (n - 1) * n)
    wk = [ULaurent.const(1)] + [ULaurent()] * gmax
    for k in range(gmax + 1):
        rk = sign * F(Gn.coeff(k).re)  # (phi/psi)^n coefficient
        if k > 0:
            wk = _reference_zs_mul(wk, w, gmax)
        if rk:
            comp = [a + _scale(b, rk) for a, b in zip(comp, wk)]
    total = _reference_zs_mul(expfac, comp, gmax)
    out = []
    for k in range(gmax + 1):
        out.append(_scale(total[k], F(-1, n) * F(3) ** k).shift(3 * k))
    return out


@pytest.mark.parametrize("n,gmax", [(1, 4), (2, 3), (3, 3), (4, 8), (6, 8)])
def test_Hn_matches_composition_oracle(n, gmax):
    _, Sn, _ = gen_Hn(n, gmax)
    orc = hn_oracle(n, gmax)
    for g in range(gmax + 1):
        assert Sn.coeff(g) == orc[g], (n, g)


# -- lifted alien calculus -------------------------------------------------------


def test_context_inversion_guard():
    with pytest.raises(ValueError, match="z order must be positive"):
        make_context(0)
    make_context(4)  # internal f+ f- = 1 assertion must pass


@pytest.mark.parametrize("zcap", [1, 4, 8, 16])
def test_capped_ray_factor_chains_are_the_closed_form_powers(zcap):
    # the exp route of the formal integral forms e^{-+2n phi_u} this way, the explicit route reads power(+-n)
    ctx = make_context(zcap)
    for sign in (1, -1):
        chain = ONE_POLY
        for n in range(1, 13):
            chain = chain.mul(ctx.power(sign), zorder=zcap)
            assert chain == ctx.power(sign * n), (sign, n)


def _z_poly_by_constructor(s: UCoeffSeries) -> Poly:
    """The validating Poly constructor path _z_poly replaces: one ExactScalar per term."""
    def mono(z: int, u: int, lu: int = 0) -> tuple:
        m = [0] * NVARS
        m[IDX["z"]], m[IDX["u"]], m[IDX["lu"]] = z, u, lu
        return tuple(m)

    terms = {mono(0, 0, 1): s.log_u} if s.log_u else {}
    terms.update((mono(-k, e), Fraction(c, s.den)) for k, row in enumerate(s.rows) for e, c in row.items())
    return Poly(terms)


@pytest.mark.parametrize("zorder", range(1, 17))
def test_frame_polys_match_the_constructor_path(zorder):
    rtilde = largeradius._rtilde(gen_phi_u(zorder + 1))
    # a log u scalar whose denominator does not divide the rows' one
    odd_log = UCoeffSeries("z2", 1, (UL({0: (1, 2), 3: (5, 4)}), UL({-zorder: (-7, 6)})), F(2, 9))
    for s in [largeradius._exp_phi(n, zorder) for n in range(-9, 10) if n] + [rtilde, odd_log]:
        got, want = largeradius._z_poly(s), _z_poly_by_constructor(s)
        assert (got.den, got.nums) == (want.den, want.nums) and got.to_str() == want.to_str()
    # the R~ lr_transseries adds, and the R~ gen_R regrades, read back into z2
    assert largeradius._rtilde_poly(zorder) == largeradius._rtilde_reference(zorder) == _z_poly_by_constructor(rtilde)


def test_the_rtilde_polys_are_built_once_per_z_order():
    assert largeradius._rtilde_poly(5) is largeradius._rtilde_poly(5)
    assert largeradius._rtilde_reference(5) is largeradius._rtilde_reference(5)
    H = lr_transseries(Caps(3, 3, 5))
    assert H.terms[(0, 0, 0)] == Poly.var("s1") + largeradius._rtilde_poly(5)
    # a negative sigma_2 cap keeps no grade-0 term, and no elementary term either
    assert (0, 0, 0) not in lr_transseries(Caps(-1, 2, 5)).terms


def test_one_context_per_z_order():
    assert make_context(5) is make_context(5)
    assert make_context(5) is not make_context(6)
    assert lr_transseries(Caps(2, 2, 5)).context is make_context(5)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _series_sha(s: UCoeffSeries) -> str:
    return _sha(json.dumps(s.to_json_dict(), sort_keys=True))


def _context_sha(z: int) -> str:
    ctx = make_context(z)
    return _sha(ctx.power(1).to_str() + "\n" + ctx.power(-1).to_str())


# sha256 of exact large-radius outputs, recorded before phi_u, R~ and the
# (1-2t)^{+-3/2} coefficients were each written once; any changed Fraction
# changes a digest. Term order does not: Poly.to_str, TransElement.to_json and
# UCoeffSeries.to_json_dict all print sorted
FRAME_MAP_SHA256 = {
    "make_context(1)": (lambda: _context_sha(1),
                        "6c10839300993df8cd439f3fece399082b2a5b6726ad5a1b29765287b0c9857e"),
    "make_context(4)": (lambda: _context_sha(4),
                        "7d1d49446247dcd8eef164935557bd836d038465ecc950ce546d09a64580d73e"),
    "make_context(8)": (lambda: _context_sha(8),
                        "599512ce90d22f292547b13d9ffbf3d6064ebb55760d086b47508c5b911fd69b"),
    "lr_transseries(5,5,8)": (lambda: _sha(lr_transseries(Caps(5, 5, 8)).to_json()),
                              "9b45c0d4b937d441d84a4aa53d6dbd814eabde9e9a22e858a6a5efca6d393382"),
    "gen_phi_u(30)": (lambda: _series_sha(gen_phi_u(30)),
                      "62fa0114254336831682e5e760190b8a43e5cf176af13de28228732836441c20"),
    "gen_R(30)": (lambda: _series_sha(gen_R(30)),
                  "f4287015c42f1f25e549f5cb62e6712ddaf1064e5e18db42b898c26677eb2a2f"),
    "lambda_s_squared(30)": (lambda: _series_sha(_lambda_s_squared(30)),
                             "5c690d8ba3e851248426537eeae03696823ec40a42c5cf5eae90294a556cc84f"),
    "gen_Hn(1,8)": (lambda: _series_sha(gen_Hn(1, 8)[1]),
                    "2fffb81e3a7b531a392f66d9d271864dc120c8345679845dd320f4f304c0498d"),
    "gen_Hn(2,8)": (lambda: _series_sha(gen_Hn(2, 8)[1]),
                    "39da8f7e288564501b2a918a3a3e75d8d847c10316a0b902fa5ad8104bde41da"),
    "gen_Hn(3,8)": (lambda: _series_sha(gen_Hn(3, 8)[1]),
                    "bbcc272b80ab9d8eff19cd5c3500b8696690896d0731dc426b0e7175b44793ca"),
}


def _ordered_sha(s: UCoeffSeries) -> str:
    """sha256 of s with each row's terms in their stored order."""
    rows = [[[e, str(c)] for e, c in s.coeff(k).terms.items()] for k in range(s.order + 1)]
    return _sha(json.dumps([s.grading, str(s.log_u), s.exp_tag, rows]))


def _hn_sha(n: int, gmax: int) -> str:
    pref, series, pols = gen_Hn(n, gmax)
    return _sha(pref + _ordered_sha(series) + json.dumps([[[e, str(c)] for e, c in p.terms.items()] for p in pols]))


# sha256 of H^0, its u-residual and H^(6), term order included, recorded before
# route (b) became one power table and _at_z1 an integer map
FRAME_MAP_SHA256.update({
    "gen_H0(30) ordered": (lambda: _ordered_sha(gen_H0(30)),
                           "c320067871f6bb758129c8995a3080590c6de94dae4412d71fcb7b1b79325046"),
    "u_equation_residual(gen_H0(30)) ordered": (lambda: _ordered_sha(u_equation_residual(gen_H0(30))),
                                                "cc7e98813c222c7cb6f15c4380e26211ec2236cd85287351d0a5abd7128d0491"),
    "gen_Hn(6,8) ordered": (lambda: _hn_sha(6, 8),
                            "20f1d6d56eaced6d1db72742cb50bd1cd9b36f5e390f1e63f99c85b47a08c2f8"),
})


@pytest.mark.parametrize("name", sorted(FRAME_MAP_SHA256))
def test_frame_map_outputs_are_pinned(name):
    build, digest = FRAME_MAP_SHA256[name]
    assert build() == digest


# sha256 of the to_json() of elements whose every term goes through the capped
# product kernel (composed apply_delta, scale_poly, subst and the formal
# integral's factor powers), recorded with the full products cut to the caps
KERNEL_IMAGE_SHA256 = {
    "apply_stokes(lr_transseries(5,6,8), geq0)": (
        lambda: apply_stokes(lr_transseries(Caps(5, 6, 8)), "geq0"),
        "87da646ee4c6b02856a0afca95cc30e8eabd3e0d50da97323431f01a92b3e2cd"),
    "apply_stokes(lr_transseries(5,5,8), leq0)": (
        lambda: apply_stokes(lr_transseries(Caps(5, 5, 8)), "leq0"),
        "706899449d29dd6389c38f70a500317db2f6bc6677d6e15f882c45b30c63594d"),
    "apply_delta(lr_transseries(5,6,8), 2)": (
        lambda: apply_delta(lr_transseries(Caps(5, 6, 8)), 2),
        "c0f3d1ec7f97b691f61e1e822215b584fa3e3a1110ff2d3d4e2e7a26d8bf7da4"),
    "apply_delta(lr_transseries(5,6,8), -2)": (
        lambda: apply_delta(lr_transseries(Caps(5, 6, 8)), -2),
        "fba8b3643e4682cc037eee5bd5409ec39fdd7dfd2c31cd95d73e2d72a2a0197b"),
    "apply_stokes(formal_integral(6,6), geq0)": (
        lambda: apply_stokes(formal_integral(Caps(6, 6)), "geq0"),
        "d4871a0c2defb0f023180456ebd0c340a2a8e1b59924e4ef13890064b9b03c8d"),
}


@pytest.mark.parametrize("name", sorted(KERNEL_IMAGE_SHA256))
def test_capped_kernel_images_are_pinned(name):
    build, digest = KERNEL_IMAGE_SHA256[name]
    assert _sha(build().to_json()) == digest


def test_composed_rightward_stokes_in_sigma_convention():
    ctx = make_context(6)
    caps = Caps(3, 3, 6)
    G = formal_integral(caps.widen(extra_grade=1), context=ctx)
    lhs = apply_stokes(G, "geq0")
    rhs = G.subst("s2", Poly.var("s2") - Poly.const(ExactScalar(0, 1)))
    assert (lhs - rhs).truncated(caps).is_zero()


def test_lr_bridge_identities():
    assert lr_bridge_check(Caps(4, 4, 8))["ok"]


def test_lr_stokes_actions():
    assert lr_stokes_check("geq0", Caps(4, 4, 8))["ok"]
    assert lr_stokes_check("leq0", Caps(4, 4, 8))["ok"]
    with pytest.raises(ValueError, match="geq0|leq0"):
        lr_stokes_check("sideways", Caps(4, 4, 8))


@pytest.mark.parametrize("check", [lr_bridge_check, lambda c: lr_stokes_check("geq0", c),
                                   lambda c: lr_stokes_check("leq0", c)])
@pytest.mark.parametrize("caps", [Caps(-1, 3, 4), Caps(3, -1, 4)])
def test_lr_checks_refuse_a_negative_cap(check, caps):
    with pytest.raises(ValueError, match="nonnegative"):
        check(caps)


@pytest.mark.parametrize("caps", [Caps(3, 4, 4), Caps(3, 6, 4), Caps(5, 6, 4)])
def test_lr_rightward_stokes_above_the_sigma_cap(caps):
    assert lr_stokes_check("geq0", caps)["residual"].is_zero()


def test_lr_caps_consistency():
    with pytest.raises(ValueError, match="cap inconsistency"):
        lr_transseries(Caps(3, 3))
    # formal_integral takes its z floor from the context, so the two must agree
    with pytest.raises(ValueError, match="cap inconsistency"):
        formal_integral(Caps(3, 3, 8), context=make_context(6))
    with pytest.raises(ValueError, match="cap inconsistency"):
        formal_integral(Caps(3, 3), context=make_context(6))


# -- numeric sums -------------------------------------------------------------


def test_lr_sum_small_gs_limit():
    # H -> -1/u + (1/2) log u as g_s -> 0; at u = 1 this is -1
    v = lr_sum("-", 0.05, 1.0)
    assert abs(v.value - (-0.9969690585515456)) < 1e-9
    assert abs(v.value - (-1.0)) < 5e-3
    v2 = lr_sum("-", 0.02, 1.0)
    assert abs(v2.value - (-1.0)) < abs(v.value - (-1.0))
    gap = abs(v.value - _eval_partial(gen_H0(3), 0.05, 1.0, 2))
    assert gap < 1e-4


def test_lr_sum_optimal_truncation_floor():
    gs, u = 0.25, 1.0
    sv = lr_sum("-", gs, u)
    H0 = gen_H0(12)
    best = min(abs(sv.value - _eval_partial(H0, gs, u, k)) for k in range(4, 13))
    np_scale = math.exp(-2.0 * sv.meta["z1"].real)
    assert np_scale / 100.0 < best < 10.0 * np_scale


def test_lr_sum_median_reality():
    for a in (0.0, 1.0):
        for b in (0.0, 0.3):
            val = lr_sum("-", 0.3, 1.0, a, b + 0.5j, tol=1e-8).value
            assert abs(val.imag) < 1e-8, (a, b)


def test_lr_connection_right():
    out = lr_connection_check("right", 0.4, 1.0, 0.0, 1.0, tol=1e-5)
    assert out["ok"] and out["residual"] < 1e-10
    out2 = lr_connection_check("right", 0.35, 1.1, 0.5, -0.5 + 0.2j, tol=1e-5)
    assert out2["ok"] and out2["residual"] < 1e-10


def test_lr_connection_left():
    gs = 0.55 * cmath.exp(1j * math.pi / 2)
    out = lr_connection_check("left", gs, 1.0, 0.0, 0.002j, tol=1e-4)
    assert out["ok"] and out["residual"] < 1e-10
    # larger sigma_2 leaves the exponential-term domain of the left sum
    with pytest.raises(DomainError):
        lr_connection_check("left", gs, 1.0, 0.0, 0.05j, tol=1e-4)
    with pytest.raises(ValueError, match="'right' or 'left'"):
        lr_connection_check("up", 0.4, 1.0)
    with pytest.raises(DomainError, match="vanishes"):
        lr_connection_check("left", gs, 1.0, 0.0, -1j)


def test_a_tight_connection_bound_is_no_route_failure(monkeypatch):
    # the residual bound is not the route gate of G_pm: the routes agree to about
    # 1e-17, the two sums to about 1e-13, so a bound of 1e-300 fails the residual only
    gates, real = [], borel.G_pm

    def spy(sign, z, s1, s2, tol, **kwargs):
        gates.append(tol)
        return real(sign, z, s1, s2, tol, **kwargs)

    monkeypatch.setattr(borel, "G_pm", spy)
    for tol in (1e-300, 1e-20):
        out = connection_check("right", 3.0, 0.0, 1.0, tol)
        assert not out["ok"] and out["residual"] < 1e-10
    out = lr_connection_check("right", 0.4, 1.0, 0.0, 1.0, tol=1e-300)
    assert not out["ok"] and out["residual"] < 1e-10
    assert gates == [1e-6] * 6
    # a looser bound is still the gate, as it was
    assert connection_check("left", -0.9, 0.0, 0.05j, 1e-4)["ok"] and gates[6:] == [1e-4] * 2


@pytest.mark.parametrize("gs,u", [(1e-200, 1.0), (0.3, 1e-110), (0.3, 1e-200), (1e-160, 1.0)],
                         ids=["gs2-underflows", "u3-underflows", "u2-underflows", "z1-overflows"])
def test_lr_sum_raises_domain_error_where_the_frame_leaves_the_floats(gs, u):
    # g_s^2 u^3 or u^2 below the smallest float, or z1 past the largest
    with pytest.raises(DomainError, match="underflows"):
        lr_sum("-", gs, u)


@pytest.mark.parametrize("which,gs,u,s1,s2,tol", [
    ("right", 0.4, 1.0, 0.0, 1.0, 1e-5),
    ("right", 0.35, 1.1, 0.5, -0.5 + 0.2j, 1e-5),
    ("left", 0.55j, 1.0, 0.0, 0.002j, 1e-4),
    ("left", 0.5 * cmath.exp(1.5j), 1.05, 0.1, 0.001 + 0.001j, 1e-4),
])
def test_lr_connection_is_the_connection_law_at_z1(which, gs, u, s1, s2, tol):
    # z1 = w^{3/2}/(3 g_s^2 u^3) and R = (1/4) log(u^2/w) + (w^{3/2} - 1)/(3 g_s^2 u^3), w = 1 - 2t,
    # whose second term is -2(w^2 + w + 1)/(3u(1 + w^{3/2})) without the cancellation
    gs, u = complex(gs), complex(u)
    w = 1.0 - 2.0 * (gs * gs * u * u)
    z1 = w ** 1.5 / (3.0 * gs * gs * u ** 3)
    R = 0.25 * cmath.log(u * u / w) - 2.0 * (w * w + w + 1.0) / (3.0 * u * (1.0 + w ** 1.5))
    out = lr_connection_check(which, gs, u, s1, s2, tol)
    ref = connection_check(which, z1, s1, -complex(s2), tol)
    assert out == dict(ref, lhs=ref["lhs"] + R, rhs=ref["rhs"] + R)
    assert out["ok"] and abs(out["residual"] - abs(out["lhs"] - out["rhs"])) < 1e-15


def test_lr_sum_domains():
    for gs, u in ((0.0, 1.0), (math.inf, 1.0), (math.nan, 1.0), (1e-2, math.inf), (1e-2, complex(0.5, math.nan))):
        with pytest.raises(DomainError, match="nonzero and finite"):
            lr_sum("-", gs, u)
    with pytest.raises(DomainError, match="principal branch"):
        lr_sum("+", 1.0, 1.0)
    with pytest.raises(BranchCutError, match="negative real ratio"):
        lr_sum("-", 0.1, -1j)
