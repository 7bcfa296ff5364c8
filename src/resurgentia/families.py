"""Generators for the divergent series family and its free-energy relatives.

The base object is the unique formal solution with constant term one of the
linear equation

    psi'' + 2 psi' + (5/36) z^{-2} psi = 0,

a factorially divergent series psi = sum_n c_n z^{-n} whose coefficients obey

    c_{n+1} = c_n (n + 1/6)(n + 5/6) / (2(n + 1)),    c_0 = 1.

Everything else is built from it: the reflected partner phi(z) = psi(-z), the
log-series g = log psi (whose coefficients b_n encode the genus expansion via
a_{n+1} = 3^n b_n), the reflection f(z) = g(-z), and the unit ratio powers
G_n = ((-1)^{n-1}/n) (phi/psi)^n that seed the two-parameter transseries. All
coefficients are exact rationals.

psi is built twice, from the closed-form ratio and from the equation, each
time as integer numerators over the one denominator 72^N N! (a running product
forward, one pass of weights backward), and the two integer lists must agree.
g and the G_n tower are then series operations on that one psi, taken in the
variable z/72: there coefficient n is 72^n c_n, numerators over N! alone, so
every log, inverse, exp and product works on integers about half as long, and
one exact rescale c_k -> c_k/72^k maps each output back.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import NamedTuple, Optional

from .series import DEFAULT_ORDER, PowerSeries, _convolve, _rescale, _series


class FamilySeries(NamedTuple):
    """A member of the series family: tag psi, phi, g, f or G_n, and n for G_n only."""

    tag: str
    series: PowerSeries
    n: Optional[int] = None


def _psi_closed_form(order: int) -> list[int]:
    """Route (a): numerators of c_0 .. c_order over 72^order order!.

    The closed form is a ratio of Gamma factors; consecutive ratios telescope
    to c_{n+1} = c_n (6n + 1)(6n + 5) / (72 (n + 1)), so no transcendental
    constants are ever needed.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    prods = [1]
    for n in range(order):
        prods.append(prods[-1] * (6 * n + 1) * (6 * n + 5))
    return _over_psi_den(prods)


def _psi_by_ode_recursion(order: int) -> list[int]:
    # route (b): substitute sum d_n z^{-n} into the linear equation and read off
    # the z^{-(n+2)} coefficient: n(n+1) d_n - 2(n+1) d_{n+1} + (5/36) d_n = 0
    prods = [1]
    for n in range(order):
        prods.append(prods[-1] * (36 * n * (n + 1) + 5))
    return _over_psi_den(prods)


def _over_psi_den(prods: list[int]) -> list[int]:
    # c_n = prods[n] / (72^n n!) = prods[n] 72^{N-n} N!/n! / (72^N N!)
    out = prods[:]
    weight = 1
    for n in range(len(out) - 1, -1, -1):
        out[n] *= weight
        weight *= 72 * n
    return out


def gen_c_coeffs(order: int = DEFAULT_ORDER) -> list[Fraction]:
    """c_0 .. c_order of the base series, as exact rationals (route (a))."""
    nums = _psi_closed_form(order)
    den = 72 ** order * factorial(order)
    return [Fraction(c, den) for c in nums]


def _checked_psi(order: int) -> list[int]:
    # psi's numerators over 72^order order!, route (a) checked against route (b)
    closed = _psi_closed_form(order)
    if closed != _psi_by_ode_recursion(order):
        raise ArithmeticError("ODE/closed-form disagreement")
    return closed


def _psi_over_72(order: int) -> PowerSeries:
    """psi in the variable z/72: coefficient n is 72^n c_n, numerators over order!."""
    nums = tuple(c // 72 ** (order - n) for n, c in enumerate(_checked_psi(order)))
    return _series(order, factorial(order), nums, (0,) * (order + 1))


def gen_psi_phi(order: int = DEFAULT_ORDER) -> tuple[FamilySeries, FamilySeries]:
    """The base series and its reflection, cross-checked over two routes.

    Route (a) is the closed-form coefficient ratio, route (b) the recursion
    obtained by substituting the ansatz into the linear equation. Both give
    integer numerators over 72^order order!, which must agree exactly.
    """
    closed = tuple(_checked_psi(order))
    psi = _series(order, 72 ** order * factorial(order), closed, (0,) * (order + 1))
    return (
        FamilySeries("psi", psi),
        FamilySeries("phi", psi.reflect()),
    )


def gen_g_f(order: int = DEFAULT_ORDER) -> tuple[FamilySeries, FamilySeries, list[Fraction]]:
    """g = log psi, its reflection f, and the genus coefficients a_g.

    Returns (g, f, a) where a[k] is the coefficient a_{k+2} = 3^{k+1} b_{k+1}
    of the genus expansion, so a = [a_2, a_3, ...] with order entries.
    """
    g = _rescale(_psi_over_72(order).log(), 1, 72)
    # g is real: b_n = g.re[n] / g.den, and a_{n+1} = 3^n b_n
    a = [Fraction(3 ** n * g.re[n], g.den) for n in range(1, order + 1)]
    return FamilySeries("g", g), FamilySeries("f", g.reflect()), a


def gen_Gn(order: int = DEFAULT_ORDER, nmax: int = 6) -> list[FamilySeries]:
    """The tower G_1 .. G_nmax with G_n = ((-1)^{n-1} / n) * (phi/psi)^n.

    G_1 is produced along two routes, exp(f - g) and phi/psi, which must agree
    exactly; the higher members follow from n (-1)^{n-1} G_n = (G_1)^n.
    """
    if nmax < 1:
        raise ValueError("nmax must be positive")
    psi = _psi_over_72(order)
    g = psi.log()
    ratio = psi.reflect() * psi.inverse()
    via_exp = (g.reflect() - g).exp()
    if ratio != via_exp:
        raise ArithmeticError("ODE/closed-form disagreement")
    out = []
    power = PowerSeries.one(order)
    for n in range(1, nmax + 1):
        power = power * ratio
        sign = Fraction((-1) ** (n - 1), n)
        out.append(FamilySeries("G_n", _rescale(power.scale(sign), 1, 72), n=n))
    return out


def ode_residual(series: PowerSeries, which: str) -> PowerSeries:
    """Residual window of the defining equation, exact through z^{-(N-2)}.

    which = "airy_linear": psi'' + 2 psi' + (5/36) z^{-2} psi.
    which = "hae_nonlinear": g'' + (g')^2 + 2 g' + (5/36) z^{-2}; any constant
    shift of g leaves this residual unchanged.
    The coefficients of z^0 and z^{-1} vanish for every series, so N >= 4: a
    window that stops above z^{-2} would certify any series. Each residual is one
    integer pass over the numerators c_k of the series, with one canonical form.
    """
    n = series.order
    if n < 4:
        raise ValueError("need order >= 4: the residual window must reach z^-2, "
                         "the first coefficient the equation constrains")
    d = series.den
    if which == "airy_linear":
        # at z^{-m}: ((36 (m-1)(m-2) + 5) c_{m-2} - 72 (m-1) c_{m-1}) / (36 d)
        re, im = ((0, 0) + tuple((36 * (m - 1) * (m - 2) + 5) * c[m - 2] - 72 * (m - 1) * c[m - 1]
                                 for m in range(2, n - 1)) for c in (series.re, series.im))
        return _series(n - 2, 36 * d, re, im)
    if which == "hae_nonlinear":
        # at z^{-i}: g' = p_i / d with p_i = -(i-1) c_{i-1} and g'' = -(i-1) p_{i-1} / d;
        # (g')^2 is squared as P / e with P = p / h, e = d / h and h = gcd(d, p)
        ps = [(0,) + tuple(-(i - 1) * c[i - 1] for i in range(1, n - 1)) for c in (series.re, series.im)]
        h = gcd(d, *ps[0], *ps[1])
        pr, pi = ([x // h for x in p] for p in ps)
        den = lcm(d, (d // h) ** 2, 36)
        a, b = den // d, den // (d // h) ** 2
        re, im = ([a * (2 * x - (i - 1) * y) + b * s for i, x, y, s in zip(range(n - 1), p, (0,) + p, sq)]
                  for p, sq in zip(ps, _convolve(pr, pi, pr, pi, n - 2, True)))
        re[2] += 5 * (den // 36)
        return _series(n - 2, den, tuple(re), tuple(im))
    raise ValueError(f"unknown residual kind {which!r}")
