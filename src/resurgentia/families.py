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
g and the G_n tower are then series operations on that one psi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional

from .series import DEFAULT_ORDER, PowerSeries, _series

FAMILY_TAGS = ("psi", "phi", "g", "f", "G_n")


@dataclass(frozen=True)
class FamilySeries:
    """A tagged member of the series family."""

    tag: str
    series: PowerSeries
    n: Optional[int] = None  # only used by the G_n tower

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}")
        if (self.tag == "G_n") != (self.n is not None):
            raise ValueError("the index n is exactly for the G_n tag")

    @property
    def order(self) -> int:
        return self.series.order


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


def gen_psi_phi(order: int = DEFAULT_ORDER) -> tuple[FamilySeries, FamilySeries]:
    """The base series and its reflection, cross-checked over two routes.

    Route (a) is the closed-form coefficient ratio, route (b) the recursion
    obtained by substituting the ansatz into the linear equation. Both give
    integer numerators over 72^order order!, which must agree exactly.
    """
    closed = _psi_closed_form(order)
    if closed != _psi_by_ode_recursion(order):
        raise ArithmeticError("ODE/closed-form disagreement")
    psi = _series(order, 72 ** order * factorial(order), tuple(closed), (0,) * (order + 1))
    return (
        FamilySeries("psi", psi),
        FamilySeries("phi", psi.reflect()),
    )


def gen_g_f(order: int = DEFAULT_ORDER) -> tuple[FamilySeries, FamilySeries, list[Fraction]]:
    """g = log psi, its reflection f, and the genus coefficients a_g.

    Returns (g, f, a) where a[k] is the coefficient a_{k+2} = 3^{k+1} b_{k+1}
    of the genus expansion, so a = [a_2, a_3, ...] with order entries.
    """
    g = gen_psi_phi(order)[0].series.log()
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
    psi, phi = gen_psi_phi(order)
    g = psi.series.log()
    ratio = phi.series * psi.series.inverse()
    via_exp = (g.reflect() - g).exp()
    if ratio != via_exp:
        raise ArithmeticError("ODE/closed-form disagreement")
    out = []
    power = PowerSeries.one(order)
    for n in range(1, nmax + 1):
        power = power * ratio
        sign = Fraction((-1) ** (n - 1), n)
        out.append(FamilySeries("G_n", power.scale(sign), n=n))
    return out


def ode_residual(series: PowerSeries, which: str) -> PowerSeries:
    """Residual window of the defining equation, exact through z^{-(N-2)}.

    which = "airy_linear": psi'' + 2 psi' + (5/36) z^{-2} psi.
    which = "hae_nonlinear": g'' + (g')^2 + 2 g' + (5/36) z^{-2}; any constant
    shift of g leaves this residual unchanged.
    The coefficients of z^0 and z^{-1} vanish for every series, so N >= 4: a
    window that stops above z^{-2} would certify any series.
    """
    n = series.order
    if n < 4:
        raise ValueError("need order >= 4: the residual window must reach z^-2, "
                         "the first coefficient the equation constrains")
    quad = PowerSeries.monomial(2, n - 2, Fraction(5, 36))
    if which == "airy_linear":
        d1 = series.diff()
        d2 = d1.diff()
        return d2 + d1.truncate(n - 2).scale(2) + quad * series.truncate(n - 2)
    if which == "hae_nonlinear":
        d1 = series.diff()
        low = d1.truncate(n - 2)  # the top row of d1 leaves the window of d2
        return d1.diff() + low * low + low.scale(2) + quad
    raise ValueError(f"unknown residual kind {which!r}")
