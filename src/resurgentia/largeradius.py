"""Large-radius pipeline: the change of variable z2 -> z2 + phi_u and its fallout.

With t = g_s^2 u^2 and z2 = 1/(3 g_s^2 u^3), the tangent-to-identity shift

    phi_u(z2) = sum_{n>=1} binom(3/2, n) (-2/(3u))^n z2^{-(n-1)}

maps z2 to z1 = z2 (1-2t)^{3/2} = 1/(3 lambda_s^2), carrying the double-scaling
free energies to the large-radius frame. Everything exact here lives in one of
two gradings, powers of g_s^2 with Laurent-in-u coefficients or powers of
z2^{-1}, and the perturbative series H^(0) is built along both and compared.
The symbolic layer extends the alien engine with composition factors
e^{-+2 phi_u} so the bridge and Stokes identities can be checked verbatim, and
the numeric layer delegates to the sectorial solver at z1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import families
from .alien import (
    ONE_POLY,
    Caps,
    CompositionContext,
    Poly,
    TransElement,
    _bridge_residuals,
    _stokes_residual,
    _stokes_window,
    formal_integral,
)
from .borel import DomainError, BranchCutError, G_pm, SumValue
from .scalars import ExactScalar


def binom_half(num: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient binom(num, k) for rational num."""
    out = Fraction(1)
    for j in range(k):
        out *= (num - j) / (j + 1)
    return out


class ULaurent:
    """Laurent polynomial in u with rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms: dict[int, Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    self.terms[int(e)] = c

    @staticmethod
    def const(c) -> "ULaurent":
        return ULaurent({0: Fraction(c)})

    @staticmethod
    def mono(e: int, c) -> "ULaurent":
        return ULaurent({e: Fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ULaurent") -> "ULaurent":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return ULaurent(out)

    def __neg__(self) -> "ULaurent":
        return ULaurent({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "ULaurent") -> "ULaurent":
        return self + (-other)

    def __mul__(self, other: "ULaurent") -> "ULaurent":
        out: dict[int, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return ULaurent(out)

    def scale(self, c) -> "ULaurent":
        c = Fraction(c)
        return ULaurent({e: v * c for e, v in self.terms.items()})

    def shift(self, k: int) -> "ULaurent":
        """Multiply by u^k."""
        return ULaurent({e + k: c for e, c in self.terms.items()})

    def diff(self) -> "ULaurent":
        return ULaurent({e - 1: e * c for e, c in self.terms.items() if e != 0})

    def eval(self, u: complex) -> complex:
        return sum(complex(c) * u ** e for e, c in self.terms.items())

    def coeff(self, e: int) -> Fraction:
        return self.terms.get(e, Fraction(0))

    def deg_max(self) -> Optional[int]:
        return max(self.terms) if self.terms else None

    def deg_min(self) -> Optional[int]:
        return min(self.terms) if self.terms else None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ULaurent) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def to_map(self) -> dict[str, str]:
        return {str(e): str(c) for e, c in sorted(self.terms.items())}

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(), reverse=True):
            if e == 0:
                bits.append(f"{c}")
            else:
                bits.append(f"({c})*u^{e}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"ULaurent({self.to_str()})"


_ZERO_UL = ULaurent()


@dataclass(frozen=True)
class UCoeffSeries:
    """Truncated series with ULaurent coefficients in one of two gradings.

    grading "gs2": coeffs[k] multiplies g_s^{2k}. grading "z2": coeffs[k]
    multiplies z2^{-k}. log_u is the one scalar multiplying log u (nonzero
    only for R and H^(0)); exp_tag n records a prefactor e^{2n/u}.
    """

    grading: str
    order: int
    coeffs: tuple
    log_u: Fraction = Fraction(0)
    exp_tag: int = 0

    def __post_init__(self):
        if self.grading not in ("gs2", "z2"):
            raise ValueError("grading must be 'gs2' or 'z2'")
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient list does not match the order")

    def coeff(self, k: int) -> ULaurent:
        return self.coeffs[k] if 0 <= k <= self.order else _ZERO_UL

    def __add__(self, other: "UCoeffSeries") -> "UCoeffSeries":
        self._match(other)
        if self.exp_tag != other.exp_tag:
            raise ValueError("exponential prefactor mismatch")
        n = min(self.order, other.order)
        return UCoeffSeries(
            self.grading,
            n,
            tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)),
            self.log_u + other.log_u,
            self.exp_tag,
        )

    def __sub__(self, other: "UCoeffSeries") -> "UCoeffSeries":
        return self + other.scale(-1)

    def __mul__(self, other: "UCoeffSeries") -> "UCoeffSeries":
        self._match(other)
        if self.log_u != 0 or other.log_u != 0:
            raise ValueError("cannot multiply series carrying a log u term")
        n = min(self.order, other.order)
        out = _zs_mul(self.coeffs, other.coeffs, n)
        return UCoeffSeries(self.grading, n, tuple(out), Fraction(0), self.exp_tag + other.exp_tag)

    def scale(self, c) -> "UCoeffSeries":
        c = Fraction(c)
        return UCoeffSeries(
            self.grading, self.order, tuple(x.scale(c) for x in self.coeffs), self.log_u * c, self.exp_tag
        )

    def shift_u(self, k: int) -> "UCoeffSeries":
        if self.log_u != 0:
            raise ValueError("cannot shift a series carrying a log u term")
        return UCoeffSeries(self.grading, self.order, tuple(x.shift(k) for x in self.coeffs), Fraction(0), self.exp_tag)

    def mul_gs2(self) -> "UCoeffSeries":
        """Multiply by g_s^2 (an index shift in the gs2 grading)."""
        if self.grading != "gs2":
            raise ValueError("g_s^2 shift requires the gs2 grading")
        return UCoeffSeries(self.grading, self.order, (_ZERO_UL,) + self.coeffs[: self.order], self.log_u, self.exp_tag)

    def diff_u(self) -> "UCoeffSeries":
        if self.exp_tag != 0:
            raise ValueError("u-derivative not supported under an exponential prefactor")
        out = [x.diff() for x in self.coeffs]
        if self.log_u != 0:
            out[0] = out[0] + ULaurent.mono(-1, self.log_u)
        return UCoeffSeries(self.grading, self.order, tuple(out), Fraction(0), 0)

    def truncate(self, order: int) -> "UCoeffSeries":
        if order >= self.order:
            return self
        return UCoeffSeries(self.grading, order, self.coeffs[: order + 1], self.log_u, self.exp_tag)

    def is_zero(self) -> bool:
        return self.log_u == 0 and all(x.is_zero() for x in self.coeffs)

    def eval_partial(self, gs: complex, u: complex, nterms: Optional[int] = None) -> complex:
        """Numeric partial sum through g_s^{2(nterms-1)} (principal log u)."""
        if self.grading != "gs2":
            raise ValueError("numeric partial sums use the gs2 grading")
        n = self.order + 1 if nterms is None else min(nterms, self.order + 1)
        x = complex(gs) ** 2
        total = 0.0 + 0.0j
        for k in range(n - 1, -1, -1):
            total = total * x + self.coeffs[k].eval(u)
        if self.log_u != 0:
            total += complex(self.log_u) * cmath.log(u)
        if self.exp_tag:
            total *= cmath.exp(2.0 * self.exp_tag / u)
        return total

    def to_json_dict(self) -> dict:
        return {
            "grading": self.grading,
            "order": self.order,
            "log_u": str(self.log_u),
            "exp_tag": self.exp_tag,
            "coeffs": [x.to_map() for x in self.coeffs],
        }

    def _match(self, other: "UCoeffSeries"):
        if self.grading != other.grading:
            raise ValueError("grading mismatch")


# -- exact generators ------------------------------------------------------------


def gen_phi_u(N: int) -> UCoeffSeries:
    """First N terms of the change of variable phi_u in the z2 grading."""
    if N < 1:
        raise ValueError("need at least one term")
    coeffs = []
    for k in range(N):
        n = k + 1
        c = binom_half(Fraction(3, 2), n) * Fraction(-2, 3) ** n
        coeffs.append(ULaurent.mono(-n, c))
    return UCoeffSeries("z2", N - 1, tuple(coeffs))


def gen_R(N: int) -> UCoeffSeries:
    """The elementary term (1/4)log(u^2/(1-2t)) + ((1-2t)^{3/2}-1)/(3 g_s^2 u^3).

    Expanded in g_s^2 with t = g_s^2 u^2; the constant term is -1/u + (1/2)log u
    and the log u scalar is carried symbolically.
    """
    if N < 0:
        raise ValueError("order must be nonnegative")
    coeffs = [ULaurent.mono(-1, -1)]
    for k in range(1, N + 1):
        log_part = Fraction(2 ** k, 4 * k)
        sqrt_part = binom_half(Fraction(3, 2), k + 1) * Fraction(-2) ** (k + 1) / 3
        coeffs.append(ULaurent.mono(2 * k, log_part) + ULaurent.mono(2 * k - 1, sqrt_part))
    return UCoeffSeries("gs2", N, tuple(coeffs), log_u=Fraction(1, 2))


def lambda_s_squared(N: int) -> UCoeffSeries:
    """lambda_s^2 = sum_l (2l-1)!/(2^{l-1}((l-1)!)^2) u^{2l+1} g_s^{2l}."""
    coeffs = [_ZERO_UL]
    for ell in range(1, N + 1):
        c = Fraction(math.factorial(2 * ell - 1), 2 ** (ell - 1) * math.factorial(ell - 1) ** 2)
        coeffs.append(ULaurent.mono(2 * ell + 1, c))
    return UCoeffSeries("gs2", N, tuple(coeffs))


def _ulaurent(terms: dict[int, Fraction]) -> ULaurent:
    """Wrap terms that are already valid (int exponents, nonzero Fractions)."""
    out = ULaurent.__new__(ULaurent)
    out.terms = terms
    return out


def _flat_window(window: Sequence[ULaurent]) -> tuple[int, list]:
    """(den, rows): each nonzero coefficient k as (k, [(e, num), ...]).

    Every term is num/den times u^e, with den the lcm of the window's
    denominators.
    """
    den = math.lcm(*(c.denominator for x in window for c in x.terms.values()))
    return den, [
        (k, [(e, c.numerator * (den // c.denominator)) for e, c in x.terms.items()])
        for k, x in enumerate(window)
        if x.terms
    ]


def _zs_mul(a: list, b: list, N: int) -> list:
    """The product of two ULaurent windows, truncated at index N.

    Both windows become integer numerators over a shared denominator, the
    products are summed with plain ints, and each surviving (k, e) term becomes
    one Fraction. Pairs are visited in the order of the term-by-term ULaurent
    loop, and a term that cancels is dropped at the same point, so the terms of
    each output also keep that loop's order.
    """
    den_a, rows_a = _flat_window(a[: N + 1])
    den_b, rows_b = _flat_window(b[: N + 1])
    acc: list[dict[int, int]] = [{} for _ in range(N + 1)]
    for i, xs in rows_a:
        for j, ys in rows_b:
            if i + j > N:
                break
            prod: dict[int, int] = {}
            for e1, c1 in xs:
                for e2, c2 in ys:
                    e = e1 + e2
                    prod[e] = prod.get(e, 0) + c1 * c2
            out = acc[i + j]
            for e, c in prod.items():
                if c:
                    c += out.get(e, 0)
                    if c:
                        out[e] = c
                    else:
                        del out[e]
    den = den_a * den_b
    return [_ulaurent({e: Fraction(c, den) for e, c in t.items()}) for t in acc]


def _h0_z2_route(N: int) -> UCoeffSeries:
    """g(z2 + phi_u) + phi_u + (1/4) sum_k (2/(3u))^k z2^{-k}/k + (1/2)log u,
    built in the z2 grading and regraded via z2^{-1} = 3 g_s^2 u^3."""
    phi = gen_phi_u(N + 1).coeffs  # z2^0 .. z2^{-N}
    # x = z2^{-1} phi_u, then w = (z2 + phi_u)^{-1} = z2^{-1} sum_j (-x)^j
    x = [_ZERO_UL] + list(phi[:N])
    geo = [ULaurent.const(1)] + [_ZERO_UL] * N
    term = geo[:]
    negx = [-c for c in x]
    for _ in range(N):
        term = _zs_mul(term, negx, N)
        if all(c.is_zero() for c in term):
            break
        geo = [g + t for g, t in zip(geo, term)]
    w = [_ZERO_UL] + geo[:N]  # valuation 1
    bs = families.gen_g_f(N + 2)[0].series.coeffs
    total = [_ZERO_UL] * (N + 1)
    wn = [ULaurent.const(1)] + [_ZERO_UL] * N
    for n in range(1, N + 1):
        wn = _zs_mul(wn, w, N)
        bn = Fraction(bs[n].re) if n < len(bs) else Fraction(0)
        if bn:
            total = [t + c.scale(bn) for t, c in zip(total, wn)]
    for k in range(min(N, len(phi) - 1) + 1):
        total[k] = total[k] + phi[k]
    for k in range(1, N + 1):
        total[k] = total[k] + ULaurent.mono(-k, Fraction(2 ** k, 3 ** k * 4 * k))
    regraded = tuple(
        total[k] * ULaurent.mono(3 * k, Fraction(3) ** k) for k in range(N + 1)
    )
    return UCoeffSeries("gs2", N, regraded, log_u=Fraction(1, 2))


def gen_H0(N: int) -> UCoeffSeries:
    """The large-radius perturbative series, exact through g_s^{2N}.

    Route (a) substitutes lambda_s^2 into the genus expansion and adds R;
    route (b) composes g with id + phi_u in the z2 grading and regrades.
    The two must agree coefficientwise.
    """
    if N < 1:
        raise ValueError("order must be at least 1")
    lam = lambda_s_squared(N)
    a_list = families.gen_g_f(N + 2)[2]  # a_list[g-2] = a_g
    route_a = gen_R(N)
    power = UCoeffSeries("gs2", N, (ULaurent.const(1),) + (_ZERO_UL,) * N)
    for g in range(2, N + 2):
        power = power * lam  # lambda_s^{2(g-1)}
        route_a = route_a + power.scale(a_list[g - 2])
    route_b = _h0_z2_route(N)
    if route_a.coeffs != route_b.coeffs or route_a.log_u != route_b.log_u:
        raise ArithmeticError("free-energy route disagreement")
    return route_a


def u_equation_residual(H: UCoeffSeries) -> UCoeffSeries:
    """LHS - RHS of the u-equation

        d_u H - (3/2) g_s^2 u^3 (d_u H + (u/3) d_u^2 H + (u/3)(d_u H)^2)
            = 1/(2u) + 1/u^2,

    exact; zero through the representable order certifies a solution."""
    if H.grading != "gs2":
        raise ValueError("the u-equation acts on the gs2 grading")
    d1 = H.diff_u()
    d2 = d1.diff_u()
    inner = d1 + d2.shift_u(1).scale(Fraction(1, 3)) + (d1 * d1).shift_u(1).scale(Fraction(1, 3))
    lhs = d1 - inner.shift_u(3).scale(Fraction(3, 2)).mul_gs2()
    rhs0 = ULaurent.mono(-1, Fraction(1, 2)) + ULaurent.mono(-2, 1)
    out = list(lhs.coeffs)
    out[0] = out[0] - rhs0
    return UCoeffSeries("gs2", lhs.order, tuple(out))


def _c_minus(order: int) -> list:
    """t-coefficients of ((1-2t)^{3/2} - 1 + 3t)/(3t^2); c_minus(0) = 1/2."""
    return [
        binom_half(Fraction(3, 2), r + 2) * Fraction(-2) ** (r + 2) / 3
        for r in range(order + 1)
    ]


def _c_plus(order: int) -> list:
    """t-coefficients of ((1-2t)^{-3/2} - 1)/t; c_plus(0) = 3."""
    return [
        binom_half(Fraction(-3, 2), r + 1) * Fraction(-2) ** (r + 1)
        for r in range(order + 1)
    ]


def _t_mul(a: list, b: list, order: int) -> list:
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x == 0:
            continue
        for j, y in enumerate(b[: order + 1 - i]):
            if y != 0:
                out[i + j] += x * y
    return out


def gen_Hn(n: int, gmax: int) -> tuple[str, UCoeffSeries, list]:
    """Transseries component n: prefactor e^{2n/u}, series, and Pol_n(u,2g).

    Built from the discrepancy series c_-, c_+ and the double-scaling tower:
    the g_s^{2g} coefficient is u^g Pol_n(u,2g) with Pol of degree exactly 2g,
    and the g_s^0 term is -1/n.
    """
    if n < 1:
        raise ValueError("component index must be positive")
    if gmax < 0:
        raise ValueError("gmax must be nonnegative")
    Gn = families.gen_Gn(max(gmax + 1, 4), n)[n - 1].series
    gcoef = []
    for k in range(gmax + 1):
        c = Gn.coeff(k)
        gcoef.append(Fraction(3) ** k * Fraction(c.re))
    cm = _c_minus(gmax)
    cp1 = [Fraction(1)] + _c_plus(gmax - 1) if gmax >= 1 else [Fraction(1)]  # 1 + t c_+
    cm_pow = [[Fraction(1)] + [Fraction(0)] * gmax]
    cp_pow = [[Fraction(1)] + [Fraction(0)] * gmax]
    for _ in range(gmax):
        cm_pow.append(_t_mul(cm_pow[-1], cm, gmax))
        cp_pow.append(_t_mul(cp_pow[-1], cp1, gmax))
    # t-coefficients of c_-^ell (1 + t c_+)^k, each product formed once
    c_lk = {
        (ell, k): _t_mul(cm_pow[ell], cp_pow[k], gmax)
        for k in range(gmax + 1)
        if gcoef[k] != 0
        for ell in range(gmax + 1 - k)
    }
    sign_n = Fraction((-1) ** n)
    coeffs = []
    pols = []
    for g in range(gmax + 1):
        pol = ULaurent()
        for k in range(g + 1):
            if gcoef[k] == 0:
                continue
            for ell in range(g - k + 1):
                r = g - k - ell
                c_lkr = c_lk[ell, k][r]
                if c_lkr == 0:
                    continue
                w = Fraction((-2 * n) ** ell, math.factorial(ell)) * sign_n * gcoef[k] * c_lkr
                pol = pol + ULaurent.mono(r + 2 * k, w)
        coeffs.append(pol.shift(g))
        if g >= 1:
            pols.append(pol)
    series = UCoeffSeries("gs2", gmax, tuple(coeffs), exp_tag=n)
    return f"exp({2 * n}/u)", series, pols


# -- symbolic layer ----------------------------------------------------------------


def _poly_exp(p: Poly, zcap: int) -> Poly:
    """exp(p) for a polynomial with strictly negative z-valuation, z-truncated."""
    out = ONE_POLY
    term = ONE_POLY
    for j in range(1, zcap + 1):
        term = (term * p).scale(Fraction(1, j)).drop_low_z(zcap)
        if term.is_zero():
            break
        out = out + term
    return out


def make_context(zcap: int = 8) -> CompositionContext:
    """Composition factors e^{-+2 phi_u} with the e^{+-2/u} part in the w slot."""
    if zcap < 1:
        raise ValueError("z order must be positive")
    h = Poly.zero()  # -2 (phi_u + 1/u)
    for k in range(1, zcap + 1):
        c = binom_half(Fraction(3, 2), k + 1) * Fraction(-2, 3) ** (k + 1)
        h = h + Poly.var("z", -k, 1) * Poly.var("u", -(k + 1), -2 * c)
    fplus = _poly_exp(h, zcap) * Poly.var("w", 1)
    fminus = _poly_exp(h.scale(-1), zcap) * Poly.var("w", -1)
    check = (fplus * fminus).drop_low_z(zcap)
    if check != ONE_POLY:
        raise ArithmeticError("composition factors fail to invert each other")
    return CompositionContext(factor_plus2=fplus, factor_minus2=fminus, zcap=zcap)


def _rtilde_poly(zcap: int) -> Poly:
    """(1/2) log u + phi_u + (1/4) sum_k (2/(3u))^k z^{-k}/k, z-truncated."""
    out = Poly.var("lu", 1, Fraction(1, 2)) + Poly.var("u", -1, -1)
    for k in range(1, zcap + 1):
        c_phi = binom_half(Fraction(3, 2), k + 1) * Fraction(-2, 3) ** (k + 1)
        out = out + Poly.var("z", -k, 1) * Poly.var("u", -(k + 1), c_phi)
        out = out + Poly.var("z", -k, 1) * Poly.var("u", -k, Fraction(2 ** k, 3 ** k * 4 * k))
    return out


def lr_transseries(caps: Caps, context: Optional[CompositionContext] = None) -> TransElement:
    """The symbolic transseries: the formal integral at (sigma_1, -sigma_2)
    composed with id + phi_u, plus the elementary term."""
    if caps.zorder is None:
        raise ValueError("cap inconsistency: large-radius caps need a z order")
    if context is None:
        context = make_context(caps.zorder)
    if context.zcap != caps.zorder:
        raise ValueError("cap inconsistency: context and caps disagree on the z order")
    core = formal_integral(caps, context=context, grade_cap=caps.grade, negate_sigma2=True)
    return core + TransElement.from_poly(_rtilde_poly(caps.zorder), caps, context)


def lr_bridge_check(caps: Caps = Caps(4, 4, 8)) -> dict:
    """Residuals of the two large-radius bridge identities.

    r_plus  = Delta_2  H - i e^{+2 z2} dH/dsigma_2
    r_minus = Delta_-2 H - i e^{-2 z2} (sigma_2 dH/dsigma_1 - sigma_2^2 dH/dsigma_2)
    """
    H = lr_transseries(caps.widen(extra_sigma=1, extra_grade=1))
    r_plus, r_minus = _bridge_residuals(H, caps, ExactScalar(0, -1))
    return {
        "residual_plus": r_plus,
        "residual_minus": r_minus,
        "ok": r_plus.is_zero() and r_minus.is_zero(),
    }


def lr_stokes_check(direction: str, caps: Caps = Caps(5, 5, 8)) -> dict:
    """Residual of the symbolic Stokes action on the large-radius transseries.

    geq0: H(sigma_1, sigma_2) -> H(sigma_1, sigma_2 + i).
    leq0: H(sigma_1, sigma_2) -> H(sigma_1 + log(1 + i sigma_2),
                                    sigma_2/(1 + i sigma_2)).
    """
    if direction not in ("geq0", "leq0"):
        raise ValueError("direction must be 'geq0' or 'leq0'")
    H = lr_transseries(_stokes_window(caps, direction))
    residual = _stokes_residual(H, direction, caps, ExactScalar(0, -1))
    return {"residual": residual, "ok": residual.is_zero()}


# -- numeric layer -----------------------------------------------------------------


def lr_sum(
    sign,
    gs: complex,
    u: complex,
    sigma1: complex = 0.0,
    sigma2: complex = 0.0,
    tol: float = 1e-6,
) -> SumValue:
    """Numeric large-radius solution: the sectorial sum at z1 plus R(g_s, u).

    z1 = (1-2t)^{3/2}/(3 g_s^2 u^3) with t = g_s^2 u^2, principal powers; the
    exponential-term domain condition is enforced by the sectorial solver.
    """
    gs = complex(gs)
    u = complex(u)
    if gs == 0 or u == 0:
        raise DomainError("g_s and u must be nonzero")
    t = gs * gs * u * u
    if abs(t) >= 0.5:
        raise DomainError("outside the principal branch domain |g_s^2 u^2| < 1/2")
    w = 1.0 - 2.0 * t
    r32 = w ** 1.5
    z1 = r32 / (3.0 * gs * gs * u ** 3)
    core = G_pm(sign, z1, sigma1, -complex(sigma2), tol)
    ratio = u * u / w
    if ratio.real <= 0.0 and abs(ratio.imag) < 1e-13:
        raise BranchCutError("branch cut: log of a negative real ratio")
    r_num = 0.25 * cmath.log(ratio) + (r32 - 1.0) / (3.0 * gs * gs * u ** 3)
    meta = dict(core.meta, z1=z1, t=t)
    return SumValue(core.value + r_num, core.err, meta)


def lr_connection_check(
    which: str,
    gs: complex,
    u: complex,
    sigma1: complex = 0.0,
    sigma2: complex = 0.0,
    tol: float = 1e-4,
) -> dict:
    """Connection residual between the two large-radius families.

    right: H_+(g_s, u, s1, s2) - H_-(g_s, u, s1, s2 + i).
    left:  H_+(e^{-i pi} g_s, u, s1, s2) - H_-(g_s, u, s1 + log(1 - i s2),
           s2/(1 - i s2)); needs |s2| small enough for both domains.
    """
    gs = complex(gs)
    sigma1 = complex(sigma1)
    sigma2 = complex(sigma2)
    if which == "right":
        lhs = lr_sum("+", gs, u, sigma1, sigma2, tol)
        rhs = lr_sum("-", gs, u, sigma1, sigma2 + 1j, tol)
    elif which == "left":
        wfac = 1.0 - 1j * sigma2
        if abs(wfac) < 1e-9:
            raise DomainError("domain empty: 1 - i sigma_2 vanishes")
        lhs = lr_sum("+", -gs, u, sigma1, sigma2, tol)
        rhs = lr_sum("-", gs, u, sigma1 + cmath.log(wfac), sigma2 / wfac, tol)
    else:
        raise ValueError("which must be 'right' or 'left'")
    res = abs(lhs.value - rhs.value)
    return {
        "residual": res,
        "ok": res <= tol,
        "lhs": lhs.value,
        "rhs": rhs.value,
        "err": lhs.err + rhs.err,
    }
