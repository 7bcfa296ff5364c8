"""Large-radius pipeline: one frame map over the double-scaling layer.

With t = g_s^2 u^2 and z2 = 1/(3 g_s^2 u^3), the shift z2 -> z2 + phi_u,

    phi_u(z2) = sum_{n>=1} A_n (3u)^{-n} z2^{-(n-1)},  (1-2t)^{3/2} = sum_n A_n t^n,

maps z2 to z1 = z2 (1-2t)^{3/2} = 1/(3 lambda_s^2). Resurgent series are stable
under it, so each large-radius object is a double-scaling one at z1 plus the
elementary term R. Exact series at z1 come from one evaluation map, _at_z1,
which reads z1^{-k} = 3^k g_s^{2k} u^{3k} (1-2t)^{-3k/2} off the t-coefficients,
and the factors e^{-2n(phi_u + 1/u)} from one row recurrence (which also gives
1/(1 + x)): H^(0) (route (a) is log psi at z1 plus R, checked against route (b),
the composition in the z2 grading), the components H^(n), the composition
factors e^{-+2 phi_u} of the symbolic layer (one context per z order), and the
numeric sums and connection law (G_+- at z1 with sigma_2 -> -sigma_2). phi_u,
R~ and the t-coefficients of (1-2t)^a are each written once. Exact series are
graded by powers of g_s^2 or of z2^{-1}; a UCoeffSeries stores one as integer
numerators over one denominator, and ULaurent is its coefficient view.
"""

from __future__ import annotations

import cmath
import math
from itertools import chain
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from . import families
from .alien import (
    IDX,
    NVARS,
    ONE_POLY,
    Caps,
    CompositionContext,
    Poly,
    TransElement,
    _bridge_check,
    _stokes_residual,
    _stokes_window,
    formal_integral,
)
from .errors import BranchCutError, DomainError, SumValue
from .scalars import ExactScalar, exact_fraction
from .series import PowerSeries


def _one_minus_2t(a: Fraction, n: int) -> list:
    """t-coefficients A_0..A_n of (1 - 2t)^a, A_k = binom(a, k) (-2)^k, as a running product."""
    out = [Fraction(1)]
    for k in range(n):
        out.append(out[-1] * 2 * (k - a) / (k + 1))
    return out


def _ulaurent(terms: dict[int, Fraction]) -> "ULaurent":
    """Wrap terms that are already valid (int exponents, nonzero Fractions)."""
    out = ULaurent.__new__(ULaurent)
    out.terms = terms
    return out


def _exponent(e) -> int:
    if type(e) is not int:  # int() would turn 2.5 into 2 and "3" into 3
        raise TypeError(f"u-exponent must be an int, not {type(e).__name__}")
    return e


class ULaurent:
    """Laurent polynomial in u with rational coefficients.

    The constructor validates its input; the arithmetic below builds results
    through _ulaurent, dropping the zeros a sum or a product can produce. The
    order of the terms is unspecified; to_map and to_str sort them.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms: dict[int, Fraction] = {}
        for e, c in (terms or {}).items():
            c = exact_fraction(c)
            if c != 0:
                self.terms[_exponent(e)] = c

    @staticmethod
    def const(c) -> "ULaurent":
        return ULaurent.mono(0, c)

    @staticmethod
    def mono(e: int, c) -> "ULaurent":
        c = exact_fraction(c)
        return _ulaurent({_exponent(e): c} if c else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ULaurent") -> "ULaurent":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return _ulaurent({e: c for e, c in out.items() if c})

    # unused in src/, but perfbench/tracer.py wraps it at install; traced runs need it
    def __mul__(self, other: "ULaurent") -> "ULaurent":
        out: dict[int, Fraction] = {}
        _acc_row(out, self.terms.items(), other.terms.items())
        return _ulaurent({e: c for e, c in out.items() if c})

    def shift(self, k: int) -> "ULaurent":
        """Multiply by u^k."""
        return _ulaurent({e + k: c for e, c in self.terms.items()})

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
_F0 = Fraction(0)


def _ucs(grading: str, order: int, den: int, rows: tuple,
         log_u: Fraction = _F0, exp_tag: int = 0) -> "UCoeffSeries":
    """A UCoeffSeries from nonzero row numerators over den > 0, in canonical form."""
    g = math.gcd(den, *chain.from_iterable(map(dict.values, rows)))
    if g != 1:
        den //= g
        rows = tuple({e: c // g for e, c in row.items()} for row in rows)
    out = UCoeffSeries.__new__(UCoeffSeries)
    out.grading, out.order, out.den, out.rows = grading, order, den, rows
    out.log_u, out.exp_tag = log_u, exp_tag
    return out


def _acc_row(row: dict, xs: list, ys: list) -> None:
    """Add the product of two rows, given as (u-exponent, numerator) pairs, into row."""
    get = row.get
    for e1, c1 in xs:
        for e2, c2 in ys:
            e = e1 + e2
            row[e] = get(e, 0) + c1 * c2


class UCoeffSeries:
    """Truncated series with ULaurent coefficients in one of two gradings.

    grading "gs2": coefficient k multiplies g_s^{2k}. grading "z2":
    coefficient k multiplies z2^{-k}. log_u is the one scalar multiplying
    log u (nonzero only for R and H^(0)); exp_tag n records a prefactor
    e^{2n/u}. The window is stored as rows[k] = {u-exponent: numerator},
    nonzero ints over one denominator den > 0, in canonical form (gcd(den,
    every numerator) == 1); coeffs and coeff(k) are read-only ULaurent views.
    Every operation works on ints.
    """

    __slots__ = ("grading", "order", "den", "rows", "log_u", "exp_tag")

    def __init__(self, grading: str, order: int, coeffs: Sequence[ULaurent],
                 log_u: Fraction = _F0, exp_tag: int = 0):
        if grading not in ("gs2", "z2"):
            raise ValueError("grading must be 'gs2' or 'z2'")
        if len(coeffs) != order + 1:
            raise ValueError("coefficient list does not match the order")
        # the lcm of reduced denominators leaves numerators without a common factor
        den = math.lcm(*(c.denominator for x in coeffs for c in x.terms.values()))
        rows = tuple({e: c.numerator * (den // c.denominator) for e, c in x.terms.items()} for x in coeffs)
        self.grading, self.order, self.den, self.rows = grading, order, den, rows
        self.log_u, self.exp_tag = exact_fraction(log_u), exp_tag

    @property
    def coeffs(self) -> tuple:
        return tuple(self.coeff(k) for k in range(self.order + 1))

    def coeff(self, k: int) -> ULaurent:
        row = self.rows[k] if 0 <= k <= self.order else {}
        return _ulaurent({e: Fraction(c, self.den) for e, c in row.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UCoeffSeries) and (
            self.grading, self.order, self.den, self.rows, self.log_u, self.exp_tag) == (
            other.grading, other.order, other.den, other.rows, other.log_u, other.exp_tag)

    def __hash__(self) -> int:
        rows = tuple(frozenset(row.items()) for row in self.rows)
        return hash((self.grading, self.order, self.den, rows, self.log_u, self.exp_tag))

    def _plus(self, other: "UCoeffSeries", sign: int) -> "UCoeffSeries":
        self._match(other)
        if self.exp_tag != other.exp_tag:
            raise ValueError("exponential prefactor mismatch")
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        rows = []
        for x, y in zip(self.rows, other.rows):
            row = {e: c * fa for e, c in x.items()}
            for e, c in y.items():
                row[e] = row.get(e, 0) + c * fb
            rows.append({e: c for e, c in row.items() if c})
        return _ucs(self.grading, len(rows) - 1, den, tuple(rows), self.log_u + sign * other.log_u, self.exp_tag)

    def __add__(self, other: "UCoeffSeries") -> "UCoeffSeries":
        return self._plus(other, 1)

    def __sub__(self, other: "UCoeffSeries") -> "UCoeffSeries":
        return self._plus(other, -1)

    def __mul__(self, other: "UCoeffSeries") -> "UCoeffSeries":
        """The truncated product, accumulated straight into the output rows; x * x
        forms each unordered pair of rows once, doubled, then adds the row squares."""
        self._match(other)
        if self.log_u != 0 or other.log_u != 0:
            raise ValueError("cannot multiply series carrying a log u term")
        n = min(self.order, other.order)
        rows_a = [(i, list(x.items())) for i, x in enumerate(self.rows[: n + 1]) if x]
        square = other is self
        rows_b = rows_a if square else [(j, list(y.items())) for j, y in enumerate(other.rows[: n + 1]) if y]
        acc: list[dict[int, int]] = [{} for _ in range(n + 1)]
        for t, (i, xs) in enumerate(rows_a):
            for j, ys in rows_b[t + 1:] if square else rows_b:
                if i + j > n:
                    break
                _acc_row(acc[i + j], xs, ys)
        if square:
            acc = [{e: 2 * c for e, c in row.items()} for row in acc]
            for i, xs in rows_a:
                if 2 * i > n:
                    break
                _acc_row(acc[2 * i], xs, xs)
        rows = tuple({e: c for e, c in row.items() if c} for row in acc)
        return _ucs(self.grading, n, self.den * other.den, rows, _F0, self.exp_tag + other.exp_tag)

    def scale(self, c) -> "UCoeffSeries":
        c = exact_fraction(c)
        p = c.numerator
        rows = tuple({e: v * p for e, v in row.items()} if p else {} for row in self.rows)
        return _ucs(self.grading, self.order, self.den * c.denominator, rows, self.log_u * c, self.exp_tag)

    def shift_u(self, k: int) -> "UCoeffSeries":
        if self.log_u != 0:
            raise ValueError("cannot shift a series carrying a log u term")
        rows = tuple({e + k: c for e, c in row.items()} for row in self.rows)
        return _ucs(self.grading, self.order, self.den, rows, _F0, self.exp_tag)

    def mul_gs2(self) -> "UCoeffSeries":
        """Multiply by g_s^2 (an index shift in the gs2 grading)."""
        if self.grading != "gs2":
            raise ValueError("g_s^2 shift requires the gs2 grading")
        return _index_shift(self)

    def diff_u(self) -> "UCoeffSeries":
        if self.exp_tag != 0:
            raise ValueError("u-derivative not supported under an exponential prefactor")
        rows = tuple({e - 1: e * c for e, c in row.items() if e} for row in self.rows)
        out = _ucs(self.grading, self.order, self.den, rows)
        # d/du (log_u log u) = log_u u^{-1}
        return out + _head(self.grading, self.order, ULaurent.mono(-1, self.log_u)) if self.log_u else out

    def is_zero(self) -> bool:
        return self.log_u == 0 and not any(self.rows)

    def to_json_dict(self) -> dict:
        return {"grading": self.grading, "order": self.order, "log_u": str(self.log_u),
                "exp_tag": self.exp_tag, "coeffs": [x.to_map() for x in self.coeffs]}

    def _match(self, other: "UCoeffSeries"):
        if self.grading != other.grading:
            raise ValueError("grading mismatch")


def _z2_to_gs2(s: UCoeffSeries) -> UCoeffSeries:
    """Regrade a z2 series by z2^{-1} = 3 g_s^2 u^3: z2^{-k} u^e -> 3^k g_s^{2k} u^{e + 3k}."""
    rows = tuple({e + 3 * k: c * 3 ** k for e, c in row.items()} for k, row in enumerate(s.rows))
    return _ucs("gs2", s.order, s.den, rows, s.log_u)


def _index_shift(s: UCoeffSeries) -> UCoeffSeries:
    """Coefficient k moves to k + 1 (times g_s^2 or z2^{-1}); the top one leaves."""
    return _ucs(s.grading, s.order, s.den, ({},) + s.rows[: s.order], s.log_u, s.exp_tag)


def _window(s: UCoeffSeries, order: int) -> UCoeffSeries:
    """s cut to, or padded with zero rows up to, the given order."""
    rows = s.rows[: order + 1] + ({},) * (order - s.order)
    return _ucs(s.grading, order, s.den, rows, s.log_u, s.exp_tag)


def _head(grading: str, order: int, c0: ULaurent) -> UCoeffSeries:
    """The window c0, 0, ..., 0."""
    return UCoeffSeries(grading, order, (c0,) + (_ZERO_UL,) * order)


# -- exact generators ------------------------------------------------------------


def gen_phi_u(N: int) -> UCoeffSeries:
    """First N terms of the change of variable phi_u in the z2 grading: coefficient
    n - 1 is A_n/3^n u^{-n}, with A the t-coefficients of (1-2t)^{3/2}."""
    if N < 1:
        raise ValueError("need at least one term")
    A = _one_minus_2t(Fraction(3, 2), N)
    return UCoeffSeries("z2", N - 1, tuple(ULaurent.mono(-n, A[n] / 3 ** n) for n in range(1, N + 1)))


def _rtilde(phi: UCoeffSeries) -> UCoeffSeries:
    """phi_u + (1/4) sum_k (2/(3u))^k z2^{-k}/k + (1/2) log u on the window of phi."""
    N = phi.order
    return phi + UCoeffSeries("z2", N, (_ZERO_UL,) + tuple(
        ULaurent.mono(-k, Fraction(2 ** k, 3 ** k * 4 * k)) for k in range(1, N + 1)), Fraction(1, 2))


def gen_R(N: int) -> UCoeffSeries:
    """The elementary term (1/4)log(u^2/(1-2t)) + ((1-2t)^{3/2}-1)/(3 g_s^2 u^3).

    Expanded in g_s^2 with t = g_s^2 u^2; the constant term is -1/u + (1/2)log u
    and the log u scalar is carried symbolically. R is R~ regraded from z2 to g_s^2.
    """
    if N < 0:
        raise ValueError("order must be nonnegative")
    return _z2_to_gs2(_rtilde(gen_phi_u(N + 1)))


def _at_z1(c: PowerSeries, N: int) -> UCoeffSeries:
    """sum_k c_k z1^{-k} through g_s^{2N}, for a real series c in z^{-1}.

    z1^{-k} = (3 lambda_s^2)^k = 3^k g_s^{2k} u^{3k} (1-2t)^{-3k/2}, so row g
    holds c_k 3^k [t^{g-k}](1-2t)^{-3k/2} at u^{2g+k}: no series products.
    """
    rows: list[dict[int, Fraction]] = [{} for _ in range(N + 1)]
    for k in range(min(N, c.order) + 1):
        ck = Fraction(c.re[k] * 3 ** k, c.den)
        for m, a in enumerate(_one_minus_2t(Fraction(-3 * k, 2), N - k)):
            if v := ck * a:
                rows[k + m][3 * k + 2 * m] = v
    return UCoeffSeries("gs2", N, tuple(map(_ulaurent, rows)))


def _row_recurrence(x: UCoeffSeries, exp: bool) -> UCoeffSeries:
    """exp(x), or 1/(1 + x), for x with an empty row 0 and no log u or
    exponential part, by one row recurrence, as PowerSeries.exp and .inverse.

    E_0 = 1 and k E_k = sum_{j=1}^k w x_j E_{k-j}, with w = j for exp(x) and
    w = -k for 1/(1 + x). With x_j = X_j / d and E_k = N_k / (d^k k!),
    N_k = sum_j w (k-1)!/(k-j)! (X_j d^{j-1}) N_{k-j}: ints throughout.
    """
    n, d = x.order, x.den
    xs = [[(e, c * d ** (j - 1)) for e, c in row.items()] for j, row in enumerate(x.rows) if j]
    E = [[(0, 1)]]
    for k in range(1, n + 1):
        row: dict[int, int] = {}
        for j in range(1, k + 1):
            w = (j if exp else -k) * math.perm(k - 1, j - 1)
            _acc_row(row, [(e, c * w) for e, c in xs[j - 1]], E[k - j])
        E.append([(e, c) for e, c in row.items() if c])
    return _ucs(x.grading, n, d ** n * math.factorial(n),
                tuple({e: c * d ** (n - k) * math.perm(n, n - k) for e, c in row} for k, row in enumerate(E)))


def _exp_phi(n: int, N: int) -> UCoeffSeries:
    """e^{-2n (phi_u + 1/u)} through z2^{-N}; the 1/u cancels row 0 of phi_u."""
    x = (gen_phi_u(N + 1) + _head("z2", N, ULaurent.mono(-1, 1))).scale(-2 * n)
    return _row_recurrence(x, exp=True)


def _h0_z2_route(N: int, g: PowerSeries) -> UCoeffSeries:
    """g(z2 + phi_u) + R~ with g = log psi (see _rtilde), built in the z2 grading
    and regraded via z2^{-1} = 3 g_s^2 u^3."""
    phi = gen_phi_u(N + 1)  # z2^0 .. z2^{-N}
    # x = z2^{-1} phi_u, then w = (z2 + phi_u)^{-1} = z2^{-1} / (1 + x)
    w = _index_shift(_row_recurrence(_index_shift(phi), exp=False))  # valuation 1
    total = _rtilde(phi)
    wn = _head("z2", N, ULaurent.const(1))
    for n in range(1, N + 1):
        wn = wn * w
        bn = g.coeff(n).re
        if bn:
            total = total + wn.scale(bn)
    return _z2_to_gs2(total)


def gen_H0(N: int) -> UCoeffSeries:
    """The large-radius perturbative series, exact through g_s^{2N}.

    Route (a) evaluates g = log psi at z1 and adds R (the genus expansion in
    lambda_s^2 = 1/(3 z1)); route (b) composes g with id + phi_u in the z2
    grading and regrades. The two must agree coefficientwise.
    """
    if N < 1:
        raise ValueError("order must be at least 1")
    log_psi = families.gen_g_f(N)[0].series
    route_a = gen_R(N) + _at_z1(log_psi, N)
    if route_a != _h0_z2_route(N, log_psi):
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
    # mul_gs2 drops the top row of inner, so (d_u H)^2 is formed through row N - 1 only
    low = _window(d1, H.order - 1)
    sq = _window(low * low, H.order)
    inner = d1 + d2.shift_u(1).scale(Fraction(1, 3)) + sq.shift_u(1).scale(Fraction(1, 3))
    lhs = d1 - inner.shift_u(3).scale(Fraction(3, 2)).mul_gs2()
    rhs0 = ULaurent.mono(-1, Fraction(1, 2)) + ULaurent.mono(-2, 1)
    return lhs - _head("gs2", lhs.order, rhs0)


def gen_Hn(n: int, gmax: int) -> tuple[str, UCoeffSeries, list]:
    """Transseries component n: prefactor e^{2n/u}, series, and Pol_n(u,2g).

    The series is (-1)^n G_n evaluated at z1 times e^{-2n(phi_u + 1/u)}
    regraded to g_s^2: the g_s^{2g} coefficient is u^g Pol_n(u,2g) with Pol of
    degree exactly 2g, and the g_s^0 term is -1/n.
    """
    if n < 1:
        raise ValueError("component index must be positive")
    if gmax < 0:
        raise ValueError("gmax must be nonnegative")
    Gn = families.gen_Gn(max(gmax + 1, 4), n)[n - 1].series
    s = _at_z1(Gn.scale((-1) ** n), gmax) * _z2_to_gs2(_exp_phi(n, gmax))
    series = _ucs("gs2", gmax, s.den, s.rows, exp_tag=n)
    return f"exp({2 * n}/u)", series, [series.coeff(g).shift(-g) for g in range(1, gmax + 1)]


# -- symbolic layer ----------------------------------------------------------------


def _z_poly(s: UCoeffSeries) -> Poly:
    """A z2-graded series as a Poly: row k, u^e -> z^{-k} u^e; log u -> lu."""
    def mono(z: int, u: int, lu: int = 0) -> tuple:
        m = [0] * NVARS
        m[IDX["z"]], m[IDX["u"]], m[IDX["lu"]] = z, u, lu
        return tuple(m)

    terms = {mono(0, 0, 1): s.log_u} if s.log_u else {}
    terms.update((mono(-k, e), Fraction(c, s.den)) for k, row in enumerate(s.rows) for e, c in row.items())
    return Poly(terms)


@lru_cache(maxsize=None)
def make_context(zcap: int = 8) -> CompositionContext:
    """Composition factors e^{-+2 phi_u} with the e^{+-2/u} part in the w slot,
    built and checked once per z order."""
    if zcap < 1:
        raise ValueError("z order must be positive")
    fplus, fminus = (_z_poly(_exp_phi(n, zcap)) * Poly.var("w", n) for n in (1, -1))
    if (fplus * fminus).drop_low_z(zcap) != ONE_POLY:
        raise ArithmeticError("composition factors fail to invert each other")
    return CompositionContext(factor_plus2=fplus, factor_minus2=fminus, zcap=zcap)


def lr_transseries(caps: Caps) -> TransElement:
    """The symbolic transseries: the formal integral at (sigma_1, -sigma_2)
    composed with id + phi_u, plus the elementary term R~."""
    if caps.zorder is None:
        raise ValueError("cap inconsistency: large-radius caps need a z order")
    context = make_context(caps.zorder)
    core = formal_integral(caps, context=context, negate_sigma2=True)
    return core + TransElement.from_poly(_z_poly(_rtilde(gen_phi_u(caps.zorder + 1))), caps, context)


def lr_bridge_check(caps: Caps = Caps(4, 4, 8)) -> dict:
    """Residuals of the two large-radius bridge identities.

    r_plus  = Delta_2  H - i e^{+2 z2} dH/dsigma_2
    r_minus = Delta_-2 H - i e^{-2 z2} (sigma_2 dH/dsigma_1 - sigma_2^2 dH/dsigma_2)
    """
    return _bridge_check(lr_transseries(caps.widen(extra_sigma=1, extra_grade=1)), caps, ExactScalar(0, -1))


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


def _frame(gs: complex, u: complex) -> tuple:
    """z1 = (1-2t)^{3/2}/(3 g_s^2 u^3), t = g_s^2 u^2 and R(g_s, u) =
    (1/4) log(u^2/(1-2t)) + ((1-2t)^{3/2} - 1)/(3 g_s^2 u^3), principal powers,
    after the domain checks: g_s, u nonzero, |t| < 1/2, and no cut in the log."""
    gs = complex(gs)
    u = complex(u)
    if gs == 0 or u == 0:
        raise DomainError("g_s and u must be nonzero")
    t = gs * gs * u * u
    if abs(t) >= 0.5:
        raise DomainError("outside the principal branch domain |g_s^2 u^2| < 1/2")
    w = 1.0 - 2.0 * t
    r32 = w ** 1.5
    ratio = u * u / w
    if ratio.real <= 0.0 and abs(ratio.imag) < 1e-13:
        raise BranchCutError("branch cut: log of a negative real ratio")
    return r32 / (3.0 * gs * gs * u ** 3), t, 0.25 * cmath.log(ratio) + (r32 - 1.0) / (3.0 * gs * gs * u ** 3)


def lr_sum(
    sign,
    gs: complex,
    u: complex,
    sigma1: complex = 0.0,
    sigma2: complex = 0.0,
    tol: float = 1e-6,
) -> SumValue:
    """Numeric large-radius solution: G_sign at z1 with sigma_2 -> -sigma_2, plus R(g_s, u).

    The exponential-term domain condition is enforced by the sectorial solver.
    """
    from .borel import G_pm  # the float engine loads only for numeric work

    z1, t, R = _frame(gs, u)
    core = G_pm(sign, z1, sigma1, -complex(sigma2), tol)
    return SumValue(core.value + R, core.err, dict(core.meta, z1=z1, t=t))


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
    Computed as connection_check at z1 with sigma_2 -> -sigma_2, plus R on both
    sides; e^{-i pi} g_s has the same z1 and R as g_s.
    """
    from .borel import connection_check

    z1, _, R = _frame(gs, u)
    out = connection_check(which, z1, sigma1, -complex(sigma2), tol)
    return dict(out, lhs=out["lhs"] + R, rhs=out["rhs"] + R)
