"""Large-radius pipeline: one frame map over the double-scaling layer.

With t = g_s^2 u^2 and z2 = 1/(3 g_s^2 u^3), the shift z2 -> z2 + phi_u,

    phi_u(z2) = sum_{n>=1} A_n (3u)^{-n} z2^{-(n-1)},  (1-2t)^{3/2} = sum_n A_n t^n,

maps z2 to z1 = z2 (1-2t)^{3/2} = 1/(3 lambda_s^2). Resurgent series are stable
under it, so each large-radius object is a double-scaling one at z1 plus the
elementary term R. Exact series at z1 come from one evaluation map, _at_z1,
which reads z1^{-k} = 3^k g_s^{2k} u^{3k} (1-2t)^{-3k/2} off the t-coefficients
as integers, and functions of phi_u from one integer power sum over s = 1/(u z2),
_power_sum (the factors e^{-2n(phi_u + 1/u)}, certified by _ray_factor, and g(z2 + phi_u)). On these sit
H^(0) (route (a), g = log psi at z1, checked against route (b), g composed with
id + phi_u in the z2 grading, then R added once), the components H^(n), the
symbolic frame (powers e^{-2n phi_u}, one context per z order, applied by
_in_frame alone), and the numeric sums and connection law (G_+- at z1 with
sigma_2 -> -sigma_2). phi_u (from 1 + X(s) = z1/z2 = (1-2s/3)^{3/2}) and R~ are each written once.
Exact series are graded by powers of g_s^2 or of z2^{-1}; a UCoeffSeries stores
one as integer numerators over one denominator; ULaurent is its coefficient view.
"""

from __future__ import annotations

import cmath
import math
from itertools import accumulate, chain
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

from . import families
from .alien import (
    _KEY_BIAS,
    Caps,
    Poly,
    TransElement,
    _MINUS_I,
    _bridge_check,
    _check_caps,
    _exponent,
    _poly,
    _slot,
    _stokes_residual,
    formal_integral,
)
from .errors import BranchCutError, DomainError, SumValue
from .scalars import exact_fraction
from .series import PowerSeries, _convolve, _series


def _ulaurent(terms: dict[int, Fraction]) -> "ULaurent":
    """Wrap terms that are already valid (int exponents, nonzero Fractions)."""
    out = ULaurent.__new__(ULaurent)
    out.terms = terms
    return out


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
        k = _exponent(k, "shift")
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


def _row_product(a: Sequence[dict], b: Sequence[dict], n: int, square: bool) -> tuple:
    """The nonzero numerators of rows 0..n of a product of row windows; with square
    (b is a) each unordered pair of rows is formed once, doubled, then the row squares added."""
    rows_a = [(i, list(x.items())) for i, x in enumerate(a[: n + 1]) if x]
    rows_b = rows_a if square else [(j, list(y.items())) for j, y in enumerate(b[: n + 1]) if y]
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
    return tuple({e: c for e, c in row.items() if c} for row in acc)


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
        if _exponent(order, "order") < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError("coefficient list does not match the order")
        # the lcm of reduced denominators leaves numerators without a common factor
        den = math.lcm(*(c.denominator for x in coeffs for c in x.terms.values()))
        rows = tuple({e: c.numerator * (den // c.denominator) for e, c in x.terms.items()} for x in coeffs)
        self.grading, self.order, self.den, self.rows = grading, order, den, rows
        self.log_u, self.exp_tag = exact_fraction(log_u), _exponent(exp_tag, "exp_tag")

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
        """The truncated product (see _row_product)."""
        self._match(other)
        if self.log_u != 0 or other.log_u != 0:
            raise ValueError("cannot multiply series carrying a log u term")
        n = min(self.order, other.order)
        rows = _row_product(self.rows, other.rows, n, other is self)
        return _ucs(self.grading, n, self.den * other.den, rows, _F0, self.exp_tag + other.exp_tag)

    def scale(self, c) -> "UCoeffSeries":
        c = exact_fraction(c)
        p = c.numerator
        rows = tuple({e: v * p for e, v in row.items()} if p else {} for row in self.rows)
        return _ucs(self.grading, self.order, self.den * c.denominator, rows, self.log_u * c, self.exp_tag)

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


# -- exact generators ------------------------------------------------------------


def _one_plus_x(N: int) -> PowerSeries:
    """1 + X(s) = z1/z2 = (1 - 2s/3)^{3/2} through s^N, s = 1/(u z2) (t = s/3), so that
    z2^{-1} phi_u = X(s). Numerators prod_{j<n} (2j - 3) 3^{N-n} N!/n! over 3^N N!."""
    den = 3 ** N * math.factorial(N)  # each step v <- v (2n - 3)/(3(n + 1)) divides exactly
    re = tuple(accumulate(range(N), lambda v, n: v * (2 * n - 3) // (3 * (n + 1)), initial=den))
    return _series(N, den, re, (0,) * (N + 1))


def gen_phi_u(N: int) -> UCoeffSeries:
    """First N terms of the change of variable phi_u in the z2 grading: coefficient
    n - 1 is X_n u^{-n}, with X_n the s^n coefficient of _one_plus_x."""
    if N < 1:
        raise ValueError("need at least one term")
    P = _one_plus_x(N)
    return _ucs("z2", N - 1, P.den, tuple({-n: P.re[n]} for n in range(1, N + 1)))


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
    holds c_k 3^k [t^{g-k}](1-2t)^{-3k/2} at u^{2g+k}, an integer over c.den N!
    by [t^m](1-2t)^{-3k/2} = prod_{j<m} (2j + 3k) / m!.
    """
    rows: list[dict[int, int]] = [{} for _ in range(N + 1)]
    fact = math.factorial(N)
    for k in range(min(N, c.order) + 1):
        v = c.re[k] * 3 ** k * fact  # times prod_{j<m} (2j + 3k) N!/m! at step m
        for m in range(N - k + 1):
            if not v:
                break
            rows[k + m][3 * k + 2 * m] = v
            v = v * (2 * m + 3 * k) // (m + 1)
    return _ucs("gs2", N, c.den * fact, tuple(rows))


def _power_sum(P: PowerSeries, a: Sequence[int], q: int, zeta: int, N: int) -> UCoeffSeries:
    """sum_r (a_r/q) (z2^{-zeta} u^{zeta-1} P(s))^r through z2^{-N}, s = 1/(u z2), zeta in {0, 1}.

    [s^m] P^r sits at z2^{-(zeta r + m)} u^{(zeta-1) r - m}: P^r through s^{N - zeta r}
    is an int convolution (_convolve) over D^r (D = P.den), summed into int rows over q D^N.
    """
    D = P.den
    rows: list[dict[int, int]] = [{} for _ in range(N + 1)]
    T, Ti = [1] + [0] * N, [0] * (N + 1)
    for r, a_r in enumerate(a):
        if r:
            T, Ti = _convolve(T, Ti, P.re, P.im, N - zeta * r, False)
        b = a_r * D ** (N - r)
        for m, t in enumerate(T):
            if v := b * t:
                rows[zeta * r + m][(zeta - 1) * r - m] = v
    return _ucs("z2", N, q * D ** N, tuple(dict(sorted(row.items())) for row in rows))


def _exp_phi(n: int, N: int) -> UCoeffSeries:
    """e^{-2n (phi_u + 1/u)} through z2^{-N}. The 1/u cancels row 0 of phi_u (X_1 = -1),
    so the exponent is u^{-1} Y(s) with Y = -2n sum_{k>=1} X_{k+1} s^k (see _one_plus_x),
    and e^{u^{-1} Y} = sum_r u^{-r} Y^r / r!."""
    X = _one_plus_x(N + 1)
    Y = _series(N, X.den, (0,) + tuple(-2 * n * c for c in X.re[2:]), (0,) * (N + 1))
    fact = math.factorial(N)
    return _power_sum(Y, [fact // math.factorial(r) for r in range(N + 1)], fact, 0, N)


def _z_dz(s: UCoeffSeries) -> UCoeffSeries:
    """z2 d/dz2 of a z2-graded series on its own window: z2^{-k} -> -k z2^{-k}."""
    return _ucs("z2", s.order, s.den, tuple({e: -k * c for e, c in row.items()} if k else {}
                                            for k, row in enumerate(s.rows)))


def _ray_factor(n: int, N: int) -> UCoeffSeries:
    """_exp_phi(n, N), certified by its own equation. E = e^{-2n(phi_u + 1/u)} has row 0 equal to 1
    (X_1 = -1) and z2 dE/dz2 = -2n (z2 dphi_u/dz2) E, phi_u from gen_phi_u; row k of the equation
    gives k E_k from E_0..E_{k-1}, so the rows 0..N that pass are those of e^{-2n(phi_u + 1/u)}."""
    E = _exp_phi(n, N)
    if E.rows[0] != {0: E.den} or _z_dz(E) != _z_dz(gen_phi_u(N + 1)).scale(-2 * n) * E:
        raise ArithmeticError("ray factor e^{-2n(phi_u + 1/u)} fails its equation in z2")
    return E


def _h0_z2_route(N: int, g: PowerSeries) -> UCoeffSeries:
    """g(z2 + phi_u) through z2^{-N}, regraded via z2^{-1} = 3 g_s^2 u^3. w = (z2 + phi_u)^{-1}
    = z2^{-1} W(s) with W = 1/(1 + X(s)) (see _one_plus_x), so g = sum_n b_n w^n."""
    W = _one_plus_x(N).inverse()
    return _z2_to_gs2(_power_sum(W, g.re[: N + 1], g.den, 1, N))


def gen_H0(N: int) -> UCoeffSeries:
    """The large-radius perturbative series, exact through g_s^{2N}.

    H^(0) is g = log psi at z1 plus R (the genus expansion in lambda_s^2 = 1/(3 z1)).
    Route (a) evaluates g at z1; route (b) composes g with id + phi_u in the z2
    grading and regrades. The two must agree coefficientwise; R is added once.
    """
    if N < 1:
        raise ValueError("order must be at least 1")
    log_psi = families.gen_g_f(N)[0].series
    route_a = _at_z1(log_psi, N)
    if route_a != _h0_z2_route(N, log_psi):
        raise ArithmeticError("free-energy route disagreement")
    return gen_R(N) + route_a


def u_equation_residual(H: UCoeffSeries) -> UCoeffSeries:
    """LHS - RHS of the u-equation

        d_u H - (3/2) g_s^2 u^3 (d_u H + (u/3) d_u^2 H + (u/3)(d_u H)^2)
            = 1/(2u) + 1/u^2,

    exact; zero through the representable order certifies a solution. Row k,
    d1_k - (3/2) u^3 d1_{k-1} - (1/2) u^4 (d2_{k-1} + sq_{k-1}) with d_u^j H = dj
    and sq = d1^2, is formed on ints over one denominator, one canonical form."""
    if H.grading != "gs2" or H.exp_tag:
        raise ValueError("the u-equation acts on the gs2 grading, without an exponential prefactor")
    N, lam = H.order, H.log_u
    m = math.lcm(H.den, lam.denominator)
    # d1 over m; d_u (lam log u) = lam u^{-1} is row 0's only u^{-1} term (zeros drop at the end)
    d1 = [{e - 1: e * c * (m // H.den) for e, c in row.items() if e} for row in H.rows]
    d1[0][-1] = lam.numerator * (m // lam.denominator)
    # (d_u H)^2 through row N - 1, squared as rows / (m / h) with h = gcd(m, rows)
    h = math.gcd(m, *chain.from_iterable(map(dict.values, d1[:N])))
    low = [{e: c // h for e, c in row.items()} for row in d1[:N]]
    sq = _row_product(low, low, N - 1, True)
    den = 2 * math.lcm(m, (m // h) ** 2)
    a, b = den // (2 * m), den // (2 * (m // h) ** 2)
    # over den: row k gets 2a d1_k; row k + 1 gets -a (e + 3) c u^{e+3} for each
    # term c u^e of d1_k (the u^3 d1 and u^4 d2 terms) and -b u^4 sq_k
    out = [{-1: -a * m, -2: -2 * a * m}] + [{} for _ in range(N)]
    for k, row in enumerate(d1):
        _acc_row(out[k], row.items(), ((0, 2 * a),))
        if k < N:
            _acc_row(out[k + 1], [(e, (e + 3) * c) for e, c in row.items()], ((3, -a),))
            _acc_row(out[k + 1], sq[k].items(), ((4, -b),))
    return _ucs("gs2", N, den, tuple({e: c for e, c in row.items() if c} for row in out))


def gen_Hn(n: int, gmax: int) -> tuple[str, UCoeffSeries, list]:
    """Transseries component n: prefactor e^{2n/u}, series, and Pol_n(u,2g).

    The series is (-1)^n G_n evaluated at z1 times e^{-2n(phi_u + 1/u)}
    regraded to g_s^2: the g_s^{2g} coefficient is u^g Pol_n(u,2g) with Pol of
    degree exactly 2g, and the g_s^0 term is -1/n.
    """
    if _exponent(n, "component index") < 1:
        raise ValueError("component index must be positive")
    if _exponent(gmax, "gmax") < 0:
        raise ValueError("gmax must be nonnegative")
    Gn = families.gen_Gn(max(gmax + 1, 4), n)[n - 1].series
    s = _at_z1(Gn.scale((-1) ** n), gmax) * _z2_to_gs2(_ray_factor(n, gmax))
    series = _ucs("gs2", gmax, s.den, s.rows, exp_tag=n)
    return f"exp({2 * n}/u)", series, [series.coeff(g).shift(-g) for g in range(1, gmax + 1)]


# -- symbolic layer ----------------------------------------------------------------


def _z_poly(s: UCoeffSeries, w: int = 0) -> Poly:
    """A z2-graded series as a Poly, every term times the e^{2/u} slot to the power w: row k, u^e ->
    z^{-k} u^e; log u -> lu. The packed keys and integer numerators are formed directly (see alien._pack)."""
    (z, _), (u, _), (lu, _), (ws, _) = map(_slot, ("z", "u", "lu", "w"))
    lam, base = s.log_u, _KEY_BIAS + (w << ws)
    den = math.lcm(s.den, lam.denominator)
    nums = {base + (1 << lu): (lam.numerator * (den // lam.denominator), 0)} if lam else {}
    f = den // s.den
    nums.update((base + (e << u) - (k << z), (c * f, 0)) for k, row in enumerate(s.rows) for e, c in row.items())
    return _poly(den, nums)


class CompositionContext(NamedTuple):
    """The large-radius frame, each series generator precomposed with id + phi_u: power(n) is e^{-2n phi_u}
    through z^{-zcap}, its e^{2n/u} in the w slot, built from the certified _ray_factor on its first request.
    Its hash takes power by identity, never a Poly."""

    power: Callable[[int], Poly]
    zcap: int


@lru_cache(maxsize=None, typed=True)  # typed, so a cached make_context(1) does not serve True
def make_context(zcap: int = 8) -> CompositionContext:
    """One composition context per z order, the one place a z order is refused (None, not an int, or
    below 1). It builds nothing: power(n) reads _ray_factor(n, zcap), which raises ArithmeticError on a
    factor that fails its equation, and packs n into the w slot, once per n."""
    if zcap is None:
        raise ValueError("cap inconsistency: large-radius caps need a z order")
    if _exponent(zcap, "z order") < 1:
        raise ValueError("z order must be positive")
    def power(n: int) -> Poly:  # typed cache: a cached power(1) does not serve True, and a refusal is not kept
        if not -(1 << 31) <= _exponent(n, "power") < 1 << 31:
            raise OverflowError("monomial exponent outside its 32-bit slot")
        return _z_poly(_ray_factor(n, zcap), n)
    return CompositionContext(lru_cache(maxsize=None, typed=True)(power), zcap)


@lru_cache(maxsize=None)
def _rtilde_poly(zorder: int) -> Poly:
    """R~ through z2^{-zorder} as a Poly, the elementary term _lr_double_scaling adds."""
    return _z_poly(_rtilde(gen_phi_u(zorder + 1)))


@lru_cache(maxsize=None)
def _rtilde_reference(zorder: int) -> Poly:
    """The R~ that gen_R regrades, which criterion 2's u-equation certifies, graded
    back from g_s^2 u^3 to z2^{-1}: 3^k g_s^{2k} u^{e + 3k} -> z2^{-k} u^e."""
    R = gen_R(zorder)
    rows = tuple({e - 3 * k: c * 3 ** (zorder - k) for e, c in row.items()} for k, row in enumerate(R.rows))
    return _z_poly(_ucs("z2", zorder, R.den * 3 ** zorder, rows, R.log_u))


def _in_frame(x: TransElement) -> TransElement:
    """x composed with id + phi_u: key (lin, m, n) times power(m) of make_context(z order), cut at the z order,
    m = 0 as is; the one place the frame's z order cuts a product. By the chain rule for alien derivations under a
    shift by a lower-order series, Delta_{+-2}'s image picks up e^{-+2 phi_u}, power(m) -> power(m +- 1). power(m)
    has no sigma_2, z <= 0 and a nonzero top z row, so d/dsigma, sigma_2 substitutions and Delta commute with it:
    a residual moves key for key, zero iff it was."""
    context = make_context(x.caps.zorder)
    return TransElement({(lin, m, n): (p * context.power(m)).drop_low_z(context.zcap) if m else p
                         for (lin, m, n), p in x.terms.items()}, x.caps)


def _lr_double_scaling(caps: Caps) -> TransElement:
    """The double-scaling formal integral at (sigma_1, -sigma_2) plus the elementary term R~,
    which must be the R~ of gen_R; the frame's factors are certified where power(n) reads them.
    A z order make_context refuses is refused before anything is built."""
    _check_caps(caps)
    make_context(caps.zorder)
    core = formal_integral(caps, negate_sigma2=True)
    H = core + TransElement.from_poly(_rtilde_poly(caps.zorder), caps)
    elementary = H.terms.get((0, 0, 0), Poly()) - core.terms.get((0, 0, 0), Poly())
    if elementary != _rtilde_reference(caps.zorder):
        raise ArithmeticError("large-radius elementary term disagrees with gen_R")
    return H


def lr_transseries(caps: Caps) -> TransElement:
    """The symbolic transseries, the formal integral at (sigma_1, -sigma_2) plus R~ composed with id + phi_u, as
    a read-out: its alien calculus is _in_frame of the double-scaling one, and apply_delta of it is not the frame's."""
    return _in_frame(_lr_double_scaling(caps))


def lr_bridge_check(caps: Caps = Caps(4, 4, 8)) -> dict:
    """Residuals of the two large-radius bridge identities.

    r_plus  = Delta_2  H - i e^{+2 z2} dH/dsigma_2
    r_minus = Delta_-2 H - i e^{-2 z2} (sigma_2 dH/dsigma_1 - sigma_2^2 dH/dsigma_2)
    """
    out = _bridge_check(_lr_double_scaling, caps, _MINUS_I)
    return dict(out, **{k: _in_frame(out[k]) for k in ("residual_plus", "residual_minus")})


def lr_stokes_check(direction: str, caps: Caps = Caps(5, 5, 8)) -> dict:
    """Residual of the symbolic Stokes action on the large-radius transseries.

    geq0: H(sigma_1, sigma_2) -> H(sigma_1, sigma_2 + i).
    leq0: H(sigma_1, sigma_2) -> H(sigma_1 + log(1 + i sigma_2),
                                    sigma_2/(1 + i sigma_2)).
    """
    residual = _in_frame(_stokes_residual(_lr_double_scaling, direction, caps, _MINUS_I))
    return {"residual": residual, "ok": residual.is_zero()}


# -- numeric layer -----------------------------------------------------------------


def _frame(gs: complex, u: complex) -> tuple:
    """z1 = w^{3/2}/(3 g_s^2 u^3), t = g_s^2 u^2 and R(g_s, u) = (1/4) log(u^2/w) +
    (w^{3/2} - 1)/(3 g_s^2 u^3), w = 1 - 2t, principal powers, after the domain checks:
    g_s, u nonzero and finite, |t| < 1/2, z1 finite and u^2 nonzero, no cut in the log.
    R's second term, which cancels at small t, is -2(w^2 + w + 1)/(3u(1 + w^{3/2})) by
    w^{3/2} - 1 = (w - 1)(w^2 + w + 1)/(w^{3/2} + 1); Re w > 0 keeps 1 + w^{3/2} from 0."""
    gs = complex(gs)
    u = complex(u)
    if gs == 0 or u == 0 or not (cmath.isfinite(gs) and cmath.isfinite(u)):
        raise DomainError("g_s and u must be nonzero and finite")
    t = gs * gs * u * u
    if abs(t) >= 0.5:
        raise DomainError("outside the principal branch domain |g_s^2 u^2| < 1/2")
    w = 1.0 - 2.0 * t
    r32 = w ** 1.5
    scale = 3.0 * gs * gs * u ** 3
    z1 = r32 / scale if scale else math.inf
    if not (cmath.isfinite(z1) and u * u):
        raise DomainError("g_s^2 u^3 or u^2 underflows the float range")
    ratio = u * u / w
    if ratio.real <= 0.0 and abs(ratio.imag) < 1e-13:
        raise BranchCutError("branch cut: log of a negative real ratio")
    return z1, t, 0.25 * cmath.log(ratio) - 2.0 * (w * w + w + 1.0) / (3.0 * u * (1.0 + r32))


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
