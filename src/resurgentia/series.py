"""Truncated formal power series in z^{-1} with exact coefficients.

A series of order N stores the window c_0 .. c_N of sum_k c_k z^{-k} the way
its kernels compute, as alien.Poly stores a polynomial: Gaussian-integer
numerators re[k] + im[k] i over one denominator den > 0, in canonical form
(gcd(den, every numerator) == 1), so equal windows have equal (order, den,
re, im). coeffs and coeff(k) are read-only ExactScalar views. Arithmetic
results carry the minimum of the input orders, so a coefficient is stored only
when it is exact. No floating point enters this module.

Every operation works on ints. Sums rescale to the lcm of the denominators; a
product convolves the numerators, skipping zero rows and, for real windows,
the imaginary parts; a square (x * x, the same object twice) forms each
unordered pair of rows once and doubles it. The constructors build their
numerators directly, without a scalar per coefficient. The recurrences for
inverse, log and exp keep their outputs so far over one denominator that
grows, with a rescale of the stored numerators, whenever a new output brings a
new factor; each step then costs integer products and one gcd. Every output
equals the one the term-by-term ExactScalar loop would give.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence, Union

from .scalars import ExactScalar, _gaussian_over, _scalar_over

CoeffLike = Union[int, Fraction, ExactScalar]


def _series(order: int, den: int, re: tuple, im: tuple) -> "PowerSeries":
    """A PowerSeries from numerators over den > 0, brought to canonical form."""
    g = gcd(den, *re, *im)
    if g != 1:
        den //= g
        re = tuple(x // g for x in re)
        im = tuple(y // g for y in im)
    return _wrap(order, den, re, im)


def _wrap(order: int, den: int, re: tuple, im: tuple) -> "PowerSeries":
    """A PowerSeries from numerators over den, taken without a gcd (canonical, or made so next)."""
    out = PowerSeries.__new__(PowerSeries)
    out.order, out.den, out.re, out.im = order, den, re, im
    return out


def _convolve(ar: Sequence[int], ai: Sequence[int], br: Sequence[int], bi: Sequence[int],
              n: int, square: bool) -> tuple[list, list]:
    """Numerators of (a * b)_0 .. (a * b)_n, skipping zero rows and, for real windows, the
    imaginary parts; square (b is a) forms each pair i < j once, doubled, then adds i = j."""
    rows_a = [i for i in range(n + 1) if ar[i] or ai[i]]
    rows_b = rows_a if square else [j for j in range(n + 1) if br[j] or bi[j]]
    re, im = [0] * (n + 1), [0] * (n + 1)
    gaussian = any(ai) or any(bi)
    for t, i in enumerate(rows_a):
        x, y = ar[i], ai[i]
        rows = rows_b[t + 1:] if square else rows_b
        if gaussian:
            for j in rows:
                if i + j > n:
                    break
                u, v = br[j], bi[j]
                re[i + j] += x * u - y * v
                im[i + j] += x * v + y * u
        else:
            for j in rows:
                if i + j > n:
                    break
                re[i + j] += x * br[j]
    if square:
        re, im = [2 * r for r in re], [2 * m for m in im]
        for i in rows_a:
            if 2 * i > n:
                break
            x, y = ar[i], ai[i]
            re[2 * i] += x * x - y * y
            im[2 * i] += 2 * x * y
    return re, im


def _rescale(s: "PowerSeries", p: int, q: int) -> "PowerSeries":
    """s(q z / p), q > 0: coefficient k times (p/q)^k. Products, inverse, log,
    exp and reflect commute with it, and (p, q) then (q, p) is the identity."""
    w = [p ** k * q ** (s.order - k) for k in range(s.order + 1)]
    return _series(s.order, s.den * q ** s.order, tuple(map(mul, s.re, w)), tuple(map(mul, s.im, w)))


class _SharedDenominator:
    """The outputs of a recurrence so far, as numerators re, im over den.

    A pushed output whose reduced denominator brings a new factor grows den by
    that factor and rescales every stored numerator.
    """

    __slots__ = ("imag", "den", "re", "im")

    def __init__(self, imag: bool):
        self.imag, self.den, self.re, self.im = imag, 1, [], []

    def push(self, re: int, im: int, den: int) -> None:
        """Append (re + im i) / den."""
        g = gcd(re, im, den)
        d = den // g
        new = lcm(self.den, d)
        if new != self.den:
            f = new // self.den
            self.re = [x * f for x in self.re]
            self.im = [y * f for y in self.im]
            self.den = new
        self.re.append(re // g * (new // d))
        self.im.append(im // g * (new // d))

    def dot(self, cr: Sequence[int], ci: Sequence[int]) -> tuple[int, int]:
        """sum_t (cr[t] + ci[t] i) * stored[-1 - t], over t < len(cr)."""
        sr = sum(map(mul, cr, reversed(self.re)))
        if not self.imag:
            return sr, 0
        return (sr - sum(map(mul, ci, reversed(self.im))),
                sum(map(mul, cr, reversed(self.im))) + sum(map(mul, ci, reversed(self.re))))


class PowerSeries:
    """Window c_0 .. c_order of a formal series in z^{-1}.

    Stored as numerators (re[k] + im[k] i) / den in canonical form; coeffs is
    a read-only ExactScalar view.
    """

    __slots__ = ("order", "den", "re", "im")

    def __init__(self, order: int, coeffs: Sequence[CoeffLike]):
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError("coefficient window must hold order + 1 entries")
        cs = [ExactScalar.coerce(c) for c in coeffs]
        # the lcm of reduced denominators leaves numerators without a common factor
        den = lcm(*(c.re.denominator for c in cs), *(c.im.denominator for c in cs))
        self.order, self.den = order, den
        self.re = tuple(c.re.numerator * (den // c.re.denominator) for c in cs)
        self.im = tuple(c.im.numerator * (den // c.im.denominator) for c in cs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_coeffs(coeffs: Sequence[CoeffLike], order: int | None = None) -> "PowerSeries":
        cs = list(coeffs)
        if order is None:
            order = len(cs) - 1
        if len(cs) < order + 1:
            cs += [0] * (order + 1 - len(cs))
        return PowerSeries(order, tuple(cs[: order + 1]))

    @staticmethod
    def zero(order: int) -> "PowerSeries":
        return PowerSeries.monomial(0, order, 0)

    @staticmethod
    def one(order: int) -> "PowerSeries":
        return PowerSeries.monomial(0, order)

    @staticmethod
    def constant(c: CoeffLike, order: int) -> "PowerSeries":
        return PowerSeries.monomial(0, order, c)

    @staticmethod
    def monomial(k: int, order: int, c: CoeffLike = 1) -> "PowerSeries":
        """c * z^{-k} as an order-`order` window."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        if not 0 <= k <= order:
            raise ValueError("monomial degree outside the window")
        a, b, q = _gaussian_over(c)
        re, im = [0] * (order + 1), [0] * (order + 1)
        re[k], im[k] = a, b
        return _series(order, q, tuple(re), tuple(im))

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[ExactScalar, ...]:
        return tuple(map(self.coeff, range(self.order + 1)))

    def coeff(self, k: int) -> ExactScalar:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} outside order-{self.order} window")
        return _scalar_over(self.re[k], self.im[k], self.den)

    def is_zero(self) -> bool:
        return not (any(self.re) or any(self.im))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PowerSeries) and (self.order, self.den, self.re, self.im) == (
            other.order, other.den, other.re, other.im)

    def __hash__(self) -> int:
        return hash((self.order, self.den, self.re, self.im))

    def __repr__(self) -> str:
        return f"PowerSeries(order={self.order}, coeffs={self.coeffs!r})"

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError("cannot extend a window by truncation")
        if order < 0:
            raise ValueError("order must be nonnegative")
        # a dropped coefficient can take the last factor coprime to den with it
        return _series(order, self.den, self.re[: order + 1], self.im[: order + 1])

    # -- linear structure ---------------------------------------------------

    def _plus(self, other: "PowerSeries", sign: int) -> "PowerSeries":
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        return _series(min(self.order, other.order), den,
                       tuple(fa * x + fb * y for x, y in zip(self.re, other.re)),
                       tuple(fa * x + fb * y for x, y in zip(self.im, other.im)))

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        return self._plus(other, 1)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self._plus(other, -1)

    def __neg__(self) -> "PowerSeries":
        # a sign flip keeps the canonical form
        return _wrap(self.order, self.den, tuple(-x for x in self.re), tuple(-y for y in self.im))

    def scale(self, c: CoeffLike) -> "PowerSeries":
        a, b, q = _gaussian_over(c)
        if not b:
            return _series(self.order, self.den * q, tuple(a * x for x in self.re),
                           tuple(a * y for y in self.im))
        pairs = tuple(zip(self.re, self.im))
        return _series(self.order, self.den * q, tuple(a * x - b * y for x, y in pairs),
                       tuple(b * x + a * y for x, y in pairs))

    # -- multiplicative structure -------------------------------------------

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        re, im = _convolve(self.re, self.im, other.re, other.im, n, other is self)
        return _series(n, self.den * other.den, tuple(re), tuple(im))

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse; the constant term must be invertible."""
        cr, ci, d = self.re, self.im, self.den
        if not (cr[0] or ci[0]):
            raise ValueError("not a unit")
        # with c_j = C_j / d, out_m = O_m / E (E = store.den) and
        # S = sum_{j=1}^k C_j O_{k-j}:
        # out_k = -(1/c_0) sum_{j=1}^k c_j out_{k-j} = -S conj(C_0) / (E |C_0|^2)
        a, b = cr[0], ci[0]
        norm = a * a + b * b
        store = _SharedDenominator(any(ci))
        store.push(d * a, -d * b, norm)
        for k in range(1, self.order + 1):
            sr, si = store.dot(cr[1 : k + 1], ci[1 : k + 1])
            store.push(-(sr * a + si * b), sr * b - si * a, store.den * norm)
        return _series(self.order, store.den, tuple(store.re), tuple(store.im))

    # -- log and exp ---------------------------------------------------------

    def log(self) -> "PowerSeries":
        """log of a series with constant term one."""
        cr, ci, d = self.re, self.im, self.den
        if cr[0] != d or ci[0]:
            raise ValueError("wrong constant term")
        n = self.order
        # k l_k = k c_k - sum_{j=1}^{k-1} (j l_j) c_{k-j}; the store holds
        # j l_j = V_j / E, so with c_j = C_j / d and S = sum_j V_j C_{k-j},
        # k l_k = (k E C_k - S) / (E d)
        store = _SharedDenominator(any(ci))
        store.push(0, 0, 1)
        for k in range(1, n + 1):
            sr, si = store.dot(cr[1:k], ci[1:k])
            scale = k * store.den
            store.push(scale * cr[k] - sr, scale * ci[k] - si, store.den * d)
        # l_k = V_k / (k E) over the one denominator E lcm(1..n)
        m = lcm(*range(1, n + 1))
        return _series(n, store.den * m, (0,) + tuple(x * (m // k) for k, x in enumerate(store.re[1:], 1)),
                       (0,) + tuple(y * (m // k) for k, y in enumerate(store.im[1:], 1)))

    def exp(self) -> "PowerSeries":
        """exp of a series with constant term zero."""
        cr, ci, d = self.re, self.im, self.den
        if cr[0] or ci[0]:
            raise ValueError("wrong constant term")
        jcr = [j * c for j, c in enumerate(cr)]
        jci = [j * c for j, c in enumerate(ci)]
        # g_k = (1/k) sum_{j=1}^{k} j c_j g_{k-j} = S / (k d E) with
        # S = sum_{j=1}^k (j C_j) G_{k-j} over numerators
        store = _SharedDenominator(any(ci))
        store.push(1, 0, 1)
        for k in range(1, self.order + 1):
            sr, si = store.dot(jcr[1 : k + 1], jci[1 : k + 1])
            store.push(sr, si, k * d * store.den)
        return _series(self.order, store.den, tuple(store.re), tuple(store.im))

    # -- differentiation ------------------------------------------------------

    def diff(self) -> "PowerSeries":
        """Termwise d/dz: z^{-k} -> -k z^{-k-1}.

        Drops the order by one: the image of the top coefficient leaves the
        stored window, so only order - 1 coefficients remain certified.
        """
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 window")
        # the cut numerators need not be in lowest terms: the one gcd is the derivative's
        return _wrap(self.order - 1, self.den, self.re[:-1], self.im[:-1])._deriv_in_window()

    def _deriv_in_window(self) -> "PowerSeries":
        # exact d/dz kept in the full window: c_k moves to degree k + 1 with
        # factor -k, and c_order leaves it, so every stored entry is exact
        return _series(self.order, self.den, (0,) + tuple(-k * x for k, x in enumerate(self.re[:-1])),
                       (0,) + tuple(-k * y for k, y in enumerate(self.im[:-1])))

    # -- composition -------------------------------------------------------

    def compose_shift(self, phi: "PowerSeries") -> "PowerSeries":
        """self(z + phi(z)) via the Taylor sum over derivatives of self.

        Exact to the window; phi must have no constant term.
        """
        n = min(self.order, phi.order)
        if phi.re[0] or phi.im[0]:
            raise ValueError("composition shift must have zero constant term")
        out = self.truncate(n)
        phi = phi.truncate(n)
        power = PowerSeries.one(n)
        deriv = out
        fact = 1
        for k in range(1, n + 1):
            power = power * phi
            fact *= k
            if power.is_zero():
                break
            deriv = deriv._deriv_in_window()  # the k-th derivative, exact in the window
            out = out + (deriv * power).scale(Fraction(1, fact))
        return out

    def reflect(self) -> "PowerSeries":
        """self(-z): flips the sign of every odd coefficient."""
        return _wrap(self.order, self.den, tuple(-x if k & 1 else x for k, x in enumerate(self.re)),
                     tuple(-y if k & 1 else y for k, y in enumerate(self.im)))

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": [c.to_str() for c in self.coeffs]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


DEFAULT_ORDER = 64

