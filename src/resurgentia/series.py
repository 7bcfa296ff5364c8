"""Truncated formal power series in z^{-1} with exact coefficients.

A series of order N stores the window of coefficients c_0 .. c_N of
sum_k c_k z^{-k}. Arithmetic results carry the minimum of the input orders, so
a coefficient is stored only when it is exact. No floating point enters this
module.

Products, inverse, log and exp share one kernel scheme. Each input window is
converted once to Gaussian-integer numerators (re, im) over the lcm of its
denominators. A product convolves those numerators with plain ints, skipping
zero rows and, for real windows, the imaginary parts, and builds one reduced
Fraction per output coefficient. The recurrences for inverse, log and exp keep
their outputs so far as numerators over one denominator that grows, with a
rescale of the stored numerators, whenever a new output brings a new factor;
each step then costs integer products and one Fraction reduction. Mode tags
follow the ExactScalar loops these kernels replace: a product coefficient k is
gaussian iff some pair i + j = k of nonzero factors has a gaussian-tagged
factor; inverse coefficient k iff some c_j, j <= k, is gaussian-tagged; log
and exp coefficient k iff some c_j, 1 <= j <= k, is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence, Union

from .scalars import MODE_GAUSSIAN, ExactScalar, scalar_from_reduced

CoeffLike = Union[int, Fraction, ExactScalar]

_F0 = Fraction(0)


def _coerce_tuple(coeffs: Iterable[CoeffLike]) -> tuple[ExactScalar, ...]:
    return tuple(ExactScalar.coerce(c) for c in coeffs)


def _numerators(coeffs: Sequence[ExactScalar]) -> tuple[int, list[int], list[int]]:
    """(den, re, im) with coefficient k equal to (re[k] + im[k] i) / den.

    den is the lcm of every denominator in the window.
    """
    den = lcm(*(c.re.denominator for c in coeffs), *(c.im.denominator for c in coeffs))
    return (
        den,
        [c.re.numerator * (den // c.re.denominator) for c in coeffs],
        [c.im.numerator * (den // c.im.denominator) for c in coeffs],
    )


def _running_tags(coeffs: Sequence[ExactScalar], start: int) -> list[bool]:
    """Tag k is gaussian iff some c_j with start <= j <= k is gaussian-tagged."""
    out, seen = [], False
    for k, c in enumerate(coeffs):
        seen = seen or (k >= start and c.mode == MODE_GAUSSIAN)
        out.append(seen)
    return out


class _SharedDenominator:
    """The outputs of a recurrence so far, kept two ways.

    values holds each output as reduced Fractions (re, im). re and im hold
    integer numerators over the one denominator den, for the sums that build
    the next output. A pushed output whose denominators bring a new factor
    grows den by that factor and rescales every stored numerator.
    """

    __slots__ = ("imag", "den", "re", "im", "values")

    def __init__(self, imag: bool):
        self.imag = imag
        self.den = 1
        self.re: list[int] = []
        self.im: list[int] = []
        self.values: list[tuple[Fraction, Fraction]] = []

    def push(self, re: Fraction, im: Fraction, weight: int = 1) -> None:
        """Append re + im i; the stored numerator is weight times the output."""
        self.values.append((re, im))
        den = lcm(self.den, re.denominator, im.denominator)
        if den != self.den:
            f = den // self.den
            self.re = [x * f for x in self.re]
            if self.imag:
                self.im = [x * f for x in self.im]
            self.den = den
        self.re.append(weight * re.numerator * (den // re.denominator))
        if self.imag:
            self.im.append(weight * im.numerator * (den // im.denominator))

    def dot(self, cr: list[int], ci: list[int]) -> tuple[int, int]:
        """sum_t (cr[t] + ci[t] i) * stored[-1 - t], over t < len(cr)."""
        sr = sum(map(mul, cr, reversed(self.re)))
        if not self.imag:
            return sr, 0
        return (sr - sum(map(mul, ci, reversed(self.im))),
                sum(map(mul, cr, reversed(self.im))) + sum(map(mul, ci, reversed(self.re))))

    def series(self, order: int, tags: list[bool]) -> "PowerSeries":
        return PowerSeries(order, tuple(
            scalar_from_reduced(re, im, g) for (re, im), g in zip(self.values, tags)
        ))


@dataclass(frozen=True)
class PowerSeries:
    """Window c_0 .. c_order of a formal series in z^{-1}."""

    order: int
    coeffs: tuple[ExactScalar, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient window must hold order + 1 entries")
        object.__setattr__(self, "coeffs", _coerce_tuple(self.coeffs))

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
        return PowerSeries.from_coeffs([], order)

    @staticmethod
    def one(order: int) -> "PowerSeries":
        return PowerSeries.from_coeffs([1], order)

    @staticmethod
    def constant(c: CoeffLike, order: int) -> "PowerSeries":
        return PowerSeries.from_coeffs([c], order)

    @staticmethod
    def monomial(k: int, order: int, c: CoeffLike = 1) -> "PowerSeries":
        """c * z^{-k} as an order-`order` window."""
        if not 0 <= k <= order:
            raise ValueError("monomial degree outside the window")
        return PowerSeries.from_coeffs([0] * k + [c], order)

    # -- inspection --------------------------------------------------------

    def coeff(self, k: int) -> ExactScalar:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} outside order-{self.order} window")
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError("cannot extend a window by truncation")
        return PowerSeries(order, self.coeffs[: order + 1])

    def valuation(self) -> int | None:
        """Smallest k with c_k != 0, or None for the zero window."""
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                return k
        return None

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(n, tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(n, tuple(self.coeffs[k] - other.coeffs[k] for k in range(n + 1)))

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(self.order, tuple(-c for c in self.coeffs))

    def scale(self, c: CoeffLike) -> "PowerSeries":
        s = ExactScalar.coerce(c)
        return PowerSeries(self.order, tuple(s * ck for ck in self.coeffs))

    # -- multiplicative structure -------------------------------------------

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
        den_a, ar, ai = _numerators(a)
        den_b, br, bi = _numerators(b)
        rows_a = [i for i in range(n + 1) if ar[i] or ai[i]]
        rows_b = [j for j in range(n + 1) if br[j] or bi[j]]
        re = [0] * (n + 1)
        im = [0] * (n + 1)
        if any(ai) or any(bi):
            for i in rows_a:
                x, y = ar[i], ai[i]
                for j in rows_b:
                    if i + j > n:
                        break
                    u, v = br[j], bi[j]
                    re[i + j] += x * u - y * v
                    im[i + j] += x * v + y * u
        else:
            for i in rows_a:
                x = ar[i]
                for j in rows_b:
                    if i + j > n:
                        break
                    re[i + j] += x * br[j]
        # out[k] is gaussian iff a pair i + j = k of nonzero factors has a
        # gaussian-tagged factor: nonzero rows of one operand, shifted by each
        # gaussian row of the other
        tags = 0
        for rows, other_rows, window in ((rows_a, rows_b, a), (rows_b, rows_a, b)):
            mask = sum(1 << j for j in other_rows)
            for i in rows:
                if window[i].mode == MODE_GAUSSIAN:
                    tags |= mask << i
        den = den_a * den_b
        return PowerSeries(n, tuple(
            scalar_from_reduced(Fraction(re[k], den), Fraction(im[k], den) if im[k] else _F0,
                                bool(tags >> k & 1))
            for k in range(n + 1)
        ))

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse; the constant term must be invertible."""
        if self.coeffs[0].is_zero():
            raise ValueError("not a unit")
        n = self.order
        d, cr, ci = _numerators(self.coeffs)
        # with c_j = C_j / d, out_m = O_m / E (E = store.den) and
        # S = sum_{j=1}^k C_j O_{k-j}:
        # out_k = -(1/c_0) sum_{j=1}^k c_j out_{k-j} = -S conj(C_0) / (E |C_0|^2)
        a, b = cr[0], ci[0]
        norm = a * a + b * b
        store = _SharedDenominator(any(ci))
        store.push(Fraction(d * a, norm), Fraction(-d * b, norm) if b else _F0)
        for k in range(1, n + 1):
            sr, si = store.dot(cr[1 : k + 1], ci[1 : k + 1])
            den = store.den * norm
            store.push(Fraction(-(sr * a + si * b), den),
                       Fraction(sr * b - si * a, den) if store.imag else _F0)
        return store.series(n, _running_tags(self.coeffs, 0))

    def __pow__(self, k: int) -> "PowerSeries":
        if k < 0:
            return self.inverse() ** (-k)
        out = PowerSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- log and exp ---------------------------------------------------------

    def log(self) -> "PowerSeries":
        """log of a series with constant term one."""
        if self.coeffs[0] != ExactScalar.one():
            raise ValueError("wrong constant term")
        n = self.order
        d, cr, ci = _numerators(self.coeffs)
        # l_k = c_k - (1/k) sum_{j=1}^{k-1} j l_j c_{k-j}; the store holds j l_j,
        # so with c_j = C_j / d and S = sum_{j=1}^{k-1} (j L_j) C_{k-j} over
        # numerators, l_k = (k E C_k - S) / (k E d)
        store = _SharedDenominator(any(ci))
        store.push(_F0, _F0)
        for k in range(1, n + 1):
            sr, si = store.dot(cr[1:k], ci[1:k])
            scale = k * store.den
            den = scale * d
            store.push(Fraction(scale * cr[k] - sr, den),
                       Fraction(scale * ci[k] - si, den) if store.imag else _F0, weight=k)
        return store.series(n, _running_tags(self.coeffs, 1))

    def exp(self) -> "PowerSeries":
        """exp of a series with constant term zero."""
        if not self.coeffs[0].is_zero():
            raise ValueError("wrong constant term")
        n = self.order
        d, cr, ci = _numerators(self.coeffs)
        jcr = [j * c for j, c in enumerate(cr)]
        jci = [j * c for j, c in enumerate(ci)]
        # g_k = (1/k) sum_{j=1}^{k} j c_j g_{k-j} = S / (k d E) with
        # S = sum_{j=1}^k (j C_j) G_{k-j} over numerators
        store = _SharedDenominator(any(ci))
        store.push(Fraction(1), _F0)
        for k in range(1, n + 1):
            sr, si = store.dot(jcr[1 : k + 1], jci[1 : k + 1])
            den = k * d * store.den
            store.push(Fraction(sr, den), Fraction(si, den) if store.imag else _F0)
        return store.series(n, _running_tags(self.coeffs, 1))

    # -- differentiation ------------------------------------------------------

    def diff(self) -> "PowerSeries":
        """Termwise d/dz: z^{-k} -> -k z^{-k-1}.

        Drops the order by one: the image of the top coefficient leaves the
        stored window, so only order - 1 coefficients remain certified.
        """
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 window")
        n = self.order - 1
        out = [ExactScalar.zero()] * (n + 1)
        for k in range(2, n + 1):
            out[k] = self.coeffs[k - 1] * (-(k - 1))
        return PowerSeries(n, tuple(out))

    def _deriv_in_window(self, times: int) -> "PowerSeries":
        # exact n-th derivative kept in the full window; degree d of the
        # result depends only on c_{d-times}, so every stored entry is exact
        n = self.order
        out = [ExactScalar.zero()] * (n + 1)
        for d in range(n + 1):
            k = d - times
            if k < 0:
                continue
            c = self.coeffs[k]
            if c.is_zero():
                continue
            fac = 1
            for j in range(times):
                fac *= -(k + j)
            out[d] = c * fac
        return PowerSeries(n, tuple(out))

    # -- composition -------------------------------------------------------

    def compose_shift(self, phi: "PowerSeries", allow_constant: bool = False) -> "PowerSeries":
        """self(z + phi(z)) via the Taylor sum over derivatives of self.

        Exact to the window when phi has no constant term. A nonzero constant
        term is admitted only with allow_constant=True; the Taylor sum is then
        a documented order-N truncation of the shifted series.
        """
        n = min(self.order, phi.order)
        if not phi.coeffs[0].is_zero() and not allow_constant:
            raise ValueError("composition shift must have zero constant term")
        out = self.truncate(n)
        power = PowerSeries.one(n)
        fact = 1
        for k in range(1, n + 1):
            power = power * phi.truncate(n)
            fact *= k
            if power.is_zero():
                break
            term = self._deriv_in_window(k).truncate(n) * power
            out = out + term.scale(Fraction(1, fact))
        return out

    def reflect(self) -> "PowerSeries":
        """self(-z): flips the sign of every odd coefficient."""
        return PowerSeries(
            self.order,
            tuple(c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)),
        )

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": [c.to_str() for c in self.coeffs]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(d: dict) -> "PowerSeries":
        return PowerSeries(int(d["order"]), tuple(ExactScalar.from_str(s) for s in d["coeffs"]))

    @staticmethod
    def from_json(s: str) -> "PowerSeries":
        return PowerSeries.from_json_dict(json.loads(s))

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            mono = "1" if k == 0 else ("z^-1" if k == 1 else f"z^-{k}")
            parts.append(f"({c.to_str()})*{mono}")
        return " + ".join(parts) if parts else "0"


DEFAULT_ORDER = 64

