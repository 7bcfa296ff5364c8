"""Truncated formal power series in z^{-1} with exact coefficients.

A series of order N stores the window of coefficients c_0 .. c_N of
sum_k c_k z^{-k}. Arithmetic results carry the minimum of the input orders, so
a coefficient is stored only when it is exact. No floating point enters this
module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .scalars import ExactScalar

CoeffLike = Union[int, Fraction, ExactScalar]


def _coerce_tuple(coeffs: Iterable[CoeffLike]) -> tuple[ExactScalar, ...]:
    return tuple(ExactScalar.coerce(c) for c in coeffs)


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
        out = [ExactScalar.zero()] * (n + 1)
        for i in range(n + 1):
            ai = self.coeffs[i]
            if ai.is_zero():
                continue
            for j in range(n + 1 - i):
                bj = other.coeffs[j]
                if not bj.is_zero():
                    out[i + j] = out[i + j] + ai * bj
        return PowerSeries(n, tuple(out))

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse; the constant term must be invertible."""
        if self.coeffs[0].is_zero():
            raise ValueError("not a unit")
        n = self.order
        inv0 = ExactScalar.one() / self.coeffs[0]
        out = [inv0] + [ExactScalar.zero()] * n
        for k in range(1, n + 1):
            acc = ExactScalar.zero()
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * out[k - j]
            out[k] = -inv0 * acc
        return PowerSeries(n, tuple(out))

    def __pow__(self, k: int) -> "PowerSeries":
        if k < 0:
            return self.inverse() ** (-k)
        out = PowerSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- log and exp ---------------------------------------------------------

    def log(self) -> "PowerSeries":
        """log of a series with constant term one."""
        if self.coeffs[0] != ExactScalar.one():
            raise ValueError("wrong constant term")
        n = self.order
        out = [ExactScalar.zero()] * (n + 1)
        # l_k = c_k - (1/k) sum_{j=1}^{k-1} j l_j c_{k-j}
        for k in range(1, n + 1):
            acc = ExactScalar.zero()
            for j in range(1, k):
                acc = acc + out[j] * self.coeffs[k - j] * j
            out[k] = self.coeffs[k] - acc / k
        return PowerSeries(n, tuple(out))

    def exp(self) -> "PowerSeries":
        """exp of a series with constant term zero."""
        if not self.coeffs[0].is_zero():
            raise ValueError("wrong constant term")
        n = self.order
        out = [ExactScalar.one()] + [ExactScalar.zero()] * n
        # g_k = (1/k) sum_{j=1}^{k} j c_j g_{k-j}
        for k in range(1, n + 1):
            acc = ExactScalar.zero()
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * out[k - j] * j
            out[k] = acc / k
        return PowerSeries(n, tuple(out))

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

