"""Exact scalars: rationals and Gaussian rationals.

Every exact computation in the package runs over these scalars. A scalar is a
pair of reduced fractions (re, im); it is rational when im == 0 and prints as
"p/q" then, and as "p/q+r/s*i" otherwise. Arithmetic never leaves the field
and never touches floating point: a float or complex input raises TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Union

RationalLike = Union[int, Fraction, "ExactScalar"]

_F0 = Fraction(0)


class ExactScalar:
    """A reduced rational or Gaussian rational with exact field arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if isinstance(re, ExactScalar):
            if isinstance(im, ExactScalar) or im != 0:
                raise ValueError("cannot combine a scalar with a separate imaginary part")
            re, im = re.re, re.im
        self.re = exact_fraction(re)
        self.im = exact_fraction(im)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ExactScalar":
        return ExactScalar(0)

    @staticmethod
    def one() -> "ExactScalar":
        return ExactScalar(1)

    @staticmethod
    def i() -> "ExactScalar":
        return ExactScalar(0, 1)

    @staticmethod
    def coerce(x: RationalLike) -> "ExactScalar":
        return x if isinstance(x, ExactScalar) else ExactScalar(x)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_rational(self) -> bool:
        return self.im == 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: RationalLike) -> "ExactScalar":
        o = ExactScalar.coerce(other)
        return scalar_from_reduced(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        return scalar_from_reduced(-self.re, -self.im)

    def __sub__(self, other: RationalLike) -> "ExactScalar":
        return self + (-ExactScalar.coerce(other))

    def __rsub__(self, other: RationalLike) -> "ExactScalar":
        return ExactScalar.coerce(other) - self

    def __mul__(self, other: RationalLike) -> "ExactScalar":
        o = ExactScalar.coerce(other)
        return scalar_from_reduced(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "ExactScalar":
        o = ExactScalar.coerce(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero scalar")
        return scalar_from_reduced(
            (self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d
        )

    def __rtruediv__(self, other: RationalLike) -> "ExactScalar":
        return ExactScalar.coerce(other) / self

    def __pow__(self, k: int) -> "ExactScalar":
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            return ExactScalar.one() / self ** (-k)
        out = ExactScalar.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "ExactScalar":
        return scalar_from_reduced(self.re, -self.im)

    # -- comparison and hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExactScalar(other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- conversion --------------------------------------------------------

    def __complex__(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __float__(self) -> float:
        if self.im != 0:
            raise ValueError("scalar has a nonzero imaginary part")
        return float(self.re)

    def to_str(self) -> str:
        """Serialize as "p/q" (im == 0) or "p/q+r/s*i"."""
        if not self.im:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"

    def __repr__(self) -> str:
        return f"ExactScalar({self.to_str()!r})"


def exact_fraction(x: Union[int, Fraction, str]) -> Fraction:
    """x as a Fraction; a float or complex input is refused, never rounded."""
    if isinstance(x, (float, complex)):
        raise TypeError(f"exact arithmetic refuses the {type(x).__name__} {x!r}")
    return x if type(x) is Fraction else Fraction(x)


def scalar_from_reduced(re: Fraction, im: Fraction) -> ExactScalar:
    """An ExactScalar from two Fractions, without re-converting them."""
    out = ExactScalar.__new__(ExactScalar)
    out.re = re
    out.im = im
    return out


def _scalar_over(re: int, im: int, den: int) -> ExactScalar:
    """The ExactScalar (re + im i) / den."""
    return scalar_from_reduced(Fraction(re, den), Fraction(im, den) if im else _F0)


def _gaussian_over(c: RationalLike) -> tuple[int, int, int]:
    """(a, b, q) with c = (a + b i) / q and q the lcm of the reduced denominators."""
    c = ExactScalar.coerce(c)
    q = lcm(c.re.denominator, c.im.denominator)
    return c.re.numerator * (q // c.re.denominator), c.im.numerator * (q // c.im.denominator), q
