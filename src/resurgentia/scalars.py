"""Exact scalars: rationals and Gaussian rationals.

Every exact computation in the package runs over these scalars. A scalar is a
pair of reduced fractions (re, im) together with a mode tag; mode "rational"
guarantees im == 0, mode "gaussian" admits a nonzero imaginary part. Arithmetic
never leaves the field and never touches floating point.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction, "ExactScalar"]

MODE_RATIONAL = "rational"
MODE_GAUSSIAN = "gaussian"

_TERM_RE = _re.compile(r"^[+-]?(?:\d+(?:/\d+)?)?\*?i?$")


class ExactScalar:
    """A reduced rational or Gaussian rational with exact field arithmetic."""

    __slots__ = ("re", "im", "mode")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0, mode: str | None = None):
        if isinstance(re, ExactScalar):
            if isinstance(im, ExactScalar) or im != 0:
                raise ValueError("cannot combine a scalar with a separate imaginary part")
            re, im = re.re, re.im
        self.re = Fraction(re)
        self.im = Fraction(im)
        if mode is None:
            mode = MODE_RATIONAL if self.im == 0 else MODE_GAUSSIAN
        if mode not in (MODE_RATIONAL, MODE_GAUSSIAN):
            raise ValueError(f"unknown scalar mode {mode!r}")
        if mode == MODE_RATIONAL and self.im != 0:
            raise ValueError("rational mode requires a zero imaginary part")
        self.mode = mode

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

    def _join_mode(self, other: "ExactScalar", re: Fraction, im: Fraction) -> "ExactScalar":
        # the result is gaussian as soon as either operand is
        if self.mode == MODE_GAUSSIAN or other.mode == MODE_GAUSSIAN:
            return ExactScalar(re, im, MODE_GAUSSIAN)
        return ExactScalar(re, im, MODE_RATIONAL)

    def __add__(self, other: RationalLike) -> "ExactScalar":
        o = ExactScalar.coerce(other)
        return self._join_mode(o, self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.re, -self.im, self.mode)

    def __sub__(self, other: RationalLike) -> "ExactScalar":
        return self + (-ExactScalar.coerce(other))

    def __rsub__(self, other: RationalLike) -> "ExactScalar":
        return ExactScalar.coerce(other) - self

    def __mul__(self, other: RationalLike) -> "ExactScalar":
        o = ExactScalar.coerce(other)
        return self._join_mode(
            o, self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "ExactScalar":
        o = ExactScalar.coerce(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero scalar")
        return self._join_mode(
            o, (self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d
        )

    def __rtruediv__(self, other: RationalLike) -> "ExactScalar":
        return ExactScalar.coerce(other) / self

    def __pow__(self, k: int) -> "ExactScalar":
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            return ExactScalar.one() / self ** (-k)
        out = ExactScalar(1, 0, self.mode)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.re, -self.im, self.mode)

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
        """Serialize as "p/q" (rational) or "p/q+r/s*i" (gaussian)."""
        if self.mode == MODE_RATIONAL:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"

    def __repr__(self) -> str:
        return f"ExactScalar({self.to_str()!r})"

    @staticmethod
    def from_str(s: str) -> "ExactScalar":
        """Parse the to_str formats, plus bare integers and fractions."""
        text = s.strip().replace(" ", "")
        if not text:
            raise ValueError("empty scalar string")
        # split into signed terms while respecting the leading sign
        terms: list[str] = []
        buf = text[0]
        for ch in text[1:]:
            if ch in "+-" and buf[-1] != "/":
                terms.append(buf)
                buf = ch
            else:
                buf += ch
        terms.append(buf)
        re_part = Fraction(0)
        im_part = Fraction(0)
        saw_i = False
        for term in terms:
            if not _TERM_RE.match(term):
                raise ValueError(f"malformed scalar term {term!r}")
            if term.endswith("i"):
                saw_i = True
                core = term[:-1].rstrip("*")
                if core in ("", "+"):
                    im_part += 1
                elif core == "-":
                    im_part -= 1
                else:
                    im_part += Fraction(core)
            else:
                re_part += Fraction(term)
        mode = MODE_GAUSSIAN if saw_i else MODE_RATIONAL
        return ExactScalar(re_part, im_part, mode)


def scalar_from_reduced(re: Fraction, im: Fraction, gaussian: bool) -> ExactScalar:
    """An ExactScalar from reduced Fractions, without re-converting them.

    The caller guarantees im == 0 when gaussian is false; the exact kernels in
    alien and series build their outputs through this constructor.
    """
    out = ExactScalar.__new__(ExactScalar)
    out.re = re
    out.im = im
    out.mode = MODE_GAUSSIAN if gaussian else MODE_RATIONAL
    return out


ZERO = ExactScalar.zero()
ONE = ExactScalar.one()
I = ExactScalar.i()
