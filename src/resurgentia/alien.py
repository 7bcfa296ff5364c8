"""Symbolic engine for alien derivations and Stokes automorphisms.

Elements live in a graded algebra with basis monomials

    (lin, m, n)  ->  [1 | g | f] * E^m * e^{-2 n z},

where g is the log-series generator, f its reflection, E = exp(f - g) the unit
ratio, and n the exponential grade (n < 0 encodes e^{+2|n|z}; the companion
tower needs it). The algebra is affine in g and f: a product in which both
factors carry a linear flag is rejected, so g^2 never forms.

Coefficients are sparse polynomials over Gaussian rationals in the transseries
parameters (sigma_1, sigma_2), two auxiliary group parameters, the companion
parameters (delta_1, delta_2), the derivative generators p = dg/dz and
q = df/dz, a Laurent variable z, and (for the large-radius extension) a
Laurent variable u, a log(u) marker, and an e^{2/u} grading slot. The two
Riccati equations

    p' = -p^2 - 2p - (5/36) z^{-2},    q' = -q^2 + 2q - (5/36) z^{-2}

close the ring under d/dz, which makes the commutation of d/dz with the dotted
derivations an exactly checkable identity rather than a numerical statement.

Alien action on generators (all other rays act by zero):

    D2  g = -i E        D-2 g = 0          D2  E^m =  i m E^{m+1}
    D2  f = 0           D-2 f = -i E^{-1}  D-2 E^m = -i m E^{m-1}
    D2  p = -i E (q - p - 2)               D-2 q =  i E^{-1} (q - p - 2)
    D2  q = 0                              D-2 p = 0

The p/q images follow from [d/dz, D_w] = w D_w. In a composed context (series
precomposed with id + phi_u) every alien image picks up the expansion of
e^{-w phi_u}, which is the chain rule for alien derivations under a change of
variable that shifts by a lower-order series.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Optional

from .scalars import MODE_GAUSSIAN, ExactScalar, scalar_from_reduced
from .series import PowerSeries
from . import families

# coefficient-ring variables; z, u, w are Laurent (integer exponents of z,
# u, e^{2/u}), lu marks log u, the rest are ordinary polynomial symbols
VARS = ("s1", "s2", "t1", "t2", "d1", "d2", "p", "q", "z", "u", "lu", "w")
NVARS = len(VARS)
IDX = {name: k for k, name in enumerate(VARS)}
_LAURENT = {IDX["z"], IDX["u"], IDX["w"]}
_ZERO_MONO = (0,) * NVARS
_F0 = Fraction(0)


# The product kernel packs each monomial into one int, 32 bits per slot: the
# biased key of m is sum_k (m_k + 2^31) 2^(32k), the plain key drops the bias,
# and biased(a) + plain(b) = biased(a + b) while every slot stays in 32 bits.
_PACKER = struct.Struct(f"<{NVARS}i")
_KEY_BIAS = sum(1 << (32 * k + 31) for k in range(NVARS))
_EXP_LIMIT = 1 << 30


def _kernel_operand(terms: dict[tuple, ExactScalar], biased: bool) -> tuple[int, list]:
    """Packed monomials and Gaussian-integer coefficients over one denominator.

    Returns (den, [(key, re_num, im_num, gaussian), ...]) in term order, where
    the coefficient is (re_num + im_num i) / den and gaussian is its mode tag.
    """
    if terms and not (-_EXP_LIMIT <= min(map(min, terms))
                      and max(map(max, terms)) < _EXP_LIMIT):
        raise OverflowError("monomial exponent too large for the product kernel")
    shift = 0 if biased else _KEY_BIAS
    pack = _PACKER.pack
    den = lcm(*(c.re.denominator for c in terms.values()),
              *(c.im.denominator for c in terms.values()))
    return den, [
        ((int.from_bytes(pack(*mono), "little") ^ _KEY_BIAS) - shift,
         c.re.numerator * (den // c.re.denominator),
         c.im.numerator * (den // c.im.denominator),
         c.mode == MODE_GAUSSIAN)
        for mono, c in terms.items()
    ]


def _unpack_mono(key: int) -> tuple:
    return _PACKER.unpack((key ^ _KEY_BIAS).to_bytes(_PACKER.size, "little"))


def _poly(terms: dict[tuple, ExactScalar]) -> "Poly":
    """Wrap terms that are already valid (12-tuple keys, nonzero scalars)."""
    out = Poly.__new__(Poly)
    out.terms = terms
    return out


class Poly:
    """Sparse multivariate polynomial over ExactScalar.

    The product kernel converts each operand's coefficients once to Gaussian
    integers over a shared denominator, (re_num + im_num i) / den, and its
    monomials to packed int keys (exponents in [-2^30, 2^30); others raise
    OverflowError). It sums the monomial products with plain int
    arithmetic and builds one ExactScalar per surviving output term, whose
    Fractions are reduced once. The mode tag of an output term follows scalar
    addition: it is gaussian iff some product summed into the term since it
    last cancelled to zero had a gaussian operand. Terms are visited in the
    same order as the term-by-term ExactScalar loop, so values, tags and term
    order all match that loop.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple, ExactScalar] | None = None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = ExactScalar.coerce(c)
                if c.is_zero():
                    continue
                if len(mono) != NVARS:
                    raise ValueError("monomial arity mismatch")
                for k, e in enumerate(mono):
                    if e < 0 and k not in _LAURENT:
                        raise ValueError(f"negative exponent for {VARS[k]}")
                self.terms[tuple(mono)] = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "Poly":
        return Poly({_ZERO_MONO: ExactScalar.coerce(c)})

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def var(name: str, exponent: int = 1, coeff=1) -> "Poly":
        mono = [0] * NVARS
        mono[IDX[name]] = exponent
        return Poly({tuple(mono): ExactScalar.coerce(coeff)})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            cur = out.get(mono)
            if cur is None:
                out[mono] = c
                continue
            s = cur + c
            if s.is_zero():
                del out[mono]
            else:
                out[mono] = s
        return _poly(out)

    def __neg__(self) -> "Poly":
        return _poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        den_a, a = _kernel_operand(self.terms, biased=True)
        den_b, b = _kernel_operand(other.terms, biased=False)
        acc: dict[int, list] = {}  # packed mono -> [re_num, im_num, gaussian]
        get = acc.get
        for k1, x, y, g1 in a:
            for k2, u, v, g2 in b:
                key = k1 + k2
                if y or v:
                    re = x * u - y * v
                    im = x * v + y * u
                else:
                    re = x * u
                    im = 0
                e = get(key)
                if e is None:
                    acc[key] = [re, im, g1 or g2]
                    continue
                re += e[0]
                im += e[1]
                if re or im:
                    e[0] = re
                    e[1] = im
                    if g1 or g2:
                        e[2] = True
                else:
                    del acc[key]
        den = den_a * den_b
        return _poly({
            _unpack_mono(key): scalar_from_reduced(
                Fraction(re, den), Fraction(im, den) if im else _F0, g)
            for key, (re, im, g) in acc.items()
        })

    def scale(self, c) -> "Poly":
        c = ExactScalar.coerce(c)
        if c.is_zero():
            return Poly()
        return _poly({m: c * v for m, v in self.terms.items()})

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Poly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- calculus -------------------------------------------------------------

    def deriv(self, name: str) -> "Poly":
        """Partial derivative; valid for Laurent variables too."""
        k = IDX[name]
        out: dict[tuple, ExactScalar] = {}
        for mono, c in self.terms.items():
            e = mono[k]
            if e == 0:
                continue
            m = list(mono)
            m[k] = e - 1
            m = tuple(m)
            s = out.get(m, ExactScalar.zero()) + c * e
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return Poly(out)

    def subst(self, name: str, replacement: "Poly") -> "Poly":
        """Substitute a polynomial for a variable (nonnegative powers only)."""
        k = IDX[name]
        powers: dict[int, Poly] = {0: Poly.const(1)}

        def power(e: int) -> Poly:
            if e not in powers:
                powers[e] = power(e - 1) * replacement
            return powers[e]

        out = Poly()
        for mono, c in self.terms.items():
            e = mono[k]
            if e < 0:
                raise ValueError("cannot substitute into a negative power")
            m = list(mono)
            m[k] = 0
            out = out + (Poly({tuple(m): c}) * power(e))
        return out

    # -- truncation ------------------------------------------------------------

    def drop_high_degree(self, name: str, cap: int) -> "Poly":
        k = IDX[name]
        return _poly({m: c for m, c in self.terms.items() if m[k] <= cap})

    def drop_low_z(self, zcap: int) -> "Poly":
        """Drop z-exponents below -zcap (series truncation in z^{-1})."""
        k = IDX["z"]
        return _poly({m: c for m, c in self.terms.items() if m[k] >= -zcap})

    def max_degree(self, name: str) -> int:
        k = IDX[name]
        return max((m[k] for m in self.terms), default=0)

    def min_degree(self, name: str) -> Optional[int]:
        k = IDX[name]
        return min((m[k] for m in self.terms), default=None)

    def uses(self, name: str) -> bool:
        k = IDX[name]
        return any(m[k] != 0 for m in self.terms)

    # -- display ----------------------------------------------------------------

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            factors = []
            for k, e in enumerate(mono):
                if e == 0:
                    continue
                factors.append(VARS[k] if e == 1 else f"{VARS[k]}^{e}")
            head = f"({c.to_str()})"
            parts.append("*".join([head] + factors) if factors else head)
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self.to_str()})"


ZERO_POLY = Poly()
ONE_POLY = Poly.const(1)


@dataclass(frozen=True)
class CompositionContext:
    """Composed mode: every series generator is precomposed with id + phi_u.

    factor_for[w] is the z-truncated expansion of e^{-w phi_u} for w = +2, -2,
    including the e^{2w'/u} prefactor tracked through the w slot. d/dz is not
    available in composed mode.
    """

    factor_plus2: Poly  # expansion of e^{-2 phi_u}
    factor_minus2: Poly  # expansion of e^{+2 phi_u}
    zcap: int

    def factor(self, omega: int) -> Poly:
        if omega == 2:
            return self.factor_plus2
        if omega == -2:
            return self.factor_minus2
        raise ValueError("composition factors exist for the rays +2 and -2 only")


@dataclass(frozen=True)
class Caps:
    """Truncation caps: sigma_2 degree, |exponential grade|, optional z order."""

    sigma: int = 6
    grade: int = 6
    zorder: Optional[int] = None

    def widen(self, extra_sigma: int = 0, extra_grade: int = 0) -> "Caps":
        return Caps(self.sigma + extra_sigma, self.grade + extra_grade, self.zorder)


class TransElement:
    """Finite sum of coefficient polynomials times basis monomials."""

    __slots__ = ("terms", "caps", "context")

    LIN_NONE, LIN_G, LIN_F = 0, 1, 2

    def __init__(
        self,
        terms: dict[tuple[int, int, int], Poly] | None = None,
        caps: Caps = Caps(),
        context: CompositionContext | None = None,
    ):
        self.caps = caps
        self.context = context
        self.terms: dict[tuple[int, int, int], Poly] = {}
        if terms:
            for key, poly in terms.items():
                lin, m, n = key
                if lin not in (0, 1, 2):
                    raise ValueError("linear flag must be 0, 1, or 2")
                self._accumulate(key, poly)

    # -- bookkeeping -----------------------------------------------------------

    def _accumulate(self, key: tuple[int, int, int], poly: Poly) -> None:
        poly = self._truncate_poly(poly)
        if poly.is_zero():
            return
        if abs(key[2]) > self.caps.grade:
            return
        cur = self.terms.get(key)
        s = poly if cur is None else cur + poly
        if s.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = s

    def _truncate_poly(self, poly: Poly) -> Poly:
        poly = poly.drop_high_degree("s2", self.caps.sigma)
        if self.caps.zorder is not None:
            poly = poly.drop_low_z(self.caps.zorder)
        return poly

    def _like(self, terms: dict | None = None) -> "TransElement":
        return TransElement(terms, caps=self.caps, context=self.context)

    def _check_compatible(self, other: "TransElement") -> None:
        if self.caps != other.caps or self.context is not other.context:
            raise ValueError("cannot combine elements with different caps or contexts")

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def zero(caps: Caps = Caps(), context: CompositionContext | None = None) -> "TransElement":
        return TransElement({}, caps, context)

    @staticmethod
    def from_poly(poly: Poly, caps: Caps = Caps(), context=None) -> "TransElement":
        return TransElement({(0, 0, 0): poly}, caps, context)

    @staticmethod
    def scalar(c, caps: Caps = Caps(), context=None) -> "TransElement":
        return TransElement.from_poly(Poly.const(c), caps, context)

    @staticmethod
    def generator(which: str, caps: Caps = Caps(), context=None) -> "TransElement":
        """which in {"g", "f", "E", "Einv"}."""
        key = {"g": (1, 0, 0), "f": (2, 0, 0), "E": (0, 1, 0), "Einv": (0, -1, 0)}[which]
        return TransElement({key: ONE_POLY}, caps, context)

    # -- predicates ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransElement):
            return NotImplemented
        return self.terms == other.terms

    # -- algebra ---------------------------------------------------------------------

    def __add__(self, other: "TransElement") -> "TransElement":
        self._check_compatible(other)
        out = self._like(dict(self.terms))
        for key, poly in other.terms.items():
            out._accumulate(key, poly)
        return out

    def __neg__(self) -> "TransElement":
        return self._like({k: -p for k, p in self.terms.items()})

    def __sub__(self, other: "TransElement") -> "TransElement":
        return self + (-other)

    def __mul__(self, other: "TransElement") -> "TransElement":
        self._check_compatible(other)
        out = self._like()
        for (l1, m1, n1), p1 in self.terms.items():
            for (l2, m2, n2), p2 in other.terms.items():
                if l1 != 0 and l2 != 0:
                    raise ArithmeticError(
                        "linear-generator square: the algebra is affine in g and f"
                    )
                out._accumulate((l1 + l2, m1 + m2, n1 + n2), p1 * p2)
        return out

    def scale_poly(self, poly: Poly) -> "TransElement":
        out = self._like()
        for key, p in self.terms.items():
            out._accumulate(key, p * poly)
        return out

    def scale(self, c) -> "TransElement":
        return self.scale_poly(Poly.const(c))

    def shift_grade(self, dn: int) -> "TransElement":
        """Multiply by e^{-2 dn z} (pure exponential, grade shift only)."""
        out = self._like()
        for (lin, m, n), p in self.terms.items():
            out._accumulate((lin, m, n + dn), p)
        return out

    def partial(self, name: str) -> "TransElement":
        """Partial derivative in a parameter variable (never z)."""
        if name == "z":
            raise ValueError("use apply_ddz for the z derivative")
        return self._like({k: p.deriv(name) for k, p in self.terms.items()})

    def subst(self, name: str, replacement: Poly) -> "TransElement":
        out = self._like()
        for key, p in self.terms.items():
            out._accumulate(key, p.subst(name, replacement))
        return out

    def truncated(self, caps: Caps) -> "TransElement":
        """Re-truncate to tighter caps (used to land on a check window)."""
        out = TransElement({}, caps, self.context)
        for key, p in self.terms.items():
            out._accumulate(key, p)
        return out

    def min_sigma2_degree(self) -> Optional[int]:
        degs = [p.min_degree("s2") for p in self.terms.values()]
        degs = [d for d in degs if d is not None]
        return min(degs) if degs else None

    # -- serialization ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        items = []
        for (lin, m, n) in sorted(self.terms):
            items.append(
                {"g": lin, "m": m, "n": n, "poly": self.terms[(lin, m, n)].to_str()}
            )
        return {"terms": items}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def __repr__(self):
        pieces = []
        names = {0: "", 1: "g", 2: "f"}
        for (lin, m, n) in sorted(self.terms):
            tags = [t for t in (
                names[lin],
                f"E^{m}" if m else "",
                f"e(-{2*n}z)" if n else "",
            ) if t]
            mono = "*".join(tags) if tags else "1"
            pieces.append(f"[{self.terms[(lin, m, n)].to_str()}]*{mono}")
        return "TransElement(" + (" + ".join(pieces) if pieces else "0") + ")"


# -- alien derivations ---------------------------------------------------------

_RIC_P = (
    Poly.var("p", 2, -1) + Poly.var("p", 1, -2) + Poly.var("z", -2, Fraction(-5, 36))
)
_RIC_Q = (
    Poly.var("q", 2, -1) + Poly.var("q", 1, 2) + Poly.var("z", -2, Fraction(-5, 36))
)
_QP_MINUS_2 = Poly.var("q") - Poly.var("p") - Poly.const(2)


def _ray_factor(x: TransElement, omega: int) -> Poly:
    if x.context is None:
        return ONE_POLY
    return x.context.factor(omega)


def apply_delta(x: TransElement, omega: int) -> TransElement:
    """The alien derivation on the singular ray omega (an even integer).

    Only the rays +2 and -2 act nontrivially on this family; every other even
    ray gives zero, and odd rays are not singular rays of the algebra at all.
    """
    if omega == 0 or omega % 2 != 0:
        raise ValueError("alien derivations live on nonzero even rays")
    out = x._like()
    if abs(omega) != 2:
        return out
    minus_i = ExactScalar(0, -1)
    plus_i = ExactScalar(0, 1)
    fac = _ray_factor(x, omega)
    for (lin, m, n), p in x.terms.items():
        if omega == 2:
            # linear generator image
            if lin == 1:
                out._accumulate((0, m + 1, n), p.scale(minus_i) * fac)
            # E^m image
            if m != 0:
                out._accumulate((lin, m + 1, n), p.scale(plus_i * m) * fac)
            # p image inside the coefficient
            dp = p.deriv("p")
            if not dp.is_zero():
                out._accumulate(
                    (lin, m + 1, n), dp.scale(minus_i) * _QP_MINUS_2 * fac
                )
        else:
            if lin == 2:
                out._accumulate((0, m - 1, n), p.scale(minus_i) * fac)
            if m != 0:
                out._accumulate((lin, m - 1, n), p.scale(minus_i * m) * fac)
            dq = p.deriv("q")
            if not dq.is_zero():
                out._accumulate(
                    (lin, m - 1, n), dq.scale(plus_i) * _QP_MINUS_2 * fac
                )
    return out


def apply_ddz(x: TransElement) -> TransElement:
    """d/dz as a derivation; the Riccati equations keep the ring closed."""
    if x.context is not None:
        raise ValueError("d/dz is not available for composed elements")
    out = x._like()
    for (lin, m, n), p in x.terms.items():
        if lin == 1:
            out._accumulate((0, m, n), p * Poly.var("p"))
        elif lin == 2:
            out._accumulate((0, m, n), p * Poly.var("q"))
        if m != 0:
            out._accumulate((lin, m, n), p.scale(m) * (Poly.var("q") - Poly.var("p")))
        if n != 0:
            out._accumulate((lin, m, n), p.scale(-2 * n))
        dz = p.deriv("z")
        dp = p.deriv("p")
        dq = p.deriv("q")
        acc = dz
        if not dp.is_zero():
            acc = acc + dp * _RIC_P
        if not dq.is_zero():
            acc = acc + dq * _RIC_Q
        if not acc.is_zero():
            out._accumulate((lin, m, n), acc)
    return out


def apply_dotted(x: TransElement, direction: str) -> TransElement:
    """The graded derivation along a half-line of singular rays.

    direction "geq0": sum_k e^{-2kz} Delta_{2k}; "leq0": sum_k e^{2kz}
    Delta_{-2k}. On this family only k = 1 contributes, but the sum is formed
    over every capped ray for honesty.
    """
    if direction not in ("geq0", "leq0"):
        raise ValueError("direction must be 'geq0' or 'leq0'")
    sign = 1 if direction == "geq0" else -1
    out = x._like()
    for k in range(1, x.caps.grade + 2):
        piece = apply_delta(x, sign * 2 * k)
        if not piece.is_zero():
            out = out + piece.shift_grade(sign * k)
    return out


def apply_stokes(
    x: TransElement,
    direction: str,
    power: Poly | int | Fraction | ExactScalar = 1,
) -> TransElement:
    """The Stokes automorphism exp(power * dotted derivation).

    The rightward direction is nilpotent on capped elements because each
    application raises the exponential grade. The leftward direction lowers the
    grade; finiteness instead comes from the sigma_2 cap, and a runtime check
    enforces admissibility: every application must raise the minimal
    sigma_2-degree by at least one.
    """
    if not isinstance(power, Poly):
        power = Poly.const(power)
    out = x
    current = x
    r = 0
    bound = 2 * (x.caps.sigma + x.caps.grade) + 4
    power_r = ONE_POLY
    while True:
        nxt = apply_dotted(current, direction)
        if direction == "leq0" and not nxt.is_zero():
            before = current.min_sigma2_degree()
            after = nxt.min_sigma2_degree()
            if before is None or after is None or after < before + 1:
                raise ArithmeticError(
                    "not in the admissible subalgebra for the leftward automorphism"
                )
        current = nxt
        r += 1
        if current.is_zero():
            break
        if r > bound:
            raise ArithmeticError("Stokes exponential failed to terminate under the caps")
        power_r = power_r * power
        out = out + current.scale_poly(power_r).scale(Fraction(1, factorial(r)))
    return out


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def apply_delta_plus(x: TransElement, omega: int) -> TransElement:
    """The comultiplicative component Delta^+ of the Stokes automorphism.

    Delta^+_{2m} collects every operator word Delta_{2m_1} ... Delta_{2m_r}
    with m_1 + ... + m_r = m weighted by 1/r!; the first few read
    Delta^+_{w} = Delta_w, Delta^+_{2w} = Delta_{2w} + (1/2) Delta_w Delta_w.
    """
    if omega == 0 or omega % 2 != 0:
        raise ValueError("alien operators live on nonzero even rays")
    m = abs(omega) // 2
    sign = 1 if omega > 0 else -1
    out = x._like()
    for r in range(1, m + 1):
        coeff = Fraction(1, factorial(r))
        for comp in _compositions(m, r):
            y = x
            # operator word acts right to left
            for part in reversed(comp):
                y = apply_delta(y, sign * 2 * part)
                if y.is_zero():
                    break
            if not y.is_zero():
                out = out + y.scale(coeff)
    return out


# -- the formal integral and its identities -------------------------------------


def formal_integral(
    caps: Caps = Caps(),
    context: CompositionContext | None = None,
    grade_cap: Optional[int] = None,
    negate_sigma2: bool = False,
) -> TransElement:
    """The two-parameter formal solution sigma_1 + g + higher exponential grades.

    Grade n carries ((-1)^{n-1}/n) sigma_2^n e^{-2nz} E^n; in a composed
    context each grade is additionally multiplied by the expansion of
    e^{-2n phi_u}, and each power of that factor is truncated at z^{-zcap}
    (context.zcap, which must equal caps.zorder) as it is formed. Built along
    two routes, the explicit sum and the exponential
    exp(i sigma_2 e^{-2z} Delta_2) applied to sigma_1 + g, which must agree.
    """
    if context is not None and context.zcap != caps.zorder:
        raise ValueError("cap inconsistency: context and caps disagree on the z order")
    gc = grade_cap if grade_cap is not None else min(caps.sigma, caps.grade)
    gc = min(gc, caps.grade)
    s2 = Poly.var("s2", 1, -1 if negate_sigma2 else 1)

    terms: dict[tuple[int, int, int], Poly] = {
        (0, 0, 0): Poly.var("s1"),
        (1, 0, 0): ONE_POLY,
    }
    explicit = TransElement(terms, caps, context)
    fac_pow = ONE_POLY
    s2_pow = ONE_POLY
    for n in range(1, gc + 1):
        s2_pow = s2_pow * s2
        if context is not None:
            # the factor carries no positive z power, so the truncated
            # power still yields every term above the z floor
            fac_pow = (fac_pow * context.factor(2)).drop_low_z(context.zcap)
        coeff = s2_pow.scale(Fraction((-1) ** (n - 1), n)) * fac_pow
        explicit = explicit + TransElement({(0, n, n): coeff}, caps, context)

    seed = TransElement(
        {(0, 0, 0): Poly.var("s1"), (1, 0, 0): ONE_POLY}, caps, context
    )
    via_exp = apply_stokes(seed, "geq0", s2.scale(ExactScalar(0, 1)))
    # compare inside the generated grade window only
    trimmed = {k: p for k, p in via_exp.terms.items() if k[2] <= gc}
    if TransElement(trimmed, caps, context) != explicit:
        raise ArithmeticError("formal-integral route disagreement")
    return explicit


def _bridge_residuals(
    x: TransElement, caps: Caps, unit: ExactScalar, ray: int = 2, names=("s1", "s2")
) -> tuple[TransElement, TransElement]:
    """Residuals of the bridge pair on the window caps, with (a, b) = names:

        r_ray  = Delta_ray  x + unit e^{+ray z} dx/db
        r_-ray = Delta_-ray x + unit e^{-ray z} (b dx/da - b^2 dx/db)

    unit is +i in the double-scaling frame and -i in the large-radius frame,
    whose sigma_2 is the double-scaling one with its sign flipped. x must be
    generated with one extra grade and sigma_2 degree so the window is exact.
    """
    a, b = names
    bv = Poly.var(b)
    r_fwd = apply_delta(x, ray) + x.partial(b).shift_grade(-ray // 2).scale(unit)
    r_back = apply_delta(x, -ray) + (
        x.partial(a).scale_poly(bv) - x.partial(b).scale_poly(bv * bv)
    ).shift_grade(ray // 2).scale(unit)
    return r_fwd.truncated(caps), r_back.truncated(caps)


def _stokes_window(caps: Caps, direction: str) -> Caps:
    """The caps an element needs for its Stokes residual on the window caps."""
    if direction == "geq0":
        # grades only ever rise, one extra grade of margin suffices; grade m
        # carries sigma_2^m, and the shift brings its low powers back into
        # the window, so the sigma_2 cap must reach every grade in the window
        return Caps(max(caps.sigma, caps.grade), caps.grade + 1, caps.zorder)
    # grade d feeds sigma_2-degree d, so generate up to the sigma cap
    return Caps(caps.sigma, max(caps.grade, caps.sigma), caps.zorder)


def _stokes_residual(x: TransElement, direction: str, caps: Caps, unit: ExactScalar) -> TransElement:
    """Residual of one lateral Stokes action on x, built at _stokes_window(caps, direction).

    geq0 shifts sigma_2 by -unit. leq0 shifts sigma_1 by log(1 - unit sigma_2)
    and maps sigma_2 to sigma_2/(1 - unit sigma_2), expanded to the sigma_2
    cap. unit is +i (double scaling) or -i (large radius).
    """
    lhs = apply_stokes(x, direction)
    if direction == "geq0":
        rhs = x.subst("s2", Poly.var("s2") - Poly.const(unit))
    else:
        u_s2 = Poly.var("s2", 1, unit)
        log_shift = Poly.zero()
        geom = Poly.zero()
        pw = ONE_POLY
        for k in range(1, caps.sigma + 1):
            pw = pw * u_s2
            log_shift = log_shift - pw.scale(Fraction(1, k))
            geom = geom + pw.drop_high_degree("s2", caps.sigma - 1)
        mapped = (Poly.var("s2") * (ONE_POLY + geom)).drop_high_degree("s2", caps.sigma)
        rhs = x.subst("s2", mapped) + TransElement.from_poly(log_shift, x.caps, x.context)
    return (lhs - rhs).truncated(caps)


def bridge_check(caps: Caps = Caps()) -> dict:
    """Exact residuals of the two bridge identities for the formal integral.

    r_plus  = Delta_2  G + i e^{+2z} dG/dsigma_2
    r_minus = Delta_-2 G + i e^{-2z} (sigma_2 dG/dsigma_1 - sigma_2^2 dG/dsigma_2)
    """
    wide = caps.widen(extra_sigma=1, extra_grade=1)
    G = formal_integral(wide, grade_cap=wide.grade)
    r_plus, r_minus = _bridge_residuals(G, caps, ExactScalar(0, 1))
    return {
        "residual_plus": r_plus,
        "residual_minus": r_minus,
        "ok": r_plus.is_zero() and r_minus.is_zero(),
    }


def stokes_action_check(caps: Caps = Caps()) -> dict:
    """The two lateral automorphism actions on the formal integral.

    Rightward: the automorphism shifts sigma_2 by -i. Leftward: it shifts
    sigma_1 by log(1 - i sigma_2) and maps sigma_2 to sigma_2/(1 - i sigma_2).
    """
    res = {}
    for direction in ("geq0", "leq0"):
        window = _stokes_window(caps, direction)
        G = formal_integral(window, grade_cap=window.grade)
        res[direction] = _stokes_residual(G, direction, caps, ExactScalar(0, 1))
    return {
        "residual_right": res["geq0"],
        "residual_left": res["leq0"],
        "ok": res["geq0"].is_zero() and res["leq0"].is_zero(),
    }


def deltaplus_table(nmax: int, kmax: int, caps: Caps | None = None) -> dict:
    """Delta^+ on the pure tower members G_k = ((-1)^{k-1}/k) E^k.

    Returns {(omega, k): element} for omega = ±2n, 1 <= n <= nmax,
    1 <= k <= kmax. The closed forms these must match:

        Delta^+_{+2n} G_k = (-i)^n  C(k+n, n) G_{k+n}
        Delta^+_{-2n} G_k = 0                 for n > k
                          = -i^k / k          for n = k
                          = i^n C(k-1, n) G_{k-n}   for n < k
    """
    caps = caps or Caps(max(nmax, kmax) + 2, max(nmax, kmax) + 2)
    out = {}
    for k in range(1, kmax + 1):
        Gk = TransElement(
            {(0, k, 0): Poly.const(Fraction((-1) ** (k - 1), k))}, caps
        )
        for n in range(1, nmax + 1):
            out[(2 * n, k)] = apply_delta_plus(Gk, 2 * n)
            out[(-2 * n, k)] = apply_delta_plus(Gk, -2 * n)
    return out


def companion_F(caps: Caps = Caps()) -> TransElement:
    """The mirror transseries in the e^{+2z} grading.

    F = -2z + delta_1 + f + sum_n ((-1)^{n-1}/n) delta_2^n e^{+2nz} E^{-n}.
    Checked against the mirrored bridge pair before being returned:

        Delta_-2 F = -i e^{-2z} dF/ddelta_2
        Delta_+2 F = -i e^{+2z} (delta_2 dF/ddelta_1 - delta_2^2 dF/ddelta_2)
    """
    wide = caps.widen(extra_sigma=1, extra_grade=1)
    gc = wide.grade
    terms: dict[tuple[int, int, int], Poly] = {
        (0, 0, 0): Poly.var("z", 1, -2) + Poly.var("d1"),
        (2, 0, 0): ONE_POLY,
    }
    F = TransElement(terms, wide)
    d2 = Poly.var("d2")
    d2_pow = ONE_POLY
    for n in range(1, gc + 1):
        d2_pow = d2_pow * d2
        F = F + TransElement(
            {(0, -n, -n): d2_pow.scale(Fraction((-1) ** (n - 1), n))}, wide
        )
    r1, r2 = _bridge_residuals(F, caps, ExactScalar(0, 1), ray=-2, names=("d1", "d2"))
    if not (r1.is_zero() and r2.is_zero()):
        raise ArithmeticError("companion element fails its mirrored bridge identities")
    return F.truncated(caps)


# -- expansion to honest power series ---------------------------------------------


def expand_to_series(
    x: TransElement, order: int
) -> dict[tuple[tuple[int, ...], int], PowerSeries]:
    """Expand an element into power-series data per symbol monomial and grade.

    The generators map to their series: g -> log psi, f -> its reflection,
    E^m -> (phi/psi)^m, p and q -> the respective log-derivatives, z^{-k} into
    the series itself. Keys are (exponents of the six parameter symbols, n);
    values are order-`order` windows. Positive powers of z and any use of the
    u-family slots have no series meaning here and raise.
    """
    if x.context is not None:
        raise ValueError("composed elements expand in the large-radius module")
    pad = order + 2
    psi, phi = families.gen_psi_phi(pad)
    g = psi.series.log()
    f = g.reflect()
    ratio = phi.series * psi.series.inverse()
    ratio_inv = ratio.inverse()
    p_series = g._deriv_in_window(1)
    q_series = f._deriv_in_window(1)
    param_idx = [IDX[v] for v in ("s1", "s2", "t1", "t2", "d1", "d2")]

    out: dict[tuple[tuple[int, ...], int], PowerSeries] = {}
    for (lin, m, n), poly in x.terms.items():
        base = PowerSeries.one(pad)
        if lin == 1:
            base = base * g
        elif lin == 2:
            base = base * f
        if m > 0:
            base = base * ratio**m
        elif m < 0:
            base = base * ratio_inv ** (-m)
        for mono, c in poly.terms.items():
            if any(mono[IDX[v]] != 0 for v in ("u", "lu", "w")):
                raise ValueError("u-family symbols have no series expansion")
            zexp = mono[IDX["z"]]
            if zexp > 0:
                raise ValueError("positive z powers have no series expansion")
            piece = base.scale(c)
            if zexp < 0:
                piece = piece * PowerSeries.monomial(-zexp, pad)
            for e, s in ((mono[IDX["p"]], p_series), (mono[IDX["q"]], q_series)):
                if e:
                    piece = piece * s**e
            key = (tuple(mono[i] for i in param_idx), n)
            prev = out.get(key)
            piece = piece.truncate(order)
            out[key] = piece if prev is None else prev + piece
    return {k: v for k, v in out.items() if not v.is_zero()}
