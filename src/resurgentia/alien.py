"""Symbolic engine for alien derivations and Stokes automorphisms.

Elements live in a graded algebra with basis monomials

    (lin, m, n)  ->  [1 | g | f] * E^m * e^{-2 n z},

where g is the log-series generator, f its reflection, E = exp(f - g) the unit
ratio, and n the exponential grade (n < 0 encodes e^{+2|n|z}; the companion
tower needs it). The algebra is affine in g and f, so g^2 never forms.

Coefficients are sparse polynomials over Gaussian rationals in the transseries
parameters (sigma_1, sigma_2), the derivative generators p = dg/dz and
q = df/dz, a Laurent variable z, and (for the large-radius extension) a
Laurent variable u, a log(u) marker, and an e^{2/u} grading slot. The two
Riccati equations

    p' = -p^2 - 2p - (5/36) z^{-2},    q' = -q^2 + 2q - (5/36) z^{-2}

close the ring under d/dz, which makes the commutation of d/dz with the dotted
derivations an exactly checkable identity rather than a numerical statement.

The Borel singularities of this family lie at +-2 only, so only D2 and D-2
act (apply_delta gives zero on every other ray), the dotted derivations are
e^{-+2z} D+-2, and Delta^+_{+-2j} = D+-2^j / j!. Alien action on generators:

    D2  g = -i E        D-2 g = 0          D2  E^m =  i m E^{m+1}
    D2  f = 0           D-2 f = -i E^{-1}  D-2 E^m = -i m E^{m-1}
    D2  p = -i E (q - p - 2)               D-2 q =  i E^{-1} (q - p - 2)
    D2  q = 0                              D-2 p = 0

The p/q images follow from [d/dz, D_w] = w D_w.
"""

from __future__ import annotations

import json
import struct
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional

from .scalars import ExactScalar, _gaussian_over, _scalar_over

# coefficient-ring variables; z, u, w are Laurent (integer exponents of z,
# u, e^{2/u}), lu marks log u, the rest are ordinary polynomial symbols
VARS = ("s1", "s2", "p", "q", "z", "u", "lu", "w")
NVARS = len(VARS)
IDX = {name: k for k, name in enumerate(VARS)}
_LAURENT = {IDX["z"], IDX["u"], IDX["w"]}
_ZERO_MONO = (0,) * NVARS


# A monomial is packed into one int, 32 bits per slot and each exponent biased
# by 2^31: key(m) = sum_k (m_k + 2^31) 2^(32k). Adding the unbiased key of b to
# the key of a gives the key of a + b, as long as every slot stays in 32 bits.
_PACKER = struct.Struct(f"<{NVARS}i")
_SLOT = 32
_SLOT_MASK = (1 << _SLOT) - 1
_HALF = 1 << (_SLOT - 1)
_KEY_BIAS = sum(_HALF << (_SLOT * k) for k in range(NVARS))


def _pack(mono: tuple) -> int:
    return int.from_bytes(_PACKER.pack(*mono), "little") ^ _KEY_BIAS


def _unpack(key: int) -> tuple:
    return _PACKER.unpack((key ^ _KEY_BIAS).to_bytes(_PACKER.size, "little"))


def _slot(name: str) -> tuple[int, int]:
    """(shift, mask) of a variable's slot in a packed key."""
    if name not in IDX:
        raise ValueError(f"unknown variable {name!r}: the variables are {', '.join(VARS)}")
    shift = _SLOT * IDX[name]
    return shift, _SLOT_MASK << shift


_S2_SLOT = _slot("s2")
_Z_SLOT = _slot("z")
_P_SLOT, _Q_SLOT = _slot("p"), _slot("q")


def _exponent(e, what: str = "u-exponent") -> int:
    if type(e) is not int:  # int() would turn 2.5 into 2 and "3" into 3, and a bool reads as 1
        raise TypeError(f"{what} must be an int, not {type(e).__name__}")
    return e


def _raw(den: int, nums: dict) -> "Poly":
    """Wrap numerators already in canonical form over den."""
    out = Poly.__new__(Poly)
    out.den = den
    out.nums = nums
    return out


def _poly(den: int, nums: dict) -> "Poly":
    """A Poly from nonzero numerators over den > 0, brought to canonical form."""
    g = den
    for re, im in nums.values():
        if g == 1:
            break
        g = gcd(g, re, im)
    if g != 1:
        den //= g
        nums = {k: (re // g, im // g) for k, (re, im) in nums.items()}
    return _raw(den, nums)


def _decode(c) -> tuple[int, int, int]:
    """(a, b, q) with c = (a + b i) / q; an int or a Fraction builds no ExactScalar."""
    if isinstance(c, (int, Fraction)):
        return c.numerator, 0, c.denominator
    return _gaussian_over(c)  # a float or a complex raises TypeError


def _cut(sigma: int) -> tuple[int, int]:
    """(mask, top) of _keep for a sigma_2 cap."""
    return _S2_SLOT[1], (sigma + _HALF) << _S2_SLOT[0]


def _keep(nums: dict, mask: int, top: int) -> dict:
    """The terms whose slot under mask is at most top."""
    return {k: c for k, c in nums.items() if k & mask <= top}


def _check_kernel_range(nums: dict) -> None:
    # e lies in [-2^30, 2^30) iff bits 31 and 30 of its biased slot differ, so
    # the sum of two such exponents still fits its slot
    if not all((k ^ k << 1) & _KEY_BIAS == _KEY_BIAS for k in nums):
        raise OverflowError("monomial exponent too large for the product kernel")


class Poly:
    """Sparse multivariate polynomial over Gaussian rationals.

    A Poly is stored the way its product kernel computes: nums maps each
    packed monomial key (see _pack; exponents in [-2^31, 2^31)) to
    Gaussian-integer numerators (re, im), nonzero, over one denominator den >
    0. The form is canonical, gcd(den, every numerator) == 1, so equal
    polynomials have equal (den, nums) and ==, hash and is_zero are plain dict
    operations. Every operation works on ints and key slots: multiplying by
    +-i swaps and negates numerators, and truncation compares slots. The
    product sums monomial products with plain int arithmetic and takes
    operands whose exponents lie in [-2^30, 2^30) (others raise
    OverflowError). terms is a read-only {monomial: ExactScalar} copy built
    on each access. The order of the terms is unspecified; to_str sorts them.
    """

    __slots__ = ("den", "nums")

    def __init__(self, terms: dict[tuple, ExactScalar] | None = None):
        items = []
        for mono, c in (terms or {}).items():
            c = ExactScalar.coerce(c)
            if c.is_zero():
                continue
            if len(mono) != NVARS:
                raise ValueError("monomial arity mismatch")
            for k, e in enumerate(mono):
                if type(e) is not int:  # struct would refuse 1.5 namelessly and read True as 1
                    raise TypeError(f"exponent of {VARS[k]} must be an int, not {type(e).__name__}")
                if e < 0 and k not in _LAURENT:
                    raise ValueError(f"negative exponent for {VARS[k]}")
                if not -_HALF <= e < _HALF:
                    raise OverflowError("monomial exponent outside its 32-bit slot")
            items.append((_pack(mono), c))
        # the lcm of reduced denominators leaves numerators without a common factor
        den = lcm(1, *(c.re.denominator for _, c in items), *(c.im.denominator for _, c in items))
        self.den = den
        self.nums = {
            key: (c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator))
            for key, c in items
        }

    @property
    def terms(self) -> MappingProxyType:
        return MappingProxyType({_unpack(k): _scalar_over(x, y, self.den) for k, (x, y) in self.nums.items()})

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
        mono[_slot(name)[0] // _SLOT] = exponent
        return Poly({tuple(mono): ExactScalar.coerce(coeff)})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = dict(self.nums) if fa == 1 else {k: (x * fa, y * fa) for k, (x, y) in self.nums.items()}
        get = out.get
        for key, (x, y) in other.nums.items():
            if fb != 1:
                x *= fb
                y *= fb
            cur = get(key)
            if cur is not None:
                x += cur[0]
                y += cur[1]
                if not (x or y):
                    del out[key]
                    continue
            out[key] = (x, y)
        return _poly(den, out)

    def __neg__(self) -> "Poly":
        return _raw(self.den, {k: (-x, -y) for k, (x, y) in self.nums.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def mul(self, other: "Poly", sigma: Optional[int] = None) -> "Poly":
        """The product with only its terms of sigma_2 degree <= sigma: every pair
        of terms is formed, and the sum is cut once before the one canonical
        form; a cap that is None is no cap, and self * other is self.mul(other)."""
        a, b = self.nums, other.nums
        _check_kernel_range(a)
        _check_kernel_range(b)
        row = [(k - _KEY_BIAS, u, v) for k, (u, v) in b.items()]
        acc: dict[int, list] = {}  # packed mono -> [re, im]
        get = acc.get
        for k1, (x, y) in a.items():
            for k2, u, v in row:
                key = k1 + k2
                if y:
                    re = x * u - y * v
                    im = x * v + y * u
                else:
                    re = x * u
                    im = x * v
                e = get(key)
                if e is None:
                    acc[key] = [re, im]
                else:
                    e[0] += re
                    e[1] += im
        nums = {k: (re, im) for k, (re, im) in acc.items() if re or im}
        return _poly(self.den * other.den, nums if sigma is None else _keep(nums, *_cut(sigma)))

    __mul__ = mul

    def scale(self, c) -> "Poly":
        return self._scaled(*_decode(c))

    def _scaled(self, a: int, b: int, q: int) -> "Poly":
        """self times (a + b i) / q."""
        if not b:
            if not a:
                return Poly()
            if a == q == 1:
                return self
            return _poly(self.den * q, {k: (x * a, y * a) for k, (x, y) in self.nums.items()})
        if not a and q == 1 and b in (1, -1):
            # times +-i: a swap and a negation keep the form canonical
            return _raw(self.den, {k: (-b * y, b * x) for k, (x, y) in self.nums.items()})
        return _poly(self.den * q, {
            k: (x * a - y * b, x * b + y * a) for k, (x, y) in self.nums.items()
        })

    # -- calculus -------------------------------------------------------------

    def deriv(self, name: str) -> "Poly":
        """Partial derivative; valid for Laurent variables too."""
        shift, mask = _slot(name)
        unit = 1 << shift
        out = {}
        for key, (x, y) in self.nums.items():
            e = ((key & mask) >> shift) - _HALF
            if e:
                if e == -_HALF:
                    raise OverflowError("monomial exponent outside its 32-bit slot")
                out[key - unit] = (x * e, y * e)
        return _poly(self.den, out)

    def subst(self, name: str, replacement: "Poly", sigma: Optional[int] = None) -> "Poly":
        """Substitute a polynomial for a variable (nonnegative powers only),
        keeping the terms inside the sigma_2 cap as mul does.

        The terms are grouped by their exponent e of the variable, so each
        distinct e costs one product with replacement**e. The powers are
        capped too: sigma_2 exponents are never negative, so a power's
        terms past the sigma_2 cap only feed products past it."""
        return self._subst(name, [ONE_POLY, replacement], sigma)

    def _subst(self, name: str, powers: list, sigma: Optional[int]) -> "Poly":
        """subst reading replacement**e from powers = [1, replacement, ...], the powers
        formed so far (capped in sigma_2); it appends the ones it lacks, so one list
        serves every call with the same replacement and caps."""
        if sigma is not None:
            assert (self.min_degree("s2") or 0) >= 0 and (powers[1].min_degree("s2") or 0) >= 0
        shift, mask = _slot(name)
        groups: dict[int, dict] = {}
        for key, num in self.nums.items():
            e = ((key & mask) >> shift) - _HALF
            if e < 0:
                raise ValueError("cannot substitute into a negative power")
            groups.setdefault(e, {})[key - (e << shift)] = num
        while len(powers) <= max(groups, default=0):
            powers.append(powers[-1].mul(powers[1], sigma))
        out = Poly()
        for e in sorted(groups):
            out = out + _poly(self.den, groups[e]).mul(powers[e], sigma)
        return out

    # -- truncation ------------------------------------------------------------

    def _kept(self, nums: dict) -> "Poly":
        # a dropped term can take the last factor coprime to den with it
        return self if len(nums) == len(self.nums) else _poly(self.den, nums)

    def drop_high_degree(self, name: str, cap: int) -> "Poly":
        shift, mask = _slot(name)
        return self._kept(_keep(self.nums, mask, (cap + _HALF) << shift))

    def drop_low_z(self, zcap: int) -> "Poly":
        """Drop z-exponents below -zcap (series truncation in z^{-1})."""
        floor, z_mask = (_HALF - zcap) << _Z_SLOT[0], _Z_SLOT[1]
        return self._kept({k: c for k, c in self.nums.items() if k & z_mask >= floor})

    def capped(self, sigma: int) -> "Poly":
        """drop_high_degree("s2", sigma)."""
        return self._kept(_keep(self.nums, *_cut(sigma)))

    def min_degree(self, name: str) -> Optional[int]:
        shift, mask = _slot(name)
        return min((((k & mask) >> shift) - _HALF for k in self.nums), default=None)

    # -- display ----------------------------------------------------------------

    def to_str(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for mono, (re, im) in sorted((_unpack(k), num) for k, num in self.nums.items()):
            factors = []
            for k, e in enumerate(mono):
                if e == 0:
                    continue
                factors.append(VARS[k] if e == 1 else f"{VARS[k]}^{e}")
            head = f"({_scalar_over(re, im, self.den).to_str()})"
            parts.append("*".join([head] + factors) if factors else head)
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self.to_str()})"


ONE_POLY = Poly.const(1)


class Caps(NamedTuple):
    """Truncation caps: sigma_2 degree, |exponential grade|, and the optional z
    order of the large-radius frame, which largeradius alone applies; elements
    and products here cut in sigma_2 and grade only."""

    sigma: int = 6
    grade: int = 6
    zorder: Optional[int] = None


class TransElement:
    """Finite sum of coefficient polynomials times basis monomials."""

    __slots__ = ("terms", "caps")

    def __init__(self, terms: dict[tuple[int, int, int], Poly] | None = None, caps: Caps = Caps()):
        self.caps = caps
        self.terms: dict[tuple[int, int, int], Poly] = {}
        if terms:
            for key, poly in terms.items():
                lin, m, n = key
                for what, e in zip(("lin", "m", "n"), key):
                    if type(e) is not int:
                        raise TypeError(f"basis key {what} must be an int, not {type(e).__name__}")
                if lin not in (0, 1, 2):
                    raise ValueError("linear flag must be 0, 1, or 2")
                self._accumulate(key, poly)

    # -- bookkeeping -----------------------------------------------------------

    def _accumulate(self, key: tuple[int, int, int], poly: Poly) -> None:
        """Add poly at key, cut to the caps."""
        if abs(key[2]) <= self.caps.grade:
            self._put(key, poly.capped(self.caps.sigma))

    def _put(self, key: tuple[int, int, int], poly: Poly) -> None:
        """Add poly, already inside the sigma_2 cap, at key unless its grade
        is past the grade cap."""
        if not poly.nums or abs(key[2]) > self.caps.grade:
            return
        cur = self.terms.get(key)
        s = poly if cur is None else cur + poly
        if s.nums:
            self.terms[key] = s
        else:
            del self.terms[key]

    def _like(self) -> "TransElement":
        return TransElement(None, self.caps)

    def _map(self, f, dn: int = 0) -> "TransElement":
        """f(p) at (lin, m, n + dn) for each term p at (lin, m, n); f must keep
        a coefficient inside the sigma_2 cap."""
        out = self._like()
        for (lin, m, n), p in self.terms.items():
            out._put((lin, m, n + dn), f(p))
        return out

    def _check_compatible(self, other: "TransElement") -> None:
        if self.caps != other.caps:
            raise ValueError("cannot combine elements with different caps")

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def from_poly(poly: Poly, caps: Caps = Caps()) -> "TransElement":
        return TransElement({(0, 0, 0): poly}, caps)

    @staticmethod
    def generator(which: str, caps: Caps = Caps()) -> "TransElement":
        """which in {"g", "f", "E", "Einv"}."""
        key = {"g": (1, 0, 0), "f": (2, 0, 0), "E": (0, 1, 0), "Einv": (0, -1, 0)}.get(which)
        if key is None:
            raise ValueError("which must be one of g, f, E, Einv")
        return TransElement({key: ONE_POLY}, caps)

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
        out = self._like()
        out.terms = dict(self.terms)  # both are within the shared caps
        for key, poly in other.terms.items():
            out._put(key, poly)
        return out

    def __neg__(self) -> "TransElement":
        return self._map(Poly.__neg__)

    def __sub__(self, other: "TransElement") -> "TransElement":
        return self + (-other)

    def scale_poly(self, poly: Poly) -> "TransElement":
        return self._map(lambda p: p.mul(poly, self.caps.sigma))

    def scale(self, c) -> "TransElement":
        abq = _decode(c)  # once for all terms
        return self._map(lambda p: p._scaled(*abq))

    def shift_grade(self, dn: int) -> "TransElement":
        """Multiply by e^{-2 dn z} (pure exponential, grade shift only)."""
        return self._map(lambda p: p, dn)

    def partial(self, name: str) -> "TransElement":
        """Partial derivative in a parameter variable (never z)."""
        if _slot(name) == _Z_SLOT:
            raise ValueError("partial takes a parameter variable, not z")
        return self._map(lambda p: p.deriv(name))

    def subst(self, name: str, replacement: Poly) -> "TransElement":
        _slot(name)  # an unknown name raises on an element without terms too
        powers = [ONE_POLY, replacement]  # formed once, shared by every term
        return self._map(lambda p: p._subst(name, powers, self.caps.sigma))

    def truncated(self, caps: Caps) -> "TransElement":
        """Re-truncate to tighter caps (used to land on a check window)."""
        return TransElement(self.terms, caps)

    def min_sigma2_degree(self) -> Optional[int]:
        degs = [p.min_degree("s2") for p in self.terms.values()]
        degs = [d for d in degs if d is not None]
        return min(degs) if degs else None

    # -- serialization ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"terms": [{"g": lin, "m": m, "n": n, "poly": self.terms[(lin, m, n)].to_str()}
                          for (lin, m, n) in sorted(self.terms)]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def __repr__(self):
        return f"TransElement({self.to_json()})"


# -- alien derivations ---------------------------------------------------------

_PLUS_I = ExactScalar(0, 1)
_MINUS_I = ExactScalar(0, -1)


def apply_delta(x: TransElement, omega: int) -> TransElement:
    """The alien derivation on the singular ray omega (an even integer).

    Only the rays +2 and -2 act nontrivially on this family; every other even
    ray gives zero, and odd rays are not singular rays of the algebra at all.
    """
    if _exponent(omega, "the ray") == 0 or omega % 2 != 0:
        raise ValueError("alien derivations live on nonzero even rays")
    out = x._like()
    if abs(omega) != 2:
        return out
    # D2 E^m = i m E^{m+1} and D2 p = -i E (q - p - 2), mirrored on the ray -2,
    # take a monomial with e powers of the hit derivative (p or q) to i times an
    # integer times its numerator: i (step m + e) at its own key, -i e with one hit
    # derivative traded for the other, 2 i step e with one fewer; D2 g = -i E
    step, lin_hit, (shift, mask), (other, _) = (1, 1, _P_SLOT, _Q_SLOT) if omega == 2 else (-1, 2, _Q_SLOT, _P_SLOT)
    down, level = 1 << shift, _HALF << shift
    trade = (1 << other) - down
    for (lin, m, n), p in x.terms.items():
        if lin == lin_hit:
            out._put((0, m + step, n), p._scaled(0, -1, 1))  # the g or f hit
        nums = {k: (-t * b, t * a) for k, (a, b) in p.nums.items() if (t := step * m + ((k & mask) >> shift) - _HALF)}
        hits = [(key, ((key & mask) >> shift) - _HALF, a, b) for key, (a, b) in p.nums.items() if key & mask != level]
        if hits:
            _check_kernel_range(p.nums)  # the shifts below stay inside their slots
        for key, e, a, b in hits:
            for k, c in ((key + trade, -e), (key - down, 2 * step * e)):
                re, im = nums.pop(k, (0, 0))
                if re - c * b or im + c * a:
                    nums[k] = (re - c * b, im + c * a)
        if nums:
            out._put((lin, m + step, n), _poly(p.den, nums))
    # each image keeps the sigma_2 exponent of its term, so it lies inside the cap
    return out


def apply_dotted(x: TransElement, direction: str) -> TransElement:
    """The graded derivation along a half-line of singular rays.

    direction "geq0": sum_k e^{-2kz} Delta_{2k}; "leq0": sum_k e^{2kz}
    Delta_{-2k}. Only k = 1 acts on this family (apply_delta), so it is
    e^{-+2z} Delta_{+-2}.
    """
    if direction not in ("geq0", "leq0"):
        raise ValueError("direction must be 'geq0' or 'leq0'")
    sign = 1 if direction == "geq0" else -1
    return apply_delta(x, 2 * sign).shift_grade(sign)


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
    out = current = x
    r = 0
    bound = 2 * (x.caps.sigma + x.caps.grade) + 4
    power_r = ONE_POLY
    unit_power = power == ONE_POLY  # then power^r is 1, and no product is formed
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
        term = current
        if not unit_power:
            power_r = power_r * power
            term = current.scale_poly(power_r)
        out = out + term.scale(Fraction(1, factorial(r)))
    return out


def _delta_plus_tower(x: TransElement, sign: int, m: int) -> list[TransElement]:
    """[Delta^+_{sign 2j} x for j = 1..m].

    Delta^+_{sign 2j} is the sum of the words Delta_{sign 2m_1} ... Delta_{sign 2m_r}
    with m_1 + ... + m_r = j, each over r!. Only Delta_{sign 2} acts
    (apply_delta), so the one word left is Delta_{sign 2}^j, over j!.
    """
    out = []
    for j in range(1, m + 1):
        x = apply_delta(x, 2 * sign)
        out.append(x.scale(Fraction(1, factorial(j))))
    return out


# -- the formal integral and its identities -------------------------------------


def formal_integral(caps: Caps = Caps(), *, negate_sigma2: bool = False) -> TransElement:
    """The two-parameter formal solution sigma_1 + g + higher exponential grades.

    Grade n carries ((-1)^{n-1}/n) sigma_2^n e^{-2nz} E^n. Built along two
    routes, the explicit sum and the exponential exp(i sigma_2 e^{-2z} Delta_2)
    applied to sigma_1 + g, which must agree.

    Each sign keeps one route-checked build, and each request gets its own
    copy of the grades it keeps, so no caller can change the build.
    """
    _check_caps(caps)
    # The m rule: grade n carries exactly sigma_2^n and no z, so a build at Caps(m, m) serves
    # every request with m' = min(sigma', grade') <= m, a sigma_2 cap above m and any z order
    # included, as its grades up to m', term for term, and its route check implies the request's.
    # A request past the stored m is built at its own m, and that build replaces the stored one.
    m, negate = min(caps.sigma, caps.grade), bool(negate_sigma2)
    stored = _FORMAL_INTEGRALS.get(negate)
    if stored is None or stored.caps.sigma < m:
        stored = _FORMAL_INTEGRALS[negate] = _build_formal_integral(Caps(m, m), negate)
    served = TransElement(None, caps)
    served.terms = {k: p for k, p in stored.terms.items() if k[2] <= m}
    return served


# negate_sigma2 -> its one build, at Caps(m, m)
_FORMAL_INTEGRALS: dict[bool, TransElement] = {}


def _check_caps(caps: Caps) -> None:
    """Int caps (the z order may be None); a negative cap leaves an empty window that certifies nothing."""
    if min(_exponent(caps.sigma, "sigma_2 cap"), _exponent(caps.grade, "grade cap"),
           0 if caps.zorder is None else _exponent(caps.zorder, "z order")) < 0:
        raise ValueError("the sigma_2, grade and z-order caps must be nonnegative")


def _build_formal_integral(caps: Caps, negate_sigma2: bool) -> TransElement:
    sign = -1 if negate_sigma2 else 1
    seed = TransElement({(0, 0, 0): Poly.var("s1"), (1, 0, 0): ONE_POLY}, caps)
    explicit = seed  # + forms a new element, so the seed stays sigma_1 + g
    # grade n carries sigma_2^n, so the grades above the sigma_2 cap vanish
    for n in range(1, min(caps.sigma, caps.grade) + 1):
        coeff = Poly.var("s2", n, Fraction((-1) ** (n - 1) * sign ** n, n))
        explicit = explicit + TransElement({(0, n, n): coeff}, caps)

    via_exp = apply_stokes(seed, "geq0", Poly.var("s2", 1, ExactScalar(0, sign)))
    if via_exp != explicit:
        raise ArithmeticError("formal-integral route disagreement")
    return explicit


def _stokes_window(caps: Caps, direction: str) -> Caps:
    """The caps an element needs for its Stokes residual on the window caps."""
    if direction == "geq0":
        # grades only ever rise, one extra grade of margin suffices; grade m
        # carries sigma_2^m, and the shift brings its low powers back into
        # the window, so the sigma_2 cap must reach every grade in the window
        return Caps(max(caps.sigma, caps.grade), caps.grade + 1, caps.zorder)
    if direction == "leq0":
        # grade d feeds sigma_2-degree d, so generate up to the sigma cap
        return Caps(caps.sigma, max(caps.grade, caps.sigma), caps.zorder)
    raise ValueError("direction must be 'geq0' or 'leq0'")


def _stokes_residual(build: Callable[[Caps], TransElement], direction: str, caps: Caps,
                     unit: ExactScalar) -> TransElement:
    """Residual of one lateral Stokes action on x = build(_stokes_window(caps, direction)).

    geq0 shifts sigma_2 by -unit. leq0 shifts sigma_1 by log(1 - unit sigma_2)
    and maps sigma_2 to sigma_2/(1 - unit sigma_2), expanded to the sigma_2
    cap. unit is +i (double scaling) or -i (large radius). A negative cap or an
    unknown direction raises before x is built.
    """
    _check_caps(caps)
    x = build(_stokes_window(caps, direction))
    lhs = apply_stokes(x, direction)
    if direction == "geq0":
        rhs = x.subst("s2", Poly.var("s2") - Poly.const(unit))
    else:
        log_shift, mapped = _leftward_maps(caps.sigma, unit)
        rhs = x.subst("s2", mapped) + TransElement.from_poly(log_shift, x.caps)
    return (lhs - rhs).truncated(caps)


@lru_cache(maxsize=None)
def _leftward_maps(sigma: int, unit: ExactScalar) -> tuple[Poly, Poly]:
    """log(1 - unit sigma_2) and sigma_2/(1 - unit sigma_2) through sigma_2^sigma, shared by leftward residuals."""
    u_s2 = Poly.var("s2", 1, unit)
    log_shift = geom = Poly.zero()
    pw = ONE_POLY
    for k in range(1, sigma + 1):
        pw = pw * u_s2
        log_shift = log_shift - pw.scale(Fraction(1, k))
        geom = geom + pw.drop_high_degree("s2", sigma - 1)
    return log_shift, (Poly.var("s2") * (ONE_POLY + geom)).drop_high_degree("s2", sigma)


def _bridge_check(build: Callable[[Caps], TransElement], caps: Caps, unit: ExactScalar) -> dict:
    """The residuals of the bridge pair on the window caps, and whether both vanish:

        r_2  = Delta_2  x + unit e^{+2z} dx/dsigma_2
        r_-2 = Delta_-2 x + unit e^{-2z} (sigma_2 dx/dsigma_1 - sigma_2^2 dx/dsigma_2)

    unit is +i in the double-scaling frame and -i in the large-radius frame,
    whose sigma_2 is the double-scaling one with its sign flipped. x is built
    with one extra grade and sigma_2 degree, so the window is exact; a negative
    cap raises before x is built.
    """
    _check_caps(caps)
    x = build(Caps(caps.sigma + 1, caps.grade + 1, caps.zorder))
    s2 = Poly.var("s2")
    dx_s2 = x.partial("s2")
    r_plus = (apply_delta(x, 2) + dx_s2.shift_grade(-1).scale(unit)).truncated(caps)
    r_minus = (apply_delta(x, -2) + (
        x.partial("s1").scale_poly(s2) - dx_s2.scale_poly(s2 * s2)
    ).shift_grade(1).scale(unit)).truncated(caps)
    return {
        "residual_plus": r_plus,
        "residual_minus": r_minus,
        "ok": r_plus.is_zero() and r_minus.is_zero(),
    }


def bridge_check(caps: Caps = Caps()) -> dict:
    """Exact residuals of the two bridge identities for the formal integral.

    r_plus  = Delta_2  G + i e^{+2z} dG/dsigma_2
    r_minus = Delta_-2 G + i e^{-2z} (sigma_2 dG/dsigma_1 - sigma_2^2 dG/dsigma_2)
    """
    return _bridge_check(formal_integral, caps, _PLUS_I)


def stokes_action_check(caps: Caps = Caps()) -> dict:
    """The two lateral automorphism actions on the formal integral.

    Rightward: the automorphism shifts sigma_2 by -i. Leftward: it shifts
    sigma_1 by log(1 - i sigma_2) and maps sigma_2 to sigma_2/(1 - i sigma_2).
    """
    right, left = (_stokes_residual(formal_integral, d, caps, _PLUS_I) for d in ("geq0", "leq0"))
    return {"residual_right": right, "residual_left": left, "ok": right.is_zero() and left.is_zero()}


def deltaplus_table(nmax: int, kmax: int) -> dict:
    """Delta^+ on the pure tower members G_k = ((-1)^{k-1}/k) E^k.

    Returns {(omega, k): element} for omega = ±2n, 1 <= n <= nmax,
    1 <= k <= kmax, from one _delta_plus_tower per G_k and direction, at caps
    max(nmax, kmax) + 2 in sigma_2 and grade. The closed forms these must match:

        Delta^+_{+2n} G_k = (-i)^n  C(k+n, n) G_{k+n}
        Delta^+_{-2n} G_k = 0                 for n > k
                          = -i^k / k          for n = k
                          = i^n C(k-1, n) G_{k-n}   for n < k
    """
    if min(nmax, kmax) < 1:
        raise ValueError("nmax and kmax must be at least 1")
    caps = Caps(max(nmax, kmax) + 2, max(nmax, kmax) + 2)
    out = {}
    for k in range(1, kmax + 1):
        Gk = TransElement({(0, k, 0): Poly.const(Fraction((-1) ** (k - 1), k))}, caps)
        for sign in (1, -1):
            for n, elem in enumerate(_delta_plus_tower(Gk, sign, nmax), 1):
                out[(sign * 2 * n, k)] = elem
    return out


def _deltaplus_closed_forms_ok(nmax: int, kmax: int) -> bool:
    """deltaplus_table(nmax, kmax) equals the closed forms in its docstring."""
    for (om, k), elem in deltaplus_table(nmax, kmax).items():
        n = abs(om) // 2
        # the image is c G_j, or the constant -i^k / k when j = 0, or 0 when j < 0
        j, c = (k + n, _MINUS_I ** n * comb(k + n, n)) if om > 0 else (k - n, _PLUS_I ** n * comb(k - 1, n))
        c = c * Fraction(1 if j % 2 else -1, j) if j else _PLUS_I ** k * Fraction(-1, k)
        if elem.terms != ({(0, j, 0): Poly.const(c)} if j >= 0 else {}):
            return False
    return True


def _gtower_closed_forms_ok(sigma: int, grade: int) -> bool:
    """Delta+_{2m} g = (i^m) (-1/m) E^m for m = 1, 2, 3, at caps widened by 3."""
    wide = Caps(sigma + 3, grade + 3)
    return all(
        elem == TransElement({(0, m, 0): Poly.const(_PLUS_I ** m * Fraction(-1, m))}, wide)
        for m, elem in enumerate(_delta_plus_tower(TransElement.generator("g", wide), 1, 3), 1)
    )
