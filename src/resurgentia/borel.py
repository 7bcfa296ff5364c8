"""Borel-Laplace summation, sectorial solutions, and their identity checks.

The Borel image of z^{-1} psi is the hypergeometric germ

    Bhat(zeta) = sum c_n zeta^n / n!  =  (1/2pi) int_0^1 t^{-5/6} (1-t)^{-1/6}
                                         (1 - (1-t) zeta/2)^{-1/6} dt,

holomorphic off the cut [2, oo); the mirror kernel Bhat_+(zeta) = Bhat(-zeta)
carries the cut (-oo, -2]. Directional Laplace integration of these kernels
produces the lateral sums, and every higher-level object here (the sectorial
family G, connection residuals, median-real values) is a finite composition of
those two quadratures with exact series data from the companion modules.

eval_Bhat evaluates Bhat, at each point off the cut, by the convergent 2F1
series of whichever of five covering regions converges fastest there, each
summed to a rigorous tail bound, so every value is within _KAPPA = 1e-13. The
float layer is Python complex arithmetic with math and cmath only.

Every ray the package integrates has one shape, whatever its decay rate and
direction: a kernel Bhat(+-zeta), or the moment -zeta Bhat(zeta), is sampled up
to |zeta| = R (4, or more for small |z|), and past R it equals its DLMF 15.8.2
connection series in 2/zeta, whose Laplace integral is a series of generalized
exponential integrals E_p (DLMF 8.19), summed in closed form under a rigorous
truncation bound (laplace_ray, _far_laplace). laplace_ray integrates these
kernels only. A panel's nodes and Bhat values depend only on (branch, theta, a,
b), so they are kept in one bounded per-process cache (_kernel_row); nothing
that depends on z is cached.

Direction windows are arcs of rays: theta and theta + 2pi label the same ray
and the same integral, so a shifted window such as 2pi + I_+ needs no special
bookkeeping. A negative-real z admits admissible rays in I_+ only through the
lower subarc (-pi, -pi/2); that lateral sum IS the continuation of G_+ to the
e^{2pi i} sheet edge, while I_- reaches the same point through (pi/2, pi).
The two windows therefore disambiguate the sheet by domain, which is exactly
what the left connection formula compares.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from numbers import Number
from operator import mul
from typing import Optional, Sequence

from .errors import BranchCutError, DomainError, QuadratureError, SumValue  # re-exported

TWO_PI = 2.0 * math.pi

INTERVALS: dict[str, tuple[float, float]] = {
    "I0": (-TWO_PI, 0.0),
    "Ipi": (-math.pi, math.pi),
    "Iplus": (-math.pi, 0.0),
    "Iminus": (0.0, math.pi),
}

# the Borel kernel branch of each family and the ray of its cut
_BRANCH = {"psi": ("B", 0.0), "g": ("B", 0.0), "phi": ("B_plus", math.pi), "f": ("B_plus", math.pi)}

DEFAULT_QUAD_TOL = 1e-10
DEFAULT_END_TOL = 1e-6
DELTA_RAY = 0.05
THETA_MARGIN = 0.45  # preferred standoff from cuts; accuracy, not validity
_DECAY_MIN = 1e-3  # least decay rate Re(z e^{i theta}) a Laplace ray accepts
_DECAY_MAX = sys.float_info.epsilon / sys.float_info.min  # past it 1/rate nears the float underflow
_LAYER = 400.0  # the first panel of a ray ends within this many decay lengths 1/rate
_MAX_PANELS = 4000
_ROOT_SWEEPS = 200  # most Aberth-Ehrlich sweeps or Newton steps of the Pade root finder


def normalize_interval(interval) -> tuple[float, float]:
    """The window of a tag I0|Ipi|Iplus|Iminus, or of an (a, b) pair with finite a < b."""
    if isinstance(interval, str):
        if interval not in INTERVALS:
            raise ValueError(f"unknown interval tag {interval!r}")
        return INTERVALS[interval]
    a, b = float(interval[0]), float(interval[1])
    if not (a < b and math.isfinite(b - a)):
        raise ValueError("empty interval" if not a < b else "interval ends must be finite")
    return (a, b)


def choose_theta(z: complex, interval, cuts: Sequence[float] = (0.0, math.pi)) -> float:
    """Pick the admissible direction maximizing the decay rate Re(z e^{i theta}).

    The window is split at every cut ray it contains; within each cut-free
    subarc the steepest ray -arg z is clamped to a standoff of THETA_MARGIN
    (never less than DELTA_RAY) from the subarc ends. Raises "domain empty"
    when no admissible ray decays by at least _DECAY_MIN.
    """
    a, b = normalize_interval(interval)
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError("z must be finite")
    if z == 0:
        raise DomainError("domain empty: z = 0")
    # cut angles inside the window
    points = [a, b]
    for base in cuts:
        for k in range(math.floor((a - base) / TWO_PI), math.floor((b - base) / TWO_PI) + 1):
            c = base + TWO_PI * k
            if a < c < b:
                points.append(c)
    points = sorted(set(points))
    peak = -cmath.phase(z)
    best_theta = None
    best_rate = -math.inf
    for lo, hi in zip(points[:-1], points[1:]):
        if hi - lo <= 2.0 * DELTA_RAY:
            continue
        eff = max(DELTA_RAY, min(THETA_MARGIN, (hi - lo) / 4.0))
        # the image of the steepest ray nearest the subarc's middle, clamped, is the subarc's
        # best ray wherever the window lies: no other image is nearer to [lo + eff, hi - eff]
        k0 = round(((lo + hi) / 2.0 - peak) / TWO_PI)
        cand = min(max(peak + TWO_PI * k0, lo + eff), hi - eff)
        rate = (z * cmath.exp(1j * cand)).real
        if rate > best_rate:
            best_rate = rate
            best_theta = cand
    if best_theta is None or best_rate < _DECAY_MIN:
        raise DomainError("domain empty: no admissible decaying ray in the window")
    return best_theta


def _theta_inside(theta: float, interval) -> float:
    a, b = normalize_interval(interval)
    if not (a < theta < b):
        raise DomainError("direction angle must lie strictly inside its window")
    return theta


def _sign_window(sign) -> tuple[float, float]:
    """The window of G_sign: I_+ for "+", I_- for "-"."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    return INTERVALS["Iplus" if sign == "+" else "Iminus"]


# -- the Borel kernel ----------------------------------------------------------------
#
# With x = +-zeta/2, Bhat = F(x) = 2F1(1/6, 5/6; 1; x), holomorphic off the cut
# x in [1, oo). In each of five regions F is one convergent series
#
#     F = sum_j P_j(x) sum_k a_{j,k} v^k,   |v| < 1,
#
# and eval_Bhat sums, at each point, the region with the smallest |v|:
#
#   v = x            Maclaurin, a_k = t_k = (1/6)_k (5/6)_k / k!^2;
#   v = (1-2x)^-2    DLMF 15.8.2 in 1/x, or 15.8.3 in 1/(1-x): F = sum_j A_j w^{-s_j}
#                    2F1(s_j, s_j; 2s_j; 1/w), w = -x or 1-x, s = 1/6, 5/6. The
#                    quadratic transformation 15.8.13 turns both into one series,
#                    P_j = A_j (1/2 - x)^{-s_j}, a_{j,k} = (s_j/2)_k (s_j/2 + 1/2)_k
#                    / ((s_j + 1/2)_k k!), for |1 - 2x| > 1;
#   v = x/(x-1)      Pfaff, P = (1-x)^{-1/6}, a_k = (1/6)_k^2 / k!^2;
#   v = 1-x          DLMF 15.8.10, the logarithmic case a + b = c:
#                    (1/2pi) sum_k t_k (d_k - log(1-x)) v^k, d_0 = log 432,
#                    d_{k+1} = d_k + 2/(k+1) - 1/(k+1/6) - 1/(k+5/6);
#   v = (x-x0)/rho   Taylor series at x0 = 1/2 +- i/2 (the centre on the side of x),
#                    from x(1-x)F'' + (1-2x)F' - (5/36)F = 0. It covers the
#                    neighbourhoods of x0, where every other |v| is at least 0.7.
#
# The smallest |v| is at most 0.56 anywhere off the cut. Every tail bound is an
# upper bound. The hypergeometric coefficients are positive and nonincreasing in
# k (each ratio such as (k+1/6)(k+5/6)/(k+1)^2 is at most 1, and d_k = 2 psi(k+1)
# - psi(k+1/6) - psi(k+5/6) is positive and decreasing), so with r = |v| the
# tail past K is at most |P_j| a_{j,K} r^K/(1-r). For the Taylor series the Euler
# integral gives |F(x)| <= max_{s in [0,1]} |1 - s x|^{-1/6}; on the disc
# |x - x0| <= rho, |1 - s x| >= |1 - s x0| - s rho >= 1/sqrt(2) - rho, so Cauchy's
# estimate gives |a_k| <= M = (1/sqrt(2) - rho)^{-1/6} and a tail of at most
# M r^K/(1-r).

_KAPPA = 1e-13  # |eval_Bhat - Bhat| at every point: kappa/10 for the tail, the rest for rounding
_TERMS = 220  # at |v| = 0.84 every tail bound is below kappa/10 within this many terms
_TAYLOR_RHO = 0.7
_TAYLOR_M = (math.sqrt(0.5) - _TAYLOR_RHO) ** (-1.0 / 6.0)
_FAR_S = (1.0 / 6.0, 5.0 / 6.0)
_FAR_A = (
    math.gamma(2.0 / 3.0) / math.gamma(5.0 / 6.0) ** 2,
    math.gamma(-2.0 / 3.0) / math.gamma(1.0 / 6.0) ** 2,
)


def _hyp_coeffs(a: float, b: float, c: float) -> list:
    # (a)_k (b)_k / ((c)_k k!) for k = 0 .. _TERMS
    out = [1.0]
    for k in range(_TERMS):
        out.append(out[-1] * (a + k) * (b + k) / ((c + k) * (k + 1)))
    return out


_MACLAURIN = _hyp_coeffs(1.0 / 6.0, 5.0 / 6.0, 1.0)
# c_{1,k} = (1/6)_k^2/((1/3)_k k!), c_{2,k} = (5/6)_k^2/((5/3)_k k!)
_FAR_C = (_hyp_coeffs(1.0 / 6.0, 1.0 / 6.0, 1.0 / 3.0), _hyp_coeffs(5.0 / 6.0, 5.0 / 6.0, 5.0 / 3.0))


def _log_coeffs() -> list:
    d = math.log(432.0)
    out = []
    for k, t in enumerate(_MACLAURIN):
        out.append(t * d)
        d += 2.0 / (k + 1) - 1.0 / (k + 1.0 / 6.0) - 1.0 / (k + 5.0 / 6.0)
    return out


def _taylor_coeffs() -> list:
    """a_k = F^{(k)}(x0) rho^k / k! at x0 = (1 + i)/2.

    F(x0) and F'(x0) come from the Maclaurin table (|x0| = 0.71). With x = x0 + y,
    x(1-x) = 1/2 - i y - y^2 and 1 - 2x = -i - 2y, so the ODE gives
    (n+1)(n+2) f_{n+2} = 2 (n^2 + n + 5/36) f_n + 2i (n+1)^2 f_{n+1}.
    """
    x0, rho = 0.5 + 0.5j, _TAYLOR_RHO
    a = [sum(t * x0 ** k for k, t in enumerate(_MACLAURIN)),
         rho * sum(k * t * x0 ** (k - 1) for k, t in enumerate(_MACLAURIN) if k)]
    for n in range(_TERMS - 1):
        a.append(2.0 * ((n * n + n + 5.0 / 36.0) * rho * rho * a[n] + 1j * rho * (n + 1) ** 2 * a[n + 1])
                 / ((n + 1) * (n + 2)))
    return a


# Each point takes the K >= 1 terms that bring its region's tail bound to _KAPPA/10
# at its own |v| = r, read from a table of K(r) at r rounded up to a multiple of
# 1/_K_BINS (_TERMS + 1, every term, where no count meets it). The bound takes
# |P_j| at its largest given r: |A_j| (4r)^{s_j/2} in the (1-2x)^-2 region
# (|1/2 - x| = 1/(2 sqrt r) there), (1 + r)^{1/6} for Pfaff's (|1 - x| >= 1/(1 + r)),
# (pi + |log r|)/2pi for the log term, and 1 elsewhere. For every K >= 1 the whole
# bound increases with r, so K(r) does not decrease and the rounded-up r is safe.
_K_BINS = 256


def _region(rows: list, pref_bound, majorant=None) -> tuple:
    """The rows a_{j,k} reversed for Horner, and the table K(r); |a_{j,k}| is at
    most majorant, or at most a_{j,K} for k >= K where none is given."""
    counts = [1]
    K = 1
    for i in range(1, _K_BINS):
        r = i / _K_BINS
        pmax = pref_bound(r)
        while K <= _TERMS and sum(
                p * (row[K] if majorant is None else majorant) for p, row in zip(pmax, rows)
        ) * r ** K / (1.0 - r) > _KAPPA / 10.0:
            K += 1
        counts.append(K)
    counts.append(_TERMS + 1)
    return [[complex(a) for a in reversed(row)] for row in rows], counts  # complex + complex is the fast add


_TAYLOR = _taylor_coeffs()
_TAYLOR_X0 = (0.5 + 0.5j, 0.5 - 0.5j)
# in the order of the ratios in eval_Bhat, the Taylor series below the axis last
_REGIONS = (
    _region([_MACLAURIN], lambda r: (1.0,)),
    _region([_hyp_coeffs(s / 2.0, s / 2.0 + 0.5, s + 0.5) for s in _FAR_S],
            lambda r: [abs(a) * (4.0 * r) ** (s / 2.0) for a, s in zip(_FAR_A, _FAR_S)]),
    _region([_hyp_coeffs(1.0 / 6.0, 1.0 / 6.0, 1.0)], lambda r: ((1.0 + r) ** (1.0 / 6.0),)),
    _region([_log_coeffs(), _MACLAURIN], lambda r: (1.0 / TWO_PI, (math.pi - math.log(r)) / TWO_PI)),
    _region([_TAYLOR], lambda r: (1.0,), _TAYLOR_M),
    _region([[a.conjugate() for a in _TAYLOR]], lambda r: (1.0,), _TAYLOR_M),
)


def eval_Bhat(zeta, branch: str = "B"):
    """The Borel transform of z^{-1} psi (branch "B") or its mirror ("B_plus").

    Each point is summed by the series of the region with the smallest ratio
    |v| (see the table above) until that series' tail bound at the point's own
    |v| is at most _KAPPA/10, so every value is within _KAPPA of Bhat. A number
    gives a complex, a sequence a list. Raises BranchCutError on the cut,
    DomainError where |1/2 - x| (x = +-zeta/2) is not below 1e150, and nothing else.
    """
    if branch not in ("B", "B_plus"):
        raise ValueError("branch must be 'B' or 'B_plus'")
    half = 0.5 if branch == "B" else -0.5
    scalar = isinstance(zeta, Number)
    out = []
    for point in (zeta,) if scalar else zeta:
        x = half * complex(point)
        if abs(x.imag) < 5e-14 and x.real >= 1.0 - 5e-14:
            raise BranchCutError("branch cut")
        w = 0.5 - x
        aw = abs(w)
        if not aw < 1e150:  # w * w overflows past it; nan and inf inputs land here
            raise DomainError("|1/2 - x| is not below 1e150: too large, or nan, for the kernel series")
        if aw >= 1.0:  # |v| = 1/(4|w|^2) <= 1/4, and every other |v| is at least 1/3
            k, r = 1, 0.25 / (aw * aw)
        else:  # |v| of each region; |1 - 2x| = 0 only at x = 1/2, inside the Maclaurin disc
            ax, a1 = abs(x), abs(1.0 - x)
            ratios = (ax, 0.25 / (aw * aw) if aw else math.inf, ax / a1, a1,
                      math.hypot(x.real - 0.5, abs(x.imag) - 0.5) / _TAYLOR_RHO)
            r = min(ratios)
            k = ratios.index(r)
        if k == 0:
            v, prefs = x, (1.0,)
        elif k == 1:  # (1 - 2x)^-2, with (1/2 - x)^{-5/6} = 1/((1/2 - x) (1/2 - x)^{-1/6})
            v = 0.25 / (w * w)
            p = w ** (-1.0 / 6.0)
            prefs = (_FAR_A[0] * p, _FAR_A[1] / (w * p))
        elif k == 2:
            v, prefs = x / (x - 1.0), ((1.0 - x) ** (-1.0 / 6.0),)
        elif k == 3:
            v, prefs = 1.0 - x, (1.0 / TWO_PI, -cmath.log(1.0 - x) / TWO_PI)
        else:
            k += x.imag < 0.0
            v, prefs = (x - _TAYLOR_X0[k - 4]) / _TAYLOR_RHO, (1.0,)
        rows, counts = _REGIONS[k]
        K = counts[int(r * _K_BINS) + 1]
        total = 0j
        for p, row in zip(prefs, rows):
            acc = row[-K]  # a_{K-1}, then Horner down to a_0
            for a in row[_TERMS + 2 - K:]:
                acc = acc * v + a
            total += p * acc
        out.append(total)
    return out[0] if scalar else out


# -- quadrature rules ------------------------------------------------------------


# The nested Gauss-Legendre 24 / Kronrod 49 pair on [-1, 1] by Laurie's algorithm
# (Math. Comp. 66 (1997) 1133) and Golub-Welsch, which tests/test_borel.py runs to
# regenerate it. Each row holds |x| of a node x <= 0, ascending in x, its Kronrod
# weight and its Gauss weight (0 off the odd-indexed Gauss nodes); x > 0 mirrors.
_GK_HALF = (
    (0.999201056021875, 0.002152308550946161, 0.0),
    (0.9951872199970214, 0.006025671015719986, 0.01234122979998869),
    (0.987040496015809, 0.01025978640928064, 0.0),
    (0.9747285559713095, 0.014327444630883826, 0.02853138862893356),
    (0.9584416844052095, 0.018231178550387347, 0.0),
    (0.9382745520027327, 0.022104084900061792, 0.04427743881741941),
    (0.9142406907949114, 0.02595119466137398, 0.0),
    (0.8864155270044012, 0.02967130609065919, 0.05929858491543636),
    (0.8549538039040514, 0.033227378319829234, 0.0),
    (0.8200019859739027, 0.036658100242212846, 0.07334648141108016),
    (0.7816772264764644, 0.039967623893622684, 0.0),
    (0.7401241915785544, 0.04310592819369527, 0.0861901615319532),
    (0.6955320723967788, 0.046045891776563666, 0.0),
    (0.6480936519369757, 0.048801386753259256, 0.09761865210411393),
    (0.5979905139060785, 0.05137195138345797, 0.0),
    (0.5454214713888395, 0.05372794550175172, 0.10744427011596556),
    (0.4906123654634465, 0.05585171510306359, 0.0),
    (0.43379350762604507, 0.05774867537569013, 0.11550566805372552),
    (0.3751911547979508, 0.05941654324595254, 0.0),
    (0.3150426796961635, 0.060838034873127333, 0.1216704729278033),
    (0.2536004303696779, 0.062004001419780574, 0.0),
    (0.19111886747361634, 0.06291711226969848, 0.12583745634682825),
    (0.12785124028621686, 0.06357487871297227, 0.0),
    (0.06405689286260563, 0.06396962624137585, 0.12793819534675202),
    (0.0, 0.06410046376926676, 0.0),
)
_GK_X = tuple(-t for t, _, _ in _GK_HALF) + tuple(t for t, _, _ in reversed(_GK_HALF[:-1]))
_GK_WK = tuple(w for _, w, _ in _GK_HALF) + tuple(w for _, w, _ in reversed(_GK_HALF[:-1]))
_GK_WG = tuple(g for _, _, g in _GK_HALF[1::2]) + tuple(g for _, _, g in reversed(_GK_HALF[1::2]))  # odd nodes


# -- closed-form far ray ------------------------------------------------------------
#
# Past |x| = R/2 > 1 the kernel is its DLMF 15.8.2 series in 1/x (A_j, c_{j,k} above).
# On the ray zeta = t e^{i theta}, t >= R, every term is a power of t/R, so
#
#     int_R^oo (-zeta)^m Bhat e^{-z zeta} dzeta
#         = (-R e^{i theta})^m R e^{i theta} sum_j A_j (-x0)^{-s_j} sum_k c_{j,k} x0^{-k} E_{s_j+k-m}(X)
#
# with x0 = +-R e^{i theta}/2 and X = z R e^{i theta} (DLMF 8.19.1), for the
# moments m = 0 (Bhat) and m = 1 (-zeta Bhat).

_FAR_R = 4.0  # numeric segment [0, R]; 2/R is the ratio of the 1/x series
_FAR_X_FLOOR = 1.2  # R is raised so that |X| = R |z| stays above this
_CF_BUDGET = 500  # most continued-fraction steps per E_p value
_FAR_G = [abs(_FAR_A[0]) * c0 + abs(_FAR_A[1]) * c1 for c0, c1 in zip(*_FAR_C)]  # sum_j |A_j| c_{j,n}


def _expint_cf(p: float, X: complex) -> complex:
    """E_p(X) from the continued fraction DLMF 8.19.17 (even part, modified Lentz)."""
    b = X + p
    c = 1e300
    d = 1.0 / b
    h = d
    for i in range(1, _CF_BUDGET):
        an = -i * (p - 1.0 + i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 4e-16:
            return h * cmath.exp(-X)
    raise QuadratureError("quadrature failure: E_p continued fraction did not converge")


def _expint_run(s: float, X: complex, n: int) -> list:
    """E_{s+k}(X) for k = 0 .. n-1, Re X > 0, s > -1.

    One continued fraction at k0 ~ |X| - s; p E_{p+1} = e^{-X} - X E_p runs
    forward above k0 and backward below it, the direction in which each is
    stable (the recessive solution (-X)^p/Gamma(p) turns at p = |X|).
    """
    k0 = min(n - 1, max(0, round(abs(X) - s)))
    ex = cmath.exp(-X)
    e = [0j] * n
    e[k0] = _expint_cf(s + k0, X)
    for k in range(k0, n - 1):
        e[k + 1] = (ex - X * e[k]) / (s + k)
    for k in range(k0 - 1, -1, -1):
        e[k] = (ex - (s + k) * e[k + 1]) / X
    return e


def _far_laplace(branch: str, moment: int, z: complex, theta: float, R: float, tol: float) -> tuple:
    """int_R^oo of (-zeta)^moment Bhat(zeta) e^{-z zeta} dzeta on zeta = t e^{i theta}, Bhat
    on the branch, and a bound on its truncation error, at most tol when _TERMS suffice.

    The series stops at the first n where R e^{-Re X}/Re X sum_j |A_j| c_{j,n}
    (2/R)^n/(1 - 2/R) <= tol, times R (1 + 1/Re X) for the moment kernel:
    |E_p(X)| <= e^{-Re X}/Re X for p >= 0 and <= e^{-Re X} (1 + 1/Re X)/Re X
    for -1 < p < 0, |(-x0)^{-s}| <= 1, and the c-ratios are at most 1.
    """
    phase = cmath.exp(1j * theta)
    X = z * R * phase
    x0 = (R / 2.0 if branch == "B" else -R / 2.0) * phase
    q = 2.0 / R
    pref = R * math.exp(-X.real) / X.real / (1.0 - q)
    if moment:
        pref *= R * (1.0 + 1.0 / X.real)
    n = 0
    qn = 1.0
    while pref * qn * _FAR_G[n] > tol and n < _TERMS:
        n += 1
        qn *= q
    bound = pref * qn * _FAR_G[n]
    total = 0j
    if n:
        inv = 1.0 / x0
        for a, s, cs in zip(_FAR_A, _FAR_S, _FAR_C):
            acc = 0j  # sum_k c_k E_{s+k-m}(X) x0^{-k}, by Horner in 1/x0
            for ck, ek in zip(cs[n - 1::-1], reversed(_expint_run(s - moment, X, n))):
                acc = acc * inv + ck * ek
            total += a * (-x0) ** (-s) * acc
    if moment:
        total *= -R * phase
    return R * phase * total, bound


# -- Laplace integration ----------------------------------------------------------


@lru_cache(maxsize=256)
def _kernel_row(branch: str, theta: float, a: float, b: float) -> tuple:
    """The G24/K49 nodes of the panel [a, b] on the ray of direction theta and
    eval_Bhat on them, both tuples: they depend on no z."""
    phase = cmath.exp(1j * theta)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    zs = tuple(phase * (mid + half * x) for x in _GK_X)
    return zs, tuple(eval_Bhat(zs, branch))


def laplace_ray(branch: str, z: complex, theta, tol: float = DEFAULT_QUAD_TOL, moment: int = 0) -> SumValue:
    """Directional Laplace transform int_0^{e^{i theta} oo} (-zeta)^moment Bhat(zeta) e^{-z zeta}
    dzeta of the kernel on one branch, moment 0 or 1 (moment 1 gives d/dz of moment 0).

    Composite adaptive Gauss-Kronrod on [0, T], T = R = 4 or 1.2/|z| when that
    is larger, whatever the decay rate: each panel takes the kernel on the 49
    nodes of the nested G24/K49 pair and is accepted when the two values agree
    to the panel's share of tol; the K49 value enters the sum. The first panel
    ends at _LAYER/rate when that is below T, so that its nodes see e^{-z zeta}
    before it decays; a rate past _DECAY_MAX raises DomainError. The panel nodes
    and Bhat values depend only on (branch, theta, a, b) and come from the
    bounded cache _kernel_row. The ray past R is the closed-form series of
    _far_laplace, whose rigorous truncation bound is the "tail". theta = -0.0 is
    taken as +0.0: one cache key, one set of signed zeros. The error field is
    the sum of the accepted panels' |G24 - K49| plus the tail, and meta reports
    the two parts ("quad_err", "tail"), the end of the numeric segment ("T")
    and the decay rate ("rate"). The kernel's own error is not in it: eval_Bhat
    is within _KAPPA at every node, which _error_budget adds as _KAPPA/rate.
    """
    if moment not in (0, 1):
        raise ValueError("moment must be 0 or 1")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    theta = float(theta) + 0.0
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError("z must be finite")
    rate = (z * cmath.exp(1j * theta)).real
    if rate <= _DECAY_MIN:
        raise DomainError("outside half-plane: Re(z e^{i theta}) too small")
    if not rate < _DECAY_MAX:
        raise DomainError("decay rate Re(z e^{i theta}) too large to resolve in floats")
    T = max(_FAR_R, _FAR_X_FLOOR / abs(z))
    head = min(T, _LAYER / rate)
    phase = cmath.exp(1j * theta)
    exp, mz = cmath.exp, -z

    stack = [(0.0, T)] if head == T else [(head, T), (0.0, head)]
    total = 0.0 + 0.0j
    err = 0.0
    npanels = 0
    while stack:
        a, b = stack.pop()
        zs, kern = _kernel_row(branch, theta, a, b)
        if moment:
            vals = [-w * k * exp(mz * w) for w, k in zip(zs, kern)]
        else:
            vals = [k * exp(mz * w) for w, k in zip(zs, kern)]
        scale = (b - a) / 2.0 * phase
        kron = scale * sum(map(mul, _GK_WK, vals))
        d = abs(scale * sum(map(mul, _GK_WG, vals[1::2])) - kron)
        if d < tol * (b - a) / T or (b - a) < 1e-9 * head:
            total += kron
            err += d
            npanels += 1
        else:
            # an accepted panel keeps npanels + len(stack), a split raises it by one
            m = (a + b) / 2.0
            stack.append((a, m))
            stack.append((m, b))
            if len(stack) + npanels > _MAX_PANELS:
                raise QuadratureError("quadrature failure", value=total, err=err)
    # the truncation bound takes a negligible share of tol
    rest, tail = _far_laplace(branch, moment, z, theta, T, 1e-3 * tol)
    total += rest
    meta = {"theta": theta, "T": T, "panels": npanels, "rate": rate, "quad_err": err, "tail": tail}
    return SumValue(total, err + tail, meta)


# -- family sums ------------------------------------------------------------------


def _error_budget(z: complex, rays: Sequence[SumValue], weights: Sequence[float],
                  route: float = 0.0) -> dict:
    """The error of a function of z times Laplace integrals of eval_Bhat kernels, by source.

    Each ray's error enters with its weight, the modulus of the function's
    derivative with respect to that sum. quadrature and tail are the rays' own
    parts; each kernel value is within _KAPPA of Bhat, which moves a ray's
    integral by at most _KAPPA over its decay rate; route is a cross-check
    difference added as is.
    """
    f = [abs(z) * w for w in weights]
    return {
        "quadrature": sum(fr * r.meta["quad_err"] for fr, r in zip(f, rays)),
        "kernel": sum(fr * _KAPPA / r.meta["rate"] for fr, r in zip(f, rays)),
        "tail": sum(fr * r.meta["tail"] for fr, r in zip(f, rays)),
        "route": route,
    }


def sum_family(
    name: str,
    z: complex,
    interval="Ipi",
    tol: float = DEFAULT_QUAD_TOL,
    theta: Optional[float] = None,
) -> SumValue:
    """Lateral Borel sum of psi, phi, g = log(psi-sum), or f = log(phi-sum).

    The direction is chosen automatically inside the window (away from the
    kernel's singular rays) unless theta is supplied.
    """
    if name not in _BRANCH:
        raise ValueError("name must be one of psi, phi, g, f")
    z = complex(z)
    branch, cut = _BRANCH[name]
    theta = choose_theta(z, interval, (cut,)) if theta is None else _theta_inside(theta, interval)
    lap = laplace_ray(branch, z, theta, tol)
    val = z * lap.value
    scale = 1.0
    if name in ("g", "f"):
        if val.real <= 0.0 and abs(val.imag) < 1e-13:
            raise BranchCutError("branch cut: log of a negative real sum")
        scale = max(abs(val), 1e-30)
        val = cmath.log(val)
    parts = _error_budget(z, (lap,), (1.0 / scale,))
    return SumValue(val, sum(parts.values()), dict(lap.meta, family=name, err_parts=parts))


def G_pm(
    sign,
    z: complex,
    sigma1: complex = 0.0,
    sigma2: complex = 0.0,
    tol: float = DEFAULT_END_TOL,
    theta: Optional[float] = None,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> SumValue:
    """The sectorial solution G_± = sigma_1 + log S psi + log(1 + sigma_2 e^{-2z} S phi / S psi).

    sign selects the window: "+" sums over I_+ = (-pi, 0), "-" over I_- = (0, pi).
    Both Laplace sums use one common direction. The closed-form log route and
    the partial-sum route of the defining series are compared and their
    difference must stay below tol. The error is the sum of meta["err_parts"]:
    the quadrature, kernel and tail parts of both sums, weighted by |dG/dS psi|
    = 1/|S psi (1 + ratio)| and |dG/dS phi| = |sigma_2 e^{-2z}|/|S psi (1 + ratio)|,
    and the route difference.
    """
    if not (0.0 < tol < math.inf and 0.0 < quad_tol < math.inf):
        raise ValueError("tol and quad_tol must be finite and positive")
    interval = _sign_window(sign)
    z = complex(z)
    sigma1 = complex(sigma1)
    sigma2 = complex(sigma2)
    if sigma2 != 0 and z.real <= 0.5 * math.log(2.0 * abs(sigma2)):
        raise DomainError("outside solution domain: Re z <= (1/2) log|2 sigma_2|")
    theta = choose_theta(z, interval) if theta is None else _theta_inside(theta, interval)
    spsi = laplace_ray("B", z, theta, quad_tol)
    sphi = laplace_ray("B_plus", z, theta, quad_tol)
    psi_val = z * spsi.value
    phi_val = z * sphi.value
    if psi_val.real <= 0.0 and abs(psi_val.imag) < 1e-13:
        raise BranchCutError("branch cut: log of a negative real sum")
    ratio = sigma2 * cmath.exp(-2.0 * z) * phi_val / psi_val
    if abs(ratio) >= 0.95:
        raise DomainError("outside solution domain: exponential term not contractive")
    closed = sigma1 + cmath.log(psi_val) + cmath.log(1.0 + ratio)
    # independent route: partial sums of the defining series
    series_tail = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for n in range(1, 200):
        term = term * ratio
        contrib = (-1) ** (n - 1) * term / n
        series_tail += contrib
        if abs(contrib) < 1e-14:
            break
    series = sigma1 + cmath.log(psi_val) + series_tail
    route_diff = abs(closed - series)
    if route_diff > tol:
        raise QuadratureError(
            "quadrature failure: series and closed-form routes disagree",
            value=closed,
            err=route_diff,
        )
    # G = sigma_1 + log(S psi + sigma_2 e^{-2z} S phi): an error in S psi moves G
    # by it over |S psi (1 + ratio)|, an error in S phi by |sigma_2 e^{-2z}| times that
    w = 1.0 / max(abs(psi_val) * abs(1.0 + ratio), 1e-30)
    parts = _error_budget(z, (spsi, sphi), (w, abs(sigma2 * cmath.exp(-2.0 * z)) * w), route_diff)
    return SumValue(closed, sum(parts.values()), {"theta": theta, "sign": sign, "err_parts": parts})


# -- identity checks ---------------------------------------------------------------


def _residual(lhs: complex, rhs: complex, tol: float, err: float) -> dict:
    """The check record of the identity lhs = rhs, which holds when |lhs - rhs| <= tol."""
    res = abs(lhs - rhs)
    return {"residual": res, "ok": res <= tol, "lhs": lhs, "rhs": rhs, "err": err}


def first_identity_check(z: complex) -> dict:
    """Residual of S^{I+} psi = S^{I-} psi - i e^{-2z} S^{Ipi} phi; ok at 1e-6 (DEFAULT_END_TOL)."""
    z = complex(z)
    a = sum_family("psi", z, "Iplus")
    b = sum_family("psi", z, "Iminus")
    c = sum_family("phi", z, "Ipi")
    e = cmath.exp(-2.0 * z)
    return _residual(a.value, b.value - 1j * e * c.value, DEFAULT_END_TOL, a.err + b.err + abs(e) * c.err)


def connection_check(
    which: str,
    z: complex,
    sigma1: complex = 0.0,
    sigma2: complex = 0.0,
    tol: float = DEFAULT_END_TOL,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> dict:
    """Connection-formula residual; quad_tol is passed to every G_pm.

    right: G_+(z, s1, s2) - G_-(z, s1, s2 - i), for z near the positive axis.
    left:  G_+(e^{2pi i} z, s1, s2) - G_-(z, s1 + log(1 + i s2), s2/(1 + i s2)),
    for z near the negative axis; the e^{2pi i} edge is reached automatically
    because I_+ admits only the rays in (-pi, -pi/2) there.
    """
    z = complex(z)
    sigma1 = complex(sigma1)
    sigma2 = complex(sigma2)
    if which == "right":
        minus = (sigma1, sigma2 - 1j)
    elif which == "left":
        w = 1.0 + 1j * sigma2
        if abs(w) < 1e-9:
            raise DomainError("domain empty: 1 + i sigma_2 vanishes")
        minus = (sigma1 + cmath.log(w), sigma2 / w)
    else:
        raise ValueError("which must be 'right' or 'left'")
    # the route gate is never tighter than G_pm's default; a tol G_pm refuses stays refused
    gate = max(tol, DEFAULT_END_TOL) if tol > 0 else tol
    lhs = G_pm("+", z, sigma1, sigma2, gate, quad_tol=quad_tol)
    rhs = G_pm("-", z, *minus, gate, quad_tol=quad_tol)
    return _residual(lhs.value, rhs.value, tol, lhs.err + rhs.err)


def median_real_check(
    x: float,
    a: float,
    b: float = 0.0,
    ray: str = "arg0",
    theta: float = 0.0,
) -> tuple[complex, float]:
    """Median-summation reality: the designated G_- value must be real.

    arg0:  G_-(x, a, b - i/2) along the positive axis.
    argpi: G_-(x e^{-i pi}, a - i theta/2, -i(1 - e^{i theta})) along the
           negative axis; theta = 0 collapses to the sigma_2 = 0 slice.
    """
    if not 0 < x < math.inf:
        raise DomainError("x must be positive and finite")
    if ray == "arg0":
        val = G_pm("-", x, a, b - 0.5j, quad_tol=1e-11).value
    elif ray == "argpi":
        z = x * cmath.exp(-1j * math.pi)
        sigma2 = -1j * (1.0 - cmath.exp(1j * theta))
        val = G_pm("-", z, a - 1j * theta / 2.0, sigma2, quad_tol=1e-11).value
    else:
        raise ValueError("ray must be 'arg0' or 'argpi'")
    return val, abs(val.imag)


def check_derivation(z: complex) -> dict:
    """5-point d/dz of S g, step h = 0.005, against S(g') = S psi'/S psi; ok at 1e-5."""
    h = 0.005
    z = complex(z)
    theta = choose_theta(z, "Iminus")

    sg = {k: sum_family("g", z + k * h, "Iminus", theta=theta).value for k in (-2, -1, 1, 2)}
    fd = (-sg[2] + 8 * sg[1] - 8 * sg[-1] + sg[-2]) / (12 * h)
    lap = laplace_ray("B", z, theta).value
    spsi = z * lap
    spsi_prime = lap + z * laplace_ray("B", z, theta, moment=1).value
    exact = spsi_prime / spsi
    res = abs(fd - exact)
    return {"residual": res, "ok": res <= 1e-5, "theta": theta}


def gpm_ode_residual(sign, z: complex, sigma1: complex, sigma2: complex) -> float:
    """5-point finite-difference residual, step h = 1e-3, of G'' + (G')^2 + 2G' + 5/(36 z^2)."""
    h = 1e-3
    z = complex(z)
    theta = choose_theta(z, _sign_window(sign))
    vals = {}
    for k in (-2, -1, 0, 1, 2):
        vals[k] = G_pm(sign, z + k * h, sigma1, sigma2, theta=theta, quad_tol=1e-11).value
    d1 = (-vals[2] + 8 * vals[1] - 8 * vals[-1] + vals[-2]) / (12 * h)
    d2 = (-vals[2] + 16 * vals[1] - 30 * vals[0] + 16 * vals[-1] - vals[-2]) / (12 * h * h)
    return abs(d2 + d1 * d1 + 2 * d1 + 5.0 / (36.0 * z * z))


# -- diagnostics -------------------------------------------------------------------


def singularity_locate(coeffs: Sequence, method: str = "ratio"):
    """Nearest Borel-plane singularity of ghat(zeta) = sum b_n zeta^n / n!.

    Input is the exact list b_0, b_1, ... of series coefficients. The ratio
    route returns n b_n / b_{n+1} at the last of nine tail indices; the Pade
    route returns the smallest-modulus pole of a near-diagonal approximant.
    Entire input (no finite singularity) is flagged with complex infinity.
    """
    if len(coeffs) < 40:
        raise ValueError("need at least 40 coefficients")
    if method == "ratio":
        vals = []
        for n in range(len(coeffs) - 10, len(coeffs) - 1):
            bn, bn1 = coeffs[n], coeffs[n + 1]
            if bn1 == 0:
                raise ValueError("zero coefficient in ratio window")
            vals.append(complex(n * bn / bn1))
        # a finite singularity gives a drift of O(1/n^2) per step across the
        # tail window; an entire function's ratios keep growing without bound
        return complex(math.inf, 0.0) if _grows_without_bound(vals) else vals[-1]
    if method == "pade":
        from .series import PowerSeries  # the exact series layer loads only for this route

        # the window as integers over one denominator (a float raises TypeError);
        # the Borel data b_n/n! times den N! are the integers d_n = b_n N!/n!,
        # and no Pade quantity depends on that common scale. The [L/M] system
        # sum_j q_j d_{L+k-j} = -d_{L+k} is solved exactly: in floats it is
        # ill-conditioned beyond tiny M
        s = PowerSeries.from_coeffs(coeffs)
        if any(s.im):
            raise ValueError("Pade route needs real coefficients")
        d, fact = [], 1
        for n in range(s.order, -1, -1):
            d.append(s.re[n] * fact)
            fact *= n
        d.reverse()
        # entire input has no finite radius: the tail ratios |d_{n-1}/d_n|
        # keep growing instead of stabilizing, and any Pade pole is spurious
        tail = d[-11:]
        if all(tail) and _grows_without_bound([abs(a) / abs(b) for a, b in zip(tail, tail[1:])]):
            return complex(math.inf, 0.0)
        # a genuine pole is also stable under a change of denominator degree:
        # the [L+1/M-1] system is rows 2..M, columns 1..M-1 of the [L/M] one
        M = min(10, len(d) // 4)
        L = len(d) - 1 - M
        full, short = _solve_pair([[d[L + k - j] for j in range(1, M + 1)] for k in range(1, M + 1)],
                                  [-d[L + k] for k in range(1, M + 1)])
        first = _pade_smallest_pole(full)
        second = _pade_smallest_pole(short)
        if first is None or second is None or abs(first - second) > 0.25 * abs(first):
            return complex(math.inf, 0.0)
        return first
    raise ValueError("method must be 'ratio' or 'pade'")


def _grows_without_bound(vals: list) -> bool:
    """A tail window whose moduli increase strictly and drift by more than 5%."""
    mods = [abs(v) for v in vals]
    return (abs(vals[-1] - vals[0]) / max(mods[-1], 1e-30) > 0.05
            and all(b > a for a, b in zip(mods, mods[1:])))


def _pade_smallest_pole(solved):
    """The smallest pole of the Pade denominator 1 + q_1 zeta + ... + q_M zeta^M,
    from the solved pair (D q, D), or None."""
    if solved is None:
        return None
    C = [solved[1]] + solved[0]  # the denominator times D, in integers
    while not C[-1]:
        C.pop()
    roots = [r for r in _poly_roots([c / C[0] for c in C]) if cmath.isfinite(r)]
    if not roots:
        return None
    smallest = min(roots, key=abs)
    # the roots cluster along the cut, where rounding the q_j alone moves a float
    # root by up to 1e-3: a real root of the exact denominator replaces it when it
    # lies nearer to it than half the way to any other root but its conjugate
    x = _exact_real_root(C, smallest.real)
    others = [abs(r - smallest) for r in roots if r != smallest and r != smallest.conjugate()]
    if x is not None and abs(x - smallest) <= abs(smallest.imag) + 0.5 * min(others, default=math.inf):
        smallest = complex(x, 0.0)
    return None if abs(smallest) > 1e6 else smallest


def _poly_roots(c: list) -> list:
    """The roots of c_0 + ... + c_n x^n (c_0, c_n nonzero) by Aberth-Ehrlich
    iteration (Aberth, Math. Comp. 27 (1973) 339) from n points on the circle of
    radius |c_0/c_n|^{1/n}. A point stops after a step below 1e-8 of its modulus
    (the error is then about the cube of that), or once |p| there is within the
    rounding error of Horner's sum, n eps sum |c_k| |x|^k, past which a step
    follows rounding, not the root."""
    n = len(c) - 1
    z = [abs(c[0] / c[n]) ** (1.0 / n) * cmath.exp(1j * (TWO_PI * k / n + 0.4)) for k in range(n)]
    live = list(range(n))
    for _ in range(_ROOT_SWEEPS):
        for i in live[:]:
            zi, r = z[i], abs(z[i])
            p, dp, scale = c[n] + 0j, 0j, abs(c[n])
            for ck in c[n - 1::-1]:
                dp = dp * zi + p
                p = p * zi + ck
                scale = scale * r + abs(ck)
            den = dp - p * sum(1.0 / (zi - zj) for zj in z if zj is not zi)
            if abs(p) <= n * 2.0 ** -53 * scale or not den:
                live.remove(i)
                continue
            z[i] = zi - p / den
            if abs(p / den) <= 1e-8 * r:
                live.remove(i)
        if not live:
            break
    return z


def _exact_real_root(C: list, x: float):
    """Newton from x for sum_j C_j t^j, integer C_j, with every step exact: for
    x = a/b, b a power of 2, S = b^M sum C_j x^j and T = b^(M-1) sum j C_j x^(j-1)
    are integer Horner sums, and the step is S/(b T). The root to within an ulp,
    or None where the steps do not settle or leave the float range."""
    for _ in range(_ROOT_SWEEPS):
        a, b = x.as_integer_ratio()
        S, T, bk = C[-1], 0, 1
        for cj in C[-2::-1]:
            bk *= b
            T = T * a + S
            S = S * a + cj * bk
        if not T:
            return None
        try:
            step = S / (b * T)
        except OverflowError:
            return None
        x -= step
        if not math.isfinite(x):
            return None
        if abs(step) <= 2.0 ** -52 * abs(x):
            return x
    return None


def _solve_pair(A: list, rhs: list):
    """The solutions (D q, D) of the integer system A q = rhs and of its block
    of rows 2..n, columns 1..n-1, by one elimination: rows 2..n first, pivoting
    among themselves, then row 1. A singular block gives (None, None), a
    singular A (None, (D' q', D')). Each augmented row is divided by its
    content first, which keeps the minors of the elimination small."""
    M = []
    for row, b in zip(A[1:] + A[:1], rhs[1:] + rhs[:1]):
        content = math.gcd(*row, b) or 1
        M.append([v // content for v in row + [b]])
    short = _bareiss(M, len(rhs) - 1)
    return (None, None) if short is None else (_bareiss(M, len(rhs), len(rhs) - 1, short[1]), short)


def _bareiss(M: list, n: int, k0: int = 0, prev: int = 1):
    """(D q, D) in integers for the first n integer rows of M on columns
    0..n-1, the right-hand side in the last column; None on a singular system.

    Fraction-free (Bareiss) elimination of columns k0..n-1 (k0 > 0 resumes one
    whose last pivot was prev), pivots from rows k..n-1, every later row of M
    updated too, keeps each entry an integer minor; each division by the
    previous pivot is exact (Bareiss, Math. Comp. 22 (1968) 565). With D the
    last pivot, +-det, back substitution yields the integers D q_i exactly.
    """
    for k in range(k0, n):
        piv = next((r for r in range(k, n) if M[r][k] != 0), None)
        if piv is None:
            return None
        M[k], M[piv] = M[piv], M[k]
        pk = M[k]
        p = pk[k]
        for r in range(k + 1, len(M)):
            row = M[r]
            f = row[k]
            M[r] = [0] * (k + 1) + [(p * row[j] - f * pk[j]) // prev for j in range(k + 1, len(row))]
        prev = p
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = M[i]
        acc = prev * row[-1] - sum(row[j] * y[j] for j in range(i + 1, n))
        y[i] = acc // row[i]
    return y, prev


def airy_oracle(w: complex) -> complex:
    """Ai(w) by its Maclaurin series; independent test oracle for |w| <= 10 where
    c(w) = (2/3)(|w|^{3/2} + Re w^{3/2}) <= 21.5: the terms peak near
    e^{(2/3)|w|^{3/2}} while |Ai(w)| is about e^{-(2/3) Re w^{3/2}}, so the sums
    lose about e^{c(w)} in relative accuracy (Ai(10) comes out negative). Against
    30-digit mpmath on polar grids of |w| <= 10 the admitted points stay within
    2^-50 e^{c(w)} + 1e-14, worst 1.0e-6 at w = 6.375 (c = 21.46).
    """
    w = complex(w)
    if abs(w) > 10.0 or 2.0 / 3.0 * (abs(w) ** 1.5 + (w ** 1.5).real) > 21.5:
        raise DomainError("oracle validated only for |w| <= 10 and c(w) <= 21.5")
    c1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    c2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
    # two entire solutions of y'' = w y with a_{k+3} = a_k / ((k+2)(k+3)), from 1 and from w
    w3 = w * w * w
    totals = []
    for total, k in ((1.0 + 0.0j, 0), (w, 1)):
        term = total
        while abs(term) > 1e-20 and k < 300:
            term = term * w3 / ((k + 2.0) * (k + 3.0))
            total += term
            k += 3
        totals.append(total)
    return c1 * totals[0] - c2 * totals[1]


def gevrey_check(z: complex, interval="Iminus", n_max: int = 40) -> dict:
    """Truncation-error table |S g(z) - sum_{n<N} b_n z^{-n}| for N = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    z = complex(z)
    if abs(z) < 5.0:
        raise DomainError("need |z| >= 5 for a clean profile")
    from . import families  # the exact series layer loads only for this check

    g = families.gen_g_f(max(n_max + 2, 16))[0].series
    bs = [complex(c) for c in g.coeffs]
    ref = sum_family("g", z, interval).value
    errors = []
    partial = bs[0]
    for n_next in range(1, n_max + 1):
        # error of the sum over n < n_next
        errors.append(abs(ref - partial))
        partial += bs[n_next] * z ** (-n_next)
    idx = min(range(len(errors)), key=lambda i: errors[i])
    unimodal = all(
        errors[i + 1] < errors[i] * 1.05 for i in range(idx)
    ) and all(errors[i + 1] > errors[i] * 0.95 for i in range(idx, len(errors) - 1))
    return {
        "N": list(range(1, n_max + 1)),
        "errors": errors,
        "argmin_N": idx + 1,
        "unimodal": unimodal,
        "expected_min_near": 2.0 * abs(z),
    }
