"""Borel-Laplace summation, sectorial solutions, and their identity checks.

The Borel image of z^{-1} psi is the hypergeometric germ

    Bhat(zeta) = sum c_n zeta^n / n!  =  (1/2pi) int_0^1 t^{-5/6} (1-t)^{-1/6}
                                         (1 - (1-t) zeta/2)^{-1/6} dt,

holomorphic off the cut [2, oo); the mirror kernel Bhat_+(zeta) = Bhat(-zeta)
carries the cut (-oo, -2]. Directional Laplace integration of these kernels
produces the lateral sums, and every higher-level object here (the sectorial
family G, connection residuals, median-real values) is a finite composition of
those two quadratures with exact series data from the companion modules.

A kernel ray is sampled only up to |zeta| = R (4, or more for small |z|).
Past R the kernels equal their DLMF 15.8.2 connection series in 2/zeta, whose
Laplace integral is a series of generalized exponential integrals E_p (DLMF
8.19), summed in closed form under a rigorous truncation bound (laplace_ray,
_far_laplace). Kernels without such a series are sampled along the whole ray.

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
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from . import families
from .errors import BranchCutError, DomainError, QuadratureError, SumValue  # re-exported

TWO_PI = 2.0 * math.pi

INTERVALS: dict[str, tuple[float, float]] = {
    "I0": (-TWO_PI, 0.0),
    "Ipi": (-math.pi, math.pi),
    "Iplus": (-math.pi, 0.0),
    "Iminus": (0.0, math.pi),
}

# singular rays of the Borel kernels, as base angles mod 2pi
CUTS = {"psi": (0.0,), "g": (0.0,), "phi": (math.pi,), "f": (math.pi,)}

DEFAULT_QUAD_TOL = 1e-10
DEFAULT_END_TOL = 1e-6
DELTA_RAY = 0.05
THETA_MARGIN = 0.45  # preferred standoff from cuts; accuracy, not validity
_DECAY_MIN = 1e-3  # least decay rate Re(z e^{i theta}) a Laplace ray accepts
_GROWTH_MARGIN = 8.0  # a generic ray ends at T = (log(1/tol) + _GROWTH_MARGIN)/rate
_MAX_PANELS = 4000

_GAMMA56 = math.gamma(5.0 / 6.0)


def normalize_interval(interval) -> tuple[float, float]:
    """The window of a tag I0|Ipi|Iplus|Iminus, or of an (a, b) pair with a < b."""
    if isinstance(interval, str):
        if interval not in INTERVALS:
            raise ValueError(f"unknown interval tag {interval!r}")
        return INTERVALS[interval]
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError("empty interval")
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
    if z == 0:
        raise DomainError("domain empty: z = 0")
    # cut angles inside the window
    points = [a, b]
    for base in cuts:
        k0 = math.floor((a - base) / TWO_PI)
        for k in range(k0 - 1, k0 + 4):
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
        for k in range(-2, 3):
            cand = min(max(peak + TWO_PI * k, lo + eff), hi - eff)
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


# -- kernels -------------------------------------------------------------------


def eval_Ahat(zeta: complex, branch: str = "A", arg_zeta: Optional[float] = None) -> complex:
    """The algebraic Borel germ zeta^{-1/6}(1 -+ zeta/2)^{-1/6}/Gamma(5/6).

    branch "A" carries the cut [2, oo), "A_plus" the mirrored (-oo, -2].
    arg_zeta selects the sheet of the zeta^{-1/6} prefactor explicitly
    (principal value by default); the second factor is always principal.
    """
    zeta = complex(zeta)
    if zeta == 0:
        raise DomainError("zeta must be nonzero")
    if branch not in ("A", "A_plus"):
        raise ValueError("branch must be 'A' or 'A_plus'")
    if arg_zeta is None:
        arg_zeta = cmath.phase(zeta)
    pref = abs(zeta) ** (-1.0 / 6.0) * cmath.exp(-1j * arg_zeta / 6.0)
    w = 1.0 - zeta / 2.0 if branch == "A" else 1.0 + zeta / 2.0
    if w.real <= 0.0 and abs(w.imag) < 1e-13:
        raise BranchCutError("branch cut")
    return pref * w ** (-1.0 / 6.0) / _GAMMA56


# -- quadrature rules ------------------------------------------------------------
#
# All rules come from the eigen-decomposition of a Jacobi matrix (Golub-Welsch):
# nodes are its eigenvalues, weights mu_0 times the squared first components of
# its eigenvectors. These weights stay accurate to rounding at every size used
# here; weights recomputed from the nodes, as scipy's roots_jacobi does, are
# off by up to 8e-11 at 384-768 nodes, above the kernel tolerance floor.


def _golub_welsch(diag: np.ndarray, off: np.ndarray, mu0: float) -> tuple:
    # dense eigh: at 768 nodes about 0.1 s and 15 MB, once per process
    jac = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    x, vec = np.linalg.eigh(jac)
    return x, mu0 * vec[0] ** 2


@lru_cache(maxsize=None)
def _gj_rule(n: int) -> tuple:
    """n-point Gauss rule for the weight (1-x)^{-1/6}(1+x)^{-5/6} on [-1, 1].

    With t = (x+1)/2 the weight absorbs the endpoint factors t^{-5/6}(1-t)^{-1/6}
    of the Bhat integral exactly (the 2-powers cancel), and its mass is 2 pi.
    Returned as (1 - t, weight / 2 pi), the two arrays the kernel sum uses.
    """
    # recurrence of the monic Jacobi polynomials at alpha = -1/6, beta = -5/6
    # (alpha + beta = -1 simplifies the textbook formulas; b_1 is their limit)
    alpha, beta = -1.0 / 6.0, -5.0 / 6.0
    k = np.arange(1, n, dtype=float)
    diag = np.empty(n)
    diag[0] = beta - alpha
    diag[1:] = (beta * beta - alpha * alpha) / ((2.0 * k - 1.0) * (2.0 * k + 1.0))
    off = np.sqrt((k + alpha) * (k + beta)) / (2.0 * k - 1.0)
    off[0] *= math.sqrt(2.0)
    x, w = _golub_welsch(diag, off, TWO_PI)
    return (1.0 - x) / 2.0, w / TWO_PI


@lru_cache(maxsize=None)
def _gk_rule(n: int) -> tuple:
    """Gauss-Kronrod pair on [-1, 1]: the 2n+1 Kronrod nodes and weights, and the
    n-point Gauss weights placed on the Gauss nodes among them (0 elsewhere).

    The Kronrod-Jacobi matrix comes from Laurie's algorithm (Math. Comp. 66
    (1997) 1133, as in Gautschi's r_kronrod), started from the Legendre
    recurrence a_k = 0, b_0 = 2, b_k = k^2/(4k^2 - 1). The Gauss nodes are the
    odd-indexed Kronrod nodes.
    """
    k = np.arange(2 * n + 1, dtype=float)
    a = np.zeros(2 * n + 1)
    b = np.zeros(2 * n + 1)
    m = (3 * n + 1) // 2 + 1  # b_0 .. b_{ceil(3n/2)} are the Legendre ones
    b[0] = 2.0
    b[1:m] = k[1:m] ** 2 / (4.0 * k[1:m] ** 2 - 1.0)
    s = np.zeros(n // 2 + 3)  # s[j + 1] holds Laurie's s_j, so s[0] is s_{-1} = 0
    t = np.zeros(n // 2 + 3)
    t[1] = b[n + 1]
    for mm in range(n - 1):
        kk = np.arange((mm + 1) // 2, -1, -1)
        ll = mm - kk
        s[kk + 1] = np.cumsum(
            (a[kk + n + 1] - a[ll]) * t[kk + 1] + b[kk + n + 1] * s[kk] - b[ll] * s[kk + 1]
        )
        s, t = t, s
    s[1 : n // 2 + 3] = s[0 : n // 2 + 2].copy()
    for mm in range(n - 1, 2 * n - 2):
        kk = np.arange(mm + 1 - n, (mm - 1) // 2 + 1)
        ll = mm - kk
        j = n - 1 - ll
        s[j + 1] = np.cumsum(
            -(a[kk + n + 1] - a[ll]) * t[j + 1] - b[kk + n + 1] * s[j + 1] + b[ll] * s[j + 2]
        )
        j = j[-1]
        kk = (mm + 1) // 2
        if mm % 2 == 0:
            a[kk + n + 1] = a[kk] + (s[j + 1] - b[kk + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[kk + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    x, wk = _golub_welsch(a, np.sqrt(b[1:]), b[0])
    gauss = np.polynomial.legendre.leggauss(n)[1]
    wg = np.zeros(2 * n + 1)
    wg[1::2] = gauss
    return x, wk, wg


@lru_cache(maxsize=None)
def _c_floats(n: int) -> tuple:
    return tuple(float(c) for c in families.gen_c_coeffs(n))


@lru_cache(maxsize=None)
def _bhat_maclaurin_coeffs(n: int) -> np.ndarray:
    cs = _c_floats(n)
    fact = 1.0
    out = np.empty(len(cs))
    for k, c in enumerate(cs):
        if k > 0:
            fact *= k
        out[k] = c / fact
    return out


# Jacobi rule sizes eval_Bhat may pick; a point whose error bound needs more than
# the last one raises QuadratureError
_BHAT_RULES = np.array([16, 28, 44, 64, 96, 144, 256, 768])
# the smallest kernel tolerance; lower requests are raised to it
_BHAT_TOL_FLOOR = 5e-11
# ellipses tried for the bound: rho' = rho^s for these s
_ELLIPSE_EXPONENTS = np.array([0.5, 0.8, 0.9, 0.95, 0.98, 0.99, 0.995, 0.998, 0.999])
_RHO_CAP = 1e4  # a smaller ellipse than the true one keeps the bound valid
_BHAT_BLOCK = 8192  # point-node products per block of the kernel sum
_MACLAURIN_RADIUS = 1.5
_MACLAURIN_TERMS = 120


def _bhat_log_bound(w: np.ndarray) -> tuple:
    """Error bound of the n-point rule for Bhat at the points w = +-zeta, as
    the pair (log_c, log_r) of shape (points, ellipses): for every ellipse the
    bound is exp(log_c - 2 n log_r), and any ellipse may be used.

    The integrand (w/4 (x - x*))^{-1/6}, x* = 1 - 4/w, is analytic inside every
    Bernstein ellipse E_r (foci +-1) with r < rho = |x* + sqrt(x*^2 - 1)|: its
    cut runs from x* away from x = 1, and E_r is convex and contains 1. On E_r
    the distance to x* is at least a(rho) - a(r), a(r) = (r + 1/r)/2 (the
    Joukowski map stretches radial paths by at least (1 - 1/r^2)/2), so
    |f| <= M(r) = (|w|/4 (a(rho) - a(r)))^{-1/6}. The degree-N Chebyshev
    truncation error is at most 2 M r^{-N}/(r - 1) (Trefethen, ATAP, Thm 8.2);
    an n-point Gauss rule is exact to degree N = 2n - 1 and its weights are
    positive with mass 2 pi, so the rule's error in Bhat = integral / 2 pi is at
    most twice that: 4 M(r) r^{1-2n}/(r - 1).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xs = 1.0 - 4.0 / w
        u = np.abs(xs + np.sqrt(xs - 1.0) * np.sqrt(xs + 1.0))
        rho = np.minimum(np.maximum(u, 1.0 / u), _RHO_CAP)
        log_r = np.log(rho)[:, None] * _ELLIPSE_EXPONENTS
        r = np.exp(log_r)
        gap = np.fmax((rho + 1.0 / rho)[:, None] / 2.0 - (r + 1.0 / r) / 2.0, 0.0)
        log_m = -(np.log(np.abs(w) / 4.0)[:, None] + np.log(gap)) / 6.0
        log_c = math.log(4.0) + log_m + log_r - np.log(r - 1.0)
    return log_c, log_r


def _bhat_nodes_needed(w: np.ndarray, tol: float) -> np.ndarray:
    """Per point, the least node count whose bound is at most tol (inf if none)."""
    log_c, log_r = _bhat_log_bound(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        n = (log_c - math.log(tol)) / (2.0 * log_r)
    need = np.nan_to_num(n, nan=np.inf, posinf=np.inf).min(axis=1)
    need[w == 0] = 0.0  # constant integrand
    return need


def _bhat_quad(w: np.ndarray, n: int) -> np.ndarray:
    """Bhat at the points w = +-zeta with the n-point rule, in blocks of points."""
    omt, wts = _gj_rule(n)
    out = np.empty(len(w), dtype=complex)
    step = max(1, _BHAT_BLOCK // n)
    for i in range(0, len(w), step):
        base = 1.0 - np.multiply.outer(w[i : i + step], omt) / 2.0
        # principal base^{-1/6} in polar form, several times faster than **
        mod = np.abs(base) ** (-1.0 / 6.0)
        arg = np.angle(base) / -6.0
        out[i : i + step] = (mod * np.cos(arg)) @ wts + 1j * ((mod * np.sin(arg)) @ wts)
    return out


def eval_Bhat(zeta, branch: str = "B", tol: float = DEFAULT_QUAD_TOL):
    """The Borel transform of z^{-1} psi (branch "B") or its mirror ("B_plus").

    Gauss-Jacobi quadrature of the convolution integral. Each point gets the
    smallest rule in _BHAT_RULES whose a-priori Bernstein-ellipse bound (see
    _bhat_log_bound) is at most half of max(tol, _BHAT_TOL_FLOOR), and each
    rule is evaluated once on the points that chose it; a point that would
    need more than the largest rule raises QuadratureError. Values with
    |zeta| <= 1.5 are additionally cross-checked against the exact-coefficient
    Maclaurin series. Accepts scalars or arrays.
    """
    if branch not in ("B", "B_plus"):
        raise ValueError("branch must be 'B' or 'B_plus'")
    tol = max(tol, _BHAT_TOL_FLOOR)
    sign = 1.0 if branch == "B" else -1.0
    scalar = np.isscalar(zeta) or isinstance(zeta, complex)
    zarr = np.atleast_1d(np.asarray(zeta, dtype=complex))
    on_cut = (np.abs(zarr.imag) < 1e-13) & (sign * zarr.real >= 2.0 - 1e-13)
    if np.any(on_cut):
        raise BranchCutError("branch cut")
    w = sign * zarr
    # the bound takes half the tolerance, rounding (under 1e-13) the other half
    rule = np.searchsorted(_BHAT_RULES, _bhat_nodes_needed(w, tol / 2.0))
    top = len(_BHAT_RULES) - 1
    clamped = np.minimum(rule, top)
    cur = np.empty(len(w), dtype=complex)
    for k in set(clamped.tolist()):
        sel = clamped == k
        cur[sel] = _bhat_quad(w[sel], int(_BHAT_RULES[k]))
    if rule.max() > top:
        log_c, log_r = _bhat_log_bound(w[rule > top])
        bound = float(np.exp(np.max(np.min(log_c - 2.0 * _BHAT_RULES[top] * log_r, axis=1))))
        raise QuadratureError(
            f"quadrature failure: a point needs more than {_BHAT_RULES[top]} nodes",
            value=cur[0] if scalar else cur,
            err=bound,
        )
    near = np.abs(zarr) <= _MACLAURIN_RADIUS
    if np.any(near):
        coeffs = _bhat_maclaurin_coeffs(_MACLAURIN_TERMS)
        series = np.vander(w[near], len(coeffs), increasing=True) @ coeffs
        mismatch = float(np.max(np.abs(series - cur[near])))
        if mismatch > max(1e-8, 100.0 * tol):
            raise QuadratureError(
                "quadrature failure: Maclaurin cross-check mismatch",
                value=cur[0] if scalar else cur,
                err=mismatch,
            )
    return complex(cur[0]) if scalar else cur


class _BhatKernel:
    """eval_Bhat on one branch at one tolerance; laplace_ray recognises it and
    takes the far part of its ray in closed form (see _far_laplace)."""

    __slots__ = ("branch", "tol")

    def __init__(self, branch: str, tol: float):
        self.branch = branch
        self.tol = tol

    def __call__(self, zs):
        return eval_Bhat(zs, self.branch, self.tol)


# -- closed-form far ray ------------------------------------------------------------
#
# With x = +-zeta/2, Bhat = 2F1(1/6, 5/6; 1; x), and b - a = 2/3 is not an
# integer, so DLMF 15.8.2 gives, for |x| > 1 off the cut,
#
#     Bhat = sum_j A_j (-x)^{-s_j} sum_k c_{j,k} x^{-k},   s = (1/6, 5/6),
#
# A_1 = Gamma(2/3)/Gamma(5/6)^2, A_2 = Gamma(-2/3)/Gamma(1/6)^2,
# c_{1,k} = (1/6)_k^2/((1/3)_k k!), c_{2,k} = (5/6)_k^2/((5/3)_k k!). On the ray
# zeta = t e^{i theta}, t >= R, every term is a power of t/R, so
#
#     int_R^oo Bhat e^{-z zeta} dzeta
#         = R e^{i theta} sum_j A_j (-x0)^{-s_j} sum_k c_{j,k} x0^{-k} E_{s_j+k}(X)
#
# with x0 = +-R e^{i theta}/2 and X = z R e^{i theta} (DLMF 8.19.1).

_FAR_R = 4.0  # numeric segment [0, R]; 2/R is the ratio of the 1/x series
_FAR_X_FLOOR = 1.2  # R is raised so that |X| = R |z| stays above this
_FAR_S = (1.0 / 6.0, 5.0 / 6.0)
_FAR_A = (
    math.gamma(2.0 / 3.0) / math.gamma(5.0 / 6.0) ** 2,
    math.gamma(-2.0 / 3.0) / math.gamma(1.0 / 6.0) ** 2,
)
_FAR_TERMS = 160  # most terms of the 1/x series one ray may take
_CF_BUDGET = 500  # most continued-fraction steps per E_p value


def _connection_coeffs(a: float, c: float) -> list:
    # (a)_k^2 / ((c)_k k!); each ratio (a+k)^2/((c+k)(k+1)) is at most 1
    out = [1.0]
    for k in range(_FAR_TERMS):
        out.append(out[-1] * (a + k) ** 2 / ((c + k) * (k + 1)))
    return out


_FAR_C = (_connection_coeffs(1.0 / 6.0, 1.0 / 3.0), _connection_coeffs(5.0 / 6.0, 5.0 / 3.0))


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
    """E_{s+k}(X) for k = 0 .. n-1, Re X > 0.

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


def _far_laplace(branch: str, z: complex, theta: float, R: float, tol: float) -> tuple:
    """int_R^oo Bhat(+-t e^{i theta}) e^{-z t e^{i theta}} e^{i theta} dt and a bound on
    its truncation error, which is at most tol when _FAR_TERMS suffice.

    The series stops at the first n where R e^{-Re X}/Re X sum_j |A_j| c_{j,n}
    (2/R)^n/(1 - 2/R) <= tol: |E_p(X)| <= e^{-Re X}/Re X for p >= 0,
    |(-x0)^{-s}| <= 1, and the c-ratios are at most 1.
    """
    phase = cmath.exp(1j * theta)
    X = z * R * phase
    x0 = (R / 2.0 if branch == "B" else -R / 2.0) * phase
    q = 2.0 / R
    pref = R * math.exp(-X.real) / X.real / (1.0 - q)
    n = 0
    qn = 1.0
    while True:
        bound = pref * qn * (abs(_FAR_A[0]) * _FAR_C[0][n] + abs(_FAR_A[1]) * _FAR_C[1][n])
        if bound <= tol or n == _FAR_TERMS:
            break
        n += 1
        qn *= q
    total = 0j
    if n:
        inv = 1.0 / x0
        for a, s, cs in zip(_FAR_A, _FAR_S, _FAR_C):
            acc = 0j
            w = 1.0 + 0j
            for ck, ek in zip(cs, _expint_run(s, X, n)):
                acc += ck * w * ek
                w *= inv
            total += a * (-x0) ** (-s) * acc
    return R * phase * total, bound


def maclaurin_borel_eval(coeffs: Sequence, radius: float = _MACLAURIN_RADIUS) -> Callable:
    """Borel-kernel evaluator sum a_n zeta^n/n! from exact series coefficients.

    Only valid inside the stated radius; the returned callable raises past it.
    Used for summing auxiliary exact series (products, derivatives) where no
    closed-form kernel is on hand.
    """
    arr = np.empty(len(coeffs))
    fact = 1.0
    for k, c in enumerate(coeffs):
        if k > 0:
            fact *= k
        arr[k] = float(c) / fact

    def kernel(zeta):
        zarr = np.atleast_1d(np.asarray(zeta, dtype=complex))
        if np.any(np.abs(zarr) > radius):
            raise DomainError("Maclaurin kernel evaluated outside its radius")
        vals = np.polynomial.polynomial.polyval(zarr, arr)
        return vals if np.ndim(zeta) else complex(vals[0])

    return kernel


# -- Laplace integration ----------------------------------------------------------


def laplace_ray(
    fhat: Callable,
    z: complex,
    theta,
    tol: float = DEFAULT_QUAD_TOL,
) -> SumValue:
    """Directional Laplace transform int_0^{e^{i theta} oo} fhat(zeta) e^{-z zeta} dzeta.

    Composite adaptive Gauss-Kronrod on [0, T]: each panel makes one kernel
    call on the 49 nodes of the nested G24/K49 pair and is accepted when the
    two values agree to the panel's share of tol; the K49 value enters the
    sum. For the psi/phi kernels (_psi_kernel, _phi_kernel) T is R = 4, or
    R = 1.2/|z| when that is larger, and the ray past R is the closed-form
    series of _far_laplace, whose truncation bound is the "tail". Any other
    kernel, or a psi/phi ray whose decay ends it before R, is integrated up to
    T = (log(1/tol) + _GROWTH_MARGIN)/rate, and the tail is the estimate
    |fhat(T)| e^{-rate T}/rate. The error field is the sum of the accepted
    panels' |G24 - K49| plus the tail, and meta reports the two parts
    ("quad_err", "tail"), the end of the numeric segment ("T") and the decay
    rate ("rate").
    """
    theta = float(theta)
    z = complex(z)
    rate = (z * cmath.exp(1j * theta)).real
    if rate <= _DECAY_MIN:
        raise DomainError("outside half-plane: Re(z e^{i theta}) too small")
    T = (math.log(1.0 / tol) + _GROWTH_MARGIN) / rate
    R = max(_FAR_R, _FAR_X_FLOOR / abs(z))
    far = isinstance(fhat, _BhatKernel) and T > R
    if far:
        T = R
    phase = cmath.exp(1j * theta)
    x, wk, wg = _gk_rule(24)

    stack = [(0.0, T)]
    total = 0.0 + 0.0j
    err = 0.0
    npanels = 0
    while stack:
        a, b = stack.pop()
        zs = phase * ((a + b) / 2.0 + (b - a) / 2.0 * x)
        vals = np.asarray(fhat(zs), dtype=complex) * np.exp(-z * zs)
        scale = (b - a) / 2.0 * phase
        kron = complex(scale * (wk @ vals))
        d = abs(complex(scale * (wg @ vals)) - kron)
        if d < tol * (b - a) / T or (b - a) < 1e-9 * T:
            total += kron
            err += d
            npanels += 1
            if npanels > _MAX_PANELS:
                raise QuadratureError("quadrature failure", value=total, err=err)
        else:
            m = (a + b) / 2.0
            stack.append((a, m))
            stack.append((m, b))
            if len(stack) + npanels > _MAX_PANELS:
                raise QuadratureError("quadrature failure", value=total, err=err)
    if far:
        # the truncation bound takes a negligible share of tol
        rest, tail = _far_laplace(fhat.branch, z, theta, T, 1e-3 * tol)
        total += rest
    else:
        tail = abs(complex(np.asarray(fhat(np.array([phase * T])))[0])) * math.exp(-rate * T) / rate
    meta = {"theta": theta, "T": T, "panels": npanels, "rate": rate, "quad_err": err, "tail": tail}
    return SumValue(total, err + tail, meta)


# -- family sums ------------------------------------------------------------------


def _error_budget(z: complex, rays: Sequence[SumValue], kernel_tol: float,
                  weights: Sequence[float], route: float = 0.0) -> dict:
    """The error of a function of z times Laplace integrals of eval_Bhat kernels, by source.

    Each ray's error enters with its weight, the modulus of the function's
    derivative with respect to that sum. quadrature and tail are the rays' own
    parts; each kernel value is within max(kernel_tol, floor) of Bhat, which
    moves a ray's integral by at most that over its decay rate; route is a
    cross-check difference added as is.
    """
    kappa = max(kernel_tol, _BHAT_TOL_FLOOR)
    f = [abs(z) * w for w in weights]
    return {
        "quadrature": sum(fr * r.meta["quad_err"] for fr, r in zip(f, rays)),
        "kernel": sum(fr * kappa / r.meta["rate"] for fr, r in zip(f, rays)),
        "tail": sum(fr * r.meta["tail"] for fr, r in zip(f, rays)),
        "route": route,
    }


def _psi_kernel(tol):
    return _BhatKernel("B", tol)


def _phi_kernel(tol):
    return _BhatKernel("B_plus", tol)


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
    if name not in ("psi", "phi", "g", "f"):
        raise ValueError("name must be one of psi, phi, g, f")
    z = complex(z)
    theta = choose_theta(z, interval, CUTS[name]) if theta is None else _theta_inside(theta, interval)
    kern = _psi_kernel(tol) if name in ("psi", "g") else _phi_kernel(tol)
    lap = laplace_ray(kern, z, theta, tol)
    val = z * lap.value
    scale = 1.0
    if name in ("g", "f"):
        if val.real <= 0.0 and abs(val.imag) < 1e-13:
            raise BranchCutError("branch cut: log of a negative real sum")
        scale = max(abs(val), 1e-30)
        val = cmath.log(val)
    parts = _error_budget(z, (lap,), tol, (1.0 / scale,))
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
    interval = _sign_window(sign)
    z = complex(z)
    sigma1 = complex(sigma1)
    sigma2 = complex(sigma2)
    if sigma2 != 0 and z.real <= 0.5 * math.log(2.0 * abs(sigma2)):
        raise DomainError("outside solution domain: Re z <= (1/2) log|2 sigma_2|")
    theta = choose_theta(z, interval) if theta is None else _theta_inside(theta, interval)
    spsi = laplace_ray(_psi_kernel(quad_tol), z, theta, quad_tol)
    sphi = laplace_ray(_phi_kernel(quad_tol), z, theta, quad_tol)
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
    parts = _error_budget(z, (spsi, sphi), quad_tol, (w, abs(sigma2 * cmath.exp(-2.0 * z)) * w),
                          route_diff)
    return SumValue(closed, sum(parts.values()), {"theta": theta, "sign": sign, "err_parts": parts})


# -- identity checks ---------------------------------------------------------------


def first_identity_check(z: complex, tol: float = DEFAULT_END_TOL) -> dict:
    """Residual of S^{I+} psi = S^{I-} psi - i e^{-2z} S^{Ipi} phi."""
    z = complex(z)
    a = sum_family("psi", z, "Iplus")
    b = sum_family("psi", z, "Iminus")
    c = sum_family("phi", z, "Ipi")
    lhs = a.value
    rhs = b.value - 1j * cmath.exp(-2.0 * z) * c.value
    res = abs(lhs - rhs)
    return {
        "residual": res,
        "ok": res <= tol,
        "lhs": lhs,
        "rhs": rhs,
        "err": a.err + b.err + abs(cmath.exp(-2.0 * z)) * c.err,
    }


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
        lhs = G_pm("+", z, sigma1, sigma2, tol, quad_tol=quad_tol)
        rhs = G_pm("-", z, sigma1, sigma2 - 1j, tol, quad_tol=quad_tol)
    elif which == "left":
        w = 1.0 + 1j * sigma2
        if abs(w) < 1e-9:
            raise DomainError("domain empty: 1 + i sigma_2 vanishes")
        lhs = G_pm("+", z, sigma1, sigma2, tol, quad_tol=quad_tol)
        rhs = G_pm("-", z, sigma1 + cmath.log(w), sigma2 / w, tol, quad_tol=quad_tol)
    else:
        raise ValueError("which must be 'right' or 'left'")
    res = abs(lhs.value - rhs.value)
    return {
        "residual": res,
        "ok": res <= tol,
        "lhs": lhs.value,
        "rhs": rhs.value,
        "err": lhs.err + rhs.err,
    }


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
    if x <= 0:
        raise DomainError("x must be positive")
    if ray == "arg0":
        val = G_pm("-", x, a, b - 0.5j, quad_tol=1e-11).value
    elif ray == "argpi":
        z = x * cmath.exp(-1j * math.pi)
        sigma2 = -1j * (1.0 - cmath.exp(1j * theta))
        val = G_pm("-", z, a - 1j * theta / 2.0, sigma2, quad_tol=1e-11).value
    else:
        raise ValueError("ray must be 'arg0' or 'argpi'")
    return val, abs(val.imag)


def check_homomorphism(z: complex, order: int = 60, tol: float = DEFAULT_END_TOL) -> dict:
    """|S(psi phi) - S psi . S phi| with the product summed by its own Borel data.

    The product kernel is only available as an exact Maclaurin series, so |z|
    must be large enough that the truncation radius T stays inside it.
    """
    z = complex(z)
    theta = choose_theta(z, "Ipi", (0.0, math.pi))
    rate = (z * cmath.exp(1j * theta)).real
    T = (math.log(1.0 / DEFAULT_QUAD_TOL) + _GROWTH_MARGIN) / rate
    if T > _MACLAURIN_RADIUS:
        raise DomainError("Maclaurin route needs larger |z| at this tolerance")
    psi, phi = families.gen_psi_phi(order)
    prod = psi.series * phi.series
    kern = maclaurin_borel_eval(prod.coeffs)
    lhs = z * laplace_ray(kern, z, theta).value
    spsi = z * laplace_ray(_psi_kernel(DEFAULT_QUAD_TOL), z, theta).value
    sphi = z * laplace_ray(_phi_kernel(DEFAULT_QUAD_TOL), z, theta).value
    res = abs(lhs - spsi * sphi)
    return {"residual": res, "ok": res <= tol, "theta": theta}


def check_derivation(z: complex, h: float = 0.005, tol: float = 1e-5) -> dict:
    """5-point d/dz of S g against the summed derivative S(g') = S psi'/S psi."""
    z = complex(z)
    theta = choose_theta(z, "Iminus", (0.0, math.pi))

    def sg(zz: complex) -> complex:
        return sum_family("g", zz, "Iminus", theta=theta).value

    fd = (-sg(z + 2 * h) + 8 * sg(z + h) - 8 * sg(z - h) + sg(z - 2 * h)) / (12 * h)
    kern = _psi_kernel(DEFAULT_QUAD_TOL)
    kern_moment = lambda zs: -zs * eval_Bhat(zs, "B", DEFAULT_QUAD_TOL)
    lap = laplace_ray(kern, z, theta).value
    spsi = z * lap
    spsi_prime = lap + z * laplace_ray(kern_moment, z, theta).value
    exact = spsi_prime / spsi
    res = abs(fd - exact)
    return {"residual": res, "ok": res <= tol, "theta": theta}


def check_reflection(z: complex, sigma1: complex, sigma2: complex, tol=DEFAULT_END_TOL) -> dict:
    """conj G_-(z, s1, s2) = G_+(conj z, conj s1, conj s2)."""
    lhs = G_pm("-", z, sigma1, sigma2)
    rhs = G_pm("+", complex(z).conjugate(), complex(sigma1).conjugate(), complex(sigma2).conjugate())
    res = abs(lhs.value.conjugate() - rhs.value)
    return {"residual": res, "ok": res <= tol}


def gpm_ode_residual(sign, z: complex, sigma1: complex, sigma2: complex, h: float = 1e-3) -> float:
    """5-point finite-difference residual of G'' + (G')^2 + 2G' + 5/(36 z^2)."""
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
    """Nearest Borel-plane singularity of ghat(zeta) = sum b_{n+1} zeta^n / n!.

    Input is the exact list b_1, b_2, ... of series coefficients. The ratio
    route returns n b_n / b_{n+1} at the deepest available index; the Pade
    route returns the smallest-modulus pole of a near-diagonal approximant.
    Entire input (no finite singularity) is flagged with complex infinity.
    """
    if len(coeffs) < 40:
        raise ValueError("need at least 40 coefficients")
    if method == "ratio":
        tail = []
        for n in range(len(coeffs) - 10, len(coeffs) - 1):
            bn, bn1 = coeffs[n - 1], coeffs[n]
            if bn1 == 0:
                raise ValueError("zero coefficient in ratio window")
            tail.append(n * bn / bn1)
        vals = [complex(t) for t in tail]
        # a finite singularity gives a drift of O(1/n^2) per step across the
        # tail window; an entire function's ratios keep growing without bound
        drift = abs(vals[-1] - vals[0]) / max(abs(vals[-1]), 1e-30)
        increasing = all(abs(vals[i + 1]) > abs(vals[i]) for i in range(len(vals) - 1))
        if drift > 0.05 and increasing:
            return complex(math.inf, 0.0)
        return vals[-1]
    if method == "pade":
        # Borel data d_n = b_{n+1}/n! kept exact; the [L/M] denominator system
        # sum_j q_j d_{L+k-j} = -d_{L+k} is solved over the rationals, because
        # in double precision it is ill-conditioned beyond tiny M
        d = []
        fact = Fraction(1)
        for n, bc in enumerate(coeffs):
            if n > 0:
                fact *= n
            d.append(_as_fraction(bc) / fact)
        M = min(10, len(d) // 4)
        # entire input has no finite radius: the tail ratios |d_{n-1}/d_n|
        # keep growing instead of stabilizing, and any Pade pole is spurious
        tail_r = []
        for n in range(len(d) - 10, len(d)):
            if d[n] == 0 or d[n - 1] == 0:
                tail_r = []
                break
            tail_r.append(abs(complex(d[n - 1])) / abs(complex(d[n])))
        if tail_r:
            drift = (tail_r[-1] - tail_r[0]) / max(tail_r[-1], 1e-30)
            increasing = all(b > a for a, b in zip(tail_r, tail_r[1:]))
            if drift > 0.05 and increasing:
                return complex(math.inf, 0.0)
        # a genuine pole is also stable under a change of denominator degree
        first = _pade_smallest_pole(d, M)
        second = _pade_smallest_pole(d, M - 1)
        if first is None or second is None:
            return complex(math.inf, 0.0)
        if abs(first - second) > 0.25 * abs(first):
            return complex(math.inf, 0.0)
        return first
    raise ValueError("method must be 'ratio' or 'pade'")


def _pade_smallest_pole(d: list, M: int):
    L = len(d) - 1 - M
    A = [[d[L + k - j] for j in range(1, M + 1)] for k in range(1, M + 1)]
    rhs = [-d[L + k] for k in range(1, M + 1)]
    q = _solve_exact(A, rhs)
    if q is None:
        return None
    poly = np.array([float(qj) for qj in reversed(q)] + [1.0])
    roots = np.roots(poly)
    roots = roots[np.isfinite(roots)]
    if len(roots) == 0:
        return None
    smallest = roots[np.argmin(np.abs(roots))]
    if abs(smallest) > 1e6:
        return None
    return complex(smallest)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if hasattr(c, "re") and hasattr(c, "im"):
        if c.im != 0:
            raise ValueError("Pade route needs real coefficients")
        return Fraction(c.re)
    return Fraction(c)


def _solve_exact(A: list, rhs: list):
    """Exact solution of A q = rhs over the rationals; None on a singular system.

    Each augmented row is scaled to integers by the lcm of its denominators, then
    fraction-free (Bareiss) elimination makes it upper triangular: every entry
    stays an integer minor, and each division by the previous pivot is exact
    (Bareiss, Math. Comp. 22 (1968) 565). With D the last pivot, +-det A, back
    substitution yields the integers D q_i, again by exact divisions.
    """
    n = len(rhs)
    M = []
    for row, b in zip(A, rhs):
        aug = [Fraction(x) for x in row] + [Fraction(b)]
        scale = math.lcm(*(x.denominator for x in aug))
        M.append([x.numerator * (scale // x.denominator) for x in aug])
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if M[r][k] != 0), None)
        if piv is None:
            return None
        M[k], M[piv] = M[piv], M[k]
        pk = M[k]
        p = pk[k]
        for r in range(k + 1, n):
            row = M[r]
            f = row[k]
            M[r] = [0] * (k + 1) + [(p * row[j] - f * pk[j]) // prev for j in range(k + 1, n + 1)]
        prev = p
    D = prev
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = M[i]
        acc = D * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))
        y[i] = acc // row[i]
    return [Fraction(v, D) for v in y]


def airy_oracle(w: complex) -> complex:
    """Ai(w) by its Maclaurin series; independent test oracle, |w| <= 10."""
    w = complex(w)
    if abs(w) > 10.0:
        raise DomainError("oracle validated only for |w| <= 10")
    c1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    c2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
    # two entire solutions of y'' = w y with a_{k+3} = a_k / ((k+2)(k+3))
    total_f = term = 1.0 + 0.0j
    k = 0
    w3 = w * w * w
    while abs(term) > 1e-20 and k < 300:
        term = term * w3 / ((k + 2.0) * (k + 3.0))
        total_f += term
        k += 3
    total_g = term = w
    k = 1
    while abs(term) > 1e-20 and k < 300:
        term = term * w3 / ((k + 2.0) * (k + 3.0))
        total_g += term
        k += 3
    return c1 * total_f - c2 * total_g


def gevrey_check(
    z: complex,
    interval="Iminus",
    n_max: int = 40,
    coeffs: Optional[Sequence] = None,
) -> dict:
    """Truncation-error table |S g(z) - sum_{n<N} b_n z^{-n}| for N = 1..n_max.

    With a custom convergent coefficient list, the reference value is the
    numerically converged direct sum instead of a Borel sum; the table then
    decreases monotonically instead of showing an optimal truncation.
    """
    z = complex(z)
    if coeffs is None:
        if abs(z) < 5.0:
            raise DomainError("need |z| >= 5 for a clean profile")
        g = families.gen_g_f(max(n_max + 2, 16))[0].series
        bs = [complex(c) for c in g.coeffs]
        ref = sum_family("g", z, interval).value
    else:
        bs = [complex(c) for c in coeffs]
        ref = sum(b * z ** (-n) for n, b in enumerate(bs))
    errors = []
    partial = 0.0 + 0.0j
    for n_next in range(1, n_max + 1):
        # error of the sum over n < n_next
        errors.append(abs(ref - partial))
        if n_next < len(bs):
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
