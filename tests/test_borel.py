"""Borel-Laplace layer: kernels against closed forms, sums against identities.

Frozen reference numbers in this file were produced by the code itself and
then pinned, so they guard against regressions rather than derive anything;
every identity-style assertion (hypergeometric matches, connection formulas,
reality, reflection) is an independent mathematical statement.
"""

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given
from hypothesis import strategies as st

from resurgentia import borel, families, largeradius
from resurgentia.borel import (
    DEFAULT_END_TOL,
    DEFAULT_QUAD_TOL,
    BranchCutError,
    DomainError,
    G_pm,
    QuadratureError,
    airy_oracle,
    check_derivation,
    choose_theta,
    connection_check,
    eval_Bhat,
    first_identity_check,
    gevrey_check,
    gpm_ode_residual,
    laplace_ray,
    median_real_check,
    normalize_interval,
    singularity_locate,
    sum_family,
)

_MACLAURIN_RADIUS = 1.5


def _maclaurin_borel_eval(coeffs: Sequence) -> Callable:
    """Borel-kernel evaluator sum a_n zeta^n/n! from exact series coefficients.

    Only valid for |zeta| <= _MACLAURIN_RADIUS (1.5); the callable raises past it.
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
        if np.any(np.abs(zarr) > _MACLAURIN_RADIUS):
            raise DomainError("Maclaurin kernel evaluated outside its radius")
        vals = np.polynomial.polynomial.polyval(zarr, arr)
        return vals if np.ndim(zeta) else complex(vals[0])

    return kernel


def _check_homomorphism(z: complex) -> dict:
    """|S(psi phi) - S psi . S phi| with the product summed by its own Borel data.

    The product kernel is only available as the exact order-60 Maclaurin series
    of psi phi, so |z| must keep the ray's end T inside its radius; mpmath
    quadrature integrates it on [0, T], past which e^{-z zeta} is below
    DEFAULT_QUAD_TOL e^{-8}. ok at 1e-6.
    """
    mpmath = pytest.importorskip("mpmath")
    z = complex(z)
    theta = choose_theta(z, "Ipi")
    phase = cmath.exp(1j * theta)
    rate = (z * phase).real
    T = (math.log(1.0 / DEFAULT_QUAD_TOL) + 8.0) / rate
    if T > _MACLAURIN_RADIUS:
        raise DomainError("Maclaurin route needs larger |z| at this tolerance")
    psi, phi = families.gen_psi_phi(60)
    prod = psi.series * phi.series
    kern = _maclaurin_borel_eval(prod.coeffs)

    def integrand(t):
        zeta = phase * float(t)
        return kern(zeta) * cmath.exp(-z * zeta)

    with mpmath.workdps(15):
        lap = complex(mpmath.quad(integrand, [0, T]))
    lhs = z * phase * lap
    spsi = z * laplace_ray("B", z, theta).value
    sphi = z * laplace_ray("B_plus", z, theta).value
    res = abs(lhs - spsi * sphi)
    return {"residual": res, "ok": res <= DEFAULT_END_TOL, "theta": theta}


def _check_reflection(z: complex, sigma1: complex, sigma2: complex) -> dict:
    """conj G_-(z, s1, s2) = G_+(conj z, conj s1, conj s2); ok at 1e-6 (DEFAULT_END_TOL)."""
    lhs = G_pm("-", z, sigma1, sigma2)
    rhs = G_pm("+", complex(z).conjugate(), complex(sigma1).conjugate(), complex(sigma2).conjugate())
    res = abs(lhs.value.conjugate() - rhs.value)
    return {"residual": res, "ok": res <= DEFAULT_END_TOL}


# -- kernels ---------------------------------------------------------------


def test_bhat_at_origin():
    assert abs(eval_Bhat(0.0) - 1.0) < 1e-12


def test_bhat_is_gauss_hypergeometric():
    # Bhat(2 xi) = 2F1(1/6, 5/6; 1; xi), mirror branch at -xi
    for xi in (0.3, 0.45 - 0.2j):
        want = complex(sp.hyp2f1(1.0 / 6.0, 5.0 / 6.0, 1.0, xi))
        assert abs(eval_Bhat(2 * xi, "B") - want) < 1e-11
        want_m = complex(sp.hyp2f1(1.0 / 6.0, 5.0 / 6.0, 1.0, -xi))
        assert abs(eval_Bhat(2 * xi, "B_plus") - want_m) < 1e-11


def test_bhat_quadrature_matches_exact_maclaurin():
    cs = families.gen_c_coeffs(120)
    mac = _maclaurin_borel_eval(cs)
    got = eval_Bhat(1.0)
    want = complex(np.asarray(mac(np.array([1.0 + 0j])))[0])
    assert abs(got - want) < 1e-11


def test_bhat_mirror_symmetry():
    z = 1.0 + 1.0j
    assert eval_Bhat(z, "B_plus") == eval_Bhat(-z, "B")


def test_bhat_branch_cut():
    with pytest.raises(BranchCutError):
        eval_Bhat(2.5)
    with pytest.raises(BranchCutError):
        eval_Bhat(-3.0, "B_plus")


def test_bhat_refuses_points_past_the_float_range():
    # past |1/2 - x| = 1e150 the square w^2 overflows; a value would be nan, not within kappa
    inf, nan = math.inf, math.nan
    for zeta, branch in ((-inf, "B"), (inf, "B_plus"), (complex(0, inf), "B"), (1e308 * (1 + 1j), "B"),
                         (nan, "B"), (complex(0, nan), "B_plus"), (-2.1e150, "B"), (3e150j, "B_plus")):
        with pytest.raises(DomainError, match="not below 1e150"):
            eval_Bhat(zeta, branch)
        with pytest.raises(DomainError, match="not below 1e150"):
            eval_Bhat([0.0, zeta, 1.0j], branch)
    # just inside the bound a point is summed as before: Bhat ~ zeta^{-1/6} there
    for zeta in (-1.9e150, 1.9e150j):
        value = eval_Bhat(zeta)
        assert cmath.isfinite(value) and abs(value) < 1e-20
    assert cmath.isfinite(eval_Bhat(-1e140j))


# -- Laplace quadrature -------------------------------------------------------


def test_laplace_needs_decay():
    with pytest.raises(DomainError, match="outside half-plane"):
        laplace_ray("B", 5j, 0.0)


def test_laplace_ray_takes_moment_0_or_1_only():
    # the panels take -zeta Bhat for any nonzero moment while the far part shifts by it,
    # so any other moment would mix two kernels
    for moment in (2, -1):
        with pytest.raises(ValueError, match="moment must be 0 or 1"):
            laplace_ray("B", 3.0, 0.3, moment=moment)
    m0, m1 = (laplace_ray("B", 3.0, 0.3, moment=m) for m in (0, 1))
    assert abs(m0.value - (0.34337731957597617 + 0.00040486789514521045j)) < 1e-15
    assert abs(m1.value - (-0.11890506987216591 - 0.000942280504367551j)) < 1e-15


def test_direction_and_interval_plumbing():
    assert normalize_interval("Iminus") == (0.0, math.pi)
    assert normalize_interval("Iplus") == (-math.pi, 0.0)
    assert normalize_interval((0.5, 1.5)) == (0.5, 1.5)
    # the tags are the only spellings
    for alias in ("minus", "+", "iminus", "I_plus", "sideways"):
        with pytest.raises(ValueError, match="unknown interval tag"):
            normalize_interval(alias)
    with pytest.raises(ValueError, match="empty interval"):
        normalize_interval((1.0, 1.0))
    with pytest.raises(ValueError, match="interval ends must be finite"):
        normalize_interval((0.0, math.inf))
    sum_family("psi", 4.0, (0.0, math.pi), theta=0.5)
    for theta, window in ((-0.5, "Iminus"), (0.0, "Iminus"), (0.5, "Iplus")):
        with pytest.raises(DomainError, match="strictly inside"):
            sum_family("psi", 4.0, window, theta=theta)
        with pytest.raises(DomainError, match="strictly inside"):
            G_pm("-" if window == "Iminus" else "+", 4.0, theta=theta)
    for sign in ("plus", "minus", 1, -1):
        with pytest.raises(ValueError, match="sign must be"):
            G_pm(sign, 4.0)
        with pytest.raises(ValueError, match="sign must be"):
            gpm_ode_residual(sign, 4.0, 0.0, 0.0)


def test_choose_theta_rejects_slit_window():
    with pytest.raises(DomainError, match="domain empty"):
        choose_theta(3.0, (0.0, 0.02))


def _steepest_rate_on_a_grid(z: complex, window: tuple, cuts: tuple) -> float:
    """The largest decay rate on 401 points of each cut-free subarc of the window,
    each shrunk by choose_theta's standoff."""
    a, b = window
    cut_rays = (c + borel.TWO_PI * k for c in cuts for k in range(-6, 7))
    points = sorted({a, b, *(t for t in cut_rays if a < t < b)})
    best = -math.inf
    for lo, hi in zip(points, points[1:]):
        if hi - lo <= 2.0 * borel.DELTA_RAY:
            continue
        eff = max(borel.DELTA_RAY, min(borel.THETA_MARGIN, (hi - lo) / 4.0))
        for j in range(401):
            best = max(best, (z * cmath.exp(1j * (lo + eff + (hi - lo - 2.0 * eff) * j / 400))).real)
    return best


def _theta_cases(count: int, seed: int):
    rng = np.random.default_rng(seed)
    zs = [-1 + 0.5j, 2 - 2j] + list(rng.uniform(-3, 3, count) + 1j * rng.uniform(-3, 3, count))
    cut_sets = ((0.0, math.pi), (0.0,), (math.pi,))
    return [(z, tag, cuts) for z in zs for tag in borel.INTERVALS for cuts in cut_sets]


def test_choose_theta_takes_the_steepest_admissible_ray():
    # tag windows, and a window of almost five turns whose later cuts must be found too
    long = [(z, (0.1, 30.0), cuts) for z in (1.0, 1j, -2 + 0.5j) for cuts in ((0.0,), (math.pi,))]
    for z, tag, cuts in _theta_cases(40, 3) + long:
        window = normalize_interval(tag)
        best = _steepest_rate_on_a_grid(z, window, cuts)
        if best < borel._DECAY_MIN:
            continue
        theta = choose_theta(z, tag, cuts)
        assert window[0] < theta < window[1]
        assert min(abs(math.remainder(theta - c, borel.TWO_PI)) for c in cuts) >= borel.DELTA_RAY - 1e-12
        assert (z * cmath.exp(1j * theta)).real >= best - 1e-12, (z, tag, cuts, theta)


def test_choose_theta_is_invariant_under_whole_turns_of_its_window():
    # theta and theta + 2 pi label one ray: a window shifted by k turns gives the
    # direction shifted by k turns, or "domain empty" wherever the unshifted one does.
    # A window turns away must try the images of the steepest ray near it, as in the
    # first two cases: I_- + 4pi at z = -1 + 0.5i and I0 - 4pi at z = 2 - 2i
    for z, tag, cuts in _theta_cases(150, 5):
        a, b = normalize_interval(tag)
        try:
            theta = choose_theta(z, tag, cuts)
        except DomainError:
            theta = None
        for k in (-3, -2, -1, 1, 2, 3):
            shifted = (a + borel.TWO_PI * k, b + borel.TWO_PI * k)
            if theta is None:
                with pytest.raises(DomainError, match="domain empty"):
                    choose_theta(z, shifted, cuts)
            else:
                got = choose_theta(z, shifted, cuts) - borel.TWO_PI * k
                assert abs(got - theta) <= 1e-9, (z, tag, cuts, k)


def test_a_window_of_several_turns_sums_on_a_side_of_each_cut():
    # at z = 1 the window holds rays of equal rate on both sides of every cut
    for name in ("psi", "phi"):
        far = sum_family(name, 1.0, (0.1, 30.0)).value
        sides = [sum_family(name, 1.0, tag).value for tag in ("Iplus", "Iminus")]
        assert min(abs(far - side) for side in sides) <= 1e-10, name


def test_sum_family_theta_must_be_inside_window():
    with pytest.raises(DomainError, match="strictly inside"):
        sum_family("psi", 4.0, "Iminus", theta=-0.3)


def test_lateral_sum_is_theta_independent_within_a_sector():
    a = sum_family("psi", 4.0, "Ipi", theta=-0.3)
    b = sum_family("psi", 4.0, "Ipi", theta=-1.1)
    assert abs(a.value - b.value) < 1e-10


def test_sum_remainder_is_gevrey_honest():
    # |S psi - partial sum through order 8| should sit at the order-9 term scale
    z = 5.0
    cs = families.gen_c_coeffs(12)
    sv = sum_family("psi", z, "Iminus")
    part = sum(complex(cs[n]) * z ** (-n) for n in range(9))
    rem = abs(sv.value - part)
    scale = abs(complex(cs[9])) * z ** (-9)
    assert 0.1 * scale < rem < 50.0 * scale
    assert rem < abs(complex(cs[9])) * math.factorial(9) * z ** (-9)


def test_airy_identity():
    w = 2.0
    z = 2.0 * w ** 1.5 / 3.0
    lhs = sum_family("phi", z, "Ipi")
    rhs = 2.0 * math.sqrt(math.pi) * w ** 0.25 * cmath.exp(z) * airy_oracle(w)
    assert abs(lhs.value - rhs) / abs(rhs) < 1e-10


def test_airy_oracle_refuses_w_past_its_validated_disc():
    assert airy_oracle(-10.0) == pytest.approx(sp.airy(-10.0)[0], abs=1e-8)
    with pytest.raises(DomainError, match=r"\|w\| <= 10"):
        airy_oracle(12.0)
    # inside the disc at c(w) = 24.7, 30.2 and 36.5, where the sums cancel
    for w in (7.0, 8.0, 10.0 * cmath.exp(0.5j)):
        with pytest.raises(DomainError, match=r"\|w\| <= 10"):
            airy_oracle(w)


def test_airy_oracle_matches_mpmath_wherever_it_answers():
    """On a 960-point polar grid of |w| <= 10 the oracle refuses exactly where
    c(w) > 21.5 and is within 2^-50 e^{c(w)} + 1e-14 relative elsewhere."""
    mpmath = pytest.importorskip("mpmath")
    admitted = 0
    with mpmath.workdps(30):
        for i in range(1, 21):
            for j in range(48):
                w = cmath.rect(0.5 * i, -math.pi + math.pi * j / 24)
                c = 2.0 / 3.0 * (abs(w) ** 1.5 + (w ** 1.5).real)
                if abs(w) > 10.0 or c > 21.5:
                    with pytest.raises(DomainError):
                        airy_oracle(w)
                    continue
                want = complex(mpmath.airyai(mpmath.mpc(w.real, w.imag)))
                assert abs(airy_oracle(w) - want) <= (2.0 ** -50 * math.exp(c) + 1e-14) * abs(want)
                admitted += 1
    assert admitted > 800


# -- sectorial family and formulas ----------------------------------------------


def test_gpm_frozen_value():
    sv = G_pm("-", 4.0, 0.25, 0.5 - 0.25j)
    assert abs(sv.value - (0.27071875372214854 + 8.087429857002095e-05j)) < 1e-10
    assert sv.err < 1e-9


def test_gpm_satisfies_the_riccati_log_ode():
    assert gpm_ode_residual("+", 4 - 2j, 0.3, 0.2 - 0.1j) < 1e-7


def test_gpm_solution_domain():
    with pytest.raises(DomainError, match="outside solution domain"):
        G_pm("+", 0.1, 0.0, 5.0)
    with pytest.raises(ValueError, match="sign"):
        G_pm("x", 4.0)


def test_first_identity():
    assert first_identity_check(3.0)["residual"] < 1e-10


def test_connection_right():
    out = connection_check("right", 3.0, 0.0, 1.0)
    assert out["ok"] and out["residual"] < 1e-9


def test_connection_left():
    out = connection_check("left", -0.9, 0.0, 0.05j)
    assert out["ok"] and out["residual"] < 1e-10
    slice0 = connection_check("left", -0.9, 0.3, 0.0)
    assert slice0["ok"] and slice0["residual"] < 1e-10
    with pytest.raises(ValueError, match="right.*left|left.*right|'right' or 'left'"):
        connection_check("up", 3.0)


def test_median_reality_on_the_positive_axis():
    for x in (3.0, 5.0):
        for a in (0.0, 1.0):
            for b in (0.0, 0.3):
                _, im = median_real_check(x, a, b)
                assert im < 1e-12, (x, a, b)


def test_median_reality_on_the_negative_axis():
    val, im = median_real_check(0.9, 0.7, ray="argpi", theta=0.0)
    assert im < 1e-12
    assert abs(val.real - 0.6454289964581543) < 1e-9
    val2, im2 = median_real_check(0.9, 0.7, ray="argpi", theta=0.05)
    assert im2 < 1e-10
    assert abs(val2.real - 0.213644312685061) < 1e-9


def test_median_domain():
    with pytest.raises(DomainError, match="positive"):
        median_real_check(-1.0, 0.0)
    with pytest.raises(ValueError, match="ray"):
        median_real_check(1.0, 0.0, ray="argtau")


def test_median_rejects_x_on_its_boundary():
    # x = 0 is refused by the guard itself, not later by choose_theta (z = 0),
    # and so are the non-finite x, on both rays
    for x in (0.0, math.inf, math.nan):
        for ray in ("arg0", "argpi"):
            with pytest.raises(DomainError, match="x must be positive and finite"):
                median_real_check(x, 0.0, ray=ray)


def test_sum_is_a_homomorphism():
    out = _check_homomorphism(25.0)
    assert out["ok"] and out["residual"] < 1e-10
    with pytest.raises(DomainError, match="larger"):
        _check_homomorphism(20.0)


def test_sum_commutes_with_d_dz():
    out = check_derivation(6.0)
    assert out["ok"] and out["residual"] < 1e-9


def test_reflection_symmetry():
    assert _check_reflection(4 - 1j, 0.3, 0.2 + 0.1j)["residual"] < 1e-12


# -- diagnostics -------------------------------------------------------------


def test_singularity_ratio_route():
    g = families.gen_g_f(82)[0]
    loc = singularity_locate([g.series.coeff(n) for n in range(81)], "ratio")
    assert abs(loc - 2.0) < 1e-3


def test_singularity_pade_route():
    g = families.gen_g_f(62)[0]
    loc = singularity_locate([g.series.coeff(n) for n in range(61)], "pade")
    assert abs(loc - 2.005414670646674) < 1e-9
    assert abs(loc - 2.0) < 0.1


# repr of the Pade pole of each family at three coefficient counts, recorded
# while the [L/M] and [L+1/M-1] systems were still solved one at a time
PADE_POLE_REPR = {
    ("psi", 41): "(2.009014753098924+0j)", ("psi", 60): "(2.0055595025532718+0j)",
    ("psi", 80): "(2.003961271953345+0j)",
    ("phi", 41): "(-2.009014753098924+0j)", ("phi", 60): "(-2.0055595025532718+0j)",
    ("phi", 80): "(-2.003961271953345+0j)",
    ("g", 41): "(2.008970455383667+0j)", ("g", 60): "(2.00552579298974+0j)",
    ("g", 80): "(2.00394672084428+0j)",
    ("f", 41): "(-2.008970455383667+0j)", ("f", 60): "(-2.00552579298974+0j)",
    ("f", 80): "(-2.00394672084428+0j)",
}


def test_pade_poles_are_pinned():
    g, f, _ = families.gen_g_f(80)
    psi, phi = families.gen_psi_phi(80)
    series = {"psi": psi.series, "phi": phi.series, "g": g.series, "f": f.series}
    got = {(fam, count): repr(singularity_locate([series[fam].coeff(n) for n in range(count)], "pade"))
           for fam, count in PADE_POLE_REPR}
    assert got == PADE_POLE_REPR


def test_aberth_roots_match_numpy_roots():
    rng = np.random.default_rng(7)
    for degree in range(1, 11):
        for _ in range(25):
            c = [float(v) for v in rng.normal(size=degree + 1)]
            got = borel._poly_roots(c)
            want = np.roots(c[::-1])
            assert len(got) == degree
            for w in want:
                assert min(abs(g - w) for g in got) <= 1e-9 * max(1.0, abs(w)), (c, w)


def test_pade_poles_are_the_exact_denominators_smallest_roots(monkeypatch):
    """The Pade denominators cluster their roots along the cut, where rounding
    the q_j to doubles moves a root by up to 1e-3, so no float root finder can
    place them better. Against the smallest root of the exact rational
    denominator at 60 digits, the pole is good to 1e-14, and np.roots on the
    rounded q_j is never closer."""
    mpmath = pytest.importorskip("mpmath")
    seen = []
    inner = borel._exact_real_root

    def recorded(q, x):
        seen.append((list(q), inner(q, x)))
        return seen[-1][1]

    monkeypatch.setattr(borel, "_exact_real_root", recorded)
    g, f, _ = families.gen_g_f(82)
    psi, phi = families.gen_psi_phi(82)
    for series in (g.series, f.series, psi.series, phi.series):
        for count in (40, 61, 81):
            pole = singularity_locate([series.coeff(n) for n in range(count)], "pade")
            assert pole == seen[-2][1] and pole.imag == 0.0, (count, pole)
    assert len(seen) == 24
    with mpmath.workdps(60):
        for q, pole in seen:
            exact = min(mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator for c in q[::-1]],
                                         maxsteps=400, extraprec=400), key=abs)
            assert abs(exact.imag) < 1e-40
            theirs = complex(min(np.roots([c / q[0] for c in q[::-1]]), key=abs))
            assert abs(pole - exact.real) <= 1e-14 * abs(pole) < abs(theirs - exact.real), (pole, theirs, exact)


def gauss_jordan_reference(A: list, rhs: list):
    """Gauss-Jordan elimination over Fraction, the Pade solver before Bareiss."""
    n = len(rhs)
    M = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def _as_fractions(solved):
    """The q of a solved pair (D q, D) as Fractions; None stays None."""
    return None if solved is None else [Fraction(v, solved[1]) for v in solved[0]]


def _solve_exact(A: list, rhs: list):
    """The integer system A q = rhs by one Bareiss pass, q as Fractions; None on a singular system."""
    return _as_fractions(borel._bareiss([row + [b] for row, b in zip(A, rhs)], len(rhs)))


_entries = st.integers(-9, 9)


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(_entries, min_size=n, max_size=n))))
def test_bareiss_solve_matches_gauss_jordan(system):
    A, rhs = system
    assert _solve_exact(A, rhs) == gauss_jordan_reference(A, rhs)


def gauss_jordan_pair(A: list, rhs: list):
    """The [L/M] and [L+1/M-1] Pade systems each solved by Gauss-Jordan, as
    pairs (D q, D): A q = rhs, and rows 2..M, columns 1..M-1 of it with the
    same right-hand side."""
    def as_pair(q):
        if q is None:
            return None
        D = math.lcm(*(x.denominator for x in q))
        return [int(x * D) for x in q], D

    full = gauss_jordan_reference(A, rhs)
    short = gauss_jordan_reference([row[:-1] for row in A[1:]], rhs[1:])
    return (None, None) if short is None else (as_pair(full), as_pair(short))


def test_bareiss_solve_on_singular_and_pade_systems(monkeypatch):
    assert _solve_exact([[1, 2], [2, 4]], [1, 3]) is None
    assert _solve_exact([[0, 1], [1, 0]], [2, 3]) == [3, 2]
    g, f, _ = families.gen_g_f(82)
    for series in (g.series, f.series):
        for count in (40, 61, 81):
            coeffs = [series.coeff(n) for n in range(count)]
            got = singularity_locate(coeffs, "pade")
            monkeypatch.setattr(borel, "_solve_pair", gauss_jordan_pair)
            want = singularity_locate(coeffs, "pade")
            monkeypatch.undo()
            assert got == want, (count, got, want)


def _hankel(d: list, M: int):
    """The [L/M] Pade system of the data d: A[k][j] = d[L+k-j], rhs[k] = -d[L+k]."""
    L = len(d) - 1 - M
    return ([[d[L + k - j] for j in range(1, M + 1)] for k in range(1, M + 1)],
            [-d[L + k] for k in range(1, M + 1)])


@given(st.integers(1, 6).flatmap(lambda M: st.tuples(
    st.just(M), st.lists(_entries, min_size=2 * M + 1, max_size=2 * M + 5))))
def test_pair_solve_is_two_separate_solves(case):
    # random data; test_pair_solve_on_singular_systems forces a singular M
    # system with a regular block and the reverse
    M, d = case
    A, rhs = _hankel(d, M)
    full, short = _solve_exact(A, rhs), _solve_exact([r[:-1] for r in A[1:]], rhs[1:])
    got = borel._solve_pair(A, rhs)
    assert (_as_fractions(got[0]), _as_fractions(got[1])) == ((None, None) if short is None else (full, short))


@pytest.mark.parametrize("M,d,singular", [
    (2, [0, 1, 1, 1, 3], "full"),  # [[1, 1], [1, 1]], block [1]
    (2, [0, 0, 1, 0, 1], "block"),  # [[1, 0], [0, 1]], block [0]
    (3, [1, 2, 3, 4, 5, 6, 7], "full"),  # a linear sequence has Hankel rank 2; block det 1
    (3, [0, 0, 0, 1, 1, 1, 2], "block"),  # det (1 - d_2)^2 = 1; block [[1, 1], [1, 1]]
])
def test_pair_solve_on_singular_systems(M, d, singular):
    A, rhs = _hankel(d, M)
    block = _solve_exact([r[:-1] for r in A[1:]], rhs[1:])
    full = _solve_exact(A, rhs)
    assert (block is None) == (singular == "block") and (full is None) == (singular == "full")
    got = borel._solve_pair(A, rhs)
    assert (_as_fractions(got[0]), _as_fractions(got[1])) == ((None, None) if block is None else (full, block))


def test_singularity_flags_entire_input():
    coeffs = [Fraction(1, math.factorial(n)) for n in range(50)]
    assert cmath.isinf(singularity_locate(coeffs, "ratio"))
    assert cmath.isinf(singularity_locate(coeffs, "pade"))


def test_singularity_input_validation():
    with pytest.raises(ValueError, match="40"):
        singularity_locate([1.0] * 10, "ratio")
    with pytest.raises(ValueError, match="method"):
        singularity_locate([1.0] * 50, "bogus")


def test_pade_route_refuses_floats():
    # the exact layer's TypeError, not the binary fraction of 0.5
    coeffs = [Fraction(math.factorial(n), 2 ** n) for n in range(50)]
    with pytest.raises(TypeError, match="refuses the float"):
        singularity_locate(coeffs[:-1] + [0.5], "pade")


def test_singularity_routes_on_a_zero_coefficient():
    # b_n = n!/2^n with b_45 = 0: the ratio window divides by b_45, and the Pade
    # route's tail-ratio probe skips a window holding d_45 = 0
    coeffs = [Fraction(math.factorial(n), 2 ** n) for n in range(50)]
    coeffs[45] = Fraction(0)
    with pytest.raises(ValueError, match="zero coefficient in ratio window"):
        singularity_locate(coeffs, "ratio")
    assert isinstance(singularity_locate(coeffs, "pade"), complex)


def test_gevrey_profile_divergent():
    out = gevrey_check(10 * cmath.exp(-1j * math.pi / 2.0), "Iminus", 40)
    assert out["unimodal"]
    assert abs(out["argmin_N"] - 20) <= 6


def test_gevrey_needs_large_z():
    with pytest.raises(DomainError, match=r"\|z\| >= 5"):
        gevrey_check(2.0)


def test_quadrature_error_carries_payload():
    err = QuadratureError("quadrature failure", value=1.5, err=2e-3)
    assert err.value == 1.5 and err.err == 2e-3


def test_ray_past_its_panel_budget_raises_with_its_partial_sum(monkeypatch):
    # this ray takes 4 panels (test_ray_panel_counts_are_pinned); a budget of 2 stops it
    monkeypatch.setattr(borel, "_MAX_PANELS", 2)
    with pytest.raises(QuadratureError, match="quadrature failure") as exc:
        laplace_ray("B", 0.05 + 0.02j, -0.6)
    assert isinstance(exc.value.value, complex) and math.isfinite(exc.value.err)


# -- the series kernel ----------------------------------------------------------------


def _bhat_oracle_grid():
    ring = lambda r, k: [r * cmath.exp(2j * math.pi * (j + 0.5) / k) for j in range(k)]
    inner = ring(0.4, 6) + ring(1.0, 8) + ring(1.5, 8) + [0.0]
    far = ring(12.0, 12) + ring(1e3, 16)
    # x = +-zeta/2 near e^{+-i pi/3}, where |x| = |1 - x| = 1
    roots = [s * 2.0 * cmath.exp(t * 1j * math.pi / 3.0) + d * cmath.exp(2j * math.pi * k / 6)
             for s in (1, -1) for t in (1, -1) for d in (0.0, 1e-3, 0.1) for k in range(6 if d else 1)]
    # within 1e-3 .. 1e-9 of the cut [2, oo), above and below, out to |zeta| = 1e3
    cut = [x + s * d for x in (2.05, 3.0, 6.0, 12.0, 1e2, 1e3) for s in (1j, -1j) for d in (1e-3, 3e-4, 1e-9)]
    # 1e-8 from the branch points zeta = +-2
    ends = [p * (2.0 + 1e-8 * cmath.exp(2j * math.pi * (k + 0.5) / 8)) for p in (1, -1) for k in range(8)]
    return inner + far + roots + cut + ends


def test_bhat_matches_mpmath_oracle_on_both_branches():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    sixth = mpmath.mpf(1) / 6
    kappa = borel._KAPPA
    assert kappa <= 1e-13
    points = _bhat_oracle_grid()
    for branch, sign in (("B", 1), ("B_plus", -1)):
        # one call per point and one for all points: the regions group differently
        together = eval_Bhat(np.array(points), branch)
        for zeta, got_all in zip(points, together):
            want = complex(mpmath.hyp2f1(sixth, 5 * sixth, 1, sign * mpmath.mpc(zeta) / 2))
            for got in (eval_Bhat(zeta, branch), got_all):
                assert abs(got - want) <= kappa, (zeta, branch, abs(got - want))


def test_bhat_takes_a_number_or_a_sequence():
    assert eval_Bhat(0) == eval_Bhat(0.0) == eval_Bhat(0j) == 1.0 and isinstance(eval_Bhat(0), complex)
    points = [0.0, 1.0 + 0.5j, -7.0 + 0.3j, 3.0 - 0.2j]
    for branch in ("B", "B_plus"):
        together = eval_Bhat(points, branch)
        assert isinstance(together, list) and together == [eval_Bhat(p, branch) for p in points]
        assert eval_Bhat(tuple(points), branch) == together == eval_Bhat(np.array(points), branch)
    with pytest.raises(BranchCutError):
        eval_Bhat([1.0, 2.5])


def test_each_point_takes_the_terms_its_own_tail_bound_needs():
    """The term count read from a region's K(|v|) table brings that series' tail
    bound, with the point's own prefactors and |v|, to at most _KAPPA/10."""
    a, s = borel._FAR_A, borel._FAR_S
    x0 = borel._TAYLOR_X0
    rho = borel._TAYLOR_RHO
    # v(x) and the prefactors P_j(x) of each region, in the order of borel._REGIONS
    regions = (
        (lambda x: x, lambda x: (1.0,)),
        (lambda x: (1 - 2 * x) ** -2, lambda x: [aj * (0.5 - x) ** -sj for aj, sj in zip(a, s)]),
        (lambda x: x / (x - 1), lambda x: ((1 - x) ** (-1 / 6),)),
        (lambda x: 1 - x, lambda x: (1 / (2 * math.pi), -cmath.log(1 - x) / (2 * math.pi))),
        (lambda x: (x - x0[0]) / rho, lambda x: (1.0,)),
        (lambda x: (x - x0[1]) / rho, lambda x: (1.0,)),
    )
    rng = np.random.default_rng(11)
    for k, ((v_of, pref_of), (rows, counts)) in enumerate(zip(regions, borel._REGIONS)):
        majorant = borel._TAYLOR_M if k >= 4 else None
        checked = 0
        while checked < 300:
            x = complex(*rng.uniform(-6.0, 6.0, 2))
            if abs(x.imag) < 1e-3:
                continue
            r = abs(v_of(x))
            if not 0.0 < r <= 0.84:
                continue
            K = counts[int(r * borel._K_BINS) + 1]
            bound = sum(abs(p) * (abs(row[::-1][K]) if majorant is None else majorant)
                        for p, row in zip(pref_of(x), rows)) * r ** K / (1.0 - r)
            assert K <= borel._TERMS and bound <= borel._KAPPA / 10.0, (k, x, K, bound)
            checked += 1


def test_bhat_answers_within_kappa_next_to_the_cut():
    # 1e-6 above the cut the Euler integrand's singular point sits next to [0, 1];
    # the 1/(1 - x) and 1/x series do not see it
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    zetas = [0.5, 6.0 + 1e-6j, 6.0 + 0.5j]
    got = eval_Bhat(np.array(zetas))
    for zeta, g in zip(zetas, got):
        want = complex(mpmath.hyp2f1(mpmath.mpf(1) / 6, mpmath.mpf(5) / 6, 1, mpmath.mpc(zeta) / 2))
        assert abs(g - want) <= borel._KAPPA, zeta


def _golub_welsch(diag: np.ndarray, off: np.ndarray, mu0: float) -> tuple:
    # Golub-Welsch: the nodes are the Jacobi matrix's eigenvalues, the weights
    # mu_0 times the squared first components of its eigenvectors
    jac = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    x, vec = np.linalg.eigh(jac)
    return x, mu0 * vec[0] ** 2


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


def test_kronrod_rule_extends_gauss_24():
    x, wk, wg = _gk_rule(24)
    gx, gw = np.polynomial.legendre.leggauss(24)
    assert len(x) == 49 and np.all(np.diff(x) > 0)
    assert np.all(wk > 0)
    assert np.max(np.abs(x[1::2] - gx)) < 1e-14
    assert np.array_equal(wg[1::2], gw) and not np.any(wg[0::2])
    # the package's literal table is this rule made symmetric: each row is the
    # mean of a mirror pair, and the full rule is the table and its mirror
    regenerated = [((x[48 - i] - x[i]) / 2.0, (wk[i] + wk[48 - i]) / 2.0, wg[i]) for i in range(24)]
    regenerated.append((0.0, wk[24], 0.0))
    assert np.max(np.abs(np.array(borel._GK_HALF) - np.array(regenerated))) <= 1e-15
    tx, twk, twg = np.array(borel._GK_X), np.array(borel._GK_WK), np.array(borel._GK_WG)
    assert np.max(np.abs(tx - x)) <= 1e-15 and np.max(np.abs(twk - wk)) <= 1e-15
    assert np.array_equal(twg, gw) and np.array_equal(tx, -tx[::-1]) and np.array_equal(twk, twk[::-1])
    # the table is exact for every polynomial up to degree 3 * 24 + 1 = 73, in the
    # Legendre basis, and its Gauss part up to 47
    for d in range(74):
        p = np.polynomial.legendre.Legendre.basis(d)(tx)
        assert abs(twk @ p - (2.0 if d == 0 else 0.0)) < 1e-13, d
        if d < 48:
            assert abs(twg @ p[1::2] - (2.0 if d == 0 else 0.0)) < 1e-13, d
    # and not beyond: degree 74 is where a 49-point rule with 24 fixed nodes stops
    p74 = np.polynomial.legendre.Legendre.basis(74)(tx)
    assert abs(twk @ p74) > 1e-6


def test_error_budget_parts_add_up_and_bound_the_airy_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for z in (2.0, 0.8 - 0.3j, 0.6 + 0.2j):
        sv = sum_family("phi", z, "Ipi")
        parts = sv.meta["err_parts"]
        assert set(parts) == {"quadrature", "kernel", "tail", "route"}
        assert sv.err == pytest.approx(sum(parts.values()), rel=1e-12)
        assert parts["kernel"] == pytest.approx(abs(z) * 1e-13 / sv.meta["rate"], rel=1e-12)
        w = (mpmath.mpf(3) * mpmath.mpc(z) / 2) ** (mpmath.mpf(2) / 3)
        ref = 2 * mpmath.sqrt(mpmath.pi) * w ** (mpmath.mpf(1) / 4) * mpmath.exp(mpmath.mpc(z)) * mpmath.airyai(w)
        assert abs(sv.value - complex(ref)) <= sv.err, z
    g = G_pm("-", 4.0, 0.25, 0.5 - 0.25j)
    parts = g.meta["err_parts"]
    assert g.err == pytest.approx(sum(parts.values()), rel=1e-12)
    assert parts["kernel"] > 0 and parts["route"] >= 0


# -- the kernel-row cache ------------------------------------------------------------
#
# A psi/phi panel's nodes and kernel values depend on (branch, theta, a, b) only,
# so laplace_ray keeps them in borel._kernel_row; only e^{-z zeta} and the far
# part are computed per z. Cached and fresh rows must give the same bits.

_ROW_CASES = {
    # theta is clamped to 0.45 from the family's cut for the first z, not for the others
    **{f"sum-{fam}-{tag}": (lambda fam=fam, z=z: sum_family(fam, z, "Ipi"))
       for fam, clamped in (("psi", 3.0), ("g", 3.0), ("phi", -3.0 + 0.2j), ("f", -3.0 + 0.2j))
       for tag, z in (("clamped", clamped), ("unclamped", 2.0 - 2.0j), ("small", 0.7 + 0.4j))},
    "sum-psi-given-theta": lambda: sum_family("psi", 2.5, "Iminus", theta=0.3),
    "G_pm-plus": lambda: G_pm("+", 3.0 + 0.5j, 0.1, 0.05),
    "G_pm-minus": lambda: G_pm("-", 2.0 - 1.0j, 0.0, 0.2),
    "connect-right": lambda: connection_check("right", 3.0, 0.1, 0.2),
    "connect-left": lambda: connection_check("left", -0.8 + 0.1j, 0.1, 0.03j),
    "ode-residual": lambda: gpm_ode_residual("-", 3.0 + 0.5j, 0.1, 0.05),
    "lr_sum": lambda: largeradius.lr_sum("-", 0.15, 1.0, 0.0, 0.02),
}


def _bits(result):
    # repr round-trips every float, -0.0 included
    if isinstance(result, borel.SumValue):
        return repr((result.value, result.err, result.meta))
    return repr(result)


@pytest.mark.parametrize("case", sorted(_ROW_CASES))
def test_cached_kernel_rows_give_the_bits_of_fresh_ones(case):
    borel._kernel_row.cache_clear()
    cold = _bits(_ROW_CASES[case]())
    hits = borel._kernel_row.cache_info().hits
    warm = _bits(_ROW_CASES[case]())
    assert warm == cold
    assert borel._kernel_row.cache_info().hits > hits


def test_cached_kernel_rows_are_read_only():
    zs, kern = borel._kernel_row("B", -0.45, 0.0, 4.0)
    for row in (zs, kern):
        with pytest.raises(TypeError):
            row[0] = 0.0
    before = tuple(kern)
    laplace_ray("B", 3.0, -0.45)  # its first panel is this row
    assert borel._kernel_row("B", -0.45, 0.0, 4.0)[1] is kern and kern == before


def test_ray_panel_counts_are_pinned():
    # one psi and one phi ray past R = 4; the loop that splits and accepts panels
    # must keep the count, the end of the numeric segment and a nonzero Kronrod part
    for branch, z, theta, panels, T in (("B", 0.05 + 0.02j, -0.6, 4, 22.28344058124622),
                                        ("B_plus", -0.02 - 0.01j, -2.9, 6, 53.66563145999495)):
        meta = laplace_ray(branch, z, theta).meta
        assert meta["panels"] == panels and meta["T"] == T, meta
        assert meta["quad_err"] > 0


def _asymptotic_sum(family: str, z: complex) -> complex:
    """The family's first 20 terms sum_n c_n (+-z)^{-n}, by Horner in 1/z: at
    |z| >= 2e4 they are exact to rounding (the 20th term is below 1e-70)."""
    w = (1.0 if family in ("psi", "g") else -1.0) / z
    acc = 0j
    for c in reversed(families.gen_c_coeffs(19)):
        acc = acc * w + float(c)
    return cmath.log(acc) if family in ("g", "f") else acc


@pytest.mark.parametrize("modulus", [2e4, 1e5, 1e6, 1e12, 1e100])
def test_large_z_sums_lie_within_err_of_the_asymptotic_sum(modulus):
    # past |z| ~ 1e4 every node of one [0, 4] panel sits beyond the boundary
    # layer e^{-z zeta}; a ray must still see it, and its err must cover the
    # rest without going vacuous, also where the layer is below 1e-9 T thin
    for family in ("psi", "phi", "g", "f"):
        for phase in (0.0, 0.7, -1.2):
            z = modulus * cmath.exp(1j * phase)
            sv = sum_family(family, z)
            assert sv.err < DEFAULT_END_TOL and abs(sv.value - _asymptotic_sum(family, z)) <= sv.err, (family, z, sv)


def test_large_radius_sum_at_small_gs_lies_within_err_of_the_asymptotic_sum():
    z1, _, R = largeradius._frame(1e-3, 1.0)
    assert abs(z1) > 3e5
    sv = largeradius.lr_sum("-", 1e-3, 1.0)
    # a vacuous err would cover any value: it must meet the sum's own tolerance
    assert sv.err < DEFAULT_END_TOL and abs(sv.value - (_asymptotic_sum("g", z1) + R)) <= sv.err, sv


def _mpmath_R(gs: complex, u: complex) -> complex:
    """R = (1/4) log(u^2/w) + (w^{3/2} - 1)/(3 g_s^2 u^3), w = 1 - 2 g_s^2 u^2, as written:
    its second term cancels to about |t| = |g_s^2 u^2|, so the precision grows with |log10 t|."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30 + round(-math.log10(abs(gs * gs * u * u)))):
        G, U = mpmath.mpc(gs), mpmath.mpc(u)
        W = 1 - 2 * G * G * U * U
        return complex(mpmath.log(U * U / W) / 4 + (W ** 1.5 - 1) / (3 * G * G * U ** 3))


@pytest.mark.parametrize("u", [1.0, 0.9 + 0.2j])
@pytest.mark.parametrize("gs", [1e-2, 1e-3, 1e-5, 1e-8])
def test_large_radius_R_keeps_its_digits_at_small_gs(gs, u):
    R = largeradius._frame(gs, u)[2]
    ref = _mpmath_R(gs, u)
    assert abs(R - ref) <= 4e-16 * abs(ref), (R, ref)


@pytest.mark.parametrize("gs", [1e-3, 1e-5])
def test_large_radius_sum_at_small_gs_lies_within_err_of_the_asymptotic_sum_plus_mpmath_R(gs):
    z1 = largeradius._frame(gs, 1.0)[0]
    sv = largeradius.lr_sum("-", gs, 1.0)
    assert sv.err < DEFAULT_END_TOL and abs(sv.value - (_asymptotic_sum("g", z1) + _mpmath_R(gs, 1.0))) <= sv.err, sv


@pytest.mark.parametrize("z", [1e300, -1e300j, complex(1e308, 1e308)])
def test_rays_past_the_float_range_raise_domain_error(z):
    with pytest.raises(DomainError, match="too large to resolve"):
        sum_family("psi", z)


NON_FINITE = [math.inf, -math.inf, math.nan, complex(math.inf, 1.0), complex(1.0, math.nan)]


@pytest.mark.parametrize("z", NON_FINITE, ids=repr)
def test_non_finite_z_raises_domain_error(z):
    for call in (lambda: choose_theta(z, "Ipi"), lambda: laplace_ray("B", z, 0.3),
                 lambda: sum_family("psi", z), lambda: sum_family("psi", z, theta=0.3)):
        with pytest.raises(DomainError, match="must be finite"):
            call()


def test_kernel_row_cache_stays_within_its_bound():
    maxsize = borel._kernel_row.cache_info().maxsize
    for theta in np.linspace(-1.5, -0.2, maxsize + 20):
        borel._kernel_row("B", float(theta), 0.0, 4.0)
    info = borel._kernel_row.cache_info()
    assert info.misses == maxsize + 20 and info.currsize == maxsize


def test_every_ray_of_the_package_is_a_bhat_kernel_ray(monkeypatch):
    kernels = []
    inner = borel.laplace_ray

    def recorded(branch, *args, moment=0, **kwargs):
        kernels.append((branch, moment))
        return inner(branch, *args, moment=moment, **kwargs)

    monkeypatch.setattr(borel, "laplace_ray", recorded)
    sum_family("f", -3.0 + 0.2j, "Ipi")
    G_pm("+", 3.0 + 0.5j, 0.1, 0.05)
    connection_check("right", 3.0, 0.1, 0.2)
    connection_check("left", -0.8 + 0.1j, 0.1, 0.03j)
    median_real_check(4.0, 0.2, 0.1)
    median_real_check(0.9, 0.7, ray="argpi", theta=0.05)
    gpm_ode_residual("-", 3.0 + 0.5j, 0.1, 0.05)
    check_derivation(3.0 - 0.5j)
    gevrey_check(8.0, n_max=12)
    largeradius.lr_sum("-", 0.15, 1.0, 0.0, 0.02)
    largeradius.lr_connection_check("right", 0.3, 1.0, 0.0, 0.02)
    assert len(kernels) >= 30
    assert {("B", 0), ("B_plus", 0), ("B", 1)} == set(kernels)


def test_negative_zero_theta_is_served_the_rows_of_positive_zero():
    # theta = -0.0 is taken as +0.0 at entry: one cache key, one set of signed zeros
    plus = _bits(sum_family("phi", 3.0, theta=0.0))
    info = borel._kernel_row.cache_info()
    assert info.currsize > 0
    assert _bits(sum_family("phi", 3.0, theta=-0.0)) == plus
    after = borel._kernel_row.cache_info()
    assert after.misses == info.misses and after.hits > info.hits


def test_ode_stencil_evaluates_each_panel_row_once(monkeypatch):
    """The five G_pm of one stencil share theta, so their ten rays share rows."""
    seen = []
    inner = borel.eval_Bhat

    def counted(zeta, branch="B"):
        seen.append((branch, np.asarray(zeta).tobytes()))
        return inner(zeta, branch)

    monkeypatch.setattr(borel, "eval_Bhat", counted)
    assert gpm_ode_residual("-", 3.0 + 0.5j, 0.1, 0.05) < 1e-4
    panels = {points for _, points in seen}
    assert len(set(seen)) == len(seen) <= 2 * len(panels)
