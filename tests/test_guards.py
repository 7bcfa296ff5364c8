"""Input guards that no other in-process test reaches: each must raise its own error."""

import math
import re
from fractions import Fraction

import pytest

from resurgentia import acceptance, alien, borel, largeradius
from resurgentia.alien import IDX, NVARS, Caps, Poly, TransElement
from resurgentia.borel import (
    BranchCutError, DomainError, G_pm, QuadratureError, gevrey_check, singularity_locate, sum_family,
)
from resurgentia.largeradius import UCoeffSeries, ULaurent, make_context
from resurgentia.scalars import ExactScalar
from resurgentia.series import PowerSeries

_S1_INVERSE = (-1,) + (0,) * (NVARS - 1)
_Z_POWER_2_31 = tuple(1 << 31 if k == IDX["z"] else 0 for k in range(NVARS))
_NEGATIVE_CAP = "the sigma_2, grade and z-order caps must be nonnegative"
_UNKNOWN_VARIABLE = "unknown variable 'x': the variables are s1, s2, p, q, z, u, lu, w"


def _context_power(n):
    """power(n) of a context whose cache already holds power(1): n is refused ahead of the cache."""
    context = make_context(4)
    context.power(1)
    return context.power(n)


GUARDS = {
    "poly-arity": (lambda: Poly({(1, 2): 1}), ValueError, "arity mismatch"),
    "poly-negative-exponent": (lambda: Poly({_S1_INVERSE: 1}), ValueError, "negative exponent for s1"),
    "poly-slot-init": (lambda: Poly({_Z_POWER_2_31: 1}), OverflowError, "32-bit slot"),
    "poly-slot-deriv": (lambda: Poly.var("z", -(1 << 31)).deriv("z"), OverflowError, "32-bit slot"),
    # exponents and basis keys are ints: not packed namelessly by struct, nor a bool read as 1
    "poly-float-exponent": (lambda: Poly.var("s2", 1.5), TypeError, "exponent of s2 must be an int, not float"),
    "poly-bool-exponent": (lambda: Poly.var("s2", True), TypeError, "exponent of s2 must be an int, not bool"),
    "element-float-e-power": (lambda: TransElement({(0, 0.5, 0): alien.ONE_POLY}), TypeError,
                              "basis key m must be an int, not float"),
    "ulaurent-float-shift": (lambda: ULaurent.mono(1, 1).shift(0.5), TypeError, "shift must be an int, not float"),
    "ulaurent-bool-shift": (lambda: ULaurent.mono(1, 1).shift(True), TypeError, "shift must be an int, not bool"),
    "element-caps": (
        lambda: TransElement.generator("g", Caps(3, 3)) + TransElement.generator("g", Caps(4, 4)),
        ValueError, "different caps",
    ),
    "series-negative-order": (lambda: PowerSeries(-1, ()), ValueError, "order must be nonnegative"),
    "truncate-past-window": (lambda: PowerSeries.one(3).truncate(4), ValueError, "cannot extend"),
    "truncate-below-window": (lambda: PowerSeries.one(3).truncate(-1), ValueError, "order must be nonnegative"),
    "diff-order-0": (lambda: PowerSeries.one(0).diff(), ValueError, "order-0 window"),
    "pade-complex-input": (
        lambda: singularity_locate([ExactScalar(1, 1)] + [Fraction(1)] * 39, "pade"),
        ValueError, "real coefficients",
    ),
    # no tolerance is below the rounding of the two routes
    "gpm-route-disagreement": (
        lambda: G_pm("+", 3.0, 0, 1, tol=1e-30), QuadratureError, "series and closed-form routes disagree",
    ),
    "gevrey-n-max-0": (lambda: gevrey_check(-10j, "Iminus", 0), ValueError, "n_max must be at least 1"),
    "generator-unknown-name": (lambda: TransElement.generator("h"), ValueError, "which must be one of g, f, E, Einv"),
    # a negative cap is refused before any build, so it never becomes a frame's stored build
    "formal-integral-sigma-cap": (lambda: alien.formal_integral(Caps(-1, 3)), ValueError, _NEGATIVE_CAP),
    "formal-integral-grade-cap": (lambda: alien.formal_integral(Caps(3, -2)), ValueError, _NEGATIVE_CAP),
    "lr-transseries-grade-cap": (lambda: largeradius.lr_transseries(Caps(3, -1, 4)), ValueError, _NEGATIVE_CAP),
    # a z order of 0 has no context; it is refused before the double-scaling build
    "lr-transseries-z-order-0": (lambda: largeradius.lr_transseries(Caps(3, 3, 0)), ValueError,
                                 "z order must be positive"),
    # a non-finite sigma is refused before any quadrature, not summed into a NaN or inf
    "gpm-sigma1-inf": (lambda: G_pm("+", 3.0, sigma1=math.inf), DomainError, "sigma_1 and sigma_2 must be finite"),
    "gpm-sigma2-nan": (lambda: G_pm("+", 3.0, sigma2=math.nan), DomainError, "sigma_1 and sigma_2 must be finite"),
    "connection-sigma2-nan": (lambda: borel.connection_check("right", 3.0, 0, math.nan), DomainError,
                              "sigma_1 and sigma_2 must be finite"),
    "median-real-sigma1-nan": (lambda: borel.median_real_check(3.0, math.nan, 0.0), DomainError,
                               "sigma_1 and sigma_2 must be finite"),
    "lr-sum-sigma2-inf": (lambda: largeradius.lr_sum("+", 0.1, 1.0, sigma2=math.inf), DomainError,
                          "sigma_1 and sigma_2 must be finite"),
    "laplace-theta-inf": (lambda: borel.laplace_ray("B", 2.0, math.inf), DomainError, "theta must be finite"),
    "laplace-theta-nan": (lambda: borel.laplace_ray("B", 2.0, math.nan), DomainError, "theta must be finite"),
    # past 2^48 floats are spaced wider than a ray's standoff: the window's own end is no direction
    "choose-theta-window-past-resolution": (lambda: borel.choose_theta(3.0, (1e16, 1e16 + 3.0)), DomainError,
                                            "float resolution of an angle"),
    "choose-theta-window-past-resolution-mirrored": (lambda: borel.choose_theta(3.0, (-1e16 - 3.0, -1e16)),
                                                     DomainError, "float resolution of an angle"),
    # an unknown variable name is a ValueError that names the variables, not a bare KeyError
    "poly-var-unknown": (lambda: Poly.var("x"), ValueError, _UNKNOWN_VARIABLE),
    "poly-deriv-unknown": (lambda: Poly.var("s1").deriv("x"), ValueError, _UNKNOWN_VARIABLE),
    "poly-subst-unknown": (lambda: Poly.var("s1").subst("x", Poly.var("s2")), ValueError, _UNKNOWN_VARIABLE),
    "poly-drop-unknown": (lambda: Poly.var("s1").drop_high_degree("x", 2), ValueError, _UNKNOWN_VARIABLE),
    "poly-min-degree-unknown": (lambda: Poly.var("s1").min_degree("x"), ValueError, _UNKNOWN_VARIABLE),
    "element-partial-unknown": (lambda: TransElement.generator("g").partial("x"), ValueError, _UNKNOWN_VARIABLE),
    "element-subst-unknown": (lambda: TransElement.generator("g").subst("x", Poly.var("s2")), ValueError,
                              _UNKNOWN_VARIABLE),
    "empty-element-partial-unknown": (lambda: TransElement().partial("x"), ValueError, _UNKNOWN_VARIABLE),
    "empty-element-subst-unknown": (lambda: TransElement().subst("x", Poly.var("s2")), ValueError,
                                    _UNKNOWN_VARIABLE),
    # window sizes are ints: a float is not cut to an int deep inside a build, nor a bool read as 1
    "formal-integral-float-caps": (lambda: alien.formal_integral(Caps(2.5, 2.5)), TypeError,
                                   "sigma_2 cap must be an int, not float"),
    "bridge-check-bool-cap": (lambda: alien.bridge_check(Caps(True, 2)), TypeError,
                              "sigma_2 cap must be an int, not bool"),
    "lr-bridge-float-z-order": (lambda: largeradius.lr_bridge_check(Caps(3, 3, 2.5)), TypeError,
                                "z order must be an int, not float"),
    "make-context-bool-z-order": (lambda: make_context(True), TypeError, "z order must be an int, not bool"),
    # power n is packed into the w slot: an int inside its 32 bits, never a bool served power(1)
    "context-power-bool": (lambda: _context_power(True), TypeError, "power must be an int, not bool"),
    "context-power-float": (lambda: _context_power(2.5), TypeError, "power must be an int, not float"),
    "context-power-past-slot": (lambda: _context_power(1 << 31), OverflowError, "32-bit slot"),
    "gen-hn-bool-index": (lambda: largeradius.gen_Hn(True, 2), TypeError,
                          "component index must be an int, not bool"),
    "ucoeff-float-order": (lambda: UCoeffSeries("z2", 1.0, (ULaurent.const(1), ULaurent())), TypeError,
                           "order must be an int, not float"),
}
# a tolerance that is not finite and positive is refused before any quadrature
for _name, _t in (("0", 0.0), ("minus-1", -1.0), ("nan", math.nan), ("inf", math.inf)):
    GUARDS |= {
        f"sum-tol-{_name}": (lambda t=_t: sum_family("psi", 3.0, tol=t), ValueError, "tol must be finite"),
        f"gpm-tol-{_name}": (lambda t=_t: G_pm("+", 3.0, 0, 1, tol=t), ValueError, "tol and quad_tol must be"),
        f"gpm-quad-tol-{_name}": (lambda t=_t: G_pm("-", 3.0, quad_tol=t), ValueError, "tol and quad_tol must be"),
        f"lr-sum-tol-{_name}": (lambda t=_t: largeradius.lr_sum("+", 0.1, 1.0, tol=t), ValueError,
                                "tol and quad_tol must be"),
    }


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_guard_raises(case):
    call, error, message = GUARDS[case]
    with pytest.raises(error, match=message):
        call()


# -- guards that only a spoiled input reaches --------------------------------------


def _spoil_exp_phi(monkeypatch):
    real = largeradius._exp_phi
    monkeypatch.setattr(largeradius, "_exp_phi", lambda n, N: real(n, N).scale(2))


def _shifted_factors(real, N):
    """F+ = 1 + u/z and F- = sum_k (-u/z)^k, its inverse through z^-N, as u-row series."""
    plus = [ULaurent.const(1), ULaurent.mono(1, 1)] + [ULaurent()] * (N - 1)
    minus = [ULaurent.mono(k, (-1) ** k) for k in range(N + 1)]
    return UCoeffSeries("z2", N, plus), UCoeffSeries("z2", N, minus)


def _spoil_ray_factors(factors):
    """The u-row series the factor certificate chains, _exp_phi at n = +-1, are factors(_exp_phi, N);
    every other series stays."""
    def spoil(monkeypatch):
        real = largeradius._exp_phi

        def spoiled(n, N):
            if n not in (1, -1):
                return real(n, N)
            plus, minus = factors(real, N)
            # still a pair that inverts through z^-N: an inverse check alone would pass it
            assert largeradius._z_poly(plus * minus) == Poly.const(1)
            return plus if n == 1 else minus

        monkeypatch.setattr(largeradius, "_exp_phi", spoiled)

    return spoil


_RAY_FACTOR = "ray factor e^{-2n(phi_u + 1/u)} fails its equation in z2"


def _consistent_factors(monkeypatch):
    """e^{-4n phi_u} in place of e^{-2n phi_u} for every n: every exponent law and inversion still holds."""
    real = largeradius._exp_phi
    monkeypatch.setattr(largeradius, "_exp_phi", lambda n, N: real(2 * n, N))


# F+- = 1 + u/z and its inverse, or e^{-+4 phi_u} in place of e^{-+2 phi_u}
FACTOR_SPOILS = {
    "context-factor-shifted": _spoil_ray_factors(_shifted_factors),
    "context-factor-doubled": _spoil_ray_factors(lambda real, N: (real(2, N), real(-2, N))),
}


def _doubled_rtilde(monkeypatch):
    """lr_transseries adds 2R~: no bridge or Stokes residual sees a grade-0 elementary term."""
    real = largeradius._rtilde_poly
    monkeypatch.setattr(largeradius, "_rtilde_poly", lambda zorder: real(zorder).scale(2))


def _endless_dotted(monkeypatch):
    """A dotted derivation that never reaches zero; each real one is nilpotent under the caps."""
    calls = []

    def endless(x, direction):
        calls.append(direction)
        if len(calls) > 100:  # the guard stops a Caps(3, 3) element after 17 steps
            raise RuntimeError("apply_stokes ran past its termination guard")
        return x

    monkeypatch.setattr(alien, "apply_dotted", endless)


def _negative_psi_ray(monkeypatch):
    """S psi = z * (the B ray's value) moved onto the negative real axis."""
    real = borel.laplace_ray

    def spoiled(branch, z, theta, *args, **kwargs):
        sv = real(branch, z, theta, *args, **kwargs)
        return sv._replace(value=-1.0 / complex(z)) if branch == "B" else sv

    monkeypatch.setattr(borel, "laplace_ray", spoiled)


def _large_phi_ray(monkeypatch):
    """S phi = z * (the B_plus ray's value) a thousand times too large: at z = 3,
    sigma_2 = 1 the ratio sigma_2 e^{-2z} S phi / S psi is then about 2.5."""
    real = borel.laplace_ray

    def spoiled(branch, z, theta, *args, **kwargs):
        sv = real(branch, z, theta, *args, **kwargs)
        return sv._replace(value=1e3 * sv.value) if branch == "B_plus" else sv

    monkeypatch.setattr(borel, "laplace_ray", spoiled)


SPOILED_GUARDS = {
    # make_context's cache is bypassed, so no spoiled context is kept; row 0 of the factor reads 2
    "context-inverse": (_spoil_exp_phi, lambda: make_context.__wrapped__(4).power(1),
                        ArithmeticError, re.escape(_RAY_FACTOR)),
    "stokes-termination": (_endless_dotted,
                           lambda: alien.apply_stokes(TransElement.generator("g", Caps(3, 3)), "geq0"),
                           ArithmeticError, "failed to terminate"),
    "sum-negative-log": (_negative_psi_ray, lambda: sum_family("g", 3.0), BranchCutError, "negative real sum"),
    "gpm-negative-log": (_negative_psi_ray, lambda: G_pm("-", 3.0), BranchCutError, "negative real sum"),
    # Re z = 3 lies inside the solution domain Re z > (1/2) log 2 of sigma_2 = 1
    "gpm-not-contractive": (_large_phi_ray, lambda: G_pm("+", 3.0, 0, 1), DomainError, "not contractive"),
    # power(n) reads the ray factor through its equation, which a spoiled factor fails
    **{name: (spoil, lambda: largeradius.lr_transseries(Caps(3, 3, 4)), ArithmeticError, re.escape(_RAY_FACTOR))
       for name, spoil in FACTOR_SPOILS.items()},
    # the grade-0 elementary term is compared with the R~ of gen_R, which criterion 2 certifies
    "lr-transseries-doubled-rtilde": (_doubled_rtilde, lambda: largeradius.lr_transseries(Caps(3, 3, 4)),
                                      ArithmeticError, "elementary term disagrees with gen_R"),
}


@pytest.mark.parametrize("case", sorted(SPOILED_GUARDS))
def test_guard_raises_on_a_spoiled_input(monkeypatch, case):
    spoil, call, error, message = SPOILED_GUARDS[case]
    spoil(monkeypatch)
    with pytest.raises(error, match=message):
        call()


def _fails_criterion_4_by_the_ray_factor() -> None:
    # criterion 3 reads no ray factor (its residuals are zero, so _in_frame builds no power);
    # criterion 4 reads gen_Hn, which reads the factor through its equation
    failed = [r for r in acceptance.run_all() if not r.passed]
    assert [r.number for r in failed] == [4]
    assert failed[0].detail == "ArithmeticError: " + _RAY_FACTOR


@pytest.mark.parametrize("case", sorted(FACTOR_SPOILS))
def test_a_spoiled_ray_factor_fails_verify_all(monkeypatch, case):
    FACTOR_SPOILS[case](monkeypatch)
    _fails_criterion_4_by_the_ray_factor()


def test_a_consistently_wrong_ray_factor_fails_its_equation(monkeypatch):
    _consistent_factors(monkeypatch)
    with pytest.raises(ArithmeticError, match=re.escape(_RAY_FACTOR)):
        largeradius.gen_Hn(1, 2)
    with pytest.raises(ArithmeticError, match=re.escape(_RAY_FACTOR)):
        largeradius.lr_transseries(Caps(3, 3, 4))
    _fails_criterion_4_by_the_ray_factor()


def test_a_doubled_rtilde_fails_verify_all(monkeypatch):
    _doubled_rtilde(monkeypatch)
    failed = [r for r in acceptance.run_all() if not r.passed]
    assert [r.number for r in failed] == [3]
    assert failed[0].detail == "ArithmeticError: large-radius elementary term disagrees with gen_R"


# -- the None returns of the exact Newton step of the Pade route ---------------------

_A = -10 ** 308  # (t - A)^2 + B: from x = A + 1e300 the first step is about 1.5e308


@pytest.mark.parametrize("C, x", [
    ([1, 0, 1], 0.0),  # 1 + t^2 at its critical point: T = 0
    ([2, -2, 0, 1], 0.0),  # t^3 - 2t + 2: the steps cycle 0 -> 1 -> 0 and never settle
    ([1, 0, 1], 5e-324),  # the first step, about 1/(2x), is past the float range
    ([_A * _A + 3 * 10 ** 608, -2 * _A, 1], -1e308 + 1e300),  # x - step is past it
], ids=["derivative-zero", "cycle", "step-overflows", "x-overflows"])
def test_exact_real_root_returns_none(C, x):
    assert borel._exact_real_root(C, x) is None
