"""Input guards that no other in-process test reaches: each must raise its own error."""

import math
from fractions import Fraction

import pytest

from resurgentia import acceptance, alien, borel, largeradius
from resurgentia.alien import IDX, NVARS, Caps, CompositionContext, Poly, TransElement
from resurgentia.borel import (
    BranchCutError, DomainError, G_pm, QuadratureError, gevrey_check, singularity_locate, sum_family,
)
from resurgentia.largeradius import make_context
from resurgentia.scalars import ExactScalar
from resurgentia.series import PowerSeries

_S1_INVERSE = (-1,) + (0,) * (NVARS - 1)
_Z_POWER_2_31 = tuple(1 << 31 if k == IDX["z"] else 0 for k in range(NVARS))

GUARDS = {
    "poly-arity": (lambda: Poly({(1, 2): 1}), ValueError, "arity mismatch"),
    "poly-negative-exponent": (lambda: Poly({_S1_INVERSE: 1}), ValueError, "negative exponent for s1"),
    "poly-slot-init": (lambda: Poly({_Z_POWER_2_31: 1}), OverflowError, "32-bit slot"),
    "poly-slot-deriv": (lambda: Poly.var("z", -(1 << 31)).deriv("z"), OverflowError, "32-bit slot"),
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


def _shifted_factors(ctx):
    """F+ = 1 + u/z and F- = sum_k (-u/z)^k, its inverse through z^-zcap."""
    minus = sum((Poly.var("u", k, (-1) ** k) * Poly.var("z", -k) for k in range(1, ctx.zcap + 1)), Poly.const(1))
    return Poly.const(1) + Poly.var("u") * Poly.var("z", -1), minus


def _spoil_ray_factors(factors):
    """make_context returns fresh contexts whose ray factors power(+-1), the values
    apply_delta multiplies by, are factors(fresh context); every other power stays."""
    def spoil(monkeypatch):
        def spoiled_context(zcap=8):
            fresh = make_context.__wrapped__(zcap)
            plus, minus = factors(fresh)
            # still a pair that inverts under the z cap, so make_context's own check would pass
            assert (plus * minus).drop_low_z(zcap) == Poly.const(1)
            return CompositionContext(lambda n: {1: plus, -1: minus}[n] if n in (1, -1) else fresh.power(n), zcap)

        monkeypatch.setattr(largeradius, "make_context", spoiled_context)

    return spoil


# F+- = 1 + u/z and its inverse, or e^{-+4 phi_u} in place of e^{-+2 phi_u}
FACTOR_SPOILS = {
    "context-factor-shifted": _spoil_ray_factors(_shifted_factors),
    "context-factor-doubled": _spoil_ray_factors(lambda ctx: (ctx.power(2), ctx.power(-2))),
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
    # make_context's cache is bypassed, so no spoiled context is kept
    "context-inverse": (_spoil_exp_phi, lambda: make_context.__wrapped__(4),
                        ArithmeticError, "fail to invert each other"),
    "stokes-termination": (_endless_dotted,
                           lambda: alien.apply_stokes(TransElement.generator("g", Caps(3, 3)), "geq0"),
                           ArithmeticError, "failed to terminate"),
    "sum-negative-log": (_negative_psi_ray, lambda: sum_family("g", 3.0), BranchCutError, "negative real sum"),
    "gpm-negative-log": (_negative_psi_ray, lambda: G_pm("-", 3.0), BranchCutError, "negative real sum"),
    # Re z = 3 lies inside the solution domain Re z > (1/2) log 2 of sigma_2 = 1
    "gpm-not-contractive": (_large_phi_ray, lambda: G_pm("+", 3.0, 0, 1), DomainError, "not contractive"),
    # the explicit route reads e^{-2n phi_u} from its closed form, the exp route
    # forms it from n ray factors, so a spoiled ray factor splits the two
    **{name: (spoil, lambda: largeradius.lr_transseries(Caps(3, 3, 4)),
              ArithmeticError, "formal-integral route disagreement")
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


@pytest.mark.parametrize("case", sorted(FACTOR_SPOILS))
def test_a_spoiled_ray_factor_fails_criterion_3(monkeypatch, case):
    FACTOR_SPOILS[case](monkeypatch)
    result = acceptance.criterion_3()
    assert not result.passed
    assert result.detail == "ArithmeticError: formal-integral route disagreement"


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
