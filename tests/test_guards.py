"""Input guards that no other in-process test reaches: each must raise its own error."""

from fractions import Fraction

import pytest

from resurgentia import alien, borel, largeradius
from resurgentia.alien import IDX, NVARS, Caps, Poly, TransElement
from resurgentia.borel import BranchCutError, DomainError, G_pm, QuadratureError, singularity_locate, sum_family
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
    "context-ray": (lambda: make_context(4).factor(4), ValueError, "rays \\+2 and -2 only"),
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
}


@pytest.mark.parametrize("case", sorted(SPOILED_GUARDS))
def test_guard_raises_on_a_spoiled_input(monkeypatch, case):
    spoil, call, error, message = SPOILED_GUARDS[case]
    spoil(monkeypatch)
    with pytest.raises(error, match=message):
        call()


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
