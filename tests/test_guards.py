"""Input guards that no other in-process test reaches: each must raise its own error."""

from fractions import Fraction

import pytest

from resurgentia.alien import IDX, NVARS, Caps, Poly, TransElement
from resurgentia.borel import singularity_locate
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
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_guard_raises(case):
    call, error, message = GUARDS[case]
    with pytest.raises(error, match=message):
        call()
