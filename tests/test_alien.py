"""The alien-derivation engine: every identity is exact or it is wrong."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resurgentia import families
from resurgentia.alien import (
    Caps,
    Poly,
    TransElement,
    _bridge_residuals,
    _stokes_residual,
    _stokes_window,
    apply_ddz,
    apply_delta,
    apply_delta_plus,
    apply_dotted,
    apply_stokes,
    bridge_check,
    companion_F,
    deltaplus_table,
    expand_to_series,
    formal_integral,
    stokes_action_check,
)
from resurgentia.largeradius import lr_transseries
from resurgentia.scalars import MODE_GAUSSIAN, MODE_RATIONAL, ExactScalar

F = Fraction
I = ExactScalar(0, 1)
WIDE = Caps(8, 8)


def test_formal_integral_grades():
    G = formal_integral(Caps(5, 5))
    assert sorted(k[2] for k in G.terms) == [0, 0, 1, 2, 3, 4, 5]


def test_bridge_identities():
    assert bridge_check(Caps(5, 5))["ok"]


def test_stokes_actions():
    assert stokes_action_check(Caps(5, 5))["ok"]


@pytest.mark.parametrize("sigma", range(3, 7))
@pytest.mark.parametrize("grade", range(3, 7))
def test_stokes_actions_every_cap_pair(sigma, grade):
    # grade > sigma included: the rightward shift brings the low sigma_2
    # powers of grades above the sigma cap back into the window
    res = stokes_action_check(Caps(sigma, grade))
    assert res["residual_right"].is_zero()
    assert res["residual_left"].is_zero()
    assert res["ok"]


def _oriented_residuals(case: str, caps: Caps, unit: ExactScalar) -> list:
    """The shared routines' residuals for one frame and law at an orientation unit.

    case is "companion" or "<frame>-<law>" with frame ds (double scaling) or lr
    (large radius) and law bridge, right (geq0 Stokes) or left (leq0 Stokes).
    """
    if case == "companion":
        F = companion_F(caps.widen(extra_sigma=1, extra_grade=1))
        return list(_bridge_residuals(F, caps, unit, ray=-2, names=("d1", "d2")))
    frame, law = case.split("-")
    direction = {"right": "geq0", "left": "leq0"}.get(law)
    if direction is None:
        window = caps.widen(extra_sigma=1, extra_grade=1)
    else:
        window = _stokes_window(caps, direction)
    x = lr_transseries(window) if frame == "lr" else formal_integral(window, grade_cap=window.grade)
    if direction is None:
        return list(_bridge_residuals(x, caps, unit))
    return [_stokes_residual(x, direction, caps, unit)]


ORIENTATION_CASES = [
    ("ds-right", Caps(3, 3)),
    ("ds-right", Caps(3, 5)),
    ("ds-right", Caps(5, 4)),
    ("ds-left", Caps(3, 3)),
    ("ds-bridge", Caps(3, 3)),
    ("lr-bridge", Caps(3, 3, 4)),
    ("lr-right", Caps(3, 3, 4)),
    ("lr-left", Caps(3, 3, 4)),
    ("companion", Caps(3, 3)),
]


@pytest.mark.parametrize(
    "case, caps", ORIENTATION_CASES, ids=[f"{c}-{k.sigma}-{k.grade}" for c, k in ORIENTATION_CASES]
)
def test_wrong_orientation_is_caught(case, caps):
    # the large-radius frame carries -i where the double-scaling frame and the
    # companion carry +i; the opposite unit must leave a nonzero residual (for
    # ds-right that is the shift sigma_2 -> sigma_2 + i instead of - i)
    unit = ExactScalar(0, -1) if case.startswith("lr-") else I
    assert all(r.is_zero() for r in _oriented_residuals(case, caps, unit))
    assert not all(r.is_zero() for r in _oriented_residuals(case, caps, -unit))


def test_companion_mirror():
    Fc = companion_F(Caps(4, 4))
    assert sorted(k[2] for k in Fc.terms) == [-4, -3, -2, -1, 0, 0]


def test_deltaplus_table_closed_forms():
    tab = deltaplus_table(4, 4)
    minus_i = ExactScalar(0, -1)
    for (om, k), elem in tab.items():
        n = abs(om) // 2
        if om > 0:
            j = k + n
            expected = {(0, j, 0): Poly.const((minus_i ** n) * ExactScalar(F(comb(j, n) * (-1) ** (j - 1), j)))}
        elif n > k:
            expected = {}
        elif n == k:
            expected = {(0, 0, 0): Poly.const((I ** k) * ExactScalar(F(-1, k)))}
        else:
            j = k - n
            expected = {(0, j, 0): Poly.const((I ** n) * ExactScalar(F(comb(k - 1, n) * (-1) ** (j - 1), j)))}
        assert elem.terms == {kk: v for kk, v in expected.items() if not v.is_zero()}, (om, k)


def test_deltaplus_on_free_energy_generator():
    g = TransElement.generator("g", WIDE)
    for m in (1, 2, 3):
        got = apply_delta_plus(g, 2 * m)
        want = TransElement({(0, m, 0): Poly.const((I ** m) * ExactScalar(F(-1, m)))}, WIDE)
        assert got == want, m


def _fuzz_element():
    return TransElement(
        {
            (1, 2, 1): Poly.var("s2", 2) * Poly.var("p"),
            (0, -3, -2): Poly.var("q", 1, F(2, 3)) + Poly.var("z", -1),
            (2, 0, 0): Poly.var("s1") * Poly.var("d2"),
        },
        WIDE,
    )


def test_deltaplus_composition_identities():
    x = _fuzz_element()
    lhs = apply_delta_plus(x, 4)
    rhs = apply_delta(x, 4) + apply_delta(apply_delta(x, 2), 2).scale(F(1, 2))
    assert lhs == rhs
    lhs6 = apply_delta_plus(x, -6)
    rhs6 = (
        apply_delta(x, -6)
        + (apply_delta(apply_delta(x, -2), -4) + apply_delta(apply_delta(x, -4), -2)).scale(F(1, 2))
        + apply_delta(apply_delta(apply_delta(x, -2), -2), -2).scale(F(1, 6))
    )
    assert lhs6 == rhs6


def test_leibniz_rules():
    x = _fuzz_element()
    y = TransElement(
        {
            (0, 1, 1): Poly.var("s2") * Poly.var("q"),
            (0, 0, -1): Poly.var("z", -2, F(5, 36)),
        },
        WIDE,
    )
    for om in (2, -2):
        assert apply_delta(x * y, om) == apply_delta(x, om) * y + x * apply_delta(y, om)
    assert apply_ddz(x * y) == apply_ddz(x) * y + x * apply_ddz(y)


def test_dotted_derivations_commute_with_ddz():
    x = _fuzz_element()
    for direction in ("geq0", "leq0"):
        assert apply_ddz(apply_dotted(x, direction)) == apply_dotted(apply_ddz(x), direction)


def test_stokes_one_parameter_group():
    t1 = Poly.var("t1")
    t2 = Poly.var("t2")
    for direction in ("geq0", "leq0"):
        src = formal_integral(Caps(6, 6), grade_cap=6)
        assert apply_stokes(src, direction, t1 + t2) == apply_stokes(
            apply_stokes(src, direction, t2), direction, t1
        )


def test_expansion_matches_series_routes():
    G = formal_integral(Caps(5, 5))
    exp = expand_to_series(G, 20)
    psi, phi = families.gen_psi_phi(22)
    ratio = (phi.series * psi.series.inverse()).truncate(20)
    assert exp[((0, 1, 0, 0, 0, 0), 1)] == ratio
    assert exp[((0, 0, 0, 0, 0, 0), 0)] == psi.series.log().truncate(20)


def test_ddz_expands_to_log_derivative():
    g = TransElement.generator("g", WIDE)
    exp = expand_to_series(apply_ddz(g), 20)
    psi, _ = families.gen_psi_phi(22)
    want = psi.series.log()._deriv_in_window(1).truncate(20)
    assert exp[((0, 0, 0, 0, 0, 0), 0)] == want


def test_leftward_admissibility_rejection():
    bad = TransElement({(0, 1, 1): Poly.const(1)}, WIDE)
    with pytest.raises(ArithmeticError, match="admissible"):
        apply_stokes(bad, "leq0")


def test_affine_algebra_rejection():
    g = TransElement.generator("g", WIDE)
    with pytest.raises(ArithmeticError):
        g * g


def test_odd_ray_rejection():
    g = TransElement.generator("g", WIDE)
    with pytest.raises(ValueError):
        apply_delta(g, 3)
    with pytest.raises(ValueError):
        apply_delta(g, 0)


def test_far_rays_annihilate():
    x = _fuzz_element()
    for om in (4, 6, 8, -4, -6, -8):
        assert apply_delta(x, om).is_zero(), om


small_polys = st.sampled_from(
    [
        Poly.var("s2"),
        Poly.var("s1") * Poly.var("s2"),
        Poly.var("p", 2),
        Poly.var("q", 1, F(1, 3)),
        Poly.var("z", -1),
        Poly.const(F(2, 7)),
    ]
)
keys = st.tuples(
    st.sampled_from([0, 1, 2]),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2),
)


@given(st.dictionaries(keys, small_polys, min_size=1, max_size=3))
def test_delta_is_a_derivation_fuzz(terms):
    x = TransElement(terms, WIDE)
    y = TransElement({(0, 1, 1): Poly.var("s2")}, WIDE)
    for om in (2, -2):
        assert apply_delta(x * y, om) == apply_delta(x, om) * y + x * apply_delta(y, om)


@given(st.dictionaries(keys, small_polys, min_size=1, max_size=3))
def test_rightward_stokes_invertible_fuzz(terms):
    x = TransElement(terms, WIDE)
    forward = apply_stokes(x, "geq0")
    back = apply_stokes(forward, "geq0", -1)
    assert back.truncated(Caps(6, 6)) == x.truncated(Caps(6, 6))


# -- the Poly product kernel against the term-by-term scalar loop ---------------


def _reference_mul(a: Poly, b: Poly) -> Poly:
    """The ExactScalar loop the product kernel replaces."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            s = out.get(mono, ExactScalar.zero()) + c1 * c2
            if s.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = s
    return Poly(out)


def _mono(s2, p, z, u, w):
    return (0, s2, 0, 0, 0, 0, p, 0, z, u, 0, w)


def _kernel_coeff(re, im, gaussian):
    if gaussian:
        return ExactScalar(re, im, MODE_GAUSSIAN)
    return ExactScalar(re, 0, MODE_RATIONAL)


# few slots and small values, so products collide and cancel often; gaussian
# mode includes coefficients whose imaginary part is 0
kernel_coeffs = st.builds(
    _kernel_coeff,
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.sampled_from([F(0), F(1), F(-1), F(1, 2)]),
    st.booleans(),
)
kernel_monos = st.builds(
    _mono,
    st.integers(0, 2),
    st.integers(0, 1),
    st.integers(-2, 1),
    st.integers(-2, 1),
    st.integers(-1, 1),
)
kernel_polys = st.dictionaries(kernel_monos, kernel_coeffs, max_size=6).map(Poly)


def _assert_same_product(a: Poly, b: Poly):
    got = a * b
    want = _reference_mul(a, b)
    assert got.terms == want.terms
    assert list(got.terms) == list(want.terms)
    assert [c.mode for c in got.terms.values()] == [c.mode for c in want.terms.values()]
    assert got.to_str() == want.to_str()


@given(kernel_polys, kernel_polys, kernel_polys)
def test_poly_mul_matches_scalar_loop(p, q, r):
    _assert_same_product(p, q)
    # (p + q)(p - q): the cross products cancel to zero, after which later
    # products restart the term and its mode tag
    _assert_same_product(p + q, p - q)
    _assert_same_product(p + q + r, (q - r) * p)


def test_poly_mul_mode_tag_resets_after_cancellation():
    # the z term of (1 + z + z^2)(z - 1 + z^-1), with the constant 1 tagged
    # gaussian, receives +1 (gaussian), -1 (cancels to zero), then +1
    # (rational): only the product after the cancellation sets the tag
    x = Poly.const(ExactScalar(1, 0, MODE_GAUSSIAN)) + Poly.var("z") + Poly.var("z", 2)
    y = Poly.var("z") - Poly.const(1) + Poly.var("z", -1)
    _assert_same_product(x, y)
    z_term = (x * y).terms[_mono(0, 0, 1, 0, 0)]
    assert z_term.mode == MODE_RATIONAL and z_term == 1


def test_poly_mul_rejects_exponents_beyond_the_kernel():
    with pytest.raises(OverflowError):
        Poly.var("z", -(1 << 31)) * Poly.var("z")
