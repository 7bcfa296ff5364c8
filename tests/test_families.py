"""The divergent solution family and its exact derivates."""

import hashlib
import json
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resurgentia import families
from resurgentia.scalars import ExactScalar
from resurgentia.series import PowerSeries

F = Fraction


def test_kernel_coefficients_frozen():
    cs = families.gen_c_coeffs(8)
    assert cs[0] == F(1)
    assert cs[1] == F(5, 72)
    assert cs[2] == F(385, 10368)
    assert cs[3] == F(85085, 2239488)
    assert cs[4] == F(37182145, 644972544)


def test_psi_matches_kernel_route():
    # Gamma-ratio recurrence vs the Airy-ODE recursion inside gen_psi_phi
    cs = families.gen_c_coeffs(12)
    psi, _ = families.gen_psi_phi(12)
    for n in range(13):
        assert psi.series.coeff(n).re == cs[n]


def _fraction_closed_form(order: int) -> list:
    """The Fraction loop the integer route (a) replaced: the Gamma-ratio recurrence."""
    cs = [F(1)]
    for n in range(order):
        cs.append(cs[-1] * F(6 * n + 1, 6) * F(6 * n + 5, 6) / (2 * (n + 1)))
    return cs


def _fraction_ode_recursion(order: int) -> list:
    """The Fraction loop the integer route (b) replaced: n(n+1) d_n - 2(n+1) d_{n+1} + (5/36) d_n = 0."""
    ds = [F(1)]
    for n in range(order):
        ds.append(ds[-1] * (F(n * (n + 1)) + F(5, 36)) / (2 * (n + 1)))
    return ds


@pytest.mark.parametrize("order", [0, 1, 2, 64, 160])
def test_integer_psi_routes_match_the_fraction_recurrences(order):
    want = _fraction_closed_form(order)
    assert _fraction_ode_recursion(order) == want
    den = 72 ** order * factorial(order)
    assert [F(c, den) for c in families._psi_closed_form(order)] == want
    assert [F(c, den) for c in families._psi_by_ode_recursion(order)] == want
    assert families.gen_c_coeffs(order) == want
    psi, phi = families.gen_psi_phi(order)
    assert psi.series == PowerSeries.from_coeffs(want)
    assert phi.series == PowerSeries.from_coeffs([(-1) ** n * c for n, c in enumerate(want)])


def test_psi_rejects_a_negative_order():
    for build in (families.gen_c_coeffs, families.gen_psi_phi):
        with pytest.raises(ValueError, match="nonnegative"):
            build(-1)


def test_phi_is_reflection():
    psi, phi = families.gen_psi_phi(10)
    assert phi.series == psi.series.reflect()


def test_free_energy_frozen():
    g, f, a = families.gen_g_f(8)
    assert [g.series.coeff(k).re for k in range(5)] == [
        F(0), F(5, 72), F(5, 144), F(1105, 31104), F(565, 10368),
    ]
    assert f.series == g.series.reflect()
    assert a[:4] == [F(5, 24), F(5, 16), F(1105, 1152), F(565, 128)]


def test_genus_scaling_identity():
    g, _, a = families.gen_g_f(12)
    for k, ag in enumerate(a):
        assert ag == F(3) ** (k + 1) * g.series.coeff(k + 1).re


def test_ode_residuals_vanish():
    psi, _ = families.gen_psi_phi(24)
    assert families.ode_residual(psi.series, "airy_linear").is_zero()
    g, _, _ = families.gen_g_f(24)
    assert families.ode_residual(g.series, "hae_nonlinear").is_zero()


def test_nonlinear_residual_constant_shift_invariance():
    g, _, _ = families.gen_g_f(12)
    shifted = g.series + PowerSeries.constant(F(7, 3), 12)
    assert families.ode_residual(shifted, "hae_nonlinear").is_zero()


def test_ode_residual_catches_wrong_series():
    s = PowerSeries.from_coeffs([1, 1, 1, 1, 1], 4)
    assert not families.ode_residual(s, "airy_linear").is_zero()
    with pytest.raises(ValueError):
        families.ode_residual(PowerSeries.one(1), "airy_linear")
    with pytest.raises(ValueError):
        families.ode_residual(PowerSeries.one(4), "bogus")


@pytest.mark.parametrize("order", [2, 3])
def test_ode_residual_needs_the_z2_coefficient(order):
    # below order 4 the window stops above z^-2, where it vanishes for any series
    for which, build in (("airy_linear", lambda: families.gen_psi_phi(order)[0]),
                         ("hae_nonlinear", lambda: families.gen_g_f(order)[0])):
        with pytest.raises(ValueError, match="order >= 4.*z\\^-2"):
            families.ode_residual(build().series, which)


def test_ode_residual_sees_a_wrong_c1_at_order_4():
    psi = families.gen_psi_phi(4)[0].series
    g = families.gen_g_f(4)[0].series
    assert families.ode_residual(psi, "airy_linear").is_zero()
    assert families.ode_residual(g, "hae_nonlinear").is_zero()
    wrong_c1 = PowerSeries.monomial(1, 4)
    assert not families.ode_residual(psi + wrong_c1, "airy_linear").is_zero()
    assert not families.ode_residual(g + wrong_c1, "hae_nonlinear").is_zero()


def _composed_ode_residual(series: PowerSeries, which: str) -> PowerSeries:
    """The residual composed of series operations, each one canonical: the form
    ode_residual had before it became one integer pass."""
    n = series.order
    quad = PowerSeries.monomial(2, n - 2, F(5, 36))
    d1 = series.diff()
    if which == "airy_linear":
        return d1.diff() + d1.truncate(n - 2).scale(2) + quad * series.truncate(n - 2)
    low = d1.truncate(n - 2)  # the top row of d1 leaves the window of d2
    return d1.diff() + low * low + low.scale(2) + quad


_small = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def residual_windows(draw):
    """Real and Gaussian windows of order 4..40."""
    n = draw(st.integers(4, 40))
    im = _small if draw(st.booleans()) else st.just(F(0))
    return PowerSeries(n, tuple(draw(st.lists(st.builds(ExactScalar, _small, im), min_size=n + 1, max_size=n + 1))))


def _assert_same_residual(series: PowerSeries, which: str):
    got, want = families.ode_residual(series, which), _composed_ode_residual(series, which)
    assert (got.order, got.den, got.re, got.im) == (want.order, want.den, want.re, want.im)


@given(residual_windows(), st.sampled_from(["airy_linear", "hae_nonlinear"]))
def test_ode_residual_matches_the_composed_formula(series, which):
    _assert_same_residual(series, which)


@pytest.mark.parametrize("order", [4, 5, 9, 33])
def test_ode_residual_of_the_family_matches_the_composed_formula(order):
    (psi, phi), (g, f, _) = families.gen_psi_phi(order), families.gen_g_f(order)
    for member in (psi, phi, g, f):
        for which in ("airy_linear", "hae_nonlinear"):
            _assert_same_residual(member.series, which)


def _first_nonzero_row(r: PowerSeries) -> int:
    return next(m for m in range(r.order + 1) if r.re[m] or r.im[m])


@pytest.mark.parametrize("k", [0, 1, 2, 9, 17])
def test_one_unit_spoil_of_psi_shows_at_its_first_constrained_row(k):
    # c_k enters row k + 1 through -72 k c_k, and c_0 row 2 through 5 c_0
    psi = families.gen_psi_phi(20)[0].series
    spoiled = psi + PowerSeries.monomial(k, 20, F(1, psi.den))
    assert _first_nonzero_row(families.ode_residual(spoiled, "airy_linear")) == max(k + 1, 2)


@pytest.mark.parametrize("k", [1, 2, 9, 17])
def test_one_unit_spoil_of_g_shows_at_its_first_constrained_row(k):
    # c_k enters row k + 1 through 2 g' = -2 k c_k; (g')^2 sees it only from row k + 3
    g = families.gen_g_f(20)[0].series
    spoiled = g + PowerSeries.monomial(k, 20, F(1, g.den))
    assert _first_nonzero_row(families.ode_residual(spoiled, "hae_nonlinear")) == k + 1


def test_tower_frozen_and_power_law():
    Gs = families.gen_Gn(8, 4)
    G1 = Gs[0].series
    assert [G1.coeff(k).re for k in range(3)] == [F(1), F(-5, 36), F(25, 2592)]
    assert [Gs[1].series.coeff(k).re for k in range(3)] == [F(-1, 2), F(5, 36), F(-25, 1296)]
    power = PowerSeries.one(8)
    for n, G in enumerate(Gs, start=1):
        power = power * G1
        assert G.series.scale(F((-1) ** (n - 1) * n)) == power
        assert G.series.coeff(0) == ExactScalar(F((-1) ** (n - 1), n))


def test_tower_requires_positive_index():
    with pytest.raises(ValueError):
        families.gen_Gn(6, 0)


def test_gevrey_growth_ratio():
    """b_{n+1}/(n b_n) approaches the inverse singularity location 1/2."""
    g, _, _ = families.gen_g_f(82)
    for n in range(60, 80):
        bn = g.series.coeff(n).re
        bn1 = g.series.coeff(n + 1).re
        ratio = bn1 / (n * bn)
        assert abs(ratio - F(1, 2)) < F(1, 10) * F(1, 2), (n, ratio)


@given(st.integers(min_value=2, max_value=20))
def test_psi_route_agreement_any_order(order):
    psi, phi = families.gen_psi_phi(order)
    assert psi.series.coeff(0) == ExactScalar.one()
    assert phi.series.coeff(1) == -psi.series.coeff(1)


@given(st.fractions(min_value=-5, max_value=5, max_denominator=8))
def test_constant_shift_invariance_fuzz(c):
    g, _, _ = families.gen_g_f(8)
    shifted = g.series + PowerSeries.constant(c, 8)
    assert families.ode_residual(shifted, "hae_nonlinear").is_zero()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _g_f_text(order: int) -> str:
    g, f, a = families.gen_g_f(order)
    return g.series.to_json() + f.series.to_json() + json.dumps([str(x) for x in a])


# sha256 of the exact family outputs that the z/72 rescaling rebuilds,
# recorded before the log, inverse and exp ran in that variable
FAMILY_SHA256 = {
    "gen_g_f(120)": (lambda: _g_f_text(120),
                     "c94d6ab42f00933fd1e6de102a8efe9a393a5ae2f7126e9c73869295760008e4"),
    "gen_Gn(64,6)": (lambda: "".join(G.series.to_json() for G in families.gen_Gn(64, 6)),
                     "4afaaf60b7983165098b6a7ca2f9816ea248683330c6bbe5d3969374964a9515"),
}


@pytest.mark.parametrize("name", sorted(FAMILY_SHA256))
def test_family_outputs_are_pinned(name):
    build, digest = FAMILY_SHA256[name]
    assert _sha(build()) == digest
