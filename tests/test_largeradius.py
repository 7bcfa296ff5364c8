"""Large-radius layer: exact u-series generators, the lifted alien calculus,
and the numeric sums restricted to the principal branch."""

import cmath
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from resurgentia import families
from resurgentia.alien import Caps, Poly, TransElement, apply_stokes, formal_integral
from resurgentia.borel import BranchCutError, DomainError
from resurgentia.largeradius import (
    UCoeffSeries,
    ULaurent,
    _zs_mul,
    binom_half,
    gen_H0,
    gen_Hn,
    gen_phi_u,
    gen_R,
    lambda_s_squared,
    lr_bridge_check,
    lr_connection_check,
    lr_stokes_check,
    lr_sum,
    lr_transseries,
    make_context,
    u_equation_residual,
)
from resurgentia.scalars import ExactScalar

F = Fraction


def UL(d):
    return ULaurent({e: F(*v) if isinstance(v, tuple) else F(v) for e, v in d.items()})


# -- exact u-Laurent layer -----------------------------------------------------


def test_ulaurent_basics():
    a = UL({2: (1, 2), -1: 3})
    assert a.coeff(2) == F(1, 2) and a.coeff(0) == 0
    assert a.deg_max() == 2 and a.deg_min() == -1
    assert a.shift(3) == UL({5: (1, 2), 2: 3})
    assert a.diff() == UL({1: 1, -2: -3})
    assert a.eval(2.0) == pytest.approx(2.0 + 1.5)
    assert a.to_map() == {"-1": "3", "2": "1/2"}
    assert (a - a).is_zero()


def test_binom_half():
    assert binom_half(F(3, 2), 0) == 1
    assert binom_half(F(3, 2), 2) == F(3, 8)
    assert binom_half(F(3, 2), 3) == F(-1, 16)


fracs = st.fractions(min_value=-20, max_value=20, max_denominator=10)
ulaurents = st.dictionaries(
    st.integers(min_value=-3, max_value=3), fracs, max_size=4
).map(ULaurent)


@given(ulaurents, ulaurents, ulaurents)
def test_ulaurent_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c


@given(ulaurents, ulaurents)
def test_ulaurent_diff_is_a_derivation(a, b):
    assert (a * b).diff() == a.diff() * b + a * b.diff()


def _reference_zs_mul(a: list, b: list, N: int) -> list:
    """The ULaurent loop the integer-numerator kernel replaces."""
    out = [ULaurent()] * (N + 1)
    for i, x in enumerate(a):
        if i > N or x.is_zero():
            continue
        for j, y in enumerate(b):
            if i + j > N:
                break
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return out


# few exponents and small values, so products collide and cancel; windows hold
# zero rows and may be shorter or longer than N + 1
small_ulaurents = st.dictionaries(
    st.integers(min_value=-2, max_value=2),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    max_size=3,
).map(ULaurent)
ul_windows = st.lists(small_ulaurents, min_size=1, max_size=7)


@given(ul_windows, ul_windows, st.integers(min_value=0, max_value=8))
@example(
    # the second pair's product first cancels the u^0 term of the first pair,
    # then restores it: the term keeps its place, as in the ULaurent loop
    [UL({0: 1}), UL({1: 1, -1: 1})], [UL({-1: -1, 1: 2}), UL({0: 1, 5: 1})], 1
)
def test_zs_mul_matches_ulaurent_loop(a, b, N):
    got, want = _zs_mul(a, b, N), _reference_zs_mul(a, b, N)
    assert [x.to_map() for x in got] == [x.to_map() for x in want]
    assert [list(x.terms.items()) for x in got] == [list(x.terms.items()) for x in want]
    assert all(type(c) is Fraction for x in got for c in x.terms.values())


# -- graded series container ---------------------------------------------------


def test_series_container_validation():
    with pytest.raises(ValueError, match="grading"):
        UCoeffSeries("bad", 1, (ULaurent(), ULaurent()))
    with pytest.raises(ValueError, match="does not match the order"):
        UCoeffSeries("gs2", 2, (ULaurent(),))


def test_series_container_guards():
    r = gen_R(3)
    z2s = gen_phi_u(4)
    with pytest.raises(ValueError, match="grading mismatch"):
        r + z2s
    with pytest.raises(ValueError, match="exponential prefactor mismatch"):
        gen_Hn(1, 2)[1] + gen_Hn(2, 2)[1]
    with pytest.raises(ValueError, match="log u term"):
        r * r
    with pytest.raises(ValueError, match="log u term"):
        r.shift_u(1)
    with pytest.raises(ValueError, match="exponential prefactor"):
        gen_Hn(1, 2)[1].diff_u()
    with pytest.raises(ValueError, match="gs2 grading"):
        z2s.mul_gs2()
    with pytest.raises(ValueError, match="gs2 grading"):
        z2s.eval_partial(0.1, 1.0, 2)


def test_series_container_json_shape():
    r = gen_R(2)
    d = r.to_json_dict()
    assert set(d) == {"grading", "order", "log_u", "exp_tag", "coeffs"}
    assert d["grading"] == "gs2" and d["order"] == 2
    assert len(d["coeffs"]) == 3
    assert d["coeffs"][0] == r.coeff(0).to_map()
    json.dumps(d)


# -- generators -------------------------------------------------------------


def test_phi_u_coefficients():
    phi = gen_phi_u(6)
    assert phi.grading == "z2"
    assert phi.coeff(0) == UL({-1: -1})
    assert phi.coeff(1) == UL({-2: (1, 6)})
    assert phi.coeff(2) == UL({-3: (1, 54)})
    with pytest.raises(ValueError, match="at least one term"):
        gen_phi_u(0)


def test_R_series():
    r = gen_R(6)
    assert r.log_u == F(1, 2)
    assert r.coeff(0) == UL({-1: -1})
    assert r.coeff(1) == UL({2: (1, 2), 1: (1, 2)})
    with pytest.raises(ValueError, match="nonnegative"):
        gen_R(-1)


def test_lambda_squared():
    lam = lambda_s_squared(6)
    assert lam.coeff(0).is_zero()
    assert lam.coeff(1) == UL({3: 1})
    assert lam.coeff(2) == UL({5: 3})
    assert lam.coeff(3) == UL({7: (15, 2)})


def test_H0_frozen_coefficients():
    H0 = gen_H0(8)
    assert H0.log_u == F(1, 2)
    assert H0.coeff(0) == UL({-1: -1})
    assert H0.coeff(1) == UL({3: (5, 24), 2: (1, 2), 1: (1, 2)})
    assert H0.coeff(2) == UL({6: (5, 16), 5: (5, 8), 4: (1, 2), 3: (1, 6)})
    assert H0.coeff(3) == UL(
        {9: (1105, 1152), 8: (15, 8), 7: (25, 16), 6: (2, 3), 5: (1, 8)}
    )
    # genus >= 2 parts vanish as u -> 0
    for g in range(2, 9):
        assert H0.coeff(g).deg_min() >= 1
    with pytest.raises(ValueError, match="at least 1"):
        gen_H0(0)


def test_u_equation_residual_vanishes():
    H0 = gen_H0(8)
    assert u_equation_residual(H0).is_zero()
    with pytest.raises(ValueError, match="gs2 grading"):
        u_equation_residual(gen_phi_u(4))


def test_u_equation_detects_perturbation():
    H0 = gen_H0(6)
    pert = UCoeffSeries(
        "gs2", 6, (ULaurent(), ULaurent.mono(1, 1)) + (ULaurent(),) * 5
    )
    assert not u_equation_residual(H0 + pert).is_zero()


@given(st.lists(fracs, min_size=7, max_size=7))
def test_u_equation_shift_invariance(consts):
    # the equation only sees u-derivatives, so any C(g_s) shift is silent
    H0 = gen_H0(6)
    shift = UCoeffSeries("gs2", 6, tuple(ULaurent.const(c) for c in consts))
    assert u_equation_residual(H0 + shift).is_zero()


def test_Hn_prefactor_and_leading_terms():
    pref, S1, pols = gen_Hn(1, 4)
    assert pref == "exp(2/u)"
    assert S1.exp_tag == 1
    assert S1.coeff(0) == UL({0: -1})
    assert pols[0] == UL({2: (5, 12), 0: 1})
    assert pols[1] == UL({4: (-25, 288), 3: (5, 4), 2: (-5, 12), 1: (1, 3), 0: (-1, 2)})
    assert pols[2] == UL(
        {6: (20015, 10368), 5: (-25, 48), 4: (925, 288), 3: (-25, 18),
         2: (11, 24), 1: (-1, 3), 0: (1, 6)}
    )
    assert pols[3] == UL(
        {8: (-398425, 497664), 7: (20015, 1152), 6: (-41615, 10368), 5: (6775, 864),
         4: (-2125, 576), 3: (73, 72), 2: (-3, 8), 1: (1, 6), 0: (-1, 24)}
    )


def test_Hn_degree_and_constant_term():
    for n in (1, 2, 3):
        _, Sn, pols = gen_Hn(n, 4)
        assert Sn.coeff(0) == UL({0: F(-1, n)})
        for g in range(1, 5):
            assert pols[g - 1].deg_max() == 2 * g
            assert Sn.coeff(g) == pols[g - 1].shift(g)
    with pytest.raises(ValueError, match="positive"):
        gen_Hn(0, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        gen_Hn(1, -1)


def hn_oracle(n: int, gmax: int) -> list:
    """-(1/n) e^{-2n(phi_u + 1/u)} ((phi/psi)^n)(z2 + phi_u), z2-graded."""
    phiN = gen_phi_u(gmax + 1).coeffs
    phat = [ULaurent()] + list(phiN[1 : gmax + 1])  # phi_u + 1/u, valuation 1
    while len(phat) < gmax + 1:
        phat.append(ULaurent())
    scaled = [c.scale(-2 * n) for c in phat]
    expfac = [ULaurent.const(1)] + [ULaurent()] * gmax
    term = expfac[:]
    for j in range(1, gmax + 1):
        term = [c.scale(F(1, j)) for c in _zs_mul(term, scaled, gmax)]
        if all(c.is_zero() for c in term):
            break
        expfac = [a + b for a, b in zip(expfac, term)]
    # w = (z2 + phi_u)^{-1}, valuation 1
    x = [ULaurent()] + list(phiN[:gmax])
    geo = [ULaurent.const(1)] + [ULaurent()] * gmax
    t = geo[:]
    negx = [-c for c in x]
    for _ in range(gmax):
        t = _zs_mul(t, negx, gmax)
        if all(c.is_zero() for c in t):
            break
        geo = [a + b for a, b in zip(geo, t)]
    w = [ULaurent()] + geo[:gmax]
    Gn = families.gen_Gn(gmax + 2, n)[n - 1].series
    comp = [ULaurent()] * (gmax + 1)
    sign = F((-1) ** (n - 1) * n)
    wk = [ULaurent.const(1)] + [ULaurent()] * gmax
    for k in range(gmax + 1):
        rk = sign * F(Gn.coeff(k).re)  # (phi/psi)^n coefficient
        if k > 0:
            wk = _zs_mul(wk, w, gmax)
        if rk:
            comp = [a + b.scale(rk) for a, b in zip(comp, wk)]
    total = _zs_mul(expfac, comp, gmax)
    out = []
    for k in range(gmax + 1):
        out.append(total[k].scale(F(-1, n) * F(3) ** k).shift(3 * k))
    return out


@pytest.mark.parametrize("n,gmax", [(1, 4), (2, 3), (3, 3)])
def test_Hn_matches_composition_oracle(n, gmax):
    _, Sn, _ = gen_Hn(n, gmax)
    orc = hn_oracle(n, gmax)
    for g in range(gmax + 1):
        assert Sn.coeff(g) == orc[g], (n, g)


# -- lifted alien calculus -------------------------------------------------------


def test_context_inversion_guard():
    with pytest.raises(ValueError, match="z order must be positive"):
        make_context(0)
    make_context(4)  # internal f+ f- = 1 assertion must pass


def test_composed_rightward_stokes_in_sigma_convention():
    ctx = make_context(6)
    caps = Caps(3, 3, 6)
    G = formal_integral(caps.widen(extra_grade=1), context=ctx, grade_cap=4)
    lhs = apply_stokes(G, "geq0")
    rhs = G.subst("s2", Poly.var("s2") - Poly.const(ExactScalar(0, 1)))
    assert (lhs - rhs).truncated(caps).is_zero()


def test_lr_bridge_identities():
    assert lr_bridge_check(Caps(4, 4, 8))["ok"]


def test_lr_stokes_actions():
    assert lr_stokes_check("geq0", Caps(4, 4, 8))["ok"]
    assert lr_stokes_check("leq0", Caps(4, 4, 8))["ok"]
    with pytest.raises(ValueError, match="geq0|leq0"):
        lr_stokes_check("sideways", Caps(4, 4, 8))


@pytest.mark.parametrize("caps", [Caps(3, 4, 4), Caps(3, 6, 4), Caps(5, 6, 4)])
def test_lr_rightward_stokes_above_the_sigma_cap(caps):
    assert lr_stokes_check("geq0", caps)["residual"].is_zero()


def test_lr_caps_consistency():
    with pytest.raises(ValueError, match="cap inconsistency"):
        lr_transseries(Caps(3, 3))
    with pytest.raises(ValueError, match="cap inconsistency"):
        lr_transseries(Caps(3, 3, 8), make_context(6))
    # formal_integral takes its z floor from the context, so the two must agree
    with pytest.raises(ValueError, match="cap inconsistency"):
        formal_integral(Caps(3, 3, 8), context=make_context(6))
    with pytest.raises(ValueError, match="cap inconsistency"):
        formal_integral(Caps(3, 3), context=make_context(6))


# -- numeric sums -------------------------------------------------------------


def test_lr_sum_small_gs_limit():
    # H -> -1/u + (1/2) log u as g_s -> 0; at u = 1 this is -1
    v = lr_sum("-", 0.05, 1.0)
    assert abs(v.value - (-0.9969690585515456)) < 1e-9
    assert abs(v.value - (-1.0)) < 5e-3
    v2 = lr_sum("-", 0.02, 1.0)
    assert abs(v2.value - (-1.0)) < abs(v.value - (-1.0))
    gap = abs(v.value - gen_H0(3).eval_partial(0.05, 1.0, 2))
    assert gap < 1e-4


def test_lr_sum_optimal_truncation_floor():
    gs, u = 0.25, 1.0
    sv = lr_sum("-", gs, u)
    H0 = gen_H0(12)
    best = min(abs(sv.value - H0.eval_partial(gs, u, k)) for k in range(4, 13))
    np_scale = math.exp(-2.0 * sv.meta["z1"].real)
    assert np_scale / 100.0 < best < 10.0 * np_scale


def test_lr_sum_median_reality():
    for a in (0.0, 1.0):
        for b in (0.0, 0.3):
            val = lr_sum("-", 0.3, 1.0, a, b + 0.5j, tol=1e-8).value
            assert abs(val.imag) < 1e-8, (a, b)


def test_lr_connection_right():
    out = lr_connection_check("right", 0.4, 1.0, 0.0, 1.0, tol=1e-5)
    assert out["ok"] and out["residual"] < 1e-10
    out2 = lr_connection_check("right", 0.35, 1.1, 0.5, -0.5 + 0.2j, tol=1e-5)
    assert out2["ok"] and out2["residual"] < 1e-10


def test_lr_connection_left():
    gs = 0.55 * cmath.exp(1j * math.pi / 2)
    out = lr_connection_check("left", gs, 1.0, 0.0, 0.002j, tol=1e-4)
    assert out["ok"] and out["residual"] < 1e-10
    # larger sigma_2 leaves the exponential-term domain of the left sum
    with pytest.raises(DomainError):
        lr_connection_check("left", gs, 1.0, 0.0, 0.05j, tol=1e-4)
    with pytest.raises(ValueError, match="'right' or 'left'"):
        lr_connection_check("up", 0.4, 1.0)
    with pytest.raises(DomainError, match="vanishes"):
        lr_connection_check("left", gs, 1.0, 0.0, -1j)


def test_lr_sum_domains():
    with pytest.raises(DomainError, match="nonzero"):
        lr_sum("-", 0.0, 1.0)
    with pytest.raises(DomainError, match="principal branch"):
        lr_sum("+", 1.0, 1.0)
    with pytest.raises(BranchCutError, match="negative real ratio"):
        lr_sum("-", 0.1, -1j)
