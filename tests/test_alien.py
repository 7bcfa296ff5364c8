"""The alien-derivation engine: every identity is exact or it is wrong."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resurgentia import alien, families, largeradius
from resurgentia.alien import (
    IDX,
    ONE_POLY,
    Caps,
    Poly,
    TransElement,
    _bridge_check,
    _delta_plus_tower,
    _stokes_residual,
    _stokes_window,
    apply_delta,
    apply_dotted,
    apply_stokes,
    bridge_check,
    deltaplus_table,
    formal_integral,
    stokes_action_check,
)
from resurgentia.largeradius import lr_bridge_check, lr_stokes_check, lr_transseries, make_context
from resurgentia.scalars import ExactScalar
from resurgentia.series import PowerSeries
from test_series import _pow

F = Fraction
I = ExactScalar(0, 1)
WIDE = Caps(8, 8)


def _mul(self: TransElement, other: TransElement) -> TransElement:
    """The product of two elements, for the Leibniz checks, cut at the z order when there is one."""
    self._check_compatible(other)
    out = self._like()
    sigma, grade, zorder = self.caps.sigma, self.caps.grade, self.caps.zorder
    for (l1, m1, n1), p1 in self.terms.items():
        for (l2, m2, n2), p2 in other.terms.items():
            if l1 != 0 and l2 != 0:
                raise ArithmeticError(
                    "linear-generator square: the algebra is affine in g and f"
                )
            if abs(n1 + n2) <= grade:
                p = p1.mul(p2, sigma)
                out._put((l1 + l2, m1 + m2, n1 + n2), p if zorder is None else p.drop_low_z(zorder))
    return out


_RIC_P = (
    Poly.var("p", 2, -1) + Poly.var("p", 1, -2) + Poly.var("z", -2, Fraction(-5, 36))
)
_RIC_Q = (
    Poly.var("q", 2, -1) + Poly.var("q", 1, 2) + Poly.var("z", -2, Fraction(-5, 36))
)


def _apply_ddz(x: TransElement) -> TransElement:
    """d/dz as a derivation; the Riccati equations keep the ring closed."""
    out = x._like()
    for (lin, m, n), p in x.terms.items():
        if lin == 1:
            out._accumulate((0, m, n), p * Poly.var("p"))
        elif lin == 2:
            out._accumulate((0, m, n), p * Poly.var("q"))
        if m != 0:
            out._accumulate((lin, m, n), p.scale(m) * (Poly.var("q") - Poly.var("p")))
        if n != 0:
            out._accumulate((lin, m, n), p.scale(-2 * n))
        dz = p.deriv("z")
        dp = p.deriv("p")
        dq = p.deriv("q")
        acc = dz
        if not dp.is_zero():
            acc = acc + dp * _RIC_P
        if not dq.is_zero():
            acc = acc + dq * _RIC_Q
        if not acc.is_zero():
            out._accumulate((lin, m, n), acc)
    return out


def _companion_F(caps: Caps = Caps()) -> TransElement:
    """The mirror transseries in the e^{+2z} grading.

    F = -2z + sigma_1 + f + sum_n ((-1)^{n-1}/n) sigma_2^n e^{+2nz} E^{-n}.
    Checked against the mirrored bridge pair before being returned:

        Delta_-2 F = -i e^{-2z} dF/dsigma_2
        Delta_+2 F = -i e^{+2z} (sigma_2 dF/dsigma_1 - sigma_2^2 dF/dsigma_2)
    """
    wide = Caps(caps.sigma + 1, caps.grade + 1, caps.zorder)
    gc = wide.grade
    terms: dict[tuple[int, int, int], Poly] = {
        (0, 0, 0): Poly.var("z", 1, -2) + Poly.var("s1"),
        (2, 0, 0): ONE_POLY,
    }
    F = TransElement(terms, wide)
    s2 = Poly.var("s2")
    s2_pow = ONE_POLY
    for n in range(1, gc + 1):
        s2_pow = s2_pow * s2
        F = F + TransElement(
            {(0, -n, -n): s2_pow.scale(Fraction((-1) ** (n - 1), n))}, wide
        )
    r1, r2 = _mirrored_residuals(F, caps, ExactScalar(0, 1))
    if not (r1.is_zero() and r2.is_zero()):
        raise ArithmeticError("companion element fails its mirrored bridge identities")
    return F.truncated(caps)


def _mirrored_residuals(F: TransElement, caps: Caps, unit: ExactScalar) -> tuple:
    """The bridge pair of _bridge_check with the rays and grade shifts mirrored:

        r_-2 = Delta_-2 F + unit e^{-2z} dF/dsigma_2
        r_2  = Delta_2  F + unit e^{+2z} (sigma_2 dF/dsigma_1 - sigma_2^2 dF/dsigma_2)
    """
    s2 = Poly.var("s2")
    r_fwd = apply_delta(F, -2) + F.partial("s2").shift_grade(1).scale(unit)
    r_back = apply_delta(F, 2) + (
        F.partial("s1").scale_poly(s2) - F.partial("s2").scale_poly(s2 * s2)
    ).shift_grade(-1).scale(unit)
    return r_fwd.truncated(caps), r_back.truncated(caps)


def _expand_to_series(
    x: TransElement, order: int
) -> dict[tuple[tuple[int, ...], int], PowerSeries]:
    """Expand an element into power-series data per symbol monomial and grade.

    The generators map to their series: g -> log psi, f -> its reflection,
    E^m -> (phi/psi)^m, p and q -> the respective log-derivatives, z^{-k} into
    the series itself. Keys are ((sigma_1, sigma_2 exponents), n);
    values are order-`order` windows. Positive powers of z and any use of the
    u-family slots have no series meaning here and raise.
    """
    pad = order + 2
    psi, phi = families.gen_psi_phi(pad)
    g = psi.series.log()
    f = g.reflect()
    ratio = phi.series * psi.series.inverse()
    ratio_inv = ratio.inverse()
    p_series = g._deriv_in_window()
    q_series = f._deriv_in_window()
    param_idx = [IDX[v] for v in ("s1", "s2")]

    out: dict[tuple[tuple[int, ...], int], PowerSeries] = {}
    for (lin, m, n), poly in x.terms.items():
        base = PowerSeries.one(pad)
        if lin == 1:
            base = base * g
        elif lin == 2:
            base = base * f
        if m > 0:
            base = base * _pow(ratio, m)
        elif m < 0:
            base = base * _pow(ratio_inv, -m)
        for mono, c in poly.terms.items():
            if any(mono[IDX[v]] != 0 for v in ("u", "lu", "w")):
                raise ValueError("u-family symbols have no series expansion")
            zexp = mono[IDX["z"]]
            if zexp > 0:
                raise ValueError("positive z powers have no series expansion")
            piece = base.scale(c)
            if zexp < 0:
                piece = piece * PowerSeries.monomial(-zexp, pad)
            for e, s in ((mono[IDX["p"]], p_series), (mono[IDX["q"]], q_series)):
                if e:
                    piece = piece * _pow(s, e)
            key = (tuple(mono[i] for i in param_idx), n)
            prev = out.get(key)
            piece = piece.truncate(order)
            out[key] = piece if prev is None else prev + piece
    return {k: v for k, v in out.items() if not v.is_zero()}


def test_formal_integral_grades():
    G = formal_integral(Caps(5, 5))
    assert sorted(k[2] for k in G.terms) == [0, 0, 1, 2, 3, 4, 5]


def test_bridge_identities():
    assert bridge_check(Caps(5, 5))["ok"]


def test_stokes_actions():
    assert stokes_action_check(Caps(5, 5))["ok"]


@pytest.mark.parametrize("check, caps", [(bridge_check, Caps(-1, 2)), (bridge_check, Caps(2, -1)),
                                         (stokes_action_check, Caps(2, -1)), (stokes_action_check, Caps(-1, 2)),
                                         (bridge_check, Caps(2, 2, -1)), (stokes_action_check, Caps(2, 2, -1))])
def test_a_negative_cap_is_refused(check, caps):
    # the window below a negative cap is empty, so its zero residual would certify nothing
    with pytest.raises(ValueError, match="nonnegative"):
        check(caps)
    with pytest.raises(ValueError, match="nonnegative"):
        _bridge_check(formal_integral, caps, I)
    for direction in ("geq0", "leq0"):
        with pytest.raises(ValueError, match="nonnegative"):
            _stokes_residual(formal_integral, direction, caps, I)
    assert bridge_check(Caps(0, 0))["ok"] and stokes_action_check(Caps(0, 0))["ok"]
    assert bridge_check(Caps(2, 2, 0))["ok"] and stokes_action_check(Caps(2, 2, 0))["ok"]


REFUSED_CHECKS = {
    "bridge-sigma": (lambda: bridge_check(Caps(-1, 2)), "nonnegative"),
    "stokes-grade": (lambda: stokes_action_check(Caps(2, -1)), "nonnegative"),
    "lr-bridge-sigma": (lambda: lr_bridge_check(Caps(-1, 2, 4)), "nonnegative"),
    "lr-stokes-grade": (lambda: lr_stokes_check("leq0", Caps(2, -1, 4)), "nonnegative"),
    "lr-stokes-direction": (lambda: lr_stokes_check("sideways", Caps(2, 2, 4)), "geq0"),
    # given both, the cap is reported first
    "lr-stokes-cap-and-direction": (lambda: lr_stokes_check("sideways", Caps(-1, 2, 4)), "nonnegative"),
    "lr-transseries-sigma": (lambda: lr_transseries(Caps(-1, 3, 4)), "nonnegative"),
    # a z order of 0 leaves the frame without a context, refused before the double-scaling build
    "lr-transseries-z0": (lambda: lr_transseries(Caps(3, 3, 0)), "z order must be positive"),
    "lr-bridge-z0": (lambda: lr_bridge_check(Caps(3, 3, 0)), "z order must be positive"),
    "lr-stokes-right-z0": (lambda: lr_stokes_check("geq0", Caps(3, 3, 0)), "z order must be positive"),
    "lr-stokes-left-z0": (lambda: lr_stokes_check("leq0", Caps(3, 3, 0)), "z order must be positive"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_CHECKS))
def test_a_refused_check_builds_nothing(case):
    refused, match = REFUSED_CHECKS[case]
    caches = (make_context, largeradius._rtilde_poly, largeradius._rtilde_reference)
    before = [c.cache_info().currsize for c in caches]
    with pytest.raises(ValueError, match=match):
        refused()
    assert not alien._FORMAL_INTEGRALS
    assert [c.cache_info().currsize for c in caches] == before


def test_a_negative_z_order_is_refused_by_the_formal_integral():
    # it used to keep none of its terms, so every residual built on it vanished
    with pytest.raises(ValueError, match="the sigma_2, grade and z-order caps must be nonnegative"):
        formal_integral(Caps(3, 3, -1))
    assert formal_integral(Caps(3, 3, None)).terms and formal_integral(Caps(3, 3, 0)).terms


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
        F = _companion_F(Caps(caps.sigma + 1, caps.grade + 1, caps.zorder))
        return list(_mirrored_residuals(F, caps, unit))
    frame, law = case.split("-")
    build = largeradius._lr_double_scaling if frame == "lr" else formal_integral  # the checkers' own route
    if law == "bridge":
        res = _bridge_check(build, caps, unit)
        return [res["residual_plus"], res["residual_minus"]]
    return [_stokes_residual(build, {"right": "geq0", "left": "leq0"}[law], caps, unit)]


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
    Fc = _companion_F(Caps(4, 4))
    assert sorted(k[2] for k in Fc.terms) == [-4, -3, -2, -1, 0, 0]


@pytest.mark.parametrize("nmax, kmax", [(4, 4), (8, 8)])
def test_deltaplus_table_closed_forms(nmax, kmax):
    tab = deltaplus_table(nmax, kmax)
    assert len(tab) == 2 * nmax * kmax
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


@pytest.mark.parametrize("nmax, kmax", [(0, 3), (3, 0), (-1, 2), (0, 0)])
def test_deltaplus_table_refuses_an_empty_table(nmax, kmax):
    with pytest.raises(ValueError, match="at least 1"):
        deltaplus_table(nmax, kmax)
    with pytest.raises(ValueError, match="at least 1"):
        alien._deltaplus_closed_forms_ok(nmax, kmax)


def test_deltaplus_on_free_energy_generator():
    g = TransElement.generator("g", WIDE)
    for m in (1, 2, 3):
        got = _delta_plus_tower(g, 1, m)[-1]
        want = TransElement({(0, m, 0): Poly.const((I ** m) * ExactScalar(F(-1, m)))}, WIDE)
        assert got == want, m


def _fuzz_element():
    return TransElement(
        {
            (1, 2, 1): Poly.var("s2", 2) * Poly.var("p"),
            (0, -3, -2): Poly.var("q", 1, F(2, 3)) + Poly.var("z", -1),
            (2, 0, 0): Poly.var("s1") * Poly.var("lu"),
        },
        WIDE,
    )


def test_deltaplus_composition_identities():
    x = _fuzz_element()
    lhs = _delta_plus_tower(x, 1, 2)[-1]
    rhs = apply_delta(x, 4) + apply_delta(apply_delta(x, 2), 2).scale(F(1, 2))
    assert lhs == rhs
    lhs6 = _delta_plus_tower(x, -1, 3)[-1]
    rhs6 = (
        apply_delta(x, -6)
        + (apply_delta(apply_delta(x, -2), -4) + apply_delta(apply_delta(x, -4), -2)).scale(F(1, 2))
        + apply_delta(apply_delta(apply_delta(x, -2), -2), -2).scale(F(1, 6))
    )
    assert lhs6 == rhs6
    # every word, one at a time: the brute-force sum is the oracle for the recursion
    for x in (_fuzz_element(), lr_transseries(Caps(3, 3, 4))):
        for m in range(1, 7):
            for sign in (1, -1):
                assert _delta_plus_tower(x, sign, m)[-1] == _delta_plus_by_words(x, 2 * sign * m), (sign, m)


def _compositions(total, parts):
    """The ordered tuples of `parts` positive integers that sum to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _delta_plus_by_words(x, omega):
    """Delta^+_omega x as the explicit sum of (1/r!) Delta_{2m_1} ... Delta_{2m_r} x."""
    m, sign = abs(omega) // 2, 1 if omega > 0 else -1
    out = x._like()
    for r in range(1, m + 1):
        for comp in _compositions(m, r):
            y = x
            for part in reversed(comp):  # the word acts right to left
                y = apply_delta(y, sign * 2 * part)
            out = out + y.scale(F(1, factorial(r)))
    return out


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
        assert apply_delta(_mul(x, y), om) == _mul(apply_delta(x, om), y) + _mul(x, apply_delta(y, om))
    assert _apply_ddz(_mul(x, y)) == _mul(_apply_ddz(x), y) + _mul(x, _apply_ddz(y))


def test_dotted_derivations_commute_with_ddz():
    x = _fuzz_element()
    for direction in ("geq0", "leq0"):
        assert _apply_ddz(apply_dotted(x, direction)) == apply_dotted(_apply_ddz(x), direction)


def test_stokes_one_parameter_group():
    # u and lu: two symbols that the double-scaling frame never forms
    a = Poly.var("u")
    b = Poly.var("lu")
    for direction in ("geq0", "leq0"):
        src = formal_integral(Caps(6, 6))
        assert apply_stokes(src, direction, a + b) == apply_stokes(
            apply_stokes(src, direction, b), direction, a
        )


# -- the formal-integral cache ---------------------------------------------------


def _spoil_the_exp_route(monkeypatch):
    real = alien.apply_stokes

    def spoiled(x, direction, power=1):
        return real(x, direction, power) + TransElement.from_poly(Poly.var("s1"), x.caps)

    monkeypatch.setattr(alien, "apply_stokes", spoiled)


def test_formal_integral_route_check_runs_on_every_cache_miss(monkeypatch):
    assert formal_integral(Caps(3, 3)) == formal_integral(Caps(3, 3))
    direct = {caps: alien._build_formal_integral(caps, False) for caps in (Caps(2, 3), Caps(6, 3))}
    _spoil_the_exp_route(monkeypatch)
    formal_integral(Caps(3, 3))  # served by the build checked before the spoil
    for caps, kwargs in ((Caps(4, 4), {}), (Caps(3, 3), {"negate_sigma2": True})):
        with pytest.raises(ArithmeticError, match="route disagreement"):
            formal_integral(caps, **kwargs)
    for caps, elem in direct.items():  # m = 2 and 3, served by the checked m = 3 at any z order
        assert formal_integral(caps).terms == formal_integral(caps._replace(zorder=4)).terms == elem.terms
    alien._FORMAL_INTEGRALS.clear()
    for caps in (Caps(3, 3), Caps(2, 3)):
        with pytest.raises(ArithmeticError, match="route disagreement"):
            formal_integral(caps)


def test_cached_formal_integrals_stay_unchanged():
    caps = Caps(4, 4)
    lr_caps = Caps(4, 4, 6)
    shared = {
        "bridge": formal_integral(Caps(5, 5)),
        **{d: formal_integral(_stokes_window(caps, d)) for d in ("geq0", "leq0")},
        **{"lr " + d: formal_integral(_stokes_window(lr_caps, d), negate_sigma2=True)
           for d in ("geq0", "leq0")},
    }
    before = {name: G.to_json() for name, G in shared.items()}
    assert bridge_check(caps)["ok"] and stokes_action_check(caps)["ok"]
    assert lr_stokes_check("geq0", lr_caps)["ok"] and lr_stokes_check("leq0", lr_caps)["ok"]
    assert {name: G.to_json() for name, G in shared.items()} == before


def test_a_served_element_is_its_callers_own():
    G = formal_integral(Caps(4, 4))
    before = G.to_json()
    G.terms[(0, 0, 0)] = ONE_POLY
    del G.terms[(1, 0, 0)]
    assert formal_integral(Caps(4, 4)).to_json() == formal_integral(Caps(5, 4)).to_json() == before


def test_factor_certificate_lookups_never_hash_a_factor(monkeypatch):
    ctx = make_context(4)

    def no_hash(self):
        raise AssertionError("a context's factor was hashed")

    monkeypatch.setattr(Poly, "__hash__", no_hash)
    monkeypatch.setattr(largeradius.UCoeffSeries, "__hash__", no_hash)
    first = {k: ctx.power(k) for k in (3, -2, 1)}
    for k in (3, -2, 3, 1, -2):
        assert ctx.power(k) is first[k]


def _count_builds(monkeypatch) -> list:
    """The caps of every formal-integral build from here on."""
    builds, real = [], alien._build_formal_integral

    def counting(caps, negate_sigma2):
        builds.append(caps)
        return real(caps, negate_sigma2)

    monkeypatch.setattr(alien, "_build_formal_integral", counting)
    return builds


FRAMES = [False, True]  # negate_sigma2
CAP_GRID = [Caps(s, g, z) for s in range(1, 7) for g in range(1, 7) for z in (None, 4)]


@pytest.mark.parametrize("negate", FRAMES)
def test_a_narrow_request_is_the_truncation_of_a_wide_build(monkeypatch, negate):
    # grade n carries exactly sigma_2^n and no z, so a build at m = min(sigma, grade) serves
    # every request of its sign whose m is not larger, a sigma_2 cap above the build's and
    # any z order included: the first request (4, 6) builds at (4, 4), which serves (6, 4, 4)
    direct = {caps: alien._build_formal_integral(caps, negate) for caps in CAP_GRID}
    builds = []

    def stored_build(caps, neg):
        builds.append(caps)
        return direct[caps]

    monkeypatch.setattr(alien, "_build_formal_integral", stored_build)
    for first in CAP_GRID:
        alien._FORMAL_INTEGRALS.clear()
        m = min(first.sigma, first.grade)
        formal_integral(first, negate_sigma2=negate)
        assert builds == [Caps(m, m)], first
        for caps in CAP_GRID:
            if min(caps.sigma, caps.grade) <= m:
                served = formal_integral(caps, negate_sigma2=negate)
                assert served.caps == caps and served.terms == direct[caps].terms, (first, caps)
        assert len(builds) == 1, first
        builds.clear()


@pytest.mark.parametrize("negate", FRAMES)
def test_a_request_no_checked_build_covers_is_route_checked(monkeypatch, negate):
    checked = formal_integral(Caps(4, 3, 4), negate_sigma2=negate)
    other_sign = formal_integral(Caps(6, 6), negate_sigma2=not negate)
    _spoil_the_exp_route(monkeypatch)
    for caps in CAP_GRID:
        if min(caps.sigma, caps.grade) <= 3:  # at either z order
            assert formal_integral(caps, negate_sigma2=negate) == checked.truncated(caps)
        else:  # the other sign does not serve it
            with pytest.raises(ArithmeticError, match="route disagreement"):
                formal_integral(caps, negate_sigma2=negate)
    assert formal_integral(Caps(6, 6, 4), negate_sigma2=not negate) == other_sign


def test_a_check_sequence_keeps_one_build_per_frame(monkeypatch):
    builds = _count_builds(monkeypatch)
    grid = [Caps(s, g) for s in range(3, 7) for g in range(3, 7)]
    for caps in grid:
        assert bridge_check(caps)["ok"] and stokes_action_check(caps)["ok"]
    for c in grid:
        caps = Caps(c.sigma, c.grade, 4)
        assert lr_bridge_check(caps)["ok"]
        assert lr_stokes_check("geq0", caps)["ok"] and lr_stokes_check("leq0", caps)["ok"]
    # each sign builds once per new m, at (m, m) without a z order
    assert builds == [Caps(m, m) for _ in range(2) for m in range(4, 8)]
    assert sorted(alien._FORMAL_INTEGRALS) == [False, True]


def test_a_large_radius_triple_makes_one_build(monkeypatch):
    make_context(8)
    builds = _count_builds(monkeypatch)
    caps = Caps(5, 5, 8)
    assert lr_bridge_check(caps)["ok"]
    assert lr_stokes_check("geq0", caps)["ok"] and lr_stokes_check("leq0", caps)["ok"]
    assert builds == [Caps(6, 6)]


def test_one_build_serves_every_z_order(monkeypatch):
    # the double-scaling build has no z in it, so a narrower z order reuses the route-checked build
    builds = _count_builds(monkeypatch)
    assert lr_stokes_check("geq0", Caps(5, 5, 8))["ok"] and lr_stokes_check("geq0", Caps(5, 5, 4))["ok"]
    assert builds == [Caps(5, 5)]


def test_expansion_matches_series_routes():
    G = formal_integral(Caps(5, 5))
    exp = _expand_to_series(G, 20)
    psi, phi = families.gen_psi_phi(22)
    ratio = (phi.series * psi.series.inverse()).truncate(20)
    assert exp[((0, 1), 1)] == ratio
    assert exp[((0, 0), 0)] == psi.series.log().truncate(20)


def test_ddz_expands_to_log_derivative():
    g = TransElement.generator("g", WIDE)
    exp = _expand_to_series(_apply_ddz(g), 20)
    psi, _ = families.gen_psi_phi(22)
    want = psi.series.log()._deriv_in_window().truncate(20)
    assert exp[((0, 0), 0)] == want


def test_leftward_admissibility_rejection():
    bad = TransElement({(0, 1, 1): Poly.const(1)}, WIDE)
    with pytest.raises(ArithmeticError, match="admissible"):
        apply_stokes(bad, "leq0")


def test_affine_algebra_rejection():
    g = TransElement.generator("g", WIDE)
    with pytest.raises(ArithmeticError):
        _mul(g, g)


def test_odd_ray_rejection():
    g = TransElement.generator("g", WIDE)
    with pytest.raises(ValueError):
        apply_delta(g, 3)
    with pytest.raises(ValueError):
        apply_delta(g, 0)


@pytest.mark.parametrize("omega", [2.0, -2.0, True, F(2), 4.0])
def test_a_ray_that_is_not_an_int_is_refused(omega):
    # 2.0 used to act as Delta_2, and True as the ray 1
    with pytest.raises(TypeError, match="the ray must be an int"):
        apply_delta(_fuzz_element(), omega)


@pytest.mark.parametrize("c", [0.5, 0.0, 1j, complex(2, 0)])
def test_exact_scaling_refuses_a_float_or_a_complex(c):
    # an empty element used to return an empty element without looking at c
    for x in (TransElement(), TransElement(None, WIDE), _fuzz_element()):
        with pytest.raises(TypeError, match="exact arithmetic refuses"):
            x.scale(c)
    for p in (Poly(), Poly.var("s2"), Poly.var("z", -1, I)):
        with pytest.raises(TypeError, match="exact arithmetic refuses"):
            p.scale(c)


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
        assert apply_delta(_mul(x, y), om) == _mul(apply_delta(x, om), y) + _mul(x, apply_delta(y, om))


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
    return (0, s2, p, 0, z, u, 0, w)


# few slots and small values, so products collide and cancel often; half the
# coefficients are real
kernel_coeffs = st.builds(
    lambda re, im, gaussian: ExactScalar(re, im if gaussian else 0),
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
    assert got == want and hash(got) == hash(want)
    assert (got.den, got.nums) == (want.den, want.nums)
    assert got.terms == want.terms
    assert got.to_str() == want.to_str()


@given(kernel_polys, kernel_polys, kernel_polys)
def test_poly_mul_matches_scalar_loop(p, q, r):
    _assert_same_product(p, q)
    # (p + q)(p - q): the cross products cancel, and a term may reach zero
    # midway through the accumulation
    _assert_same_product(p + q, p - q)
    _assert_same_product(p + q + r, (q - r) * p)


def test_poly_mul_restarts_a_term_after_cancellation():
    # the z term of (1 + z + z^2)(z - 1 + z^-1) receives +1, -1 (cancels to
    # zero), then +1
    x = Poly.const(1) + Poly.var("z") + Poly.var("z", 2)
    y = Poly.var("z") - Poly.const(1) + Poly.var("z", -1)
    _assert_same_product(x, y)
    z_term = (x * y).terms[_mono(0, 0, 1, 0, 0)]
    assert z_term == 1


def test_poly_mul_rejects_exponents_beyond_the_kernel():
    with pytest.raises(OverflowError):
        Poly.var("z", -(1 << 31)) * Poly.var("z")


# -- the native Poly against the ExactScalar loops it replaces ------------------


def _assert_same_poly(got: Poly, want: Poly):
    """Same value, same hash, and the same canonical (den, nums)."""
    assert got == want and hash(got) == hash(want)
    assert got.terms == want.terms
    assert got.den == want.den and got.nums == want.nums


def _reference_add(a: Poly, b: Poly) -> Poly:
    out = dict(a.terms)
    for mono, c in b.terms.items():
        s = out.get(mono, ExactScalar.zero()) + c
        if s.is_zero():
            out.pop(mono, None)
        else:
            out[mono] = s
    return Poly(out)


def _reference_deriv(a: Poly, k: int) -> Poly:
    out = {}
    for mono, c in a.terms.items():
        if mono[k]:
            out[mono[:k] + (mono[k] - 1,) + mono[k + 1:]] = c * mono[k]
    return Poly(out)


fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
scale_factors = st.one_of(
    st.sampled_from([I, -I]),
    fractions.map(ExactScalar),
    st.builds(ExactScalar, fractions, fractions),
)


@given(kernel_polys, scale_factors)
def test_poly_scale_matches_scalar_loop(p, c):
    _assert_same_poly(p.scale(c), Poly({m: c * v for m, v in p.terms.items()}))


@given(kernel_polys, kernel_polys)
def test_poly_add_matches_scalar_loop(p, q):
    _assert_same_poly(p + q, _reference_add(p, q))
    # q - p cancels against p wherever q has no term
    _assert_same_poly(p + (q - p), _reference_add(p, _reference_add(q, -p)))
    _assert_same_poly(p + (-p), Poly())


@given(kernel_polys, st.sampled_from(["s2", "p", "z", "u", "w"]))
def test_poly_deriv_matches_scalar_loop(p, name):
    _assert_same_poly(p.deriv(name), _reference_deriv(p, IDX[name]))


@given(kernel_polys, st.integers(0, 2), st.sampled_from([None, 0, 1, 2]))
def test_accumulate_truncates_in_one_pass(p, sigma, zorder):
    # an element cuts in sigma_2 only: a z order is the large-radius frame's, applied there
    want = p.drop_high_degree("s2", sigma)
    kept = {m: c for m, c in p.terms.items() if m[IDX["s2"]] <= sigma}
    _assert_same_poly(want, Poly(kept))
    _assert_same_poly(p.capped(sigma), want)
    x = TransElement({(0, 0, 0): p}, Caps(sigma, 3, zorder))
    _assert_same_poly(x.terms.get((0, 0, 0), Poly()), want)
    if zorder is not None:
        kept = {m: c for m, c in p.terms.items() if m[IDX["z"]] >= -zorder}
        _assert_same_poly(p.drop_low_z(zorder), Poly(kept))
    # the one filter takes any slot, Laurent ones and negative caps included
    for name in ("p", "u", "w"):
        for cap in range(-2, 3):
            kept = {m: c for m, c in p.terms.items() if m[IDX[name]] <= cap}
            _assert_same_poly(p.drop_high_degree(name, cap), Poly(kept))


@given(kernel_polys, kernel_polys, kernel_polys)
def test_poly_products_are_canonical(a, b, c):
    left, right = (a * b) * c, a * (b * c)
    assert left == right and hash(left) == hash(right)
    # the canonical form is the one built from the reduced ExactScalar terms
    _assert_same_poly(left, Poly(dict(left.terms)))
    _assert_same_poly(a * b, _reference_mul(a, b))


# -- the capped product kernel against the capped full product -----------------


def _capped(p: Poly, sigma) -> Poly:
    """p cut to the sigma_2 cap the kernel takes, which may be None."""
    return p if sigma is None else p.capped(sigma)


# one term, with negative Laurent exponents and +-i coefficients among its draws
monomials = st.builds(lambda m, c: Poly({m: c}), kernel_monos,
                      st.one_of(st.sampled_from([I, -I]), kernel_coeffs.filter(lambda c: not c.is_zero())))
cap_sigmas = st.sampled_from([None, 0, 1, 2, 3])


@given(kernel_polys, st.one_of(kernel_polys, monomials, st.just(Poly())), cap_sigmas)
def test_capped_product_is_the_capped_full_product(a, b, sigma):
    """Gaussian coefficients, negative z exponents and sigma_2 degrees past the
    cap; the cap may be None, and b may be a monomial or empty, so one-term,
    empty and multi-term operands meet in both orders."""
    for x, y in ((a, b), (b, a)):
        _assert_same_poly(x.mul(y, sigma), _capped(_reference_mul(x, y), sigma))
        _assert_same_poly(x.mul(y, sigma), _capped(x * y, sigma))
    _assert_same_poly(a.mul(b), a * b)


cap_replacements = st.one_of(
    st.sampled_from([Poly.var("s2") - Poly.const(I), Poly.var("s2", 2) + Poly.var("z", -1)]),
    kernel_polys,
)


@given(kernel_polys, st.sampled_from(["s2", "p"]), cap_replacements, st.integers(0, 3))
def test_capped_subst_is_the_capped_full_subst(p, name, replacement, sigma):
    _assert_same_poly(p.subst(name, replacement, sigma), p.subst(name, replacement).capped(sigma))


# -- grouped substitution against the per-term loop it replaces -----------------


def _reference_subst(p: Poly, name: str, replacement: Poly) -> Poly:
    """One product with replacement**e and one Poly sum per term."""
    k = IDX[name]
    powers = [Poly.const(1)]
    out = Poly()
    for mono, c in p.terms.items():
        e = mono[k]
        if e < 0:
            raise ValueError("cannot substitute into a negative power")
        while len(powers) <= e:
            powers.append(powers[-1] * replacement)
        out = out + Poly({mono[:k] + (0,) + mono[k + 1:]: c}) * powers[e]
    return out


def _geometric_map(sigma: int) -> Poly:
    """sigma_2 -> sigma_2/(1 - i sigma_2) through sigma_2^sigma, as in the leftward Stokes residual."""
    out, c = Poly(), ExactScalar.one()
    for k in range(1, sigma + 1):
        out = out + Poly.var("s2", k, c)
        c = c * I
    return out


# (2z + 2i + 1/z)^2 has no constant term: 4 from the cross product, -4 from (2i)^2
CANCELLING = Poly.var("z", 1, 2) + Poly.const(2 * I) + Poly.var("z", -1)
replacements = st.one_of(
    st.sampled_from([Poly.var("s2") - Poly.const(I), _geometric_map(3), CANCELLING]),
    kernel_polys,
)


@given(kernel_polys, st.sampled_from(["s2", "p"]), replacements)
def test_grouped_subst_matches_per_term_loop(p, name, replacement):
    got = p.subst(name, replacement)
    want = _reference_subst(p, name, replacement)
    assert got == want and hash(got) == hash(want)
    assert (got.den, got.nums) == (want.den, want.nums)


def test_grouped_subst_edge_cases():
    assert _mono(0, 0, 0, 0, 0) not in (CANCELLING * CANCELLING).terms
    # (s2 - 1)^2 at s2 = 1 + z: the groups cancel each other down to z^2
    p = Poly.var("s2", 2) - Poly.var("s2", 1, 2) + Poly.const(1)
    assert p.subst("s2", Poly.const(1) + Poly.var("z")) == Poly.var("z", 2)
    with pytest.raises(ValueError, match="negative power"):
        (Poly.var("z", -1) + Poly.var("z", 2)).subst("z", Poly.var("u"))


# -- the one-pass alien derivation against its compositional form -----------------


_QP_MINUS_2 = Poly.var("q") - Poly.var("p") - Poly.const(2)


def _reference_delta(x: TransElement, omega: int) -> TransElement:
    """apply_delta built from Poly operations, one canonical Poly per step:
    D2 g = -i E, D2 E^m = i m E^{m+1}, D2 p = -i E (q - p - 2) and their
    mirrors on the ray -2."""
    out = x._like()
    if abs(omega) != 2:
        return out
    step, lin_hit, dvar, e_unit, d_unit = (1, 1, "p", I, -I) if omega == 2 else (-1, 2, "q", -I, I)
    for (lin, m, n), p in x.terms.items():
        if lin == lin_hit:
            out._put((0, m + step, n), p.scale(-I))
        if m != 0:
            out._put((lin, m + step, n), p.scale(m).scale(e_unit))
        d = p.deriv(dvar)
        if not d.is_zero():
            out._put((lin, m + step, n), _reference_mul(d.scale(d_unit), _QP_MINUS_2))
    return out


# every slot but log u, with negative Laurent exponents and Gaussian coefficients
delta_monos = st.builds(
    lambda s1, s2, p, q, z, u, w: (s1, s2, p, q, z, u, 0, w),
    st.integers(0, 2), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
    st.integers(-3, 1), st.integers(-2, 2), st.integers(-1, 1),
)
delta_polys = st.dictionaries(delta_monos, st.builds(ExactScalar, fractions, fractions), min_size=1, max_size=5).map(Poly)
delta_elements = st.builds(
    lambda terms, sigma, grade, zorder: TransElement(terms, Caps(sigma, grade, zorder)),
    st.dictionaries(st.tuples(st.sampled_from([0, 1, 2]), st.integers(-3, 3), st.integers(-3, 3)),
                    delta_polys, max_size=4),
    st.integers(0, 4), st.integers(0, 3), st.sampled_from([None, 0, 1, 2, 4]),
)


@given(delta_elements)
def test_one_pass_delta_matches_the_compositional_form(x):
    # the rays +-4 give zero
    for omega in (2, -2, 4, -4):
        # Poly == compares the canonical (den, nums)
        assert apply_delta(x, omega).terms == _reference_delta(x, omega).terms, omega


def _sigma2_maps(sigma: int, unit: ExactScalar) -> tuple:
    """The two sigma_2 maps of the Stokes residuals: sigma_2 - unit, and
    sigma_2/(1 - unit sigma_2) through sigma_2^sigma."""
    return Poly.var("s2") - Poly.const(unit), sum(
        (Poly.var("s2", k, unit ** (k - 1)) for k in range(1, sigma + 1)), Poly())


@given(delta_elements, st.sampled_from([I, -I]))
def test_shared_subst_powers_match_per_term_powers(x, unit):
    sigma = x.caps.sigma
    for replacement in _sigma2_maps(sigma, unit):
        per_term = {k: _reference_subst(p, "s2", replacement).capped(sigma) for k, p in x.terms.items()}
        assert x.subst("s2", replacement).terms == {k: p for k, p in per_term.items() if p.nums}


def _z_exponents(x: TransElement) -> set:
    return {m[IDX["z"]] for p in x.terms.values() for m in p.terms}


@st.composite
def z_bounded_elements(draw):
    """(x, Z): an element whose coefficients carry z exponents in [-Z, 0] only, Z its z order."""
    Z = draw(st.integers(1, 4))
    monos = st.builds(lambda s1, s2, p, q, z, u, w: (s1, s2, p, q, z, u, 0, w),
                      st.integers(0, 2), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2),
                      st.integers(-Z, 0), st.integers(-2, 2), st.integers(-1, 1))
    polys = st.dictionaries(monos, st.builds(ExactScalar, fractions, fractions), min_size=1, max_size=4).map(Poly)
    keys = st.tuples(st.sampled_from([0, 1, 2]), st.integers(-2, 2), st.integers(0, 2))
    caps = Caps(draw(st.integers(0, 4)), draw(st.integers(0, 3)), Z)
    return TransElement(draw(st.dictionaries(keys, polys, max_size=4)), caps), Z


@given(z_bounded_elements(), st.sampled_from([I, -I]))
def test_the_alien_kernels_never_lower_a_z_exponent(xz, unit):
    # the invariant that leaves the z order to the large-radius frame: no z floor is needed in alien
    x, Z = xz
    images = [apply_delta(x, 2), apply_delta(x, -2), apply_stokes(x, "geq0"),
              x.scale_poly(Poly.var("s2") + Poly.var("p", 1, I) + Poly.var("u", -1, F(1, 3)))]
    try:
        images.append(apply_stokes(x, "leq0"))
    except ArithmeticError:  # outside the admissible subalgebra of the leftward automorphism
        pass
    images += [x.subst("s2", m) for m in _sigma2_maps(x.caps.sigma, unit)]
    images += [x.partial(name) for name in ("s1", "s2", "p", "q", "u", "w")]
    assert _z_exponents(x) <= set(range(-Z, 1))
    for image in images:
        assert _z_exponents(image) <= set(range(-Z, 1))


def test_one_pass_delta_cancels_inside_a_term():
    # D2 (p E^-1) = i (m + e) p E^0 + ... with m = -1, e = 1: the own-key image
    # cancels, and the traded and lowered images remain
    x = TransElement({(0, -1, 0): Poly.var("p") + Poly.var("q", 1, 3)}, WIDE)
    assert apply_delta(x, 2) == _reference_delta(x, 2)
    assert apply_delta(x, 2).terms == {(0, 0, 0): Poly.var("q", 1, -4 * I) + Poly.const(2 * I)}
    # p^2 traded for p q meets the own-key image of 2 p q and cancels it on the ray 2
    y = TransElement({(1, 0, 0): Poly.var("p", 2) + Poly.var("p") * Poly.var("q", 1, 2)}, WIDE)
    for omega in (2, -2):
        assert apply_delta(y, omega) == _reference_delta(y, omega)
    assert (0, 0, 1, 1, 0, 0, 0, 0) not in apply_delta(y, 2).terms[(1, 1, 0)].terms
    # trading p for q would carry q^(2^31 - 1) out of its slot
    with pytest.raises(OverflowError):
        apply_delta(TransElement({(0, 0, 0): Poly({(0, 0, 1, (1 << 31) - 1, 0, 0, 0, 0): 1})}, WIDE), 2)


# -- the product kernel's edge cases ---------------------------------------------


def test_one_term_product_edge_cases():
    s2z = Poly.var("s2", 2) * Poly.var("z", -3)
    p = Poly.var("s2") + Poly.var("z", -1, I) + Poly.const(F(1, 2))
    assert Poly.var("z", -2, -I).mul(Poly.var("z", 2, I)) == ONE_POLY
    # a cap may drop every term, or all but the terms that leave a common factor
    assert s2z.mul(p, 1).is_zero()
    _assert_same_poly(Poly.const(2).mul(Poly.var("s2", 1, F(1, 2)) + Poly.var("s2", 4, F(1, 3)), 3),
                      Poly.var("s2"))
    for x, y in ((Poly(), Poly.var("s2")), (Poly.var("s2"), Poly())):
        _assert_same_poly(x * y, Poly())
    # the range guard looks at both operands, whichever has one term
    wide = Poly.var("z", 1 << 30)
    for one, other in ((wide, Poly.var("z")), (wide, p), (Poly.var("z"), wide), (Poly.var("s2"), wide + p)):
        for x, y in ((one, other), (other, one)):
            with pytest.raises(OverflowError, match="too large for the product kernel"):
                x * y


# -- deterministic counts of Poly builds and scalar decodes ----------------------

# (_raw calls, _gaussian_over calls) of each check from an empty formal-integral
# table with its composition context and factor certificate already built: 428/118,
# 272/66, 154/45 and 164/80 before the one-pass images, the one-term product and
# the once-decoded scalars; 275/0, 181/0, 98/2 and 70/0 before the stokes windows
# shared one build, subst shared its powers and the bridge formed d/dsigma_2 once;
# 233/0 and 178/0 for the first two before each frame kept one build at Caps(m, m);
# 166/0 for the lr geq0 check, and 175/2 and 290/0 for the two at (8, 8, 16), before
# the large-radius checks ran in the double-scaling algebra
BUILD_COUNTS = {
    "stokes_action_check(Caps(5, 5))": (lambda: stokes_action_check(Caps(5, 5)), 230, 0),
    "lr_stokes_check('geq0', Caps(5, 5, 8))": (lambda: lr_stokes_check("geq0", Caps(5, 5, 8)), 128, 0),
    "lr_bridge_check(Caps(8, 8, 16))": (lambda: lr_bridge_check(Caps(8, 8, 16)), 137, 2),
    "lr_stokes_check('leq0', Caps(8, 8, 16))": (lambda: lr_stokes_check("leq0", Caps(8, 8, 16)), 237, 0),
    "bridge_check(Caps(5, 5))": (lambda: bridge_check(Caps(5, 5)), 90, 2),
    "deltaplus_table(5, 5)": (lambda: deltaplus_table(5, 5), 70, 0),
}


@pytest.mark.parametrize("name", sorted(BUILD_COUNTS))
def test_checks_build_no_more_polys_than_recorded(monkeypatch, name):
    check, raw_cap, decode_cap = BUILD_COUNTS[name]
    for zorder in (8, 16):  # built once per process, each with the factors a check reads; not counted
        for n in range(1, 11):
            make_context(zorder).power(n)
    alien._FORMAL_INTEGRALS.clear()
    counts = {"raw": 0, "decode": 0}

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(alien, "_raw", counting("raw", alien._raw))
    monkeypatch.setattr(alien, "_gaussian_over", counting("decode", alien._gaussian_over))
    check()
    assert counts["raw"] <= raw_cap and counts["decode"] <= decode_cap, counts
