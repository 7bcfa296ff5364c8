"""Borel-Laplace layer: kernels against closed forms, sums against identities.

Frozen reference numbers in this file were produced by the code itself and
then pinned, so they guard against regressions rather than derive anything;
every identity-style assertion (hypergeometric matches, connection formulas,
reality, reflection) is an independent mathematical statement.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given
from hypothesis import strategies as st

from resurgentia import borel, families
from resurgentia.borel import (
    BranchCutError,
    Direction,
    DomainError,
    G_pm,
    QuadratureError,
    airy_oracle,
    check_derivation,
    check_homomorphism,
    check_reflection,
    choose_theta,
    connection_check,
    eval_Ahat,
    eval_Bhat,
    first_identity_check,
    gevrey_check,
    gpm_ode_residual,
    laplace_ray,
    maclaurin_borel_eval,
    median_real_check,
    normalize_interval,
    singularity_locate,
    sum_family,
)

GAMMA56 = math.gamma(5.0 / 6.0)


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
    mac = maclaurin_borel_eval(cs)
    got = eval_Bhat(1.0)
    want = complex(np.asarray(mac(np.array([1.0 + 0j])))[0])
    assert abs(got - want) < 1e-11


def test_bhat_mirror_symmetry():
    z = 1.0 + 1.0j
    assert eval_Bhat(z, "B_plus") == eval_Bhat(-z, "B")


def test_bhat_tolerance_clamped_to_node_floor():
    # asking below the node-noise floor must not raise
    v = eval_Bhat(1.0, tol=1e-13)
    assert abs(v - eval_Bhat(1.0)) < 1e-10


def test_bhat_branch_cut():
    with pytest.raises(BranchCutError):
        eval_Bhat(2.5)
    with pytest.raises(BranchCutError):
        eval_Bhat(-3.0, "B_plus")


def test_ahat_closed_values():
    assert abs(eval_Ahat(1.0) - 2.0 ** (1.0 / 6.0) / GAMMA56) < 1e-14
    assert abs(eval_Ahat(1.0, "A_plus") - (1.5) ** (-1.0 / 6.0) / GAMMA56) < 1e-14


def test_ahat_sheet_choice():
    scale = (1.5) ** (-1.0 / 6.0) / GAMMA56
    principal = scale * cmath.exp(-1j * math.pi / 6.0)
    other = scale * cmath.exp(1j * math.pi / 6.0)
    assert abs(eval_Ahat(-1.0) - principal) < 1e-14
    assert abs(eval_Ahat(-1.0, arg_zeta=-math.pi) - other) < 1e-14


def test_ahat_branch_cut_and_domain():
    with pytest.raises(BranchCutError):
        eval_Ahat(3.0)
    with pytest.raises(DomainError):
        eval_Ahat(0.0)
    with pytest.raises(ValueError):
        eval_Ahat(1.0, "nope")


# -- Laplace quadrature -------------------------------------------------------


def test_laplace_of_elementary_kernels():
    one = lambda zs: np.ones_like(np.asarray(zs, dtype=complex))
    ident = lambda zs: np.asarray(zs, dtype=complex)
    for z in (3.0, 2 + 1j):
        sv = laplace_ray(one, z, -0.2)
        assert abs(sv.value - 1.0 / z) < 1e-10
        sv2 = laplace_ray(ident, z, -0.2)
        assert abs(sv2.value - 1.0 / z ** 2) < 1e-10
        assert sv.err < 1e-9 and sv2.err < 1e-9


def test_laplace_needs_decay():
    one = lambda zs: np.ones_like(np.asarray(zs, dtype=complex))
    with pytest.raises(DomainError, match="outside half-plane"):
        laplace_ray(one, 5j, 0.0)


def test_direction_and_interval_plumbing():
    assert normalize_interval("minus") == (0.0, math.pi)
    assert normalize_interval("+") == (-math.pi, 0.0)
    assert normalize_interval((0.5, 1.5)) == (0.5, 1.5)
    with pytest.raises(ValueError):
        normalize_interval("sideways")
    with pytest.raises(ValueError, match="empty interval"):
        normalize_interval((1.0, 1.0))
    Direction(0.5, (0.0, math.pi))
    with pytest.raises(DomainError):
        Direction(-0.5, (0.0, math.pi))


def test_choose_theta_rejects_slit_window():
    with pytest.raises(DomainError, match="domain empty"):
        choose_theta(3.0, (0.0, 0.02))


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


def test_sum_is_a_homomorphism():
    out = check_homomorphism(25.0)
    assert out["ok"] and out["residual"] < 1e-10
    with pytest.raises(DomainError, match="larger"):
        check_homomorphism(20.0)


def test_sum_commutes_with_d_dz():
    out = check_derivation(6.0)
    assert out["ok"] and out["residual"] < 1e-9


def test_reflection_symmetry():
    assert check_reflection(4 - 1j, 0.3, 0.2 + 0.1j)["residual"] < 1e-12


# -- diagnostics -------------------------------------------------------------


def test_singularity_ratio_route():
    g = families.gen_g_f(82)[0]
    loc = singularity_locate([g.series.coeff(n) for n in range(1, 81)], "ratio")
    assert abs(loc - 2.0) < 1e-3


def test_singularity_pade_route():
    g = families.gen_g_f(62)[0]
    loc = singularity_locate([g.series.coeff(n) for n in range(61)], "pade")
    assert abs(loc - 2.0054649436712038) < 1e-9
    assert abs(loc - 2.0) < 0.1


def gauss_jordan_reference(A: list, rhs: list):
    """Gauss-Jordan elimination over Fraction, the Pade solver before Bareiss."""
    n = len(rhs)
    M = [row[:] + [rhs[i]] for i, row in enumerate(A)]
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


_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 9))


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_fractions, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(_fractions, min_size=n, max_size=n))))
def test_bareiss_solve_matches_gauss_jordan(system):
    A, rhs = system
    assert borel._solve_exact(A, rhs) == gauss_jordan_reference(A, rhs)


def test_bareiss_solve_on_singular_and_pade_systems(monkeypatch):
    assert borel._solve_exact([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
                              [Fraction(1), Fraction(3)]) is None
    assert borel._solve_exact([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]],
                              [Fraction(2), Fraction(3)]) == [3, 2]
    g, f, _ = families.gen_g_f(82)
    for series in (g.series, f.series):
        for count in (40, 61, 81):
            coeffs = [series.coeff(n) for n in range(count)]
            got = singularity_locate(coeffs, "pade")
            monkeypatch.setattr(borel, "_solve_exact", gauss_jordan_reference)
            want = singularity_locate(coeffs, "pade")
            monkeypatch.undo()
            assert got == want, (count, got, want)


def test_singularity_flags_entire_input():
    coeffs = [Fraction(1, math.factorial(n)) for n in range(50)]
    assert cmath.isinf(singularity_locate(coeffs, "ratio"))
    assert cmath.isinf(singularity_locate(coeffs, "pade"))


def test_singularity_input_validation():
    with pytest.raises(ValueError, match="40"):
        singularity_locate([1.0] * 10, "ratio")
    with pytest.raises(ValueError, match="method"):
        singularity_locate([1.0] * 50, "bogus")


def test_gevrey_profile_divergent():
    out = gevrey_check(10 * cmath.exp(-1j * math.pi / 2.0), "Iminus", 40)
    assert out["unimodal"]
    assert abs(out["argmin_N"] - 20) <= 6


def test_gevrey_profile_convergent_custom():
    coeffs = [0.0] + [2.0 ** (-n) for n in range(1, 30)]
    out = gevrey_check(3.0, coeffs=coeffs, n_max=15)
    errs = out["errors"]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert out["argmin_N"] == 15


def test_gevrey_needs_large_z():
    with pytest.raises(DomainError, match=r"\|z\| >= 5"):
        gevrey_check(2.0)


def test_quadrature_error_carries_payload():
    err = QuadratureError("quadrature failure", value=1.5, err=2e-3)
    assert err.value == 1.5 and err.err == 2e-3


# -- a-priori kernel rules --------------------------------------------------------


def _bhat_oracle_grid():
    ring = lambda r, k: [r * cmath.exp(2j * math.pi * (j + 0.5) / k) for j in range(k)]
    inner = ring(0.4, 6) + ring(1.0, 8) + ring(1.5, 8) + [0.0]
    far = ring(12.0, 12)
    # within 1e-3 of the cut [2, oo), above and below, near and far from the branch point
    cut = [x + s * d for x in (2.05, 3.0, 6.0, 12.0) for s in (1j, -1j) for d in (1e-3, 3e-4)]
    return inner + far, cut


def test_bhat_matches_mpmath_oracle_on_both_branches():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 25
    sixth = mpmath.mpf(1) / 6
    clear, cut = _bhat_oracle_grid()
    raised = 0
    for tol in (1e-10, 1e-11):
        limit = max(tol, 5e-11)
        for zeta in clear + cut:
            for branch, sign in (("B", 1), ("B_plus", -1)):
                want = complex(mpmath.hyp2f1(sixth, 5 * sixth, 1, sign * mpmath.mpc(zeta) / 2))
                try:
                    got = eval_Bhat(zeta, branch, tol)
                except QuadratureError as exc:
                    # only a point next to its own cut may need more than 768 nodes,
                    # and then its bound at 768 nodes misses the tolerance
                    assert zeta in cut and branch == "B", (zeta, branch)
                    assert exc.err > limit / 2
                    raised += 1
                    continue
                assert abs(got - want) <= limit, (zeta, branch, tol, abs(got - want))
    assert raised > 0


def test_bhat_raises_where_the_bound_needs_more_than_768_nodes():
    # 1e-6 above the cut the integrand's singular point sits next to [-1, 1]
    with pytest.raises(QuadratureError, match="768"):
        eval_Bhat(np.array([0.5, 6.0 + 1e-6j]))
    # the same points a little further out take a rule and pass
    assert abs(eval_Bhat(6.0 + 0.5j) - complex(sp.hyp2f1(1 / 6, 5 / 6, 1, 3.0 + 0.25j))) < 1e-10


def test_gauss_jacobi_rules_are_accurate_at_every_size():
    for n in borel._BHAT_RULES.tolist():
        omt, w = borel._gj_rule(n)
        assert len(omt) == n and np.all(w > 0)
        assert abs(w.sum() - 1.0) < 1e-13
        for zeta in (0.5, 1j, -1.2 - 0.4j):
            base = 1.0 - zeta * omt / 2.0
            want = complex(sp.hyp2f1(1 / 6, 5 / 6, 1, zeta / 2))
            assert abs(base ** (-1 / 6) @ w - want) < 1e-13, (n, zeta)


def test_kronrod_rule_extends_gauss_24():
    x, wk, wg = borel._gk_rule(24)
    gx, gw = np.polynomial.legendre.leggauss(24)
    assert len(x) == 49 and np.all(np.diff(x) > 0)
    assert np.all(wk > 0)
    assert np.max(np.abs(x[1::2] - gx)) < 1e-14
    assert np.array_equal(wg[1::2], gw) and not np.any(wg[0::2])
    # exact for every polynomial up to degree 3 * 24 + 1 = 73, in the Legendre basis
    for d in range(74):
        p = np.polynomial.legendre.Legendre.basis(d)(x)
        assert abs(wk @ p - (2.0 if d == 0 else 0.0)) < 1e-13, d
    # and not beyond: degree 74 is where a 49-point rule with 24 fixed nodes stops
    p74 = np.polynomial.legendre.Legendre.basis(74)(x)
    assert abs(wk @ p74) > 1e-6


def test_error_budget_parts_add_up_and_bound_the_airy_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for z in (2.0, 0.8 - 0.3j, 0.6 + 0.2j):
        sv = sum_family("phi", z, "Ipi")
        parts = sv.meta["err_parts"]
        assert set(parts) == {"quadrature", "kernel", "tail", "route"}
        assert sv.err == pytest.approx(sum(parts.values()), rel=1e-12)
        assert parts["kernel"] == pytest.approx(abs(z) * 1e-10 / sv.meta["rate"], rel=1e-12)
        w = (mpmath.mpf(3) * mpmath.mpc(z) / 2) ** (mpmath.mpf(2) / 3)
        ref = 2 * mpmath.sqrt(mpmath.pi) * w ** (mpmath.mpf(1) / 4) * mpmath.exp(mpmath.mpc(z)) * mpmath.airyai(w)
        assert abs(sv.value - complex(ref)) <= sv.err, z
    g = G_pm("-", 4.0, 0.25, 0.5 - 0.25j)
    parts = g.meta["err_parts"]
    assert g.err == pytest.approx(sum(parts.values()), rel=1e-12)
    assert parts["kernel"] > 0 and parts["route"] >= 0
