"""The split Laplace ray: numeric on [0, R], closed form past R.

Every reference here is independent of the closed form: mpmath's expint for
the generalized exponential integrals, the generic full-ray quadrature of a
plain callable around eval_Bhat, and 30-digit Airy values for the sums.
"""

import cmath
import math

import pytest

from resurgentia import borel
from resurgentia.borel import G_pm, QuadratureError, eval_Bhat, laplace_ray, sum_family

mpmath = pytest.importorskip("mpmath")


def airy_sum(family: str, z: complex, theta: float) -> complex:
    """S psi or S phi at z along theta from 30-digit Airy values.

    S phi(x) = 2 sqrt(pi) (3x/2)^{1/6} e^x Ai((3x/2)^{2/3}) and S psi(z) = S phi(-z),
    with the powers on the sheet of arg x that the ray reaches: the Laplace
    integral along theta' converges for |arg x + theta'| < pi/2.
    """
    x = -complex(z) if family == "psi" else complex(z)
    t = math.remainder(theta + (math.pi if family == "psi" else 0.0), 2.0 * math.pi)
    p = cmath.phase(x)
    a = next(a for a in (p, p - 2.0 * math.pi, p + 2.0 * math.pi) if abs(a + t) < math.pi / 2)
    with mpmath.workdps(30):
        r = mpmath.mpf(1.5) * abs(x)
        third = mpmath.mpf(1) / 3

        def power(e):
            return r ** e * mpmath.expj(e * a)

        val = 2 * mpmath.sqrt(mpmath.pi) * power(third / 2) * mpmath.exp(mpmath.mpc(x)) * mpmath.airyai(power(2 * third))
        return complex(val)


def _small_decay_grid():
    """(branch, z, theta): rays 0.45 rad from the branch's cut, decay rates
    1.2e-3 .. 5e-2, |z| 0.3 .. 6, plus a few ordinary rays (|z| down to 0.2,
    where R is raised above 4)."""
    out = []
    for branch, cut in (("B", 0.0), ("B_plus", math.pi)):
        for side in (1, -1):
            theta = cut + side * 0.45
            for r in (0.3, 1.0, 2.5, 6.0):
                for rate in (1.2e-3, 7e-3, 5e-2):
                    z = cmath.rect(r, -theta + side * (math.pi / 2 - math.asin(rate / r)))
                    out.append((branch, z, theta))
            for r, rate in ((0.2, 0.1), (0.5, 0.3), (3.0, 2.0)):
                z = cmath.rect(r, -theta + side * (math.pi / 2 - math.asin(rate / r)))
                out.append((branch, z, theta))
    return out


def test_expint_run_matches_mpmath():
    worst = 0.0
    for mod in (1.2, 2.0, 5.0, 12.0, 40.0):
        for rex in (4e-3, 0.5):
            for sgn in (1, -1):
                X = complex(rex, sgn * math.sqrt(mod * mod - rex * rex))
                for s in borel._FAR_S:
                    got = borel._expint_run(s, X, 61)
                    with mpmath.workdps(20):
                        for k in range(61):
                            want = complex(mpmath.expint(mpmath.mpf(s) + k, mpmath.mpc(X)))
                            worst = max(worst, abs(got[k] - want) / abs(want))
    assert worst <= 1e-13, worst


def test_expint_continued_fraction_budget_raises_quadrature_error(monkeypatch):
    monkeypatch.setattr(borel, "_CF_BUDGET", 3)
    with pytest.raises(QuadratureError, match="continued fraction"):
        borel._expint_cf(1.0 / 6.0, 1.2j + 0.004)


def test_connection_series_matches_the_kernel_past_R():
    # the series behind the closed form, summed pointwise, is Bhat itself
    for branch, sign in (("B", 1.0), ("B_plus", -1.0)):
        for zeta in (4.0 * cmath.exp(0.45j), 7.0 * cmath.exp(-2.0j), 12.0j):
            x = sign * zeta / 2.0
            want = eval_Bhat(zeta, branch)
            got = sum(a * (-x) ** (-s) * sum(c * x ** (-k) for k, c in enumerate(cs[:60]))
                      for a, s, cs in zip(borel._FAR_A, borel._FAR_S, borel._FAR_C))
            assert abs(got - want) < 1e-12, (branch, zeta)


def test_split_ray_agrees_with_the_generic_full_ray():
    grid = _small_decay_grid()
    assert sum(1 for _, z, theta in grid if (z * cmath.exp(1j * theta)).real <= 5e-2 + 1e-12) >= 40
    answered = 0
    for branch, z, theta in grid:
        split = laplace_ray(borel._psi_kernel(1e-10) if branch == "B" else borel._phi_kernel(1e-10),
                            z, theta)
        assert split.meta["T"] == max(4.0, 1.2 / abs(z))
        try:
            full = laplace_ray(lambda zs, b=branch: eval_Bhat(zs, b, 1e-10), z, theta)
        except QuadratureError:
            continue  # far points on slowly decaying rays need more than 768 nodes
        answered += 1
        assert abs(split.value - full.value) <= split.err + full.err, (branch, z, theta)
    assert answered >= 16


def test_split_ray_err_bounds_the_airy_reference():
    for branch, z, theta in _small_decay_grid():
        family = "psi" if branch == "B" else "phi"
        window = (theta - 0.4, theta + 0.4)
        sv = sum_family(family, z, window, theta=theta)
        ref = airy_sum(family, z, theta)
        assert abs(sv.value - ref) <= sv.err, (family, z, theta, abs(sv.value - ref), sv.err)
        assert sv.meta["tail"] <= 1e-13


def test_small_decay_sums_answer_within_the_airy_tolerance():
    # the small-decay edge: psi sums on I_- with decay rates down to 1.2e-3
    for r, rate in ((2.0, 1.2e-3), (5.0, 1.2e-3), (3.5, 5e-2)):
        z = cmath.rect(r, math.pi / 2 - 0.45 - math.asin(rate / r))
        sv = sum_family("psi", z, "Iminus")
        assert sv.meta["rate"] == pytest.approx(rate)
        ref = airy_sum("psi", z, sv.meta["theta"])
        assert abs(sv.value - ref) <= min(sv.err, 1e-8 * max(1.0, abs(ref)))


# -- G_pm error propagation ---------------------------------------------------------


def _ratio_case(target: float):
    """sigma_2 at z = -0.7 - 0.05i on the + window giving a real ratio near target."""
    z = -0.7 - 0.05j
    theta = borel.choose_theta(z, borel.INTERVALS["Iplus"], (0.0, math.pi))
    base = cmath.exp(-2.0 * z) * airy_sum("phi", z, theta) / airy_sum("psi", z, theta)
    return z, target / base, theta


@pytest.mark.parametrize("target", [0.59, -0.59])
def test_gpm_err_parts_carry_the_log_derivative_weights(target):
    z, sigma2, theta = _ratio_case(target)
    sigma1 = 0.2 - 0.1j
    g = G_pm("+", z, sigma1, sigma2)
    assert g.meta["theta"] == theta
    spsi = laplace_ray(borel._psi_kernel(1e-10), z, theta)
    sphi = laplace_ray(borel._phi_kernel(1e-10), z, theta)
    psi_val, phi_val = z * spsi.value, z * sphi.value
    ratio = sigma2 * cmath.exp(-2.0 * z) * phi_val / psi_val
    assert ratio.real == pytest.approx(target, rel=1e-6)
    w_psi = 1.0 / (abs(psi_val) * abs(1.0 + ratio))
    w_phi = abs(sigma2 * cmath.exp(-2.0 * z)) * w_psi
    parts = g.meta["err_parts"]
    kappa = 1e-10
    for key, per_ray in (("quadrature", lambda r: r.meta["quad_err"]),
                         ("kernel", lambda r: kappa / r.meta["rate"]),
                         ("tail", lambda r: r.meta["tail"])):
        want = abs(z) * (w_psi * per_ray(spsi) + w_phi * per_ray(sphi))
        assert parts[key] == pytest.approx(want, rel=1e-12), key
    assert g.err == pytest.approx(sum(parts.values()), rel=1e-12)
    # the log's own branch: log S psi + log(1 + ratio), as G_pm builds it
    with mpmath.workdps(30):
        psi_ref = mpmath.mpc(airy_sum("psi", z, theta))
        phi_ref = mpmath.mpc(airy_sum("phi", z, theta))
        r_ref = mpmath.mpc(sigma2) * mpmath.exp(-2 * mpmath.mpc(z)) * phi_ref / psi_ref
        ref = complex(mpmath.mpc(sigma1) + mpmath.log(psi_ref) + mpmath.log(1 + r_ref))
    assert abs(g.value - ref) <= g.err
