"""The split Laplace ray: numeric on [0, R], closed form past R.

Every reference here is independent of the closed form: mpmath's expint for
the generalized exponential integrals, mpmath quadrature of the 2F1 kernel
past R, and 30-digit Airy values for the sums.
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
                # s - 1 serves the moment kernel -zeta Bhat
                for s in borel._FAR_S + tuple(s - 1.0 for s in borel._FAR_S):
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


def _moment_far_reference(z: complex, theta: float, R: float) -> complex:
    # int_R^oo -zeta 2F1(1/6, 5/6; 1; zeta/2) e^{-z zeta} dzeta on the ray of theta
    with mpmath.workdps(25):
        ph = mpmath.expj(theta)
        zz = mpmath.mpc(z)

        def f(t):
            zeta = t * ph
            return -zeta * mpmath.hyp2f1(mpmath.mpf(1) / 6, mpmath.mpf(5) / 6, 1, zeta / 2) * mpmath.exp(-zz * zeta) * ph

        return complex(mpmath.quad(f, [R, 2 * R, 4 * R, mpmath.inf]))


@pytest.mark.parametrize("z, theta", [
    (3.0 + 0.5j, 0.45),
    (2.0 - 1.0j, 0.45),
    (0.3j + 0.05, -1.2),   # |X| = 1.2: R = 4 at |z| = 0.3
    (0.2, 0.6),            # |X| = 1.2 with R raised to 6
    (0.25 - 0.1j, 1.0),
    (6.0, -0.45),
    (1.0 + 1.0j, -0.9),
])
def test_moment_far_part_matches_quadrature_past_R(z, theta):
    R = max(4.0, 1.2 / abs(z))
    ref = _moment_far_reference(z, theta, R)
    got, bound = borel._far_laplace("B", 1, z, theta, R, 1e-14 * abs(ref))
    assert abs(got - ref) <= 1e-12 * abs(ref), (abs(got - ref) / abs(ref))
    # a loose tolerance truncates early; the returned bound covers what is dropped
    short, loose = borel._far_laplace("B", 1, z, theta, R, 1e-4 * abs(ref))
    assert abs(short - ref) <= loose, (abs(short - ref), loose)


@pytest.mark.parametrize("family", ["psi", "phi"])
def test_large_z_sums_err_bounds_the_airy_reference(family):
    # rays whose decay rate is above (log(1/tol) + 8)/R once stopped short of R
    changed = 0
    for r in (8.0, 10.0, 12.0, 15.0, 20.0, 30.0):
        for arg in (0.0, 0.7, -1.1):
            z = cmath.rect(r, arg) * (1 if family == "phi" else -1)
            sv = sum_family(family, z, "Ipi")
            assert sv.meta["T"] == 4.0
            changed += sv.meta["rate"] > (math.log(1e10) + 8.0) / 4.0
            ref = airy_sum(family, z, sv.meta["theta"])
            assert abs(sv.value - ref) <= sv.err, (z, abs(sv.value - ref), sv.err)
    assert changed >= 17


def test_check_derivation_takes_the_moment_kernel_ray(monkeypatch):
    rays = []
    inner = borel.laplace_ray

    def recorded(branch, z, theta, tol=borel.DEFAULT_QUAD_TOL, moment=0):
        out = inner(branch, z, theta, tol, moment)
        rays.append(((branch, moment), out))
        return out

    monkeypatch.setattr(borel, "laplace_ray", recorded)
    for r in (1.0, 2.5, 6.0):
        for rate in (2e-2, 5e-2, 0.2):
            z = cmath.rect(r, math.pi / 2 - 0.45 - math.asin(rate / r))
            rays.clear()
            out = borel.check_derivation(z)
            assert out["ok"] and out["residual"] <= 1e-5, (z, out)
            moment = [sv for kernel, sv in rays if kernel == ("B", 1)]
            assert len(moment) == 1 and moment[0].meta["T"] == max(4.0, 1.2 / r)


def test_moment_ray_reuses_the_psi_rows(monkeypatch):
    seen = []
    inner = borel.eval_Bhat

    def counted(zeta, branch="B"):
        seen.append((branch, tuple(zeta)))
        return inner(zeta, branch)

    monkeypatch.setattr(borel, "eval_Bhat", counted)
    z, theta = 3.0 + 0.5j, 0.45
    laplace_ray("B", z, theta)
    psi_rows = set(seen)
    seen.clear()
    hits = borel._kernel_row.cache_info().hits
    laplace_ray("B", z, theta, moment=1)
    # the moment's rows are -zeta times the psi rows: shared panels come from the cache
    assert borel._kernel_row.cache_info().hits > hits
    assert psi_rows.isdisjoint(seen) and len(set(seen)) == len(seen)


def test_split_ray_err_bounds_the_airy_reference():
    grid = _small_decay_grid()
    assert sum(1 for _, z, theta in grid if (z * cmath.exp(1j * theta)).real <= 5e-2 + 1e-12) >= 40
    for branch, z, theta in grid:
        family = "psi" if branch == "B" else "phi"
        window = (theta - 0.4, theta + 0.4)
        sv = sum_family(family, z, window, theta=theta)
        assert sv.meta["T"] == max(4.0, 1.2 / abs(z))
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
    spsi = laplace_ray("B", z, theta)
    sphi = laplace_ray("B_plus", z, theta)
    psi_val, phi_val = z * spsi.value, z * sphi.value
    ratio = sigma2 * cmath.exp(-2.0 * z) * phi_val / psi_val
    assert ratio.real == pytest.approx(target, rel=1e-6)
    w_psi = 1.0 / (abs(psi_val) * abs(1.0 + ratio))
    w_phi = abs(sigma2 * cmath.exp(-2.0 * z)) * w_psi
    parts = g.meta["err_parts"]
    kappa = 1e-13
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
