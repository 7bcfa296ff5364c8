"""Request kinds: how each is prepared, run against the program, and checked.

For every kind, ``prepare`` turns the JSON request into program inputs (set-up,
untimed), ``run`` makes the program call (timed), and ``check`` decides from
the result whether the answer is right. No check takes its reference from the
code under test: references are exact recurrences, closed forms and literals
written here, convolutions done here with plain Fractions, residual thresholds,
and 30-digit mpmath Airy values.

The program is always reached through module attributes (``borel.G_pm``, not
an imported name), so that the tracer's rebinding sees every call.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from resurgentia import alien, borel, families, largeradius
from resurgentia.scalars import ExactScalar
from resurgentia.series import PowerSeries

from refs import A_LITERALS, MEDIAN_IM_TOL, airy_reference, c_coeffs, check_sum_value, log_coeffs
from workloads import ABOVE_SIGMA

SPOT_CHECKS = 4  # sampled coefficients per exact series identity


def _cx(pair) -> complex:
    return complex(pair[0], pair[1])


def _gauss(x) -> tuple:
    """An ExactScalar, Fraction or int as an exact (re, im) pair of Fractions."""
    if isinstance(x, ExactScalar):
        return (Fraction(x.re), Fraction(x.im))
    return (Fraction(x), Fraction(0))


def _gmul(a: tuple, b: tuple) -> tuple:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gadd(a: tuple, b: tuple) -> tuple:
    return (a[0] + b[0], a[1] + b[1])


def _conv_at(a: list, b: list, k: int) -> tuple:
    """Coefficient k of the product of two coefficient lists of (re, im) pairs."""
    acc = (Fraction(0), Fraction(0))
    for i in range(k + 1):
        acc = _gadd(acc, _gmul(a[i], b[k - i]))
    return acc


def _pairs(ps: PowerSeries) -> list:
    return [_gauss(c) for c in ps.coeffs]


def _sample(n: int, seed: int) -> list:
    """Spot-check indices in [0, n]: both ends plus a few seeded interior ones."""
    rng = random.Random(seed)
    ks = {0, n} | {rng.randint(1, max(1, n - 1)) for _ in range(SPOT_CHECKS)}
    return sorted(k for k in ks if 0 <= k <= n)


def _scalars(rows: list) -> list:
    return [ExactScalar(Fraction(p, q), Fraction(r, s)) for p, q, r, s in rows]


def _zero_series(ps) -> bool:
    return all(c.re == 0 and c.im == 0 for c in ps.coeffs)


# -- symbolic-identities -----------------------------------------------------------


def _caps(a: dict):
    return alien.Caps(a["sigma"], a["grade"], a.get("zorder"))


def _empty(*elements) -> bool:
    return all(not e.terms for e in elements)


_I_POW = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _deltaplus_expected(om: int, k: int) -> dict:
    """Closed forms of Delta^+_{om} G_k with G_k = ((-1)^{k-1}/k) E^k, as {key: (re, im)}."""
    n = abs(om) // 2
    if om > 0:
        j = k + n
        unit = _I_POW[(-n) % 4]
        c = Fraction(comb(j, n) * (-1) ** (j - 1), j)
    elif n > k:
        return {}
    elif n == k:
        j = 0
        unit = _I_POW[k % 4]
        c = Fraction(-1, k)
    else:
        j = k - n
        unit = _I_POW[n % 4]
        c = Fraction(comb(k - 1, n) * (-1) ** (j - 1), j)
    return {(0, j, 0): (unit[0] * c, unit[1] * c)}


def _check_deltaplus(a, prep, table):
    for (om, k), elem in table.items():
        want = _deltaplus_expected(om, k)
        got = {}
        for key, poly in elem.terms.items():
            if len(poly.terms) != 1:
                return False, f"Delta+_{om} G_{k}: non-constant coefficient", {}
            (mono, c), = poly.terms.items()
            if any(mono):
                return False, f"Delta+_{om} G_{k}: coefficient carries symbols", {}
            got[key] = _gauss(c)
        if got != want:
            return False, f"Delta+_{om} G_{k} = {got} != closed form {want}", {}
    if len(table) != 2 * a["sigma"] * a["grade"]:
        return False, "table is missing entries", {}
    return True, "closed forms hold", {}


def _check_residuals(*names):
    def check(a, prep, out):
        ok = out["ok"] is True and _empty(*(out[n] for n in names))
        return ok, "residuals vanish" if ok else "nonzero residual", {}

    return check


def _check_stokes(right, *others):
    """Residuals vanish, except the program's known defect at grade > sigma.

    There the rightward action's residual is nonzero at the terms of grade
    above sigma (the sigma_2 cap cuts the shifted powers short). A residual
    left only there is reported as that defect, so that an edge request that
    expects it counts as a loud failure; anything else that is nonzero, in the
    rightward residual at grade <= sigma or in any other residual, is wrong.
    """
    def check(a, prep, out):
        stray = [key for key in out[right].terms if abs(key[2]) <= a["sigma"]]
        if stray or not _empty(*(out[n] for n in others)):
            return False, "nonzero residual", {}
        if out[right].terms:
            grades = sorted({abs(key[2]) for key in out[right].terms})
            # the defect counts only where the program does not certify it
            extra = {"defect": ABOVE_SIGMA} if out["ok"] is False else {}
            return False, f"{right} nonzero only at grades {grades} > sigma", extra
        ok = out["ok"] is True
        return ok, "residuals vanish" if ok else "ok flag false with zero residuals", {}

    return check


# -- series-tower ----------------------------------------------------------------


def _prep_series(a):
    return [PowerSeries.from_coeffs(_scalars(rows)) for rows in a["coeffs"]]


def _run_psi_phi(a, prep):
    pair = families.gen_psi_phi(a["N"])
    return pair, families.ode_residual(pair[0].series, "airy_linear")


def _run_g_f(a, prep):
    gfa = families.gen_g_f(a["N"])
    return gfa, families.ode_residual(gfa[0].series, "hae_nonlinear")


def _run_H0(a, prep):
    h = largeradius.gen_H0(a["N"])
    return h, largeradius.u_equation_residual(h)


def _check_psi_phi(a, prep, out):
    (psi, phi), res = out
    c = c_coeffs(a["N"])
    if _pairs(psi.series) != [(x, 0) for x in c]:
        return False, "psi differs from the coefficient recurrence", {}
    if _pairs(phi.series) != [((-1) ** k * x, 0) for k, x in enumerate(c)]:
        return False, "phi is not psi(-z)", {}
    return _zero_series(res), "ODE residual zero", {}


def _check_g_f(a, prep, out):
    (g, f, alist), res = out
    n = a["N"]
    if tuple(alist[:3]) != A_LITERALS:
        return False, f"a_2..a_4 = {alist[:3]}", {}
    c = c_coeffs(n)
    gp = _pairs(g.series)
    fp = _pairs(f.series)
    for k in _sample(n, n):
        if k == 0:
            continue
        # k c_k = sum_j j g_j c_{k-j}
        rhs = sum((j * gp[j][0] * c[k - j] for j in range(1, k + 1)), Fraction(0))
        if rhs != k * c[k] or gp[k][1] != 0:
            return False, f"g is not log psi at z^-{k}", {}
        if fp[k] != ((-1) ** k * gp[k][0], 0):
            return False, f"f is not g(-z) at z^-{k}", {}
    return _zero_series(res), "a_2..a_4 literal, g = log psi, HAE residual zero", {}


def _check_Gn(a, prep, out):
    n, nmax = a["N"], a["nmax"]
    if len(out) != nmax:
        return False, "wrong tower length", {}
    c = [(x, Fraction(0)) for x in c_coeffs(n)]
    phi = [((-1) ** k * x[0], Fraction(0)) for k, x in enumerate(c)]
    tower = [_pairs(m.series) for m in out]
    for k in _sample(n, n + nmax):
        if _conv_at(tower[0], c, k) != phi[k]:
            return False, f"psi G_1 != phi at z^-{k}", {}
        for m in range(2, nmax + 1):
            # m (-1)^{m-1} G_m = G_1 * (m-1) (-1)^{m-2} G_{m-1}
            lhs = tower[m - 1][k]
            prev = [((m - 1) * (-1) ** (m - 2) * x[0], (m - 1) * (-1) ** (m - 2) * x[1]) for x in tower[m - 2]]
            rhs = _conv_at(tower[0], prev, k)
            if (m * (-1) ** (m - 1) * lhs[0], m * (-1) ** (m - 1) * lhs[1]) != rhs:
                return False, f"G_{m} breaks the power law at z^-{k}", {}
    return True, "psi G_1 = phi and the power law hold", {}


def _check_mul(a, prep, out):
    x, y = (_pairs(s) for s in prep)
    got = _pairs(out)
    for k in _sample(a["N"], a["N"]):
        if got[k] != _conv_at(x, y, k):
            return False, f"product wrong at z^-{k}", {}
    return out.order == a["N"], "spot-checked product coefficients", {}


def _check_inverse(a, prep, out):
    s, inv = _pairs(prep[0]), _pairs(out)
    for k in _sample(a["N"], a["N"]):
        if _conv_at(s, inv, k) != ((1 if k == 0 else 0), 0):
            return False, f"s * s^-1 != 1 at z^-{k}", {}
    return True, "s * s^-1 = 1 at sampled orders", {}


def _check_log(a, prep, out):
    s, lg = _pairs(prep[0]), _pairs(out)
    if lg[0] != (0, 0):
        return False, "log has a constant term", {}
    for k in _sample(a["N"], a["N"]):
        if k == 0:
            continue
        # s = exp(l): k s_k = sum_j j l_j s_{k-j}
        acc = (Fraction(0), Fraction(0))
        for j in range(1, k + 1):
            t = _gmul(lg[j], s[k - j])
            acc = _gadd(acc, (j * t[0], j * t[1]))
        if acc != (k * s[k][0], k * s[k][1]):
            return False, f"exp(log s) != s at z^-{k}", {}
    return True, "exp(log s) = s at sampled orders", {}


def _check_exp(a, prep, out):
    s, e = _pairs(prep[0]), _pairs(out)
    if e[0] != (1, 0):
        return False, "exp has constant term != 1", {}
    for k in _sample(a["N"], a["N"]):
        if k == 0:
            continue
        acc = (Fraction(0), Fraction(0))
        for j in range(1, k + 1):
            t = _gmul(s[j], e[k - j])
            acc = _gadd(acc, (j * t[0], j * t[1]))
        if acc != (k * e[k][0], k * e[k][1]):
            return False, f"log(exp s) != s at z^-{k}", {}
    return True, "E' = s' E at sampled orders", {}


COMPOSE_CHECK_ORDER = 8


def _check_compose(a, prep, out):
    """f(z + phi) = sum_j x^j g_j with x = phi/z, g_j = sum_m c_m binom(-m, j) z^-m."""
    f, phi = (_pairs(s) for s in prep)
    n = min(a["N"], COMPOSE_CHECK_ORDER)
    zero = (Fraction(0), Fraction(0))
    x = [zero] + phi[:n]  # phi / z, truncated
    want = [zero] * (n + 1)
    xj = [(Fraction(1), Fraction(0))] + [zero] * n
    for j in range(n + 1):
        gj = [zero] * (n + 1)
        for m in range(n + 1):
            b = Fraction(comb(m + j - 1, j) * (-1) ** j) if m else Fraction(1 if j == 0 else 0)
            gj[m] = (f[m][0] * b, f[m][1] * b)
        for k in range(n + 1):
            want[k] = _gadd(want[k], _conv_at(xj, gj, k))
        xj = [_conv_at(xj, x, k) for k in range(n + 1)]
    got = _pairs(out)[: n + 1]
    ok = got == want
    return ok, f"first {n + 1} coefficients match the binomial expansion" if ok else "composition differs", {}


def _check_H0(a, prep, out):
    H, res = out
    n = a["N"]
    if any(res.coeff(k).terms for k in range(n)):
        return False, "u-equation residual nonzero", {}
    if H.coeff(0).terms != {-1: Fraction(-1)} or H.log_u != Fraction(1, 2):
        return False, "H0 constant term is not -1/u + (1/2) log u", {}
    return True, f"u-equation residual zero through g_s^{2 * (n - 1)}", {}


def _check_Hn(a, prep, out):
    pref, series, pols = out
    n, gmax = a["n"], a["gmax"]
    if pref != f"exp({2 * n}/u)" or len(pols) != gmax:
        return False, "prefactor or length wrong", {}
    if series.coeff(0).terms != {0: Fraction(-1, n)}:
        return False, "g_s^0 term is not -1/n", {}
    for g in range(1, gmax + 1):
        if pols[g - 1].deg_max() != 2 * g:
            return False, f"deg Pol_{n}(u, {2 * g}) != {2 * g}", {}
    if n == 1 and pols[0].terms != {2: Fraction(5, 12), 0: Fraction(1)}:
        return False, "Pol_1(u, 2) != 5/12 u^2 + 1", {}
    return True, "deg Pol_n(u, 2g) = 2g", {}


def _prep_pade(a):
    c = c_coeffs(a["count"])
    fam = a["family"]
    if fam in ("g", "f"):
        c = log_coeffs(c)
    if fam in ("phi", "f"):
        c = [(-1) ** k * x for k, x in enumerate(c)]
    return c


def _check_pade(a, prep, out):
    want = 2.0 if a["family"] in ("psi", "g") else -2.0
    ok = abs(out - want) <= 0.2
    return ok, f"pole {out:.6f}, expected {want} +- 10%", {}


# -- borel-sums ----------------------------------------------------------------------


def _prep_sum(a):
    return airy_reference(a["family"], _cx(a["z"]))


def _run_sum(a, refs):
    return borel.sum_family(a["family"], _cx(a["z"]), a["interval"])


def _check_sum(a, refs, out):
    return check_sum_value(a["family"], refs, out.value, out.err, out.meta["theta"])


def _run_connect(a, prep):
    return borel.connection_check(a["which"], _cx(a["z"]), _cx(a["sigma1"]), _cx(a["sigma2"]),
                                  tol=a["threshold"])


def _check_residual_pair(a, prep, out):
    res = abs(out["lhs"] - out["rhs"])
    ok = res <= a["threshold"] and out["ok"] is True
    return ok, f"residual {res:.3e} <= {a['threshold']:g}" if ok else f"residual {res:.3e}", {}


def _check_real(a, prep, out):
    im = abs(out.imag)
    return im <= MEDIAN_IM_TOL, f"|Im| = {im:.3e}", {}


def _check_threshold(key):
    def check(a, prep, out):
        val = out if key is None else out[key]
        return val <= a["threshold"], f"residual {val:.3e} (threshold {a['threshold']:g})", {}

    return check


def _run_scan_row(a, prep):
    lo, hi, count = a["re"]
    step = (hi - lo) / (count - 1)
    return [
        borel.connection_check("right", complex(lo + k * step, a["im"]), _cx(a["sigma1"]),
                               _cx(a["sigma2"]), tol=a["threshold"])
        for k in range(count)
    ]


def _check_scan_row(a, prep, out):
    worst = max(abs(r["lhs"] - r["rhs"]) for r in out)
    return worst <= a["threshold"], f"worst residual {worst:.3e}", {}


def _check_gevrey(a, prep, out):
    expected = 2.0 * abs(_cx(a["z"]))
    ok = out["unimodal"] and abs(out["argmin_N"] - expected) <= 6
    return ok, f"argmin N = {out['argmin_N']}, expected {expected:.1f} +- 6", {}


def _none(a):
    return None


# kind -> (prepare, run, check)
KINDS = {
    "bridge_check": (_none, lambda a, p: alien.bridge_check(_caps(a)),
                     _check_residuals("residual_plus", "residual_minus")),
    "stokes_action_check": (_none, lambda a, p: alien.stokes_action_check(_caps(a)),
                            _check_stokes("residual_right", "residual_left")),
    "deltaplus_table": (_none, lambda a, p: alien.deltaplus_table(a["sigma"], a["grade"]),
                        _check_deltaplus),
    "lr_bridge_check": (_none, lambda a, p: largeradius.lr_bridge_check(_caps(a)),
                        _check_residuals("residual_plus", "residual_minus")),
    "lr_stokes_check": (_none, lambda a, p: largeradius.lr_stokes_check(a["direction"], _caps(a)),
                        _check_stokes("residual")),
    "psi_phi_ode": (_none, _run_psi_phi, _check_psi_phi),
    "g_f_ode": (_none, _run_g_f, _check_g_f),
    "gen_Gn": (_none, lambda a, p: families.gen_Gn(a["N"], a["nmax"]), _check_Gn),
    "ps_mul": (_prep_series, lambda a, p: p[0] * p[1], _check_mul),
    "ps_inverse": (_prep_series, lambda a, p: p[0].inverse(), _check_inverse),
    "ps_log": (_prep_series, lambda a, p: p[0].log(), _check_log),
    "ps_exp": (_prep_series, lambda a, p: p[0].exp(), _check_exp),
    "ps_compose_shift": (_prep_series, lambda a, p: p[0].compose_shift(p[1]), _check_compose),
    "H0_ures": (_none, _run_H0, _check_H0),
    "gen_Hn": (_none, lambda a, p: largeradius.gen_Hn(a["n"], a["gmax"]), _check_Hn),
    "pade_locate": (_prep_pade, lambda a, p: borel.singularity_locate(p, method="pade"), _check_pade),
    "sum": (_prep_sum, _run_sum, _check_sum),
    "connect": (_none, _run_connect, _check_residual_pair),
    "median": (_none, lambda a, p: borel.median_real_check(a["x"], a["a"], a["b"])[0], _check_real),
    "lr_sum_median": (_none, lambda a, p: largeradius.lr_sum(
        "-", a["gs"], a["u"], a["a"], complex(a["b"], 0.5), tol=1e-8).value, _check_real),
    "lr_connect": (_none, lambda a, p: largeradius.lr_connection_check(
        a["which"], a["gs"], a["u"], _cx(a["sigma1"]), _cx(a["sigma2"]), tol=a["threshold"]),
        _check_residual_pair),
    "gpm_ode": (_none, lambda a, p: borel.gpm_ode_residual(
        a["sign"], _cx(a["z"]), _cx(a["sigma1"]), _cx(a["sigma2"])), _check_threshold(None)),
    "derivation": (_none, lambda a, p: borel.check_derivation(_cx(a["z"])), _check_threshold("residual")),
    "gevrey": (_none, lambda a, p: borel.gevrey_check(_cx(a["z"]), "Iminus", a["n_max"]), _check_gevrey),
    "scan_row": (_none, _run_scan_row, _check_scan_row),
}
