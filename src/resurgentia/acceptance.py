"""The nine-point verification suite.

Each criterion is a standalone callable returning an AcceptanceResult; run_all
executes them in order. The same functions back both `resurgentia verify-all`
and the acceptance test module, so the command line and the test suite can
never drift apart.
"""

from __future__ import annotations

import cmath
import math
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from . import borel, families, largeradius
from .alien import (
    Caps,
    _deltaplus_closed_forms_ok,
    _gtower_closed_forms_ok,
    bridge_check,
    stokes_action_check,
)


class AcceptanceResult(NamedTuple):
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"ACCEPTANCE {self.number}: {tag} - {self.title}: {self.detail} [{self.seconds:.2f}s]"


def _run(number: int, title: str, body: Callable[[], tuple[bool, str]]) -> AcceptanceResult:
    t0 = time.time()
    try:
        passed, detail = body()
    except Exception as exc:  # a crash is a failure, not an abort
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return AcceptanceResult(number, title, passed, detail, time.time() - t0)


def criterion_1() -> AcceptanceResult:
    def body():
        t0 = time.time()
        cs = families.gen_c_coeffs(64)
        psi, _ = families.gen_psi_phi(64)
        g, _, a = families.gen_g_f(64)
        ok = a[0] == Fraction(5, 24) and a[1] == Fraction(5, 16) and a[2] == Fraction(1105, 1152)
        for n in range(5):
            ok = ok and psi.series.coeff(n).re == cs[n]
        b1 = g.series.coeff(1).re
        ok = ok and b1 == Fraction(5, 72) and cs[1] == Fraction(5, 72)
        dt = time.time() - t0
        ok = ok and dt < 1.0
        return ok, f"a_2..a_4 and c_0..c_4 exact, b_1 = c_1 = 5/72, {dt:.2f}s at N = 64"

    return _run(1, "coefficient reproduction", body)


def criterion_2() -> AcceptanceResult:
    def body():
        t0 = time.time()
        N = 32
        psi, _ = families.gen_psi_phi(N)
        g, _, _ = families.gen_g_f(N)
        r1 = families.ode_residual(psi.series, "airy_linear")
        r2 = families.ode_residual(g.series, "hae_nonlinear")
        H0 = largeradius.gen_H0(N)
        r3 = largeradius.u_equation_residual(H0)
        ok = r1.is_zero() and r2.is_zero()
        ok = ok and all(r3.coeff(k).is_zero() for k in range(N))
        dt = time.time() - t0
        ok = ok and dt < 5.0
        return ok, f"psi/g ODE residuals zero to order {N - 2}, u-equation zero to order {N - 1}, {dt:.2f}s"

    return _run(2, "formal-solution certificates", body)


def criterion_3() -> AcceptanceResult:
    def body():
        caps = Caps(5, 5)
        br = bridge_check(caps)
        st = stokes_action_check(caps)
        ok = br["ok"] and st["ok"]
        ok = ok and _deltaplus_closed_forms_ok(5, 5)
        ok = ok and _gtower_closed_forms_ok(5, 5)
        lr_caps = Caps(5, 5, 8)
        ok = ok and largeradius.lr_bridge_check(lr_caps)["ok"]
        ok = ok and largeradius.lr_stokes_check("geq0", lr_caps)["ok"]
        ok = ok and largeradius.lr_stokes_check("leq0", lr_caps)["ok"]
        return ok, "bridge, Stokes actions, Delta+ tables (n,k <= 5), and large-radius counterparts exact at caps (5,5), z-order 8"

    return _run(3, "symbolic resurgence identities", body)


def criterion_4() -> AcceptanceResult:
    def body():
        UL = largeradius.ULaurent
        _, _, pols1 = largeradius.gen_Hn(1, 4)
        p2 = UL({2: Fraction(5, 12), 0: Fraction(1)})
        p4 = UL({
            4: Fraction(-25, 288), 3: Fraction(5, 4), 2: Fraction(-5, 12),
            1: Fraction(1, 3), 0: Fraction(-1, 2),
        })
        ok = pols1[0] == p2 and pols1[1] == p4
        for n in (1, 2, 3):
            _, _, pn = largeradius.gen_Hn(n, 4)
            for g in range(1, 5):
                ok = ok and pn[g - 1].deg_max() == 2 * g
        return ok, "Pol_1(u,2), Pol_1(u,4) exact; deg Pol_n(u,2g) = 2g for n <= 3, g <= 4"

    return _run(4, "large-radius polynomials", body)


def criterion_5() -> AcceptanceResult:
    def body():
        t0 = time.time()
        worst = 0.0
        for w in (1.0, 2.0, 4.0):
            z = 2.0 * w ** 1.5 / 3.0
            lhs = borel.sum_family("phi", z, "Ipi").value
            rhs = 2.0 * math.sqrt(math.pi) * w ** 0.25 * math.exp(z) * borel.airy_oracle(w)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        dt = time.time() - t0
        ok = worst <= 1e-8 and dt < 10.0
        return ok, f"relative residual {worst:.2e} <= 1e-8 at w in {{1,2,4}}, {dt:.2f}s"

    return _run(5, "Airy oracle identity", body)


def criterion_6() -> AcceptanceResult:
    def body():
        worst_r = 0.0
        for z in (3.0, 4.0, 5.0):
            for s1, s2 in ((0.0, 1.0), (1.0, -1j)):
                out = borel.connection_check("right", z, s1, s2, tol=1e-6)
                worst_r = max(worst_r, out["residual"])
        left = borel.connection_check("left", -0.9, 0.0, 0.05j, tol=1e-4)
        first = borel.first_identity_check(3.0)
        ok = worst_r <= 1e-6 and left["residual"] <= 1e-4 and first["residual"] <= 1e-6
        return ok, (
            f"right residual {worst_r:.2e} <= 1e-6, left {left['residual']:.2e} <= 1e-4, "
            f"linear identity {first['residual']:.2e} <= 1e-6"
        )

    return _run(6, "connection formulas", body)


def criterion_7() -> AcceptanceResult:
    def body():
        worst = 0.0
        for x in (3.0, 5.0):
            for a in (0.0, 1.0):
                for b in (0.0, 0.3):
                    _, im = borel.median_real_check(x, a, b, ray="arg0")
                    worst = max(worst, im)
        worst_lr = 0.0
        for a in (0.0, 1.0):
            for b in (0.0, 0.3):
                val = largeradius.lr_sum("-", 0.3, 1.0, a, b + 0.5j, tol=1e-8).value
                worst_lr = max(worst_lr, abs(val.imag))
        ok = worst <= 1e-8 and worst_lr <= 1e-8
        return ok, f"|Im| {worst:.2e} (double-scaling) and {worst_lr:.2e} (large-radius) <= 1e-8"

    return _run(7, "median/real solutions", body)


def criterion_8() -> AcceptanceResult:
    def body():
        g, _, _ = families.gen_g_f(80)
        loc = borel.singularity_locate([g.series.coeff(n) for n in range(81)], method="ratio")
        ok = abs(loc - 2.0) <= 0.2
        return ok, f"ratio estimate {loc.real:.6f} within 10% of 2 (80 exact coefficients)"

    return _run(8, "singularity witness", body)


def criterion_9() -> AcceptanceResult:
    def body():
        z = 10.0 * cmath.exp(-1j * math.pi / 2)
        prof = borel.gevrey_check(z, interval="Iminus", n_max=40)
        nstar = prof["argmin_N"]
        ok = prof["unimodal"] and abs(nstar - 20) <= 6
        return ok, f"truncation-error table unimodal, minimum at N = {nstar} within 20 +- 6"

    return _run(9, "Gevrey profile", body)


CRITERIA: tuple[Callable[[], AcceptanceResult], ...] = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_all() -> list[AcceptanceResult]:
    return [c() for c in CRITERIA]
