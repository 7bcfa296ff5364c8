"""Independent references: nothing here imports the program.

Exact coefficient recurrences, literals from the paper's acceptance list,
residual thresholds, 30-digit mpmath Airy values for the lateral sums, and the
checks of CLI output, which see only an exit code and stdout.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

import mpmath

mpmath.mp.dps = 30

# -- independent exact references ------------------------------------------------


def c_coeffs(n: int) -> list:
    """c_0..c_n of psi from c_{k+1} = c_k (k + 1/6)(k + 5/6) / (2(k + 1))."""
    out = [Fraction(1)]
    for k in range(n):
        out.append(out[-1] * Fraction((6 * k + 1) * (6 * k + 5), 72 * (k + 1)))
    return out


def log_coeffs(c: list) -> list:
    """b_0..b_n of log(sum c_k z^-k) for c_0 = 1: k b_k = k c_k - sum_{j<k} j b_j c_{k-j}."""
    b = [Fraction(0)] * len(c)
    for k in range(1, len(c)):
        acc = sum((j * b[j] * c[k - j] for j in range(1, k)), Fraction(0))
        b[k] = c[k] - acc / k
    return b


A_LITERALS = (Fraction(5, 24), Fraction(5, 16), Fraction(1105, 1152))
MEDIAN_IM_TOL = 1e-8  # the median-reality acceptance bound
# residual bounds of `resurgentia connect` when no --threshold is given, which
# is how cli-cold calls it
CLI_CONNECT_TOL = {"right": 1e-6, "left": 1e-4}


# -- Airy reference for the lateral sums ------------------------------------------


def _airy_sum(x: complex, arg: float):
    """S phi(x) = 2 sqrt(pi) (3x/2)^{1/6} e^x Ai((3x/2)^{2/3}), powers on the sheet arg x = arg."""
    r = mpmath.mpf(1.5) * abs(x)

    def power(p):
        return r ** p * mpmath.expj(p * arg)

    third = mpmath.mpf(1) / 3
    return 2 * mpmath.sqrt(mpmath.pi) * power(third / 2) * mpmath.exp(mpmath.mpc(x)) * mpmath.airyai(power(2 * third))


def airy_reference(family: str, z: complex) -> dict:
    """30-digit references for a lateral sum, one per sheet it can land on.

    psi(z) = phi(-z), so the psi/g sums use the phi formula at x = -z along the
    opposite ray. The Laplace integral along a ray theta'' in (-pi, pi) is the
    continuation of the formula to the sheet where |arg x + theta''| < pi/2;
    that holds for the principal arg or for one neighbour 2 pi away. Both are
    computed here; ``pick_reference`` selects by the reported direction.
    """
    x = -z if family in ("psi", "g") else z
    p = cmath.phase(x)
    refs = {}
    for a in (p, p - 2 * math.pi if p > 0 else p + 2 * math.pi):
        val = _airy_sum(x, a)
        if family in ("g", "f"):
            val = mpmath.log(val)
        refs[a] = complex(val)
    return refs


def pick_reference(family: str, refs: dict, theta: float):
    t = math.remainder(theta + (math.pi if family in ("psi", "g") else 0.0), 2 * math.pi)
    for a, val in refs.items():
        if abs(a + t) < math.pi / 2:
            return val
    return None


SUM_REL_TOL = 1e-8  # the Airy acceptance criterion's bound


def check_sum_value(family: str, refs: dict, value: complex, err: float, theta: float):
    ref = pick_reference(family, refs, theta)
    if ref is None:
        return False, f"no Airy sheet matches theta = {theta}", {}
    diff = abs(value - ref)
    ok = diff <= SUM_REL_TOL * max(1.0, abs(ref))
    return ok, f"|value - ref| = {diff:.3e}, err = {err:.3e}", {"err_miss": diff > err}


# -- cli-cold ---------------------------------------------------------------------------


def _flag(argv: list, name: str):
    for k, tok in enumerate(argv):
        if tok == name:
            return argv[k + 1]
        if tok.startswith(name + "="):
            return tok.split("=", 1)[1]
    return None


def _parse_c(text: str) -> complex:
    return complex(text.replace("i", "j"))


def cli_reference(argv: list):
    """Set-up work for one CLI request: the Airy references of a sum command."""
    if argv[0] == "sum":
        return airy_reference(_flag(argv, "--family"), _parse_c(_flag(argv, "--z")))
    return None


def check_cli(argv: list, code: int, stdout: str, refs):
    """Check one CLI invocation from its exit code and stdout alone."""
    if code != 0:
        return False, f"exit code {code}: {stdout.strip()[:200]}", {}
    try:
        out = json.loads(stdout)
    except ValueError:
        return False, "stdout is not JSON", {}
    cmd = argv[0]
    if cmd == "coeffs" and "--ag" in argv:
        got = [Fraction(s) for s in out]
        ok = tuple(got[:3]) == A_LITERALS and len(got) == int(_flag(argv, "--max-g")) - 1
        return ok, "a_2..a_4 = 5/24, 5/16, 1105/1152", {}
    if cmd == "coeffs" and "--cn" in argv:
        n = int(_flag(argv, "--max-n"))
        return [Fraction(s) for s in out] == c_coeffs(n), "c_0..c_n match the recurrence", {}
    if cmd == "ode-check":
        zeros = [v for k, v in out.items() if k.endswith("_zero")]
        ok = out["ok"] is True and zeros and all(v is True for v in zeros)
        return ok and out["order"] == int(_flag(argv, "--order")), "residuals zero", {}
    if cmd == "large-radius" and argv[1] == "pols":
        n = int(_flag(argv, "--n"))
        for two_g, pol in out["pols"].items():
            if max(int(e) for e in pol) != int(two_g):
                return False, f"deg Pol_{n}(u, {two_g}) wrong", {}
        if n == 1 and out["pols"]["2"] != {"0": "1", "2": "5/12"}:
            return False, "Pol_1(u, 2) != 5/12 u^2 + 1", {}
        return True, "deg Pol_n(u, 2g) = 2g", {}
    if cmd == "alien":
        return out.get("bridge_ok") is True and out["ok"] is True, "bridge residuals vanish", {}
    if cmd == "sum":
        value = complex(out["value_re"], out["value_im"])
        return check_sum_value(out["family"], refs, value, out["err"], out["theta"])
    if cmd == "connect":
        res = abs(complex(out["lhs_re"], out["lhs_im"]) - complex(out["rhs_re"], out["rhs_im"]))
        tol = CLI_CONNECT_TOL[argv[1]]
        ok = out["ok"] is True and res <= tol
        return ok, f"residual {res:.3e} (threshold {tol:g})", {}
    if cmd == "median":
        im = abs(out["value_im"])
        return im <= MEDIAN_IM_TOL, f"|Im| = {im:.3e}", {}
    if cmd == "large-radius" and argv[1] == "lrsum":
        return abs(out["value_im"]) <= MEDIAN_IM_TOL, f"|Im| = {abs(out['value_im']):.3e}", {}
    return False, f"no check for {' '.join(argv)}", {}
