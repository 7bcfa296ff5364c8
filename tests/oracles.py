"""High-precision references for the float layer's tests, each written once.

Every oracle imports mpmath on its first call and computes under
``mpmath.workdps``, so no test reads or changes mpmath's global precision and
a module that imports this one loads no numeric library. Each returns Python
floats and complex numbers, rounded once from the working precision.

- ``airy_sum``: the lateral sums of psi, phi, g = log S psi and f = log S phi
  from Airy values (DLMF 9.2), on the sheet that a ray reaches;
- ``g_pm``: the sectorial solution G_+- from the two Airy sums;
- ``airy_ai``: Ai(w);
- ``bhat``: the Borel kernel B^(zeta) = 2F1(1/6, 5/6; 1; +-zeta/2) (DLMF 15.2);
- ``expint``: the generalized exponential integrals E_{s+k}(X);
- ``moment_far``: the moment kernel's Laplace integral past R, by quadrature;
- ``large_radius_R``: the elementary term R(g_s, u) of the large-radius frame;
- ``ray_integral``: a float kernel's Laplace integral on [0, T] of a ray;
- ``poly_roots``: every root of a real polynomial;
- ``gauss_rule`` and ``kronrod_rule``: the n-point Gauss-Legendre rule and its
  2n+1-point Kronrod extension, from their Jacobi matrices.
"""

import cmath
import math
from fractions import Fraction


def _airy_sum_mp(mp, x: complex, arg: float):
    """S phi(x) = 2 sqrt(pi) (3x/2)^{1/6} e^x Ai((3x/2)^{2/3}), the powers on the sheet arg x = arg."""
    r = mp.mpf(1.5) * abs(x)
    third = mp.mpf(1) / 3

    def power(e):
        return r ** e * mp.expj(e * arg)

    return 2 * mp.sqrt(mp.pi) * power(third / 2) * mp.exp(mp.mpc(x)) * mp.airyai(power(2 * third))


def _lateral_mp(mp, family: str, z: complex, theta: float):
    """S psi or S phi at z along theta at the working precision. S psi(z) = S phi(-z); the Laplace
    integral along theta' converges for |arg x + theta'| < pi/2, which picks the sheet of arg x."""
    x = -complex(z) if family == "psi" else complex(z)
    t = math.remainder(theta + (math.pi if family == "psi" else 0.0), 2.0 * math.pi)
    p = cmath.phase(x)
    a = next(a for a in (p, p - 2.0 * math.pi, p + 2.0 * math.pi) if abs(a + t) < math.pi / 2)
    return _airy_sum_mp(mp, x, a)


def airy_sum(family: str, z: complex, theta: float) -> complex:
    """The lateral sum of psi, phi, g or f at z along theta; g and f are the principal logs of the
    psi and phi sums, as sum_family takes them."""
    import mpmath as mp
    with mp.workdps(30):
        val = _lateral_mp(mp, {"g": "psi", "f": "phi"}.get(family, family), z, theta)
        return complex(mp.log(val) if family in ("g", "f") else val)


def g_pm(z: complex, theta: float, sigma1: complex, sigma2: complex) -> complex:
    """G = sigma_1 + log S psi + log(1 + sigma_2 e^{-2z} S phi / S psi) on the ray theta, on the log's
    own branch as G_pm builds it."""
    import mpmath as mp
    with mp.workdps(30):
        psi, phi = (_lateral_mp(mp, family, z, theta) for family in ("psi", "phi"))
        ratio = mp.mpc(sigma2) * mp.exp(-2 * mp.mpc(z)) * phi / psi
        return complex(mp.mpc(sigma1) + mp.log(psi) + mp.log(1 + ratio))


def airy_ai(w: complex) -> complex:
    import mpmath as mp
    with mp.workdps(30):
        return complex(mp.airyai(mp.mpc(w)))


def _bhat_mp(mp, zeta, branch: str):
    sign = 1 if branch == "B" else -1
    return mp.hyp2f1(mp.mpf(1) / 6, mp.mpf(5) / 6, 1, sign * zeta / 2)


def bhat(zeta: complex, branch: str = "B") -> complex:
    """B^(zeta) = 2F1(1/6, 5/6; 1; zeta/2) on branch B, and B^(-zeta) on B_plus."""
    import mpmath as mp
    with mp.workdps(30):
        return complex(_bhat_mp(mp, mp.mpc(zeta), branch))


def expint(s: float, X: complex, count: int) -> list:
    """[E_{s+k}(X) for k < count]."""
    import mpmath as mp
    with mp.workdps(20):
        return [complex(mp.expint(mp.mpf(s) + k, mp.mpc(X))) for k in range(count)]


def moment_far(z: complex, theta: float, R: float) -> complex:
    """The integral of -zeta B^(zeta) e^{-z zeta} d zeta past R on the ray of theta."""
    import mpmath as mp
    with mp.workdps(25):
        ph = mp.expj(theta)
        zz = mp.mpc(z)

        def f(t):
            zeta = t * ph
            return -zeta * _bhat_mp(mp, zeta, "B") * mp.exp(-zz * zeta) * ph

        return complex(mp.quad(f, [R, 2 * R, 4 * R, mp.inf]))


def large_radius_R(gs: complex, u: complex) -> complex:
    """R = (1/4) log(u^2/w) + (w^{3/2} - 1)/(3 g_s^2 u^3), w = 1 - 2 g_s^2 u^2, as written: its second
    term cancels to about |t| = |g_s^2 u^2|, so the precision is 30 digits plus |log10 t|."""
    import mpmath as mp
    with mp.workdps(30 + round(-math.log10(abs(gs * gs * u * u)))):
        G, U = mp.mpc(gs), mp.mpc(u)
        W = 1 - 2 * G * G * U * U
        return complex(mp.log(U * U / W) / 4 + (W ** 1.5 - 1) / (3 * G * G * U ** 3))


def ray_integral(kernel, z: complex, theta: float, T: float) -> complex:
    """The integral of kernel(zeta) e^{-z zeta} d zeta on [0, T e^{i theta}], for a kernel that takes
    and returns Python complex numbers."""
    import mpmath as mp
    phase = cmath.exp(1j * theta)

    def integrand(t):
        zeta = phase * float(t)
        return kernel(zeta) * cmath.exp(-z * zeta)

    with mp.workdps(15):
        return phase * complex(mp.quad(integrand, [0, T]))


def poly_roots(coeffs, dps: int = 30, **polyroots_options) -> list:
    """The roots of sum_k coeffs[k] x^k (ints, floats or Fractions, each read exactly), by
    mpmath.polyroots at dps digits; polyroots_options go to polyroots (maxsteps, extraprec)."""
    import mpmath as mp
    with mp.workdps(dps):
        cs = [mp.mpf(c.numerator) / c.denominator for c in map(Fraction, reversed(coeffs))]
        return [complex(r) for r in mp.polyroots(cs, **polyroots_options)]


_RULE_DPS = 40  # the G24/K49 table is checked to 1e-15 against these rules


def _legendre_b(mp, k: int):
    # the Legendre recurrence coefficients: b_0 = 2 (the measure's mass), b_k = k^2/(4k^2 - 1)
    return mp.mpf(2) if k == 0 else mp.mpf(k * k) / (4 * k * k - 1)


def _golub_welsch(mp, a: list, b: list) -> tuple:
    """The nodes are the Jacobi matrix's eigenvalues, the weights b_0 times the squared first
    components of its unit eigenvectors."""
    n = len(a)
    jac = mp.matrix(n, n)
    for i in range(n):
        jac[i, i] = a[i]
        if i + 1 < n:
            jac[i, i + 1] = jac[i + 1, i] = mp.sqrt(b[i + 1])
    x, vec = mp.eigsy(jac)
    order = sorted(range(n), key=lambda i: x[i])
    return tuple(float(x[i]) for i in order), tuple(float(b[0] * vec[0, i] ** 2) for i in order)


def gauss_rule(n: int) -> tuple:
    """The n-point Gauss-Legendre rule on [-1, 1]: (nodes ascending, weights)."""
    import mpmath as mp
    with mp.workdps(_RULE_DPS):
        return _golub_welsch(mp, [mp.mpf(0)] * n, [_legendre_b(mp, k) for k in range(n)])


def kronrod_rule(n: int) -> tuple:
    """The 2n+1-point Kronrod extension of the n-point Gauss-Legendre rule: (nodes ascending, weights).

    The Kronrod-Jacobi matrix comes from Laurie's algorithm (Math. Comp. 66 (1997) 1133, as in
    Gautschi's r_kronrod), started from the Legendre recurrence a_k = 0, b_k of _legendre_b; its
    eigenvalues and eigenvectors give the rule as for Gauss (Golub-Welsch).
    """
    import mpmath as mp
    with mp.workdps(_RULE_DPS):
        zero = mp.mpf(0)
        a = [zero] * (2 * n + 1)
        b = [_legendre_b(mp, k) for k in range((3 * n + 1) // 2 + 1)]
        b += [zero] * (2 * n + 1 - len(b))
        s = [zero] * (n // 2 + 3)  # s[j + 1] holds Laurie's s_j, so s[0] is s_{-1} = 0
        t = [zero] * (n // 2 + 3)
        t[1] = b[n + 1]
        for m in range(n - 1):
            acc = zero
            for k in range((m + 1) // 2, -1, -1):
                acc += (a[k + n + 1] - a[m - k]) * t[k + 1] + b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
                s[k + 1] = acc
            s, t = t, s
        s = [s[0]] + s[:-1]
        for m in range(n - 1, 2 * n - 2):
            acc = zero
            for k in range(m + 1 - n, (m - 1) // 2 + 1):
                j = n - 1 - (m - k)
                acc += -(a[k + n + 1] - a[m - k]) * t[j + 1] - b[k + n + 1] * s[j + 1] + b[m - k] * s[j + 2]
                s[j + 1] = acc
            k = (m + 1) // 2  # j is the loop's last, never empty
            if m % 2 == 0:
                a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
            else:
                b[k + n + 1] = s[j + 1] / s[j + 2]
            s, t = t, s
        a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
        return _golub_welsch(mp, a, b)
