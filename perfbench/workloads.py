"""Seeded input generators, one per workload.

``plan(workload, seed, seconds)`` returns the batches of one run. Each batch
runs in its own fresh interpreter, so nothing computed in one batch is
available to the next; cli-cold has one batch whose every request is its own
process. How many batches a run holds follows from ``--seconds`` and the
nominal costs below, never from a measured time, so one seed always gives the
same requests and the same sample count.

A request is a JSON-ready dict ``{"kind": ..., "args": {...}}``; complex numbers
are written as ``[re, im]`` pairs. Requests at a documented domain edge also
carry ``"edge"`` (the edge's name) and ``"expect"``: the typed errors the
program may raise there instead of answering, or the name of a known defect
whose exact shape the check verifies (ABOVE_SIGMA). Domains and edges are
listed in README.md.

Sizes are drawn by stratified sampling over the whole run, so every seed
yields the same mix of request kinds and nearly the same multiset of costs;
only the concrete values and the order move. The run-to-run spread of the
end-to-end metrics depends on that.
"""

from __future__ import annotations

import cmath
import math
import random

# nominal seconds, set-up included, on a 2-vCPU Xeon at the parent commit;
# they only size a run from --seconds
SYMBOLIC_HEAVY_S = 11.0  # the acceptance batch, caps (5, 5, 8)
SYMBOLIC_LIGHT_S = 5.9
SERIES_BATCH_S = 4.4
BOREL_BATCH_S = 3.4
CLI_OP_S = 0.6
CLI_EXACT_SHARE = 0.6  # keeps the median inside the exact-command cluster


def _c(z: complex) -> list:
    return [z.real, z.imag]


def _req(kind: str, **args) -> dict:
    return {"kind": kind, "args": args}


def _edge(kind: str, edge: str, expect: list, **args) -> dict:
    return {"kind": kind, "args": args, "edge": edge, "expect": expect}


# the program's known defect at the stokes-grade-above-sigma edge
ABOVE_SIGMA = "rightward-residual-above-sigma"


def _stokes(kind: str, **args) -> dict:
    """A rightward Stokes check; grade > sigma is a declared edge.

    There the program leaves the rightward residual nonzero at the grades
    above sigma and reports ok=False; every other residual term must vanish.
    """
    if args["grade"] > args["sigma"]:
        return _edge(kind, "stokes-grade-above-sigma", [ABOVE_SIGMA], **args)
    return _req(kind, **args)


def _spread(rng: random.Random, lo: int, hi: int, per_batch: int, batches: int, used: set) -> list:
    """per_batch integers for each batch, stratified over [lo, hi] across the run.

    [lo, hi] is cut into per_batch * batches slices, one value is drawn in
    each, and batch b takes slices b, b + batches, ... so that every batch
    spans the range and the run covers it evenly. Values in `used` are
    avoided: the family generators share work through gen_psi_phi(N), and a
    repeated N would let a cache serve what users pay for.
    """
    parts = per_batch * batches
    width = (hi - lo + 1) / parts
    values = []
    for k in range(parts):
        a = lo + int(k * width)
        b = max(a, lo + int((k + 1) * width) - 1)
        n = rng.randint(a, b)
        for _ in range(100):
            if n not in used:
                break
            n = rng.randint(lo, hi)
        used.add(n)
        values.append(n)
    return [[values[b + batches * j] for j in range(per_batch)] for b in range(batches)]


# -- symbolic-identities ---------------------------------------------------------


def _cheap_checks(rng: random.Random) -> list:
    """Bridge, Stokes and Delta+ checks at every (sigma, grade) in [3, 6]^2, in seeded order."""
    reqs = []
    for sigma in range(3, 7):
        for grade in range(3, 7):
            reqs.append(_req("bridge_check", sigma=sigma, grade=grade))
            reqs.append(_stokes("stokes_action_check", sigma=sigma, grade=grade))
            reqs.append(_req("deltaplus_table", sigma=sigma, grade=grade))
    rng.shuffle(reqs)
    return reqs


def _lr_triple(sigma: int, grade: int, zorder: int) -> list:
    # large-radius requests arrive as a (bridge, geq0, leq0) triple at shared
    # caps, the way verify-all issues them
    caps = {"sigma": sigma, "grade": grade, "zorder": zorder}
    return [
        _req("lr_bridge_check", **caps),
        _stokes("lr_stokes_check", direction="geq0", **caps),
        _req("lr_stokes_check", direction="leq0", **caps),
    ]


def symbolic_identities(rng: random.Random, seconds: float) -> list:
    # the acceptance batch: every check at the acceptance caps
    heavy = [_req(kind, sigma=5, grade=5)
             for kind in ("bridge_check", "stokes_action_check", "deltaplus_table")]
    heavy += _lr_triple(5, 5, 8)
    batches = [heavy]
    # light batches: the cheap checks, interleaved with large-radius triples at
    # z-order 4: (3, 3), (6, 6), (6, 5) and (5, 6), whose rightward check sits
    # on the grade > sigma edge. Every light batch holds the same caps in
    # seeded order, so the slowest light requests, which set the tail, form a
    # cluster of near-equal costs instead of a sparse seeded few.
    for _ in range(max(2, round((seconds - SYMBOLIC_HEAVY_S) / SYMBOLIC_LIGHT_S))):
        triples = [_lr_triple(s, g, 4) for s, g in ((3, 3), (6, 6), (6, 5), (5, 6))]
        rng.shuffle(triples)
        singles = _cheap_checks(rng)
        step = len(singles) // len(triples)
        batch = []
        for k, triple in enumerate(triples):
            batch += singles[k * step:(k + 1) * step] + triple
        batches.append(batch + singles[len(triples) * step:])
    return batches


# -- series-tower ----------------------------------------------------------------


_NUMERATORS = [k for k in range(-9, 10) if k]


def _rand_coeffs(rng: random.Random, n: int, gaussian: bool) -> list:
    """n exact coefficients as [p, q, r, s] meaning p/q + (r/s) i.

    The seed picks the numerators; the denominators run through 1..9 in a
    fixed pattern, because the growth of the coefficients, and with it the
    cost of log, exp and inverse, follows the denominators' least common
    multiples and would otherwise swing with the draw.
    """
    out = []
    for k in range(n):
        im = [rng.choice(_NUMERATORS), 1 + (k + 4) % 9] if gaussian else [0, 1]
        out.append([rng.choice(_NUMERATORS), 1 + k % 9] + im)
    return out


def series_tower(rng: random.Random, seconds: float) -> list:
    nb = max(3, round(seconds / SERIES_BATCH_S))
    batches: list = [[] for _ in range(nb)]
    used: set = set()

    def each(lo, hi, per_batch, make, shared=True):
        for b, ns in enumerate(_spread(rng, lo, hi, per_batch, nb, used if shared else set())):
            batches[b].extend(make(n) for n in ns)

    each(32, 128, 3, lambda n: _req("psi_phi_ode", N=n))
    each(32, 120, 4, lambda n: _req("g_f_ode", N=n))
    nmax = iter(v for b in _spread(rng, 2, 6, 2, nb, set()) for v in b)
    each(32, 64, 2, lambda n: _req("gen_Gn", N=n, nmax=next(nmax)))
    for op in ("mul", "inverse", "log", "exp"):
        for gaussian in (False, True):
            def series_op(n, op=op, gaussian=gaussian):
                operands = 2 if op == "mul" else 1
                coeffs = [_rand_coeffs(rng, n + 1, gaussian) for _ in range(operands)]
                # log needs constant term one, exp constant term zero, inverse a unit
                if op in ("log", "inverse"):
                    coeffs[0][0] = [1, 1, 0, 1]
                if op == "exp":
                    coeffs[0][0] = [0, 1, 0, 1]
                return _req("ps_" + op, N=n, gaussian=gaussian, coeffs=coeffs)

            each(24, 55, 2, series_op, shared=False)

    def compose(n):
        f = _rand_coeffs(rng, n + 1, False)
        phi = _rand_coeffs(rng, n + 1, False)
        phi[0] = [0, 1, 0, 1]
        return _req("ps_compose_shift", N=n, coeffs=[f, phi])

    each(12, 24, 2, compose, shared=False)
    each(8, 30, 2, lambda n: _req("H0_ures", N=n), shared=False)
    each(2, 8, 3, lambda g: _req("gen_Hn", n=rng.randint(1, 6), gmax=g), shared=False)
    fams = ["psi", "phi", "g", "f"]
    each(40, 80, 2, lambda c: _req("pade_locate", family=rng.choice(fams), count=c), shared=False)
    for batch in batches:
        rng.shuffle(batch)
    return batches


# -- borel-sums ------------------------------------------------------------------

# arg z ranges (inside (-pi, pi]) whose steepest ray -arg z lies inside a
# cut-free subarc of the window, 0.45 rad away from its ends; see choose_theta
_STEEP = {
    ("psi", "I0"): [(0.55, math.pi), (-math.pi, -0.55)],
    ("psi", "Ipi"): [(0.55, 2.59), (-2.59, -0.55)],
    ("psi", "Iplus"): [(0.55, 2.59)],
    ("psi", "Iminus"): [(-2.59, -0.55)],
    ("phi", "I0"): [(0.55, 2.59), (-2.59, -0.55)],
    ("phi", "Ipi"): [(-2.59, 2.59)],
    ("phi", "Iplus"): [(0.55, 2.59)],
    ("phi", "Iminus"): [(-2.59, -0.55)],
}


def _steep_z(rng: random.Random, family: str, window: str, rlo: float, rhi: float) -> complex:
    base = "psi" if family in ("psi", "g") else "phi"
    ranges = _STEEP[(base, window)]
    lo, hi = ranges[rng.randrange(len(ranges))]
    return cmath.rect(rng.uniform(rlo, rhi), rng.uniform(lo, hi))


def _small_c(rng: random.Random, scale: float) -> list:
    return _c(complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)))


_RADII = ((1.5, 3.5), (3.5, 6.0))


def _borel_batch(rng: random.Random) -> list:
    reqs = []
    # single points: sums are the most common request, so the median falls
    # inside their cluster
    for fam in ("psi", "phi", "g", "f"):
        for win in ("I0", "Ipi", "Iplus", "Iminus"):
            for rlo, rhi in _RADII:
                z = _steep_z(rng, fam, win, rlo, rhi)
                reqs.append(_req("sum", family=fam, z=_c(z), interval=win))
    # the Airy identity is the acceptance check; it gets extra weight
    for fam in ("phi", "f"):
        for k in range(20):
            rlo, rhi = _RADII[k % 2]
            z = _steep_z(rng, fam, "Ipi", rlo, rhi)
            reqs.append(_req("sum", family=fam, z=_c(z), interval="Ipi"))
    for _ in range(10):
        z = complex(rng.uniform(3.0, 5.0), rng.uniform(-0.5, 0.5))
        s2 = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
        reqs.append(_req("connect", which="right", z=_c(z), sigma1=_small_c(rng, 1.0),
                         sigma2=_c(s2), threshold=1e-6))
    for _ in range(6):
        z = complex(rng.uniform(-0.95, -0.7), rng.uniform(-0.2, 0.2))
        s2 = complex(0.0, rng.uniform(0.02, 0.05))
        reqs.append(_req("connect", which="left", z=_c(z), sigma1=_small_c(rng, 0.5),
                         sigma2=_c(s2), threshold=1e-4))
    for _ in range(8):
        reqs.append(_req("median", x=rng.uniform(2.5, 6.0), a=rng.uniform(-1.0, 1.0),
                         b=rng.uniform(-0.5, 0.5)))
    for _ in range(6):
        reqs.append(_req("lr_sum_median", gs=rng.uniform(0.2, 0.35), u=rng.uniform(0.85, 1.15),
                         a=rng.uniform(-1.0, 1.0), b=rng.uniform(-0.3, 0.3)))
    for _ in range(4):
        reqs.append(_req("lr_connect", which="right", gs=rng.uniform(0.2, 0.35),
                         u=rng.uniform(0.85, 1.15), sigma1=_small_c(rng, 0.5),
                         sigma2=_small_c(rng, 0.5), threshold=1e-4))
    # domain edges
    for _ in range(3):
        z = complex(rng.uniform(-0.62, -0.3), rng.uniform(-0.1, 0.1))
        reqs.append(_edge("connect", "left-quadrature", ["QuadratureError", "DomainError"],
                          which="left", z=_c(z), sigma1=[0.0, 0.0], sigma2=[0.0, 0.05],
                          threshold=1e-4))
    for _ in range(3):
        r = rng.uniform(2.0, 5.0)
        rate = math.exp(rng.uniform(math.log(1.2e-3), math.log(5e-2)))
        z = cmath.rect(r, math.pi / 2 - 0.45 - math.asin(rate / r))
        reqs.append(_edge("sum", "small-decay", ["QuadratureError", "DomainError"],
                          family="psi", z=_c(z), interval="Iminus"))
    for _ in range(3):
        x = rng.uniform(-0.95, -0.7)
        s2 = rng.uniform(0.9, 1.1) * 0.5 * math.exp(2.0 * x)
        reqs.append(_edge("connect", "contractive-ratio", ["DomainError", "QuadratureError"],
                          which="left", z=[x, 0.0], sigma1=[0.0, 0.0], sigma2=[0.0, s2],
                          threshold=1e-4))
    # ray work: many z on one direction
    for k in range(6):
        z = complex(rng.uniform(3.0, 5.0), rng.uniform(-0.5, 0.5))
        reqs.append(_req("gpm_ode", sign="+-"[k % 2], z=_c(z), sigma1=_small_c(rng, 1.0),
                         sigma2=_small_c(rng, 0.7), threshold=1e-6))
    for _ in range(4):
        z = complex(rng.uniform(3.0, 5.0), rng.uniform(-0.5, 0.5))
        reqs.append(_req("derivation", z=_c(z), threshold=1e-5))
    r = rng.uniform(8.0, 12.0)
    z = cmath.rect(r, -math.pi / 2 + rng.uniform(-0.2, 0.2))
    reqs.append(_req("gevrey", z=_c(z), n_max=40))
    reqs.append(_req("scan_row", re=[2.0, 6.0, 5], im=rng.uniform(-0.5, 0.5),
                     sigma1=[0.0, 0.0], sigma2=[1.0, 0.0], threshold=1e-6))
    rng.shuffle(reqs)
    return reqs


def borel_sums(rng: random.Random, seconds: float) -> list:
    return [_borel_batch(rng) for _ in range(max(3, round(seconds / BOREL_BATCH_S)))]


# -- cli-cold --------------------------------------------------------------------


def _cli_exact(rng: random.Random, k: int) -> list:
    pick = k % 5
    if pick == 0:
        return ["coeffs", "--ag", "--max-g", str(rng.randint(4, 8))]
    if pick == 1:
        return ["coeffs", "--cn", "--max-n", str(rng.randint(4, 12))]
    if pick == 2:
        # the u-equation (gen_H0) is series-tower work; here it would swamp
        # the start-up cost this workload is about
        return ["ode-check", "--which", rng.choice(["psi", "g"]), "--order", str(rng.randint(16, 32))]
    if pick == 3:
        return ["large-radius", "pols", "--n", str(rng.randint(1, 3)), "--gmax", str(rng.randint(2, 4))]
    return ["alien", "--what", "bridge", "--cap-sigma", str(rng.randint(3, 5)),
            "--cap-grade", str(rng.randint(3, 5))]


def _cstr(z: complex) -> str:
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def _cli_numeric(rng: random.Random, k: int) -> list:
    # values go in --flag=value form: argparse reads "-0.9+0.1i" as an option
    pick = k % 5
    if pick == 0:
        fam = rng.choice(["phi", "f"])
        z = _steep_z(rng, fam, "Ipi", 1.5, 6.0)
        return ["sum", "--family", fam, f"--z={_cstr(z)}", "--interval", "Ipi"]
    if pick == 1:
        z = complex(rng.uniform(3.0, 5.0), rng.uniform(-0.5, 0.5))
        return ["connect", "right", f"--z={_cstr(z)}", f"--sigma2={_cstr(complex(rng.uniform(0.5, 2.0), 0))}"]
    if pick == 2:
        z = complex(rng.uniform(-0.95, -0.7), rng.uniform(-0.2, 0.2))
        return ["connect", "left", f"--z={_cstr(z)}", f"--sigma2={_cstr(complex(0, rng.uniform(0.02, 0.05)))}"]
    if pick == 3:
        return ["median", f"--x={rng.uniform(2.5, 6.0)!r}", f"--a={rng.uniform(-1, 1)!r}",
                f"--b={rng.uniform(-0.5, 0.5)!r}"]
    return ["large-radius", "lrsum", f"--gs={rng.uniform(0.2, 0.35)!r}", f"--u={rng.uniform(0.85, 1.15)!r}",
            f"--sigma2={_cstr(complex(rng.uniform(-0.3, 0.3), 0.5))}"]


def cli_cold(rng: random.Random, seconds: float) -> list:
    n = max(12, round(seconds / CLI_OP_S))
    n_exact = round(CLI_EXACT_SHARE * n)
    reqs = [_req("cli", argv=_cli_exact(rng, k), klass="exact") for k in range(n_exact)]
    reqs += [_req("cli", argv=_cli_numeric(rng, k), klass="numeric") for k in range(n - n_exact)]
    rng.shuffle(reqs)
    return [reqs]


GENERATORS = {
    "symbolic-identities": symbolic_identities,
    "series-tower": series_tower,
    "borel-sums": borel_sums,
    "cli-cold": cli_cold,
}

# salt so that one seed gives unrelated streams on different workloads
_SALT = {name: k + 1 for k, name in enumerate(GENERATORS)}


def plan(workload: str, seed: int, seconds: float) -> list:
    """The batches of one run, each a list of requests."""
    rng = random.Random(seed * 1000003 + _SALT[workload])
    return GENERATORS[workload](rng, seconds)


def edge_share(batches: list) -> float:
    reqs = [r for b in batches for r in b]
    return sum(1 for r in reqs if "edge" in r) / len(reqs)
