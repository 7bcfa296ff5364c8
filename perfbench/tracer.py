"""Spans and counters recorded around the program's entry points.

The tracer rebinds entry points from outside the package: each wrapped
function is replaced in every ``resurgentia`` module that holds a reference
to it (``largeradius`` imports ``G_pm`` by name, ``cli`` and ``acceptance``
import ``alien`` names), and hot methods are replaced on their classes. Spans
record name, start, end, parent span and op id, stay in memory and are
written out when the run ends. Counts are taken at the same boundaries.
Scalar arithmetic is counted, never spanned: a span per Fraction-pair product
would cost more than the product.

Install it only in a process that runs traced work; it cannot be removed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

_now = time.perf_counter

# span names whose self time is reported, in table order
SPAN_METRICS = (
    ("series.mul", "series.mul_s"),
    ("series.inverse", "series.inverse_s"),
    ("series.log", "series.log_s"),
    ("series.exp", "series.exp_s"),
    ("series.compose_shift", "series.compose_shift_s"),
    ("families.gen_psi_phi", "families.gen_psi_phi_s"),
    ("families.gen_g_f", "families.gen_g_f_s"),
    ("families.gen_Gn", "families.gen_Gn_s"),
    ("families.ode_residual", "families.ode_residual_s"),
    ("alien.poly_mul", "alien.poly_mul_s"),
    ("alien.apply_delta", "alien.apply_delta_s"),
    ("alien.apply_stokes", "alien.apply_stokes_s"),
    ("alien.formal_integral", "alien.formal_integral_s"),
    ("largeradius.make_context", "largeradius.make_context_s"),
    ("largeradius.lr_transseries", "largeradius.lr_transseries_s"),
    ("largeradius.gen_H0", "largeradius.gen_H0_s"),
    ("largeradius.gen_Hn", "largeradius.gen_Hn_s"),
    ("largeradius.ucoeff_mul", "largeradius.ucoeff_mul_s"),
    ("largeradius.lr_sum", "largeradius.lr_sum_s"),
    ("borel.eval_Bhat", "borel.eval_Bhat_s"),
    ("borel.laplace_ray", "borel.laplace_ray_s"),
    ("borel.G_pm", "borel.G_pm_s"),
    ("borel.singularity_locate", "borel.singularity_locate_s"),
)

COUNT_METRICS = (
    "scalars.mul_calls",
    "scalars.add_calls",
    "scalars.div_calls",
    "series.mul_calls",
    "alien.poly_mul_calls",
    "alien.mono_products",
    "alien.terms_formed",
    "largeradius.make_context_calls",
    "largeradius.lr_transseries_calls",
    "largeradius.ulaurent_mul_calls",
    "borel.eval_Bhat_calls",
    "borel.kernel_points",
    "borel.laplace_ray_calls",
    "borel.panels",
    "borel.quadrature_errors",
    "borel.domain_errors",
    "borel.branch_cut_errors",
)

MAX_METRICS = ("scalars.max_bits", "alien.max_terms")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxes: dict[str, int] = defaultdict(int)
        self.error_types: dict = {}

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str, op) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = _now()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = _now()
        self.stack.pop()

    def run_op(self, op_id: int, kind: str, fn, *args):
        """Run one request as a root span; typed errors are counted here too."""
        rec = self._open("op." + kind, op_id)
        try:
            return fn(*args)
        except Exception as exc:
            self.note_error(exc)
            raise
        finally:
            self._close(rec)

    def spanned(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name, tracer.spans[tracer.stack[0]][4] if tracer.stack else None)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer.note_error(exc)
                raise
            finally:
                tracer._close(rec)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def note_error(self, exc: Exception) -> None:
        key = self.error_types.get(type(exc))
        if key is None or getattr(exc, "_bench_counted", False):
            return
        exc._bench_counted = True
        self.counts[key] += 1

    # -- results ---------------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Self seconds and call counts per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        selft: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            selft[name] += (end - start) - covered[k]
            calls[name] += 1
        return dict(selft), dict(calls)

    def summary(self) -> dict:
        selft, calls = self.self_times()
        total = sum(end - start for name, start, end, parent, _ in self.spans if parent < 0)
        unattributed = sum(v for k, v in selft.items() if k.startswith("op."))
        return {
            "self_s": selft,
            "calls": calls,
            "counts": dict(self.counts),
            "maxes": dict(self.maxes),
            "op_total_s": total,
            "unattributed_s": unattributed,
        }


def merge_summaries(parts: list) -> dict:
    out = {"self_s": defaultdict(float), "calls": defaultdict(int), "counts": defaultdict(int),
           "maxes": defaultdict(int), "op_total_s": 0.0, "unattributed_s": 0.0}
    for p in parts:
        for key in ("self_s", "calls", "counts"):
            for k, v in p[key].items():
                out[key][k] += v
        for k, v in p["maxes"].items():
            out["maxes"][k] = max(out["maxes"][k], v)
        out["op_total_s"] += p["op_total_s"]
        out["unattributed_s"] += p["unattributed_s"]
    return {k: dict(v) if isinstance(v, defaultdict) else v for k, v in out.items()}


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics from a (merged) tracer summary."""
    selft, counts, maxes = summary["self_s"], summary["counts"], summary["maxes"]
    m = {}
    for span, metric in SPAN_METRICS:
        m[metric] = selft.get(span, 0.0)
    for metric in COUNT_METRICS:
        m[metric] = counts.get(metric, 0)
    for metric in MAX_METRICS:
        m[metric] = maxes.get(metric, 0)
    kept_in = counts.get("alien.cap_terms_in", 0)
    m["alien.cap_keep_ratio"] = counts.get("alien.cap_terms_out", 0) / kept_in if kept_in else 0.0
    points = m["borel.kernel_points"]
    m["borel.us_per_kernel_point"] = 1e6 * m["borel.eval_Bhat_s"] / points if points else 0.0
    rays = m["borel.laplace_ray_calls"]
    m["borel.points_per_sum"] = points / rays if rays else 0.0
    total = summary["op_total_s"]
    m["trace.unattributed_s"] = summary["unattributed_s"]
    m["trace.unattributed_share"] = summary["unattributed_s"] / total if total else 0.0
    return m


def _bits(x) -> int:
    return max(x.re.numerator.bit_length(), x.re.denominator.bit_length(),
               x.im.numerator.bit_length(), x.im.denominator.bit_length())


def _rebind(module, name: str, wrapper) -> None:
    """Replace module.name by wrapper in every resurgentia module holding it."""
    orig = getattr(module, name)
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("resurgentia"):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    from resurgentia import alien, borel, families, largeradius, scalars, series

    counts, maxes = tracer.counts, tracer.maxes
    tracer.error_types = {
        borel.QuadratureError: "borel.quadrature_errors",
        borel.DomainError: "borel.domain_errors",
        borel.BranchCutError: "borel.branch_cut_errors",
    }

    # scalars: counted only
    X = scalars.ExactScalar
    mul, add, div = X.__mul__, X.__add__, X.__truediv__

    def x_mul(a, b):
        counts["scalars.mul_calls"] += 1
        out = mul(a, b)
        bits = _bits(out)
        if bits > maxes["scalars.max_bits"]:
            maxes["scalars.max_bits"] = bits
        return out

    def x_add(a, b):
        counts["scalars.add_calls"] += 1
        return add(a, b)

    def x_div(a, b):
        counts["scalars.div_calls"] += 1
        out = div(a, b)
        bits = _bits(out)
        if bits > maxes["scalars.max_bits"]:
            maxes["scalars.max_bits"] = bits
        return out

    X.__mul__ = X.__rmul__ = x_mul
    X.__add__ = X.__radd__ = x_add
    X.__truediv__ = x_div

    # series
    PS = series.PowerSeries

    def ps_mul_after(args, out):
        counts["series.mul_calls"] += 1

    PS.__mul__ = tracer.spanned("series.mul", PS.__mul__, ps_mul_after)
    for name in ("inverse", "log", "exp", "compose_shift"):
        setattr(PS, name, tracer.spanned("series." + name, getattr(PS, name)))

    # families
    for name in ("gen_psi_phi", "gen_g_f", "gen_Gn", "ode_residual"):
        _rebind(families, name, tracer.spanned("families." + name, getattr(families, name)))

    # alien
    def poly_mul_after(args, out):
        a, b = args
        counts["alien.poly_mul_calls"] += 1
        counts["alien.mono_products"] += len(a.terms) * len(b.terms)
        n = len(out.terms)
        counts["alien.terms_formed"] += n
        if n > maxes["alien.max_terms"]:
            maxes["alien.max_terms"] = n

    alien.Poly.__mul__ = tracer.spanned("alien.poly_mul", alien.Poly.__mul__, poly_mul_after)

    def cap_counter(fn):
        @functools.wraps(fn)
        def wrapper(self, *args):
            out = fn(self, *args)
            counts["alien.cap_terms_in"] += len(self.terms)
            counts["alien.cap_terms_out"] += len(out.terms)
            return out

        return wrapper

    alien.Poly.drop_low_z = cap_counter(alien.Poly.drop_low_z)
    alien.Poly.drop_high_degree = cap_counter(alien.Poly.drop_high_degree)
    for name in ("apply_delta", "apply_stokes", "formal_integral"):
        _rebind(alien, name, tracer.spanned("alien." + name, getattr(alien, name)))

    # largeradius
    def calls(key):
        def after(args, out):
            counts[key] += 1

        return after

    _rebind(largeradius, "make_context", tracer.spanned(
        "largeradius.make_context", largeradius.make_context, calls("largeradius.make_context_calls")))
    _rebind(largeradius, "lr_transseries", tracer.spanned(
        "largeradius.lr_transseries", largeradius.lr_transseries,
        calls("largeradius.lr_transseries_calls")))
    for name in ("gen_H0", "gen_Hn", "lr_sum"):
        _rebind(largeradius, name, tracer.spanned("largeradius." + name, getattr(largeradius, name)))
    ul_mul = largeradius.ULaurent.__mul__

    def ul_counted(a, b):
        counts["largeradius.ulaurent_mul_calls"] += 1
        return ul_mul(a, b)

    largeradius.ULaurent.__mul__ = ul_counted
    UC = largeradius.UCoeffSeries
    UC.__mul__ = tracer.spanned("largeradius.ucoeff_mul", UC.__mul__)

    # borel
    def bhat_after(args, out):
        counts["borel.eval_Bhat_calls"] += 1
        counts["borel.kernel_points"] += int(getattr(out, "size", 1))

    def ray_after(args, out):
        counts["borel.laplace_ray_calls"] += 1
        counts["borel.panels"] += int(out.meta.get("panels", 0))

    _rebind(borel, "eval_Bhat", tracer.spanned("borel.eval_Bhat", borel.eval_Bhat, bhat_after))
    _rebind(borel, "laplace_ray", tracer.spanned("borel.laplace_ray", borel.laplace_ray, ray_after))
    for name in ("G_pm", "singularity_locate"):
        _rebind(borel, name, tracer.spanned("borel." + name, getattr(borel, name)))
