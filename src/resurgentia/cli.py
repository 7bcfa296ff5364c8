"""Command-line surface: every module behind reproducible subcommands.

Exit codes: 0 success, 1 domain/tolerance failures (with a structured JSON
error record on stdout), 2 usage errors. JSON output is byte-identical across
runs with the same configuration on exact paths; numeric paths are identical
given fixed tolerances.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

from . import acceptance, borel, families, largeradius
from .alien import Caps, bridge_check, stokes_action_check
from .config import ENV_VAR, RunConfig, resolve_config


def _complex(text: str) -> complex:
    s = text.strip().replace(" ", "")
    try:
        return complex(s)
    except ValueError:
        pass
    try:
        return complex(s.replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse '{text}' as a complex number")


def _common_parser(order: bool = True, tol: bool = True) -> argparse.ArgumentParser:
    """Shared configuration flags; a subcommand that would ignore --order or
    --tol is built without it, so argparse rejects the flag there."""
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("configuration")
    g.add_argument("--config", metavar="PATH", help=f"config file (or ${ENV_VAR})")
    if order:
        g.add_argument("--order", type=int, help="truncation order N")
    g.add_argument("--cap-sigma", type=int, dest="cap_sigma", help="alien sigma_2 cap")
    g.add_argument("--cap-grade", type=int, dest="cap_grade", help="alien exponential-grade cap")
    if tol:
        g.add_argument("--tol", type=float, dest="quad_tol", help="quadrature tolerance")
    g.add_argument("--format", dest="fmt", choices=("json", "csv"), help="output format")
    g.add_argument("--output", help="output path (default stdout)")
    return p


def build_parser() -> argparse.ArgumentParser:
    common = _common_parser()
    no_order = _common_parser(order=False)
    no_tol = _common_parser(tol=False)
    neither = _common_parser(order=False, tol=False)
    root = argparse.ArgumentParser(prog="resurgentia", description=__doc__)
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", parents=[no_order], help="exact coefficient families")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--ag", action="store_true", help="genus coefficients a_2, a_3, ...")
    grp.add_argument("--cn", action="store_true", help="Borel kernel coefficients c_0, c_1, ...")
    grp.add_argument("--bn", action="store_true", help="free-energy coefficients b_1, b_2, ...")
    p.add_argument("--max-g", type=int, default=4, dest="max_g")
    p.add_argument("--max-n", type=int, default=8, dest="max_n")

    p = sub.add_parser("ode-check", parents=[common], help="formal-solution certificates")
    p.add_argument("--which", choices=("psi", "g", "u", "all"), default="all")

    p = sub.add_parser("alien", parents=[common], help="symbolic resurgence identities")
    p.add_argument("--what", choices=("bridge", "stokes", "table", "gtower", "all"), default="all")

    p = sub.add_parser("sum", parents=[no_order], help="lateral Borel-Laplace sum of a family")
    p.add_argument("--family", choices=("psi", "phi", "g", "f"), required=True)
    p.add_argument("--z", type=_complex, required=True)
    p.add_argument("--interval", default="Ipi")
    p.add_argument("--theta", type=float, default=None)

    p = sub.add_parser("connect", parents=[common], help="numeric connection formulas")
    p.add_argument("which", choices=("right", "left"))
    p.add_argument("--z", type=_complex, required=True)
    p.add_argument("--sigma1", type=_complex, default=0j)
    p.add_argument("--sigma2", type=_complex, default=0j)
    p.add_argument("--threshold", type=float, default=None, help="residual bound (default 1e-6 right, 1e-4 left)")

    p = sub.add_parser("median", parents=[no_tol], help="median summation reality check")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--ray", choices=("arg0", "argpi"), default="arg0")
    p.add_argument("--theta", type=float, default=0.0)

    p = sub.add_parser("singularity", parents=[neither], help="locate the nearest Borel singularity")
    p.add_argument("--family", choices=("psi", "phi", "g", "f"), default="g")
    p.add_argument("--count", type=int, default=80, help="number of exact coefficients")
    p.add_argument("--method", choices=("ratio", "pade"), default="ratio")

    p = sub.add_parser("large-radius", parents=[common], help="large-radius pipeline")
    p.add_argument("action", choices=("pols", "h0", "uresidual", "lrsum"))
    p.add_argument("--n", type=int, default=1, help="transseries component index")
    p.add_argument("--gmax", type=int, default=2)
    p.add_argument("--gs", type=_complex, default=None)
    p.add_argument("--u", type=_complex, default=1 + 0j)
    p.add_argument("--sigma1", type=_complex, default=0j)
    p.add_argument("--sigma2", type=_complex, default=0j)
    p.add_argument("--sign", choices=("+", "-"), default="-")

    sub.add_parser("verify-all", parents=[common], help="run the acceptance suite")
    return root


# -- payload builders --------------------------------------------------------------


def _cmd_coeffs(args, cfg: RunConfig):
    if args.ag:
        if args.max_g < 2:
            raise ValueError("--max-g must be at least 2")
        _, _, a = families.gen_g_f(args.max_g - 1)
        return [str(a[g - 2]) for g in range(2, args.max_g + 1)]
    if args.cn:
        if args.max_n < 0:
            raise ValueError("--max-n must be nonnegative")
        cs = families.gen_c_coeffs(max(args.max_n, 1))
        return [str(c) for c in cs[: args.max_n + 1]]
    if args.max_n < 1:
        raise ValueError("--max-n must be positive")
    g, _, _ = families.gen_g_f(args.max_n)
    return [str(g.series.coeff(n).re) for n in range(1, args.max_n + 1)]


def _cmd_ode_check(args, cfg: RunConfig):
    N = cfg.order
    out = {"order": N}
    if args.which in ("psi", "all"):
        psi, _ = families.gen_psi_phi(N)
        out["psi_zero"] = families.ode_residual(psi.series, "airy_linear").is_zero()
    if args.which in ("g", "all"):
        g, _, _ = families.gen_g_f(N)
        out["g_zero"] = families.ode_residual(g.series, "hae_nonlinear").is_zero()
    if args.which in ("u", "all"):
        res = largeradius.u_equation_residual(largeradius.gen_H0(N))
        out["u_zero"] = all(res.coeff(k).is_zero() for k in range(N))
    out["ok"] = all(v for k, v in out.items() if k.endswith("_zero"))
    return out


def _cmd_alien(args, cfg: RunConfig):
    caps = Caps(cfg.cap_sigma, cfg.cap_grade)
    out: dict = {"cap_sigma": caps.sigma, "cap_grade": caps.grade}
    if args.what in ("bridge", "all"):
        out["bridge_ok"] = bridge_check(caps)["ok"]
    if args.what in ("stokes", "all"):
        out["stokes_ok"] = stokes_action_check(caps)["ok"]
    if args.what in ("table", "all"):
        out["table_ok"] = acceptance._deltaplus_closed_forms_ok(caps.sigma, caps.grade)
    if args.what in ("gtower", "all"):
        out["gtower_ok"] = acceptance._gtower_closed_forms_ok(caps.sigma, caps.grade)
    out["ok"] = all(v for k, v in out.items() if k.endswith("_ok"))
    return out


def _cval(prefix: str, z: complex) -> dict:
    return {f"{prefix}_re": z.real, f"{prefix}_im": z.imag}


def _cmd_sum(args, cfg: RunConfig):
    sv = borel.sum_family(args.family, args.z, args.interval, tol=cfg.quad_tol, theta=args.theta)
    out = {"family": args.family, "interval": str(args.interval), "err": sv.err}
    out.update(_cval("z", args.z))
    out.update(_cval("value", sv.value))
    out["theta"] = sv.meta.get("theta")
    return out


def _cmd_connect(args, cfg: RunConfig):
    threshold = args.threshold
    if threshold is None:
        threshold = 1e-6 if args.which == "right" else 1e-4
    res = borel.connection_check(
        args.which, args.z, args.sigma1, args.sigma2, tol=threshold, quad_tol=cfg.quad_tol
    )
    out = {"which": args.which, "residual": res["residual"], "ok": res["ok"], "threshold": threshold}
    out.update(_cval("z", args.z))
    out.update(_cval("lhs", res["lhs"]))
    out.update(_cval("rhs", res["rhs"]))
    return out


def _cmd_median(args, cfg: RunConfig):
    value, im = borel.median_real_check(args.x, args.a, args.b, ray=args.ray, theta=args.theta)
    out = {"x": args.x, "a": args.a, "b": args.b, "ray": args.ray, "abs_im": im}
    out.update(_cval("value", value))
    return out


def _cmd_singularity(args, cfg: RunConfig):
    if args.count < 40:
        raise ValueError("--count must be at least 40")
    if args.family in ("psi", "phi"):
        fam, other = families.gen_psi_phi(args.count)
        series = fam.series if args.family == "psi" else other.series
    else:
        g, f, _ = families.gen_g_f(args.count)
        series = g.series if args.family == "g" else f.series
    coeffs = [series.coeff(n) for n in range(args.count + 1)]
    loc = borel.singularity_locate(coeffs, method=args.method)
    out = {"family": args.family, "method": args.method, "count": args.count}
    out.update(_cval("location", loc))
    return out


def _cmd_large_radius(args, cfg: RunConfig):
    if args.action == "pols":
        pref, _, pols = largeradius.gen_Hn(args.n, args.gmax)
        return {
            "n": args.n,
            "prefactor": pref,
            "pols": {str(2 * g): pols[g - 1].to_map() for g in range(1, args.gmax + 1)},
        }
    if args.action == "h0":
        return largeradius.gen_H0(cfg.order if args.order is None else args.order).to_json_dict()
    if args.action == "uresidual":
        N = cfg.order
        res = largeradius.u_equation_residual(largeradius.gen_H0(N))
        nonzero = [k for k in range(res.order + 1) if not res.coeff(k).is_zero()]
        return {"order": N, "zero_through": N - 1 if not nonzero else min(nonzero) - 1, "ok": not nonzero}
    if args.gs is None:
        raise ValueError("lrsum requires --gs")
    sv = largeradius.lr_sum(args.sign, args.gs, args.u, args.sigma1, args.sigma2, tol=cfg.quad_tol * 1e4)
    out = {"sign": args.sign, "err": sv.err}
    out.update(_cval("gs", args.gs))
    out.update(_cval("u", args.u))
    out.update(_cval("sigma1", args.sigma1))
    out.update(_cval("sigma2", args.sigma2))
    out.update(_cval("value", sv.value))
    out.update(_cval("z1", sv.meta["z1"]))
    return out


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "ode-check": _cmd_ode_check,
    "alien": _cmd_alien,
    "sum": _cmd_sum,
    "connect": _cmd_connect,
    "median": _cmd_median,
    "singularity": _cmd_singularity,
    "large-radius": _cmd_large_radius,
}


# -- emission ----------------------------------------------------------------------


def _csv_text(payload) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if isinstance(payload, list):
        writer.writerow(["index", "value"])
        for i, v in enumerate(payload):
            writer.writerow([i, v])
    elif isinstance(payload, dict):
        writer.writerow(["key", "value"])
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, dict):
                for kk in sorted(v):
                    writer.writerow([f"{k}.{kk}", v[kk]])
            else:
                writer.writerow([k, v])
    else:
        writer.writerow(["value"])
        writer.writerow([payload])
    return buf.getvalue()


def _emit(payload, cfg: RunConfig) -> None:
    if cfg.fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = _csv_text(payload)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_error(exc: Exception, cfg: Optional[RunConfig]) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    sys.stdout.write(json.dumps(record, sort_keys=True, indent=2) + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg: Optional[RunConfig] = None
    try:
        overrides = {
            k: getattr(args, k, None)
            for k in ("order", "cap_sigma", "cap_grade", "quad_tol", "fmt", "output")
        }
        cfg = resolve_config(overrides, getattr(args, "config", None))
        if args.command == "verify-all":
            results = acceptance.run_all()
            for r in results:
                sys.stdout.write(r.line() + "\n")
            if cfg.output or cfg.fmt == "csv":
                payload = [
                    {"number": r.number, "title": r.title, "passed": r.passed, "detail": r.detail}
                    for r in results
                ]
                _emit(payload if cfg.fmt == "json" else {f"criterion_{r.number}": r.passed for r in results}, cfg)
            return 0 if all(r.passed for r in results) else 1
        payload = _HANDLERS[args.command](args, cfg)
        _emit(payload, cfg)
        ok = payload.get("ok", True) if isinstance(payload, dict) else True
        return 0 if ok else 1
    except (borel.DomainError, borel.BranchCutError, borel.QuadratureError, ValueError, ArithmeticError, OSError) as exc:
        _emit_error(exc, cfg)
        return 1


if __name__ == "__main__":
    sys.exit(main())
