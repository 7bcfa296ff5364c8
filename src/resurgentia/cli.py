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

from .config import ENV_VAR, RunConfig, resolve_config
from .errors import BranchCutError, DomainError, QuadratureError

# Each handler imports the modules it runs: an exact subcommand never loads
# borel (and with it numpy), and only verify-all loads the acceptance suite.


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


# config key -> its flag; each subcommand (and each large-radius action) takes
# --config, --format and --output, plus the flags of the keys its handler reads
# (_READS), and rejects the rest
_CONFIG_FLAGS = {
    "order": ("--order", int, "truncation order N"),
    "cap_sigma": ("--cap-sigma", int, "alien sigma_2 cap"),
    "cap_grade": ("--cap-grade", int, "alien exponential-grade cap"),
    "quad_tol": ("--tol", float, "quadrature tolerance"),
}
_READS = {
    "coeffs": (),
    "ode-check": ("order",),
    "alien": ("cap_sigma", "cap_grade"),
    "sum": ("quad_tol",),
    "connect": ("quad_tol",),
    "median": (),
    "singularity": (),
    "large-radius pols": (),
    "large-radius h0": ("order",),
    "large-radius uresidual": ("order",),
    "large-radius lrsum": ("quad_tol",),
    "verify-all": (),
}


def _common_parser(keys: tuple) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("configuration")
    g.add_argument("--config", metavar="PATH", help=f"config file (or ${ENV_VAR})")
    for key in keys:
        flag, kind, text = _CONFIG_FLAGS[key]
        g.add_argument(flag, type=kind, dest=key, help=text)
    g.add_argument("--format", dest="fmt", choices=("json", "csv"), help="output format")
    g.add_argument("--output", help="output path (default stdout)")
    return p


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(prog="resurgentia", description=__doc__)
    sub = root.add_subparsers(dest="command", required=True)

    def add(name: str, text: str, sub=sub) -> argparse.ArgumentParser:
        return sub.add_parser(name.split()[-1], parents=[_common_parser(_READS[name])], help=text)

    p = add("coeffs", "exact coefficient families")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--ag", action="store_true", help="genus coefficients a_2, a_3, ...")
    grp.add_argument("--cn", action="store_true", help="Borel kernel coefficients c_0, c_1, ...")
    grp.add_argument("--bn", action="store_true", help="free-energy coefficients b_1, b_2, ...")
    p.add_argument("--max-g", type=int, default=4, dest="max_g")
    p.add_argument("--max-n", type=int, default=8, dest="max_n")

    p = add("ode-check", "formal-solution certificates")
    p.add_argument("--which", choices=("psi", "g", "u", "all"), default="all")

    p = add("alien", "symbolic resurgence identities")
    p.add_argument("--what", choices=("bridge", "stokes", "table", "gtower", "all"), default="all")

    p = add("sum", "lateral Borel-Laplace sum of a family")
    p.add_argument("--family", choices=("psi", "phi", "g", "f"), required=True)
    p.add_argument("--z", type=_complex, required=True)
    p.add_argument("--interval", choices=("I0", "Ipi", "Iplus", "Iminus"), default="Ipi")
    p.add_argument("--theta", type=float, default=None)

    p = add("connect", "numeric connection formulas")
    p.add_argument("which", choices=("right", "left"))
    p.add_argument("--z", type=_complex, required=True)
    p.add_argument("--sigma1", type=_complex, default=0j)
    p.add_argument("--sigma2", type=_complex, default=0j)
    p.add_argument("--threshold", type=float, default=None, help="residual bound (default 1e-6 right, 1e-4 left)")

    p = add("median", "median summation reality check")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--ray", choices=("arg0", "argpi"), default="arg0")
    p.add_argument("--theta", type=float, default=0.0)

    p = add("singularity", "locate the nearest Borel singularity")
    p.add_argument("--family", choices=("psi", "phi", "g", "f"), default="g")
    p.add_argument("--count", type=int, default=80, help="number of exact coefficients")
    p.add_argument("--method", choices=("ratio", "pade"), default="ratio")

    # one sub-parser per action, so each action rejects the flags it does not read
    actions = sub.add_parser("large-radius", help="large-radius pipeline").add_subparsers(
        dest="action", required=True)
    p = add("large-radius pols", "the polynomials Pol_n(u, 2g)", actions)
    p.add_argument("--n", type=int, default=1, help="transseries component index")
    p.add_argument("--gmax", type=int, default=2)
    add("large-radius h0", "the perturbative series H^0", actions)
    add("large-radius uresidual", "the u-equation residual of H^0", actions)
    p = add("large-radius lrsum", "numeric large-radius sum", actions)
    p.add_argument("--gs", type=_complex, default=None)
    p.add_argument("--u", type=_complex, default=1 + 0j)
    p.add_argument("--sigma1", type=_complex, default=0j)
    p.add_argument("--sigma2", type=_complex, default=0j)
    p.add_argument("--sign", choices=("+", "-"), default="-")

    add("verify-all", "run the acceptance suite")
    return root


# -- payload builders --------------------------------------------------------------


def _cmd_coeffs(args, cfg: RunConfig):
    from . import families

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
    from . import families

    N = cfg.order
    out = {"order": N}
    if args.which in ("psi", "all"):
        psi, _ = families.gen_psi_phi(N)
        out["psi_zero"] = families.ode_residual(psi.series, "airy_linear").is_zero()
    if args.which in ("g", "all"):
        g, _, _ = families.gen_g_f(N)
        out["g_zero"] = families.ode_residual(g.series, "hae_nonlinear").is_zero()
    if args.which in ("u", "all"):
        from .largeradius import gen_H0, u_equation_residual

        out["u_zero"] = u_equation_residual(gen_H0(N)).is_zero()
    out["ok"] = all(v for k, v in out.items() if k.endswith("_zero"))
    return out


def _cmd_alien(args, cfg: RunConfig):
    from .alien import (
        Caps, _deltaplus_closed_forms_ok, _gtower_closed_forms_ok, bridge_check, stokes_action_check,
    )

    caps = Caps(cfg.cap_sigma, cfg.cap_grade)
    out: dict = {"cap_sigma": caps.sigma, "cap_grade": caps.grade}
    if args.what in ("bridge", "all"):
        out["bridge_ok"] = bridge_check(caps)["ok"]
    if args.what in ("stokes", "all"):
        out["stokes_ok"] = stokes_action_check(caps)["ok"]
    if args.what in ("table", "all"):
        out["table_ok"] = _deltaplus_closed_forms_ok(caps.sigma, caps.grade)
    if args.what in ("gtower", "all"):
        out["gtower_ok"] = _gtower_closed_forms_ok(caps.sigma, caps.grade)
    out["ok"] = all(v for k, v in out.items() if k.endswith("_ok"))
    return out


def _cval(prefix: str, z: complex) -> dict:
    return {f"{prefix}_re": z.real, f"{prefix}_im": z.imag}


def _cmd_sum(args, cfg: RunConfig):
    from .borel import sum_family

    sv = sum_family(args.family, args.z, args.interval, tol=cfg.quad_tol, theta=args.theta)
    out = {"family": args.family, "interval": str(args.interval), "err": sv.err}
    out.update(_cval("z", args.z))
    out.update(_cval("value", sv.value))
    out["theta"] = sv.meta.get("theta")
    return out


def _cmd_connect(args, cfg: RunConfig):
    threshold = args.threshold
    if threshold is None:
        threshold = 1e-6 if args.which == "right" else 1e-4
    from .borel import connection_check

    res = connection_check(
        args.which, args.z, args.sigma1, args.sigma2, tol=threshold, quad_tol=cfg.quad_tol
    )
    out = {"which": args.which, "residual": res["residual"], "ok": res["ok"], "threshold": threshold}
    out.update(_cval("z", args.z))
    out.update(_cval("lhs", res["lhs"]))
    out.update(_cval("rhs", res["rhs"]))
    return out


def _cmd_median(args, cfg: RunConfig):
    from .borel import median_real_check

    value, im = median_real_check(args.x, args.a, args.b, ray=args.ray, theta=args.theta)
    out = {"x": args.x, "a": args.a, "b": args.b, "ray": args.ray, "abs_im": im}
    out.update(_cval("value", value))
    return out


def _cmd_singularity(args, cfg: RunConfig):
    from . import families
    from .borel import singularity_locate

    if args.count < 40:
        raise ValueError("--count must be at least 40")
    if args.family in ("psi", "phi"):
        fam, other = families.gen_psi_phi(args.count)
        series = fam.series if args.family == "psi" else other.series
    else:
        g, f, _ = families.gen_g_f(args.count)
        series = g.series if args.family == "g" else f.series
    coeffs = [series.coeff(n) for n in range(args.count + 1)]
    loc = singularity_locate(coeffs, method=args.method)
    out = {"family": args.family, "method": args.method, "count": args.count}
    out.update(_cval("location", loc))
    return out


def _cmd_large_radius(args, cfg: RunConfig):
    from . import largeradius

    if args.action == "pols":
        pref, _, pols = largeradius.gen_Hn(args.n, args.gmax)
        return {
            "n": args.n,
            "prefactor": pref,
            "pols": {str(2 * g): pols[g - 1].to_map() for g in range(1, args.gmax + 1)},
        }
    if args.action == "h0":
        return largeradius.gen_H0(cfg.order).to_json_dict()
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


def _emit_error(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    sys.stdout.write(json.dumps(record, sort_keys=True, indent=2) + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {
            k: getattr(args, k, None)
            for k in ("order", "cap_sigma", "cap_grade", "quad_tol", "fmt", "output")
        }
        cfg = resolve_config(overrides, getattr(args, "config", None))
        if args.command == "verify-all":
            from .acceptance import run_all

            results = run_all()
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
    except (DomainError, BranchCutError, QuadratureError, ValueError, ArithmeticError, OSError) as exc:
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
