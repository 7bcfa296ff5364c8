"""Command-line surface: every module behind reproducible subcommands.

Exit codes: 0 success, 1 domain/tolerance failures (with a structured JSON
error record on stdout), 2 usage errors. JSON output is byte-identical across
runs with the same configuration on exact paths; numeric paths are identical
given fixed tolerances.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys
from typing import Optional

from .config import _FORMATS, ENV_VAR, POSITIVE_KEYS, RunConfig, _finite_positive, resolve_config
from .errors import BranchCutError, DomainError, QuadratureError

# Each handler imports the modules it runs: an exact subcommand never loads
# borel (the float engine), and only verify-all loads the acceptance suite.


def _read_complex(text: str) -> Optional[complex]:
    """text as complex() reads it, with i for j, finite or not; None where it cannot."""
    s = text.strip().replace(" ", "")
    for form in (s, s.replace("i", "j")):
        try:
            return complex(form)
        except ValueError:
            pass
    return None


def _complex(text: str) -> complex:
    value = _read_complex(text)
    if value is None or not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"cannot parse '{text}' as a finite complex number")
    return value


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"cannot parse '{text}' as a finite number")
    return value


# argparse reads a token that starts with "-" as an option unless it looks like
# a negative real number, so main writes "--z -1i" as "--z=-1i" (and "--z -inf"
# as "--z=-inf", which _complex then refuses) for these flags and for the
# prefixes argparse accepts for them ("--g" for "--gs"); the bare "--" ends the
# options
_COMPLEX_FLAGS = ("--z", "--sigma1", "--sigma2", "--gs", "--u")


def _attach_complex_values(argv: list) -> list:
    out: list[str] = []
    for tok in argv:
        # "--sigma2 --z 4": a token complex() cannot read stays apart, a missing value
        if (out and len(out[-1]) > 2 and tok.startswith("-")
                and any(flag.startswith(out[-1]) for flag in _COMPLEX_FLAGS) and _read_complex(tok) is not None):
            out[-1] += "=" + tok
            continue
        out.append(tok)
    return out


def _common_parser(keys: tuple) -> argparse.ArgumentParser:
    """--config, --format and --output, plus the flag of each config key in keys;
    a subcommand takes the flags of the keys its handler reads and rejects the rest."""
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("configuration")
    g.add_argument("--config", metavar="PATH", help=f"config file (or ${ENV_VAR})")
    for key in keys:
        flag, text, _ = POSITIVE_KEYS[key]
        g.add_argument(flag, type=type(RunConfig._field_defaults[key]), dest=key, help=text)
    g.add_argument("--format", dest="fmt", choices=_FORMATS, help="output format")
    g.add_argument("--output", help="output path (default stdout)")
    return p


# flags that only some modes of a subcommand read: command -> (the mode of
# args, {dest: (flag, default, {mode that reads it: None or (least value,
# what the message calls it)})}); any other mode rejects them
_MODE_FLAGS = {
    "coeffs": (lambda a: "--ag" if a.ag else "--cn" if a.cn else "--bn",
               {"max_g": ("--max-g", 4, {"--ag": (2, "at least 2")}),
                "max_n": ("--max-n", 8, {"--cn": (0, "nonnegative"), "--bn": (1, "positive")})}),
    "median": (lambda a: f"--ray {a.ray}",
               {"theta": ("--theta", 0.0, {"--ray argpi": None}), "b": ("--b", 0.0, {"--ray arg0": None})}),
}


def _check_flags(args) -> None:
    """Default each mode flag left unset; a usage error of the subcommand's own
    parser where one is set that its mode does not read, or where a mode flag
    or a config key's flag is not finite and positive. The same config value
    from a file is RunConfig.validate's ValueError."""
    for key, (_, _, message) in POSITIVE_KEYS.items():
        value = getattr(args, key, None)
        if value is not None and not _finite_positive(value):
            args.subparser.error(message)
    if args.command not in _MODE_FLAGS:
        return
    mode_of, flags = _MODE_FLAGS[args.command]
    mode = mode_of(args)
    for dest, (flag, default, modes) in flags.items():
        value = getattr(args, dest)
        if value is None:
            setattr(args, dest, default)
        elif mode not in modes:
            args.subparser.error(f"{flag} is not read by {args.command} {mode}")
        elif modes[mode] and value < modes[mode][0]:
            args.subparser.error(f"{flag} must be {modes[mode][1]}")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(prog="resurgentia", description=__doc__)
    sub = root.add_subparsers(dest="command", required=True)

    def add(name: str, text: str, handler=None, sub=sub, reads=()) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[_common_parser(reads)], help=text)
        p.set_defaults(subparser=p, handler=handler)
        return p

    p = add("coeffs", "exact coefficient families", _cmd_coeffs)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--ag", action="store_true", help="genus coefficients a_2, a_3, ...")
    grp.add_argument("--cn", action="store_true", help="Borel kernel coefficients c_0, c_1, ...")
    grp.add_argument("--bn", action="store_true", help="free-energy coefficients b_1, b_2, ...")
    p.add_argument("--max-g", type=int, dest="max_g")
    p.add_argument("--max-n", type=int, dest="max_n")

    p = add("ode-check", "formal-solution certificates", _cmd_ode_check, reads=("order",))
    p.add_argument("--which", choices=("psi", "g", "u", "all"), default="all")

    p = add("alien", "symbolic resurgence identities", _cmd_alien, reads=("cap_sigma", "cap_grade"))
    p.add_argument("--what", choices=("bridge", "stokes", "table", "gtower", "all"), default="all")

    p = add("sum", "lateral Borel-Laplace sum of a family", _cmd_sum, reads=("quad_tol",))
    p.add_argument("--family", choices=("psi", "phi", "g", "f"), required=True)
    p.add_argument("--z", type=_complex, required=True)
    p.add_argument("--interval", choices=("I0", "Ipi", "Iplus", "Iminus"), default="Ipi")
    p.add_argument("--theta", type=_finite, default=None)

    p = add("connect", "numeric connection formulas", _cmd_connect, reads=("quad_tol",))
    p.add_argument("which", choices=("right", "left"))
    p.add_argument("--z", type=_complex, required=True)
    p.add_argument("--sigma1", type=_complex, default=0j)
    p.add_argument("--sigma2", type=_complex, default=0j)
    p.add_argument("--threshold", type=_finite, default=None, help="residual bound (default 1e-6 right, 1e-4 left)")

    p = add("median", "median summation reality check", _cmd_median)
    p.add_argument("--x", type=_finite, required=True)
    p.add_argument("--a", type=_finite, default=0.0)
    p.add_argument("--b", type=_finite)
    p.add_argument("--ray", choices=("arg0", "argpi"), default="arg0")
    p.add_argument("--theta", type=_finite)

    p = add("singularity", "locate the nearest Borel singularity", _cmd_singularity)
    p.add_argument("--family", choices=("psi", "phi", "g", "f"), default="g")
    p.add_argument("--count", type=int, default=80, help="number of exact coefficients")
    p.add_argument("--method", choices=("ratio", "pade"), default="ratio")

    # one sub-parser per action, so each action rejects the flags it does not read
    actions = sub.add_parser("large-radius", help="large-radius pipeline").add_subparsers(
        dest="action", required=True)
    p = add("pols", "the polynomials Pol_n(u, 2g)", _cmd_lr_pols, actions)
    p.add_argument("--n", type=int, default=1, help="transseries component index")
    p.add_argument("--gmax", type=int, default=2)
    add("h0", "the perturbative series H^0", _cmd_lr_h0, actions, reads=("order",))
    add("uresidual", "the u-equation residual of H^0", _cmd_lr_uresidual, actions, reads=("order",))
    p = add("lrsum", "numeric large-radius sum", _cmd_lr_sum, actions)
    p.add_argument("--gs", type=_complex, required=True)
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
        _, _, a = families.gen_g_f(args.max_g - 1)
        return [str(a[g - 2]) for g in range(2, args.max_g + 1)]
    if args.cn:
        cs = families.gen_c_coeffs(max(args.max_n, 1))
        return [str(c) for c in cs[: args.max_n + 1]]
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
    elif threshold <= 0:
        args.subparser.error("--threshold must be positive")
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

    # argpi runs at Re z = -x with |sigma_2| = 2|sin(theta/2)|, so G_pm's domain
    # Re z > (1/2) log|2 sigma_2| is |sin(theta/2)| < e^{-2x}/4 (every theta for x <= -1)
    edge = math.exp(-2 * max(args.x, -1.0)) / 4
    if args.ray == "argpi" and abs(math.sin(args.theta / 2)) >= edge:
        args.subparser.error(f"--theta must lie within 2 asin(e^(-2x)/4) = {2 * math.asin(edge):.6g} "
                             f"of a multiple of 2 pi at --x {args.x:g}")
    value, im = median_real_check(args.x, args.a, args.b, ray=args.ray, theta=args.theta)
    out = {"x": args.x, "a": args.a, "b": args.b, "ray": args.ray, "abs_im": im}
    out.update(_cval("value", value))
    return out


def _cmd_singularity(args, cfg: RunConfig):
    if args.count < 40:
        args.subparser.error("--count must be at least 40")
    from . import families
    from .borel import singularity_locate

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


def _cmd_lr_pols(args, cfg: RunConfig):
    if args.n < 1:
        args.subparser.error("component index must be positive")
    if args.gmax < 0:
        args.subparser.error("gmax must be nonnegative")
    from . import largeradius

    pref, _, pols = largeradius.gen_Hn(args.n, args.gmax)
    return {
        "n": args.n,
        "prefactor": pref,
        "pols": {str(2 * g): pols[g - 1].to_map() for g in range(1, args.gmax + 1)},
    }


def _cmd_lr_h0(args, cfg: RunConfig):
    from . import largeradius

    return largeradius.gen_H0(cfg.order).to_json_dict()


def _cmd_lr_uresidual(args, cfg: RunConfig):
    from . import largeradius

    N = cfg.order
    res = largeradius.u_equation_residual(largeradius.gen_H0(N))
    nonzero = [k for k in range(res.order + 1) if not res.coeff(k).is_zero()]
    return {"order": N, "zero_through": N - 1 if not nonzero else min(nonzero) - 1, "ok": not nonzero}


def _cmd_lr_sum(args, cfg: RunConfig):
    from . import largeradius

    sv = largeradius.lr_sum(args.sign, args.gs, args.u, args.sigma1, args.sigma2)
    out = {"sign": args.sign, "err": sv.err}
    for key in ("gs", "u", "sigma1", "sigma2"):
        out.update(_cval(key, getattr(args, key)))
    out.update(_cval("value", sv.value))
    out.update(_cval("z1", sv.meta["z1"]))
    return out


# -- emission ----------------------------------------------------------------------


def _csv_text(payload) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if isinstance(payload, list):
        writer.writerow(["index", "value"])
        for i, v in enumerate(payload):
            writer.writerow([i, v])
    else:
        writer.writerow(["key", "value"])
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, dict):
                for kk in sorted(v):
                    writer.writerow([f"{k}.{kk}", v[kk]])
            else:
                writer.writerow([k, v])
    return buf.getvalue()


def _emit(payload, cfg: RunConfig) -> None:
    if cfg.fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
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
    args = parser.parse_args(_attach_complex_values(sys.argv[1:] if argv is None else argv))
    _check_flags(args)
    try:
        overrides = {k: getattr(args, k, None) for k in RunConfig._fields}
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
        payload = args.handler(args, cfg)
        _emit(payload, cfg)
        ok = payload.get("ok", True) if isinstance(payload, dict) else True
        return 0 if ok else 1
    except (DomainError, BranchCutError, QuadratureError, ValueError, ArithmeticError, OSError) as exc:
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
