#!/usr/bin/env python3
"""Scan connection-formula residuals over a grid of z values.

Emits one CSV row per grid point: which formula, z, residual, the quadrature
error estimate, and whether the residual clears the threshold. Useful for
mapping how far into the complex plane the numerical verification stays clean.
A range that starts with "-" takes the "=" form (--re=-3:-0.5:6): argparse
reads a bare "-3:-0.5:6" as an option.

Example:
    python3 scripts/connection_scan.py --which right --re 2:6:5 --im=-1:1:5
    python3 scripts/connection_scan.py --which left --re=-3:-0.5:6 --sigma2 0.05i
"""

import argparse
import csv
import sys

from resurgentia.borel import DomainError, QuadratureError, connection_check


def parse_range(text: str) -> list[float]:
    lo, hi, count = text.split(":")
    lo, hi, count = float(lo), float(hi), int(count)
    if count < 1:
        raise ValueError("count must be positive")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]


def parse_complex(text: str) -> complex:
    return complex(text.replace("i", "j"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--which", choices=("right", "left"), default="right")
    ap.add_argument("--re", default="2:6:5", help="lo:hi:count for Re z")
    ap.add_argument("--im", default="0:0:1", help="lo:hi:count for Im z")
    ap.add_argument("--sigma1", type=parse_complex, default=0j)
    ap.add_argument("--sigma2", type=parse_complex, default=1 + 0j)
    ap.add_argument("--threshold", type=float, default=None)
    args = ap.parse_args()

    threshold = args.threshold
    if threshold is None:
        threshold = 1e-6 if args.which == "right" else 1e-4

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["which", "z_re", "z_im", "residual", "err", "ok"])
    failures = 0
    for re in parse_range(args.re):
        for im in parse_range(args.im):
            z = complex(re, im)
            try:
                out = connection_check(args.which, z, args.sigma1, args.sigma2, tol=threshold)
            except (DomainError, QuadratureError) as exc:
                writer.writerow([args.which, re, im, "", "", f"skipped: {exc}"])
                continue
            writer.writerow([args.which, re, im, f"{out['residual']:.3e}", f"{out['err']:.3e}", out["ok"]])
            failures += 0 if out["ok"] else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
