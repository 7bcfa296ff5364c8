#!/usr/bin/env python3
"""Print the optimal-truncation profile of the divergent free-energy series.

For each truncation order N the table shows |S g(z) - sum_{n<N} b_n z^{-n}|;
the error bottoms out near N = 2|z| at the nonperturbative scale and grows
factorially afterwards, which is the visible footprint of the Borel
singularity at zeta = 2.

Example:
    python3 scripts/gevrey_profile.py --z 10 --arg -90 --n-max 40
"""

import argparse
import cmath
import math
import sys

from resurgentia.borel import gevrey_check


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--z", type=float, default=10.0, help="|z|, at least 5")
    ap.add_argument("--arg", type=float, default=-90.0, help="arg z in degrees")
    ap.add_argument("--n-max", type=int, default=40, dest="n_max")
    ap.add_argument("--interval", default="Iminus")
    args = ap.parse_args()
    if args.n_max < 1:
        ap.error("--n-max must be at least 1")

    z = args.z * cmath.exp(1j * math.radians(args.arg))
    out = gevrey_check(z, args.interval, args.n_max)
    best = out["argmin_N"]
    print(f"# z = {z:.6g}, expected minimum near N = {out['expected_min_near']:.1f}")
    print(f"# observed minimum at N = {best}, unimodal = {out['unimodal']}")
    print(f"{'N':>4}  {'error':>12}")
    for n, err in zip(out["N"], out["errors"]):
        marker = "  <- min" if n == best else ""
        print(f"{n:>4}  {err:>12.4e}{marker}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
