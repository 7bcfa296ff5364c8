#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--out FILE]

Runs are untraced. For every workload and every end-to-end metric this prints the
median, the first and third quartiles (statistics.quantiles, n=4) and the
spread, (q3 - q1) / median, next to the metric's bound in BENCHMARK.json.
With --out the table is also written as JSON (the committed baseline is made
this way).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None, help="comma list (default: all in BENCHMARK.json)")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    table: dict = {}
    ok = True
    for name in names:
        runs = []
        for seed in seeds(args.seeds):
            t0 = time.monotonic()
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                                   str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            res = json.loads(lines[-1])
            if not res["correct"]:
                ok = False
                print("\n".join(ln for ln in lines if ln.startswith("FAILED")))
            runs.append(res)
            print(f"{name} seed {seed}: {wall:.1f}s wall, attempted {res['attempted']}, "
                  f"failed {res['failed']}", flush=True)
        rows = {}
        for metric, unit in ((k, v["unit"]) for k, v in runs[0]["metrics"].items()):
            vals = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            rows[metric] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread,
                            "bound": bounds.get(metric), "values": vals}
            b = bounds.get(metric)
            flag = "" if b is None else ("  OK" if spread < b / 3 else ("  WIDE" if spread < b else "  OVER"))
            print(f"  {metric:<34} median {med:>12.6g} {unit:<6} q1 {q1:>12.6g} q3 {q3:>12.6g} "
                  f"spread {spread:7.4f}" + ("" if b is None else f" bound {b}") + flag, flush=True)
        table[name] = rows
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seeds": seeds(args.seeds), "workloads": table}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
