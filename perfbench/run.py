#!/usr/bin/env python3
"""resurgentia benchmark: seeded workloads, end-to-end metrics, traced layers.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Every workload is a closed loop with one client: one request at a time, from
one process. symbolic-identities, series-tower and borel-sums run each batch
of the run's plan (workloads.plan, sized from --seconds) in a fresh
interpreter (worker.py); cli-cold starts one ``python -m resurgentia`` process
per request. Every output is checked (ops.py, refs.py). Timings are pooled
over the run's batches and taken only from requests that passed their checks.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics, taken from
traced batches next to untraced runs of the same batches, which give the
tracing overhead. Lines before it are the environment header, any failed
request with its input, and the metric tables. A copy of everything lands in
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

CLI_SETUPS = 3  # warm-up invocations that time cli-cold's set-up
BLAS_THREADS = "1"  # one client, one thread: below nproc on any machine
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def environment() -> dict:
    sha, dirty = "unavailable", None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                        cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": int(BLAS_THREADS),
        "loadavg": os.getloadavg(),
    }


# -- statistics --------------------------------------------------------------------


def tail(values: list) -> tuple[float, int]:
    """The highest whole percentile with >= TAIL_BEYOND samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100
    p = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(p * n / 100))  # nearest rank; n - rank >= TAIL_BEYOND
    return xs[rank - 1], p


def pooled_stats(reps: list) -> dict:
    """End-to-end timing over all batches of a run, pooled.

    Only requests that passed their checks are timed: a loud failure at a
    domain edge (or a wrong answer) leaves the latencies, and its wall time
    leaves the denominator of ops_per_s.
    """
    ops = [op for rep in reps for op in rep["ops"]]
    lat = [op["t_s"] for op in ops if op["outcome"] == "ok"]
    untimed_s = sum(op["t_s"] for op in ops if op["outcome"] != "ok")
    tail_s, pct = tail(lat)
    return {
        "ops_per_s": len(lat) / (sum(rep["batch_s"] for rep in reps) - untimed_s),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail_s,
        "tail_percentile": pct,
        "samples": len(lat),
        "peak_rss_mb": max(rep["rss_mb"] for rep in reps),
    }


def kind_p50(ops: list) -> dict:
    by_kind: dict = {}
    for r in ops:
        if r["outcome"] == "ok":
            by_kind.setdefault(r["kind"], []).append(r["t_s"])
    return {f"ops.{k}.p50_ms": 1e3 * statistics.median(v) for k, v in sorted(by_kind.items())}


def err_miss_ratio(ops: list) -> float:
    flags = [r["err_miss"] for r in ops if "err_miss" in r]
    return sum(flags) / len(flags) if flags else 0.0


# -- worker-based workloads ---------------------------------------------------------

MAX_RUN_S = 150.0  # a run still short of its plan after this fails instead of finishing late


def spawn_worker(workload: str, seed: int, seconds: float, batch: int, trace: bool = False) -> dict:
    spans_path = OUT / f"spans-{workload}-seed{seed}-batch{batch}.json"
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "batch": batch, "trace": trace,
            "spans_path": str(spans_path)}
    t0 = time.monotonic()
    spec["t_spawn"] = t0
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
                          capture_output=True, text=True, cwd=ROOT, env=child_env())
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    rep = json.loads(proc.stdout)
    rep["batch"] = batch
    return rep


def measure_worker_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    n_batches = len(workloads.plan(workload, seed, seconds))
    if trace:
        # one batch of each kind, untraced and traced in alternating order while
        # another pair fits in --seconds; the layer figures come from the last
        # traced pass, whose spans are the ones written out
        picks = range(min(n_batches, 2 if workload == "symbolic-identities" else 1))
        start = time.monotonic()
        plain, traced, rates = [], [], []
        while True:
            pair = {}
            for on in ((False, True) if len(rates) % 2 == 0 else (True, False)):
                pair[on] = [spawn_worker(workload, seed, seconds, b, trace=on) for b in picks]
            plain += pair[False]
            traced = pair[True]
            rates.append((pooled_stats(pair[False])["ops_per_s"], pooled_stats(pair[True])["ops_per_s"]))
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(rates) > seconds:
                break
        return {"reps": plain, "traced": traced, "setups": [r["setup_s"] for r in plain], "rates": rates}
    start = time.monotonic()
    reps = []
    for b in range(n_batches):
        # a shortened plan would time another request mix than the parent's
        if reps and time.monotonic() - start > MAX_RUN_S:
            raise RuntimeError(f"{workload}: {len(reps)} of {n_batches} batches took over "
                               f"{MAX_RUN_S:.0f} s; the run is void")
        reps.append(spawn_worker(workload, seed, seconds, b))
    # every plan has at least three batches, each with its own set-up
    return {"reps": reps, "setups": [r["setup_s"] for r in reps]}


# -- cli-cold -------------------------------------------------------------------------


def run_cli(argv: list, trace_path: Path | None = None) -> dict:
    """One CLI process, timed from spawn to reaping; returns code, stdout, peak RSS."""
    env = child_env()
    OUT.mkdir(exist_ok=True)
    t0 = time.monotonic()
    if trace_path is None:
        cmd = [sys.executable, "-m", "resurgentia", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_shim.py"), str(trace_path), repr(t0), *argv]
    with open(OUT / "cli-stderr.txt", "w", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(OUT / "cli-stderr.txt", encoding="utf-8") as err:
        stderr = err.read()
    return {"code": proc.returncode, "stdout": stdout.decode(), "stderr": stderr,
            "t_s": elapsed, "rss_mb": usage.ru_maxrss / 1024.0}


WARM_UP_ARGV = ["coeffs", "--ag"]


def cli_setup(seed: int, seconds: float) -> tuple[list, list, list]:
    """Input generation and Airy references, then warm-up invocations."""
    import refs

    t0 = time.monotonic()
    requests = workloads.plan("cli-cold", seed, seconds)[0]
    references = [refs.cli_reference(r["args"]["argv"]) for r in requests]
    prep_s = time.monotonic() - t0
    setups = [prep_s + run_cli(WARM_UP_ARGV)["t_s"] for _ in range(CLI_SETUPS)]
    return requests, references, setups


def cli_batch(requests: list, references: list, trace_dir: Path | None = None) -> dict:
    import refs

    records, runs = [], []
    start = time.monotonic()
    for i, req in enumerate(requests):
        path = None if trace_dir is None else trace_dir / f"cli-{i}.json"
        runs.append(run_cli(req["args"]["argv"], path))
    batch_s = time.monotonic() - start
    for req, ref, run in zip(requests, references, runs):
        ok, detail, extra = refs.check_cli(req["args"]["argv"], run["code"], run["stdout"], ref)
        if not ok and run["stderr"]:
            detail += " | stderr: " + run["stderr"].strip()[-300:]
        records.append(dict(extra, kind="cli." + req["args"]["argv"][0], klass=req["args"]["klass"],
                            t_s=run["t_s"], outcome="ok" if ok else "failed", detail=detail))
    return {"batch": 0, "batch_s": batch_s, "rss_mb": max(r["rss_mb"] for r in runs),
            "ops": records, "stdout": [r["stdout"] for r in runs]}


def measure_cli(seed: int, seconds: float, trace: bool) -> dict:
    requests, references, setups = cli_setup(seed, seconds)
    plain = cli_batch(requests, references)
    out = {"reps": [plain], "setups": setups}
    if trace:
        trace_dir = OUT / "cli-trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        traced = cli_batch(requests, references, trace_dir)
        import tracer as tracing

        parts = []
        for i, rec in enumerate(traced["ops"]):
            path = trace_dir / f"cli-{i}.json"
            with open(path, encoding="utf-8") as fh:
                parts.append(json.load(fh))
            path.unlink()
            # tracing must leave the program's stdout byte-identical
            if traced["stdout"][i] != plain["stdout"][i]:
                rec["outcome"] = "failed"
                rec["detail"] = "stdout differs with tracing on"
        traced["trace"] = tracing.merge_summaries([p["trace"] for p in parts])
        cli = {}
        for key in ("spawn_ms", "import_ms", "scipy_import_ms", "main_ms"):
            cli["cli." + key] = statistics.median(p["cli"][key] for p in parts)
        for klass in ("exact", "numeric"):
            cli[f"cli.{klass}_cmd_p50_ms"] = 1e3 * statistics.median(
                r["t_s"] for r in plain["ops"] if r["klass"] == klass)
        traced["cli"] = cli
        out["traced"] = [traced]
        out["rates"] = [(pooled_stats([plain])["ops_per_s"], pooled_stats([traced])["ops_per_s"])]
    return out


# -- reporting --------------------------------------------------------------------------


def end_to_end(measured: dict) -> dict:
    m = pooled_stats(measured["reps"])
    m["setup_s"] = statistics.median(measured["setups"])
    m["batches"] = len(measured["reps"])
    ops = [r for rep in measured["reps"] for r in rep["ops"]]
    m["fail_ratio"] = sum(r["outcome"] == "failed" for r in ops) / len(ops)
    m["edge_loud_ratio"] = sum(r["outcome"] == "edge_loud" for r in ops) / len(ops)
    m["err_miss_ratio"] = err_miss_ratio(ops)
    return m


def per_layer(measured: dict) -> dict:
    import tracer as tracing

    traced = measured["traced"]
    m = tracing.layer_metrics(tracing.merge_summaries([t["trace"] for t in traced]))
    rates = measured["rates"]
    plain_rate = statistics.median(p for p, _ in rates)
    traced_rate = statistics.median(t for _, t in rates)
    m["trace.overhead_ratio"] = (plain_rate - traced_rate) / plain_rate
    m["trace.pairs"] = len(rates)
    m["trace.untraced_ops_per_s"] = plain_rate
    m["trace.traced_ops_per_s"] = traced_rate
    m["borel.err_miss_ratio"] = err_miss_ratio([r for t in traced for r in t["ops"]])
    for t in traced:
        m.update(t.get("cli", {}))
    m.update(kind_p50([r for rep in measured["reps"] for r in rep["ops"]]))
    return m


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    if workload == "cli-cold":
        measured = measure_cli(seed, seconds, trace)
    else:
        measured = measure_worker_workload(workload, seed, seconds, trace)
    reps = measured["reps"] + measured.get("traced", [])
    ops = [r for rep in reps for r in rep["ops"]]
    batches = workloads.plan(workload, seed, seconds)
    failures = []
    for rep in reps:
        for req, rec in zip(batches[rep["batch"]], rep["ops"]):
            if rec["outcome"] == "failed":
                failures.append({"kind": req["kind"], "input": req["args"], "error": rec["detail"]})
    e2e = end_to_end(measured)
    layers = per_layer(measured) if trace else {}
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    source = layers if trace else e2e
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in listed}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "edge_share": workloads.edge_share(batches),
        "end_to_end": e2e,
        "per_layer": layers,
        "failures": failures,
        "result": {"correct": not failures, "attempted": len(ops),
                   "failed": sum(r["outcome"] == "failed" for r in ops), "metrics": metrics},
    }


def units(spec: dict) -> dict:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _unit_of(key: str) -> str:
    for suffix, u in (("per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("per_kernel_point", "us"),
                      ("_ratio", "ratio"), ("_share", "ratio")):
        if key.endswith(suffix):
            return u
    return "count"


def print_report(res: dict, spec: dict) -> None:
    unit = units(spec)
    name = res["workload"]
    for f in res["failures"]:
        print(f"FAILED {name} {f['kind']} input={json.dumps(f['input'])} :: {f['error']}")
    e = res["end_to_end"]
    print(f"== {name} seed={res['seed']} batches={e['batches']} samples={e['samples']} "
          f"edge_share={res['edge_share']:.3f}")
    for m in spec["end_to_end"]:
        extra = ""
        if m["name"] == "latency_tail_ms":
            extra = f"  (p{e['tail_percentile']} of {e['samples']} samples)"
        print(f"  {m['name']:<22} {e[m['name']]:>14.6g} {m['unit']}{extra}")
    for key in ("fail_ratio", "edge_loud_ratio", "err_miss_ratio"):
        print(f"  {key:<22} {e[key]:>14.6g} ratio")
    if res["trace"]:
        print(f"-- {name} per-layer (traced batches; times are self time)")
        for key, val in res["per_layer"].items():
            print(f"  {key:<40} {val:>14.6g} {unit.get(key) or _unit_of(key)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "resurgentia" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    spec = load_spec()
    env = environment()
    print("# env " + json.dumps(env))
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(spec, name, args.seed, args.seconds, bool(args.trace))
        res["env"] = env
        print_report(res, spec)
        with open(OUT / f"{name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1, default=str)
        results.append(res)
    if len(results) == 1:
        final = results[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in results),
            "attempted": sum(r["result"]["attempted"] for r in results),
            "failed": sum(r["result"]["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v for r in results for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
