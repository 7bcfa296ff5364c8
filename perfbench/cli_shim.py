"""Traced stand-in for ``python -m resurgentia``.

Usage: cli_shim.py TRACE_OUT T_SPAWN ARG...

Times the interpreter start, the imports (scipy.special separately) and
``cli.main``, installs the tracer between import and main, and writes the
timings and the trace summary to TRACE_OUT. The program's stdout and exit code
pass through untouched.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent


def main() -> int:
    out_path, t_spawn, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    sys.path.insert(0, str(HERE.parent / "src"))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import scipy.special  # noqa: F401
    t2 = time.perf_counter()
    from resurgentia import cli
    t3 = time.perf_counter()

    sys.path.insert(0, str(HERE))
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    t4 = time.perf_counter()
    try:
        return tracer.run_op(0, "cli", cli.main, argv)
    finally:
        t5 = time.perf_counter()
        timings = {
            "spawn_ms": 1e3 * (T_START - t_spawn),
            "import_ms": 1e3 * (t3 - t0),
            "scipy_import_ms": 1e3 * (t2 - t1),
            "main_ms": 1e3 * (t5 - t4),
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"cli": timings, "trace": tracer.summary()}, fh)


if __name__ == "__main__":
    sys.exit(main())
