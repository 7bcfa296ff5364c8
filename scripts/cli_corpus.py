#!/usr/bin/env python3
"""Record or check the committed CLI corpus, tests/cli_corpus.json.

Each call of the corpus is one command line, run in process through
resurgentia.cli.main with stdout and stderr captured, in a fresh temporary
directory that holds the corpus's config files; "{dir}" in an argument names
that directory, and the directory's path is written back as "{dir}" in every
captured text. A call pins its exit code and, by kind:

  exact  the sha256 of stdout, and of the --output file when it writes one;
         verify-all's timings ("0.03s") are masked first.
  float  the parsed JSON payload of a command that prints an err (sum,
         large-radius lrsum). A run passes when every other number lies
         within the printed err of its pin, every other field equals its
         pin, and the err lies within 4x of the pinned err, either way.
  usage  (exit 2) the sha256 of stdout and argparse's error line, the last
         line of stderr; the first line is the usage text, which every error
         of one subcommand shares.

--record pins every command of CALLS that the file does not hold yet and
keeps every pin it holds: a pin is recorded once, at the parent of the change
it guards, and never re-recorded to make a change pass. --check runs every
call of the file and exits 1 when one differs or when a command of CALLS has
no pin.

Example:
    python3 scripts/cli_corpus.py --check
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

from resurgentia import cli
from resurgentia.config import ENV_VAR

CORPUS = Path(__file__).resolve().parents[1] / "tests" / "cli_corpus.json"

FILES = {
    "run.cfg": "# ode-check reads order\norder = 10\n",
    "zero.cfg": "order = 0\n",
    "inf.cfg": "quad_tol = inf\n",
}

CALLS = [
    # exact subcommands, both formats, --output and --config
    "coeffs --ag --max-g 6",
    "coeffs --cn --max-n 6 --format csv",
    "coeffs --bn --max-n 12",
    "coeffs --ag --max-g 5 --output {dir}/ag.json",
    "ode-check --which all --order 12",
    "ode-check --which u --order 8 --format csv",
    "ode-check --which g --config {dir}/run.cfg",
    "alien --what all --cap-sigma 3 --cap-grade 3",
    "alien --what bridge",
    "large-radius pols --n 2 --gmax 3",
    "large-radius pols --n 1 --gmax 2 --format csv",
    "large-radius h0 --order 8",
    "large-radius uresidual --order 8",
    "verify-all",
    "verify-all --format csv",
    "verify-all --output {dir}/acceptance.json",
    # the commands of test_cli.EXACT_STDOUT_SHA256, with the same digests
    "large-radius h0 --order 12",
    "large-radius uresidual --order 12",
    "large-radius pols --n 3 --gmax 5",
    "coeffs --bn --max-n 40",
    "ode-check --which g --order 32",
    # the singularity witness: both routes, the four families, three counts
    "singularity --method ratio --family g --count 80",
    "singularity --method ratio --family psi --count 60",
    *(f"singularity --method pade --family {fam} --count {count}"
      for fam in ("psi", "phi", "g", "f") for count in (41, 60, 80)),
    # numeric commands without an err field print deterministic floats
    "connect right --z 3 --sigma2 1",
    "connect left --z -0.9 --sigma2 0.05i",
    "connect right --z 4 --sigma1 1 --sigma2 -1i",
    "median --x 3 --a 1 --b 0.3",
    "median --x 3 --ray argpi --format csv",
    # float commands; the complex flags in their space, "=" and prefix forms
    "sum --family psi --z 4 --interval Iminus",
    "sum --family phi --z 3",
    "sum --family phi --z -3+1i --interval Ipi",
    "sum --family g --z=2-1i --interval Iplus --tol 1e-8",
    "sum --family f --z 0.8-0.3i",
    "large-radius lrsum --gs 0.25 --u 1",
    "large-radius lrsum --gs 0.4 --u 1 --sigma2 1 --sign +",
    "large-radius lrsum --g 0.55i --u -1+0.1i --sigma1 -1i --sigma2 -0.002i",
    # domain errors (exit 1, a record on stdout) and usage errors (exit 2)
    "sum --family psi --z 0",
    "large-radius lrsum --gs 0.8",
    "connect left --z -0.9 --sigma2 1i",
    "median --x 4 --ray argpi --theta 0.3 --format csv",
    "ode-check --config {dir}/zero.cfg",
    "sum --family psi --z inf",
    "sum --family psi --z 3 --tol 0",
    "singularity --count 39",
    "coeffs --ag --max-n 3",
    "connect right --sigma2 --z 4",
    # added with the fixes they pin: non-finite values, R at small g_s, underflow
    "sum --family psi --z 3 --tol inf",
    "sum --family psi --z 3 --config {dir}/inf.cfg",
    "sum --family psi --z -inf",
    "connect right --z 3 --sigma2 -inf",
    "large-radius lrsum --gs -nan",
    "large-radius lrsum --gs 1e-3",
    "large-radius lrsum --gs 1e-5 --u 1.15",
    "large-radius lrsum --gs 1e-200",
    "large-radius lrsum --gs 0.3 --u 1e-110",
    "large-radius lrsum --gs 0.3 --u 1e-200",
    # the order-0 window: no pols, the prefactor alone
    "large-radius pols --n 2 --gmax 0",
]

_TIMING = re.compile(r"\b\d+\.\d\ds\b")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(command: str, files: dict) -> dict:
    """Exit code, stdout, stderr and the --output file's text of one command."""
    os.environ.pop(ENV_VAR, None)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        argv = [word.replace("{dir}", tmp) for word in command.split()]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # as a process would end: exit 1, the error last on stderr
                code = 1
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        target = Path(argv[argv.index("--output") + 1]) if "--output" in argv else None
        written = target.read_text(encoding="utf-8") if target and target.exists() else None
    texts = [out.getvalue(), err.getvalue(), written]
    texts = [t if t is None else t.replace(tmp, "{dir}") for t in texts]
    if argv[0] == "verify-all":
        texts = [t if t is None else _TIMING.sub("#.##s", t) for t in texts]
    stdout, stderr, written = texts
    return {"exit": code, "stdout": stdout, "stderr": stderr, "written": written}


def _float_payload(res: dict):
    """The JSON payload of a successful command that prints an err, else None."""
    try:
        payload = json.loads(res["stdout"]) if res["exit"] == 0 else None
    except ValueError:  # csv, or verify-all's lines
        return None
    return payload if isinstance(payload, dict) and "err" in payload else None


def pin(command: str, files: dict) -> dict:
    res = run(command, files)
    entry = {"command": command, "exit": res["exit"]}
    payload = _float_payload(res)
    if payload is not None:
        entry.update(kind="float", payload=payload)
        return entry
    entry.update(kind="usage" if res["exit"] == 2 else "exact", stdout_sha256=_sha256(res["stdout"]))
    if res["exit"] == 2:
        entry["stderr_line"] = res["stderr"].splitlines()[-1]
    if res["written"] is not None:
        entry["output_sha256"] = _sha256(res["written"])
    return entry


def _float_problems(want: dict, got: dict) -> list:
    if sorted(got) != sorted(want):
        return [f"payload keys {sorted(got)} != {sorted(want)}"]
    err, pinned = got["err"], want["err"]
    out = [] if pinned / 4.0 <= err <= 4.0 * pinned else [f"err {err!r} not within 4x of {pinned!r}"]
    for key, value in want.items():
        if isinstance(value, float):  # a printed float reads back as a float, an int as an int
            same = isinstance(got[key], float) and math.fabs(got[key] - value) <= err
        else:
            same = got[key] == value
        if key != "err" and not same:
            out.append(f"{key} {got[key]!r} is not {value!r} within err {err!r}")
    return out


def check(entry: dict, files: dict) -> list:
    """The differences of one call from its pins; empty when it passes."""
    if entry["kind"] == "float":
        res = run(entry["command"], files)
        payload = _float_payload(res)
        if payload is None:
            return [f"exit {res['exit']}, no err payload: {res['stdout'][:200]!r}"]
        return _float_problems(entry["payload"], payload)
    got = pin(entry["command"], files)
    return [f"{key} {got.get(key)!r} != {value!r}" for key, value in entry.items() if got.get(key) != value]


def load() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true", help="pin the commands the corpus does not hold yet")
    mode.add_argument("--check", action="store_true", help="check every call against its pins")
    args = ap.parse_args()

    corpus = load() if CORPUS.exists() else {"files": {}, "calls": []}
    known = {entry["command"] for entry in corpus["calls"]}
    if args.record:
        corpus["files"] = {**FILES, **corpus["files"]}
        new = [pin(command, corpus["files"]) for command in CALLS if command not in known]
        corpus["calls"] += new
        CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"pinned {len(new)} new calls; the corpus holds {len(corpus['calls'])}")
        return 0
    failed = 0
    for entry in corpus["calls"]:
        problems = check(entry, corpus["files"])
        failed += bool(problems)
        print(("FAIL " if problems else "ok   ") + entry["command"] + "".join("\n     " + p for p in problems))
    unpinned = [command for command in CALLS if command not in known]
    for command in unpinned:
        print("UNPINNED " + command)
    print(f"{len(corpus['calls']) - failed} of {len(corpus['calls'])} calls match their pins")
    return 1 if failed or unpinned else 0


if __name__ == "__main__":
    sys.exit(main())
