"""The scripts under scripts/: each runs to exit 0 on a small input."""

import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from resurgentia.largeradius import gen_Hn

ROOT = Path(__file__).resolve().parents[1]


def _script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_pol_table_json_matches_gen_Hn():
    proc = _script("pol_table.py", "--n-max", "2", "--g-max", "3", "--json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert sorted(doc) == ["1", "2"]
    for n in (1, 2):
        pref, _, pols = gen_Hn(n, 3)
        assert doc[str(n)] == {"prefactor": pref, "pols": {str(2 * g): pols[g - 1].to_map() for g in (1, 2, 3)}}


@pytest.mark.parametrize("name", ["gevrey_profile.py", "connection_scan.py"])
def test_script_runs_with_its_defaults(name):
    proc = _script(name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_gevrey_profile_refuses_n_max_below_1(n_max):
    proc = _script("gevrey_profile.py", "--n-max", n_max)
    assert proc.returncode == 2
    assert "--n-max must be at least 1" in proc.stderr and "Traceback" not in proc.stderr


def _examples() -> list:
    """(script, arguments) for each command line under "Example:" in a script's docstring."""
    out = []
    for path in sorted((ROOT / "scripts").glob("*.py")):
        doc = ast.get_docstring(ast.parse(path.read_text(encoding="utf-8")))
        for line in doc.split("Example:", 1)[1].splitlines():
            words = shlex.split(line)
            if words[:2] == ["python3", f"scripts/{path.name}"]:
                out.append((path.name, words[2:]))
    return out


EXAMPLES = _examples()


def test_every_script_documents_an_example():
    assert {name for name, _ in EXAMPLES} == {p.name for p in (ROOT / "scripts").glob("*.py")}


@pytest.mark.parametrize("name, args", EXAMPLES, ids=[" ".join([n, *a]) for n, a in EXAMPLES])
def test_docstring_example_runs(name, args):
    proc = _script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
