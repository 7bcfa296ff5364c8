"""The names the benchmark tracer patches: a traced run must still start.

perfbench/tracer.py rebinds package functions and class methods by name at
install. A deleted or renamed attribute fails there with AttributeError, which
otherwise only a traced benchmark run would show.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import sys
sys.path.insert(0, {perfbench!r})
import tracer
from resurgentia import borel, largeradius
from resurgentia.alien import Caps

t = tracer.Tracer()
tracer.install(t)
largeradius.gen_H0(4)
assert largeradius.lr_bridge_check(Caps(2, 2, 2))["ok"]
borel.eval_Bhat(0.5 + 0.5j)
assert t.counts["alien.poly_mul_calls"] > 0 and t.counts["borel.eval_Bhat_calls"] == 1, dict(t.counts)
# the composed path: lr_bridge_check builds its transseries under a context
assert t.counts["largeradius.make_context_calls"] >= 1, dict(t.counts)
assert t.counts["largeradius.lr_transseries_calls"] >= 1, dict(t.counts)
"""


def test_tracer_installs_and_traces_exact_and_float_work():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = TRACED_RUN.format(perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
