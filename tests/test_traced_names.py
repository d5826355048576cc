"""The benchmark's tracer wraps npgd functions and methods by name, and the
pullbacks each ``Tape.record`` receives; a rename or a change to the record
protocol must fail here, not only when the benchmark runs."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_finds_every_traced_name():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_TAPED_CONV = """
import json
import numpy as np
import tracer
t = tracer.Tracer()
tracer.install(t)
from npgd import autograd as ag
rng = np.random.default_rng(3)
x, k, b = (ag.Variable(rng.standard_normal(s).astype(np.float32))
           for s in [(2, 6, 6), (3, 2, 3, 3), (3,)])
tape = ag.Tape()
loss = ag.sum_squares(ag.conv2d(x, k, b, tape), tape)
ag.backward(tape, loss)
print(json.dumps({"calls": t.summary()[0], "records": t.counts["autograd.tape.records"]}))
"""


def test_tracer_names_the_vjps_it_wraps_on_the_tape():
    # the tracer wraps each record's pullbacks and names a conv's by position
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _TAPED_CONV], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout.splitlines()[-1])
    calls = traced["calls"]
    for span in ("fwd", "vjp_x", "vjp_kernel", "vjp_bias"):
        assert calls.get(f"autograd.conv2d.k3.{span}") == 1, (span, calls)
    assert calls.get("autograd.loss.vjp") == 1, calls
    assert traced["records"] == 2
