"""The benchmark's tracer wraps npgd functions and methods by name, and the
pullbacks each ``Tape.record`` receives; a rename or a change to the record
protocol must fail here, not only when the benchmark runs."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(code):
    """Run code in a fresh interpreter that imports npgd and perfbench's tracer."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_tracer_finds_every_traced_name():
    _run("import tracer; tracer.install(tracer.Tracer())")


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
    traced = json.loads(_run(_TAPED_CONV).stdout.splitlines()[-1])
    calls = traced["calls"]
    for span in ("fwd", "vjp_x", "vjp_kernel", "vjp_bias"):
        assert calls.get(f"autograd.conv2d.k3.{span}") == 1, (span, calls)
    assert calls.get("autograd.loss.vjp") == 1, calls
    assert traced["records"] == 2


_TAPED_CHAIN = """
import json
import numpy as np
import tracer
t = tracer.Tracer()
tracer.install(t)
from npgd import autograd as ag
rng = np.random.default_rng(4)
x, k1, b1, k2, b2, gamma, beta = (
    ag.Variable(rng.standard_normal(s).astype(np.float32))
    for s in [(32, 64, 64), (32, 32, 3, 3), (32,), (32, 32, 3, 3), (32,), (32,), (32,)])
tape = ag.Tape()
h = ag.relu(ag.instance_norm(ag.conv2d(x, k1, b1, tape), gamma, beta, tape), tape)
loss = ag.sum_squares(ag.conv2d(h, k2, b2, tape), tape)
rebuilt = h.rebuild is not None
ag.backward(tape, loss)
print(json.dumps({"calls": t.summary()[0], "records": t.counts["autograd.tape.records"],
                  "rebuilt": rebuilt}))
"""


def test_tracer_spans_each_pull_once_however_the_pull_is_split():
    # conv -> instance_norm -> relu -> conv at 32 maps, 64^2, whose kernel
    # VJPs run in channel bands and whose relu mask is unpacked in its pull:
    # one span per pull, none per band. The second kernel VJP rebuilds its
    # input relu(norm(.)) with numpy alone, so backward runs no traced op
    traced = json.loads(_run(_TAPED_CHAIN).stdout.splitlines()[-1])
    calls = traced["calls"]
    assert traced["rebuilt"]
    assert traced["records"] == 5  # two convs, the norm, the gate, the loss
    assert calls.get("autograd.instance_norm.fwd") == 1, calls
    assert calls.get("autograd.gate.fwd") == 1, calls
    assert calls.get("autograd.gate.vjp") == 1, calls
    assert calls.get("autograd.instance_norm.vjp") == 3, calls  # x, gamma, beta
    for span in ("fwd", "vjp_x", "vjp_kernel", "vjp_bias"):
        assert calls.get(f"autograd.conv2d.k3.{span}") == 2, (span, calls)


_TRACED_BASELINE = """
import json
import tracer
t = tracer.Tracer()
tracer.install(t)
from npgd import cli
assert cli.main(["baseline", "--config", CONFIG, "--out", OUT]) == 0
print(json.dumps(t.summary()[0]))
"""


def test_baseline_solve_runs_through_every_traced_name(tmp_path):
    # a tuned-lambda FISTA baseline: the benchmark's CS spans must each see
    # the run, so no refactor can route the solve around a traced name
    cfg = tmp_path / "c.cfg"
    cfg.write_text("task = mri\nimage_size = 16\ndata_num = 8\nholdout = 2\n"
                   "mask_rate = 0.4\ncs_iterations = 10\ncs_levels = 2\n"
                   "cs_val_images = 2\ncs_grid_points = 3\n")
    code = f"CONFIG, OUT = {str(cfg)!r}, {str(tmp_path / 'out')!r}\n" + _TRACED_BASELINE
    calls = json.loads(_run(code).stdout.splitlines()[-1])
    for span in ("fista", "objective", "lambda_grid", "tune_lambda", "step_size"):
        assert calls.get(f"baselines.{span}", 0) >= 1, (span, calls)
