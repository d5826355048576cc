"""Outside-in tracing of the npgd package.

Nothing in ``src/npgd`` knows about this module. ``install`` replaces
public functions and methods with wrappers that record a span (name,
start, end, parent) per call. A function re-imported into another module
(``operators.fft2``, ``unroll.backward``, ``cli.parse_config``) is replaced
in every npgd namespace that holds it, so the call is seen whichever name
the caller uses. VJP time is attributed to its op by wrapping the
closures passed to ``Tape.record``: each closure becomes a span named
after the op whose forward span was open when the record was made.

Spans stay in memory; ``write`` dumps them once, at exit. Self time of a
span is its duration minus the durations of its direct children, so the
self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# pull names per op, in the order the op passes its (parent, vjp) pairs
_CONV_PULLS = ("vjp_x", "vjp_kernel", "vjp_bias")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []  # [name_id, start, end, parent_index]
        self.stack = []
        self.counts = defaultdict(float)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; the benchmark's root span per command."""
        return _spanned(self, self.name_id(name), fn)(*args, **kwargs)

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds, and the
        individual durations."""
        child = defaultdict(float)
        for _, t0, t1, parent in self.spans:
            child[parent] += t1 - t0
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        durations = defaultdict(list)
        for i, (nid, t0, t1, _) in enumerate(self.spans):
            name = self.names[nid]
            d = t1 - t0
            calls[name] += 1
            incl[name] += d
            self_s[name] += d - child[i]
            durations[name].append(d)
        return calls, incl, self_s, durations

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            base = self.spans[0][1] if self.spans else 0.0
            for i, (nid, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{self.names[nid]},{t0 - base:.9f},{t1 - base:.9f},{parent}\n")


def _spanned(tracer: Tracer, nid: int, fn):
    spans, stack, clock = tracer.spans, tracer.stack, time.perf_counter

    def wrapper(*args, **kwargs):
        idx = len(spans)
        spans.append([nid, clock(), 0.0, stack[-1] if stack else -1])
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[idx][2] = clock()

    return wrapper


def _named_by(tracer: Tracer, namer, fn):
    """Span whose name depends on the arguments (conv kernel size)."""
    cache = {}

    def wrapper(*args, **kwargs):
        name = namer(args, kwargs)
        inner = cache.get(name)
        if inner is None:
            inner = cache[name] = _spanned(tracer, tracer.name_id(name), fn)
        return inner(*args, **kwargs)

    return wrapper


def _counted(tracer: Tracer, key: str, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _after(fn, post):
    """Call post(result) after fn; used to count solver iterations."""

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        post(out)
        return out

    return wrapper


def _replace_everywhere(original, replacement, modules) -> int:
    hits = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap the npgd layers; call once, after every npgd module is imported."""
    from npgd import cli  # noqa: F401  (holds a re-imported parse_config)
    from npgd import (autograd, baselines, checkpoint, config, contraction, core,
                      experiment, metrics, operators, pgm, phantoms, proxnet,
                      sampling, unroll)

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "npgd" or name.startswith("npgd.")]

    def fn_span(mod, attr, name, post=None):
        original = getattr(mod, attr)
        inner = original if post is None else _after(original, post)
        wrapped = _spanned(tracer, tracer.name_id(name), inner)
        if _replace_everywhere(original, wrapped, modules) == 0:
            raise RuntimeError(f"{mod.__name__}.{attr} not found for tracing")

    def method_span(cls, attr, name):
        setattr(cls, attr, _spanned(tracer, tracer.name_id(name), vars(cls)[attr]))

    # drivers
    for attr in ("run_train", "run_reconstruct", "run_baseline", "run_analyze"):
        fn_span(experiment, attr, f"experiment.{attr}")
    fn_span(experiment, "build_dataset", "experiment.build_dataset")
    fn_span(experiment, "simulate_measurements", "experiment.simulate")
    fn_span(experiment, "build_operator", "experiment.build_operator")
    fn_span(config, "parse_config", "config.parse")

    # input generation and I/O
    fn_span(phantoms, "generate_dataset", "phantoms.generate")
    fn_span(sampling, "generate_vardens_mask", "sampling.mask")
    fn_span(pgm, "write_pgm16", "pgm.write")
    fn_span(checkpoint, "save", "checkpoint.save")
    fn_span(checkpoint, "load", "checkpoint.load")
    fn_span(checkpoint, "restore_net", "checkpoint.restore")
    fn_span(unroll, "write_trace_csv", "unroll.write_trace")

    # unrolled loop
    fn_span(unroll, "train", "unroll.train")
    fn_span(unroll, "unrolled_forward", "unroll.forward")
    fn_span(unroll, "loss_p1", "unroll.loss")
    fn_span(unroll, "reconstruct", "unroll.reconstruct")
    method_span(unroll.Adam, "step", "unroll.adam")
    fn_span(autograd, "backward", "autograd.backward")

    # proximal net
    method_span(proxnet.ProximalNet, "forward", "proxnet.forward")
    method_span(proxnet.ProximalNet, "forward_frozen", "proxnet.forward_frozen")
    fn_span(proxnet, "capture_masks", "proxnet.capture_masks")
    fn_span(proxnet, "build", "proxnet.build")

    # autograd ops; the conv span name carries the kernel size and the
    # computed GEMM work 2 * C_out * C_in * k^2 * H_out * W_out
    counts = tracer.counts
    conv = autograd.conv2d

    def conv_name(args, kwargs):
        # the model only runs stride-1 "same" convolutions: output = input size
        x, kernel = args[0], args[1]
        c_out, c_in, k, _ = kernel.value.shape
        h, w = x.value.shape[1:]
        counts[f"autograd.conv2d.k{k}.fwd.flop"] += 2.0 * c_out * c_in * k * k * h * w
        return f"autograd.conv2d.k{k}.fwd"

    _replace_everywhere(conv, _named_by(tracer, conv_name, conv), modules)
    fn_span(autograd, "instance_norm", "autograd.instance_norm.fwd")
    fn_span(autograd, "relu", "autograd.gate.fwd")
    fn_span(autograd, "swish", "autograd.gate.fwd")
    for attr in ("add", "scale", "mul"):
        fn_span(autograd, attr, "autograd.elementwise.fwd")
    for attr in ("mse_loss", "smooth_l1_loss", "sum_squares"):
        fn_span(autograd, attr, "autograd.loss.fwd")

    record = autograd.Tape.record
    spans, stack, names = tracer.spans, tracer.stack, tracer.names

    def traced_record(tape, out, pulls):
        counts["autograd.tape.records"] += 1
        owner = names[spans[stack[-1]][0]]
        base = owner[:-4] if owner.endswith(".fwd") else owner
        wrapped = []
        for i, (var, vjp) in enumerate(pulls):
            if base.startswith("autograd.conv2d."):
                label = f"{base}.{_CONV_PULLS[i]}"
            else:
                label = f"{base}.vjp"
            wrapped.append((var, _spanned(tracer, tracer.name_id(label), vjp)))
        return record(tape, out, wrapped)

    autograd.Tape.record = traced_record

    # operators and FFT
    for cls in (operators.MaskedFourierOperator, operators.BoxDownsampleOperator):
        method_span(cls, "apply", "operators.apply")
        method_span(cls, "adjoint", "operators.adjoint")
    method_span(operators.LinearOperator, "normal_channels", "operators.normal")
    fn_span(operators, "gradient_step", "operators.gradient_step")
    fn_span(operators, "gradient_step_channels", "operators.gradient_step")
    fn_span(operators, "data_residual_sq", "operators.data_residual")
    fn_span(operators, "power_iteration", "operators.power_iteration")
    fn_span(core, "fft2", "core.fft")
    fn_span(core, "ifft2", "core.fft")
    fn_span(core, "norm", "core.norm")
    fn_span(core, "dot", "core.norm")
    img = core.ComplexImage
    for attr in ("to_channels", "to_complex"):
        setattr(img, attr, _counted(tracer, "core.layout_conversions", vars(img)[attr]))
    for attr in ("from_channels", "from_complex"):
        bound = vars(img)[attr].__func__
        setattr(img, attr, classmethod(_counted(tracer, "core.layout_conversions", bound)))

    # compressed-sensing baseline
    fn_span(baselines, "haar2_forward", "baselines.haar_fwd")
    fn_span(baselines, "haar2_inverse", "baselines.haar_inv")
    fn_span(baselines, "soft_threshold", "baselines.soft_threshold")
    fn_span(baselines, "cs_objective", "baselines.objective")
    fn_span(baselines, "_solver_step_size", "baselines.step_size")
    fn_span(baselines, "tune_lambda", "baselines.tune_lambda")
    fn_span(baselines, "default_lambda_grid", "baselines.lambda_grid")

    def count_iterations(out):
        counts["baselines.fista.iterations"] += len(out[1])

    fn_span(baselines, "fista", "baselines.fista", post=count_iterations)

    # contraction diagnostics
    fn_span(contraction, "analyze_trajectory", "contraction.analyze")

    def count_debias(res):
        counts["contraction.debias.calls"] += 1
        counts["contraction.debias.iterations"] += res.iterations
        counts["contraction.debias.converged"] += int(res.converged)

    fn_span(contraction, "debias", "contraction.debias", post=count_debias)

    # image metrics
    fn_span(metrics, "ssim", "metrics.ssim")
    fn_span(metrics, "snr_db", "metrics.snr")
    fn_span(metrics, "nrmse", "metrics.snr")
