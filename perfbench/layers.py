"""Per-layer metrics from a traced run.

Times and counts are per traced round (one pass over the workload's
commands), so runs that fit a different number of rounds compare. ``.s``
is inclusive time: an ``operators.apply`` inside ``operators.normal``
counts toward both. ``layer.<name>.self_s`` splits the traced wall time
into disjoint parts that add up to it.
"""

from __future__ import annotations

import statistics

# span-name prefix -> layer, for the self-time split (first match wins)
LAYERS = (
    ("cli.", "cli"), ("config.", "experiment"), ("experiment.", "experiment"),
    ("unroll.write_trace", "io"), ("checkpoint.", "io"), ("pgm.", "io"),
    ("phantoms.", "input"), ("sampling.", "input"),
    ("unroll.", "unroll"), ("proxnet.", "proxnet"), ("autograd.", "autograd"),
    ("operators.", "operators"), ("core.", "core"), ("baselines.", "baselines"),
    ("contraction.", "contraction"), ("metrics.", "metrics"),
)
LAYER_NAMES = tuple(dict.fromkeys(layer for _, layer in LAYERS))


def _layer_of(span_name: str) -> str:
    for prefix, layer in LAYERS:
        if span_name.startswith(prefix):
            return layer
    raise KeyError(f"span {span_name!r} belongs to no layer")


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _train_steps(tracer) -> list:
    """Wall time of each optimizer step: from the start of train() or the
    end of the previous Adam step to the end of this Adam step."""
    train_id = tracer.name_id("unroll.train")
    adam_id = tracer.name_id("unroll.adam")
    steps, mark = [], None
    for nid, t0, t1, _ in tracer.spans:
        if nid == train_id:
            mark = t0
        elif nid == adam_id:
            steps.append(t1 - mark)
            mark = t1
    return steps


def per_layer(tracer, plan, plain_rounds, traced_rounds) -> dict:
    calls, incl, self_s, durations = tracer.summary()
    counts = tracer.counts
    n = len(traced_rounds)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def per_round(value):
        return value / n

    def time_and_calls(metric, span, with_calls=True):
        put(f"{metric}.s", per_round(incl[span]), "s")
        if with_calls:
            put(f"{metric}.calls", per_round(calls[span]), "count")

    for k in (3, 1, 5):
        base = f"autograd.conv2d.k{k}"
        time_and_calls(f"{base}.fwd", f"{base}.fwd")
        put(f"{base}.fwd.gflop", per_round(counts[f"{base}.fwd.flop"]) / 1e9, "GFLOP-computed")
        for pull in ("vjp_x", "vjp_kernel"):
            put(f"{base}.{pull}.s", per_round(incl[f"{base}.{pull}"]), "s")
    for op in ("instance_norm", "gate"):
        for phase in ("fwd", "vjp"):
            put(f"autograd.{op}.{phase}.s", per_round(incl[f"autograd.{op}.{phase}"]), "s")
    samples = plan.train_samples * n
    put("autograd.tape.records_per_sample",
        counts["autograd.tape.records"] / samples if samples else 0.0, "count")
    put("autograd.backward.self_s", per_round(self_s["autograd.backward"]), "s")

    steps = _train_steps(tracer)
    put("unroll.train_step.s.p50", _percentile(steps, 50), "s")
    put("unroll.train_step.s.p90", _percentile(steps, 90), "s")
    put("unroll.forward.s", per_round(incl["unroll.forward"]), "s")
    put("unroll.loss.s", per_round(incl["unroll.loss"]), "s")
    put("unroll.backward.s", per_round(incl["autograd.backward"]), "s")
    put("unroll.adam.s", per_round(incl["unroll.adam"]), "s")
    recon = durations["unroll.reconstruct"]
    put("unroll.reconstruct.s.p50", _percentile(recon, 50), "s")
    put("unroll.reconstruct.s.p90", _percentile(recon, 90), "s")
    time_and_calls("proxnet.forward", "proxnet.forward")

    for op in ("normal", "apply", "adjoint"):
        time_and_calls(f"operators.{op}", f"operators.{op}")
    time_and_calls("core.fft", "core.fft")
    put("core.layout_conversions", per_round(counts["core.layout_conversions"]), "count")

    for part in ("haar_fwd", "haar_inv"):
        time_and_calls(f"baselines.{part}", f"baselines.{part}")
    for part in ("soft_threshold", "objective", "step_size"):
        put(f"baselines.{part}.s", per_round(incl[f"baselines.{part}"]), "s")
    put("baselines.fista.iterations", per_round(counts["baselines.fista.iterations"]), "count")

    time_and_calls("proxnet.forward_frozen", "proxnet.forward_frozen")
    time_and_calls("proxnet.capture_masks", "proxnet.capture_masks")
    put("contraction.analyze.s", per_round(incl["contraction.analyze"]), "s")
    put("contraction.debias.s", per_round(incl["contraction.debias"]), "s")
    debias_calls = counts["contraction.debias.calls"]
    put("contraction.debias.iterations",
        counts["contraction.debias.iterations"] / debias_calls if debias_calls else 0.0, "count")
    put("contraction.debias.converged_ratio",
        counts["contraction.debias.converged"] / debias_calls if debias_calls else 0.0, "ratio")

    put("experiment.build_dataset.s", per_round(incl["experiment.build_dataset"]), "s")
    put("experiment.simulate.s", per_round(incl["experiment.simulate"]), "s")
    time_and_calls("pgm.write", "pgm.write")
    put("checkpoint.save.s", per_round(incl["checkpoint.save"]), "s")
    put("checkpoint.load.s", per_round(incl["checkpoint.load"]), "s")
    put("metrics.ssim.s", per_round(incl["metrics.ssim"]), "s")

    by_layer = dict.fromkeys(LAYER_NAMES, 0.0)
    for name, value in self_s.items():
        by_layer[_layer_of(name)] += value
    for layer, value in by_layer.items():
        put(f"layer.{layer}.self_s", per_round(value), "s")
    command_s = sum(rec["seconds"] for rnd in traced_rounds for rec in rnd["commands"])
    put("trace.accounted_ratio", sum(by_layer.values()) / command_s, "ratio")
    put("trace.overhead_ratio",
        statistics.median(r["seconds"] for r in traced_rounds)
        / statistics.median(r["seconds"] for r in plain_rounds), "ratio")
    return out
