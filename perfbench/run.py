"""npgd benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload mri-train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each run generates its configs from the seed, then calls the
real entry point ``npgd.cli.main`` in-process, one round of commands after
another, until the time is up. Every command's outputs are checked.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs untraced
rounds for the first half of the time and traced rounds (see tracer.py)
for the second, and prints per-layer metrics per traced round plus the
tracing overhead. The last stdout line is one JSON object; the
environment and the full result also go to
``.perfbench_work/results/BENCH_<workload>-seed<seed>-trace<t>.json``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
RESULTS = os.path.join(WORK_ROOT, "results")
MIN_SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _die(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def setup(workload: str, seed: int, work: str):
    """Everything before the first timed command: imports, BLAS check,
    configs, and the fixture load and verify."""
    from envinfo import check_blas, pin_blas

    pin_blas()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import npgd
        from npgd import cli  # noqa: F401
    except ImportError as exc:
        _die(f"cannot import npgd from {src}: {exc}")
    if not os.path.abspath(npgd.__file__).startswith(src + os.sep):
        _die(f"npgd was imported from {npgd.__file__}, not from {src}")
    check_blas()
    import workloads

    os.makedirs(work, exist_ok=True)
    try:
        return workloads.PLANNERS[workload](seed, work)
    except (workloads.CheckFailed, OSError) as exc:
        _die(f"setup failed: {exc}")


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh process that only sets up, as the parent sees it."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--workload", workload, "--seed", str(seed), "--setup-only"],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        _die(f"setup probe failed: {proc.stderr.decode(errors='replace').strip()}")
    return elapsed


def run_round(plan, log_path: str, tracer=None):
    """One pass over the plan's commands. Returns per-command records."""
    from npgd import cli

    import workloads

    records = []
    for cmd in plan.commands:
        argv = [cmd.name, "--config", cmd.config, "--out", cmd.out]
        record = {"command": cmd.name, "items": cmd.items, "ok": False}
        with open(log_path, "a") as log, contextlib.redirect_stdout(log):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.span("cli.main", cli.main, argv)
            except Exception:  # a crash is one failed command, not a lost run
                rc = traceback.format_exc(limit=-3)
            record["seconds"] = time.perf_counter() - t0
        if rc != 0:
            record["error"] = f"exit code {rc}" if isinstance(rc, int) else rc
        else:
            try:
                record["quality"] = workloads.CHECKS[cmd.name](cmd, plan)
                record["digest"] = workloads.output_digest(cmd.out)
                record["ok"] = True
            except (workloads.CheckFailed, OSError, KeyError, ValueError) as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
        records.append(record)
    return records


def run_rounds(plan, seconds: float, log_path: str, tracer=None, rounds=None,
               between=None):
    """Repeat rounds for about `seconds` (at least one round): stop once less
    than half a median round is left. `between` runs after every round."""
    rounds = [] if rounds is None else rounds
    t_end = time.perf_counter() + seconds
    times = []
    while True:
        t0 = time.perf_counter()
        records = run_round(plan, log_path, tracer)
        times.append(time.perf_counter() - t0)
        rounds.append({"seconds": times[-1], "commands": records,
                       "traced": tracer is not None})
        if between is not None:
            between()
        if t_end - time.perf_counter() < statistics.median(times) / 2:
            return rounds


def tally(rounds):
    """attempted, failed, and the failure messages; a command whose outputs
    differ from the first round's counts as failed."""
    first = {}
    attempted = failed = 0
    errors = []
    for rnd in rounds:
        for i, rec in enumerate(rnd["commands"]):
            attempted += 1
            if rec["ok"]:
                ref = first.setdefault(i, rec["digest"])
                if rec["digest"] != ref:
                    rec["ok"] = False
                    rec["error"] = "outputs differ from the first round's"
            if not rec["ok"]:
                failed += 1
                errors.append(f"{rec['command']}: {rec['error']}")
    return attempted, failed, errors


def _median_rate(rounds, command):
    rates = [rec["items"] / rec["seconds"] for rnd in rounds
             for rec in rnd["commands"] if rec["command"] == command]
    return statistics.median(rates) if rates else None


# per-command throughput names, printed for reading
_RATE_NAMES = {"train": "train_samples_per_s", "reconstruct": "recon_images_per_s",
               "baseline": "cs_solves_per_s", "analyze": "analyze_samples_per_s"}


def end_to_end(plan, rounds, setup_times):
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "main_items_per_s": (_median_rate(rounds, plan.main), "1/s"),
        "round_s": (statistics.median(r["seconds"] for r in rounds), "s"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def named_report(plan, rounds, attempted, failed):
    """The per-command numbers under their own names, for the reader."""
    out = {}
    for cmd in plan.commands:
        out[_RATE_NAMES[cmd.name]] = (_median_rate(rounds, cmd.name), "1/s")
    for rec in rounds[0]["commands"]:
        for key, value in rec.get("quality", {}).items():
            unit = "dB" if key.endswith("_db") else "loss"
            out[key] = (value, unit)
    out["error_rate"] = (failed / attempted, "ratio")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="npgd benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit; used to time set-up in a fresh process")
    args = parser.parse_args()

    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.PLANNERS:
        _die(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(workloads.PLANNERS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK_ROOT, f"{tag}-{os.getpid()}")
    os.makedirs(RESULTS, exist_ok=True)
    try:
        plan = setup(args.workload, args.seed, work)
        if args.setup_only:
            return 0
        own_setup_s = time.perf_counter() - T_START
        setup_times = []
        log_path = os.path.join(work, "cli.log")

        import envinfo
        env = envinfo.record(ROOT, args.workload, args.seed)
        if args.trace:
            import layers
            import tracer as tracing

            rounds = run_rounds(plan, args.seconds / 2, log_path)
            n_plain = len(rounds)
            tr = tracing.Tracer()
            tracing.install(tr)
            run_rounds(plan, args.seconds / 2, log_path, tr, rounds)
            metrics = layers.per_layer(tr, plan, rounds[:n_plain], rounds[n_plain:])
            tr.write(os.path.join(RESULTS, f"spans-{tag}.csv"))
        else:
            # set-up probes run between rounds, so that they sample the
            # same stretch of machine time as the rounds do
            def probe():
                setup_times.append(setup_probe(args.workload, args.seed))

            rounds = run_rounds(plan, args.seconds, log_path, between=probe)
            while len(setup_times) < MIN_SETUP_PROBES:
                probe()
            metrics = end_to_end(plan, rounds, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, errors = tally(rounds)
    report = named_report(plan, rounds, attempted, failed)
    for name, (value, unit) in report.items():
        print(f"{name} = {value:.6g} {unit}")
    for err in errors[:10]:
        print(f"FAILED {err}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = dict(result, environment=env, own_setup_s=own_setup_s,
                  setup_probe_s=setup_times, named=report, errors=errors,
                  rounds=[{"seconds": r["seconds"], "traced": r["traced"],
                           "commands": [{k: c.get(k) for k in
                                         ("command", "items", "seconds", "ok", "error")}
                                        for c in r["commands"]]} for r in rounds])
    with open(os.path.join(RESULTS, f"BENCH_{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
