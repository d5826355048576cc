"""The three benchmark workloads: generated configs, command rounds, output checks.

A run repeats one *round* of CLI commands until its time is up. Every
round of a run uses the same generated inputs, so rounds must produce
byte-identical output files (checked), and quality numbers do not depend
on how many rounds fit in the time.

Why these three:

* ``mri-train`` -- ``npgd train`` on the 64^2 masked-Fourier problem with
  the acceptance resnet. Training is the program's dominant cost, and it is
  the workload where conv forward and the conv/norm/gate VJPs on a tape
  dominate (the FFT normal map is a few percent, Haar is absent).
* ``mri-eval`` -- ``npgd reconstruct`` with a fixed checkpoint, then
  ``npgd baseline`` (lambda grid + FISTA). The same conv layer without a
  tape, so a change that makes forward retain more for backward shows
  here as a cost; and the only workload that exercises ``baselines`` and
  the Fourier path heavily.
* ``sr-chain`` -- ``npgd train`` then ``npgd analyze`` on the 32^2 box
  problem with the tiny chain model: per-op Python and tape overhead
  dominate, there is no FFT, Haar or instance norm, and it is the only
  workload that exercises ``contraction``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "fixtures", "mri_resnet.npgd")
MANIFEST = os.path.join(HERE, "fixtures", "mri_resnet.json")

# Sizes per round. A training set of two images with batch 2 makes every
# step see the same batch, so "final loss below the first" is a sound check.
MRI_TRAIN_IMAGES, MRI_TRAIN_EPOCHS = 2, 4
MRI_EVAL_IMAGES, MRI_EVAL_GRID, MRI_EVAL_VAL = 8, 3, 2
SR_TRAIN_IMAGES, SR_TRAIN_EPOCHS, SR_ANALYZE_IMAGES = 2, 20, 8

# held-out data for mri-eval is drawn from seeds far from the checkpoint's
# training seed (7), so no held-out image was trained on
EVAL_DATA_SEED_BASE = 100000

# the 64^2 masked-Fourier problem with a 20% variable-density mask
_MRI_PROBLEM = {"task": "mri", "image_size": 64, "mask_rate": 0.2,
                "mask_center_fraction": 0.04, "mask_decay": 3.0}


class CheckFailed(Exception):
    pass


@dataclass
class Command:
    name: str          # npgd subcommand
    config: str        # config file path
    out: str           # output directory
    items: int         # work items the command processes (samples, images, solves)


@dataclass
class Plan:
    """Generated inputs of one run: configs on disk and the command round."""

    commands: List[Command]
    main: str                      # command whose throughput is main_items_per_s
    train_samples: int = 0         # per round, for per-sample trace metrics
    truth_norms: List[float] = field(default_factory=list)


def _write_config(path: str, values: Dict) -> str:
    with open(path, "w") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


def _mri_train(seed: int, work: str) -> Plan:
    n = MRI_TRAIN_IMAGES
    cfg = _write_config(os.path.join(work, "mri-train.cfg"), dict(
        _MRI_PROBLEM, mask_seed=seed, data_num=n + 1, holdout=1, data_seed=seed,
        arch="resnet", num_res_blocks=1, feature_maps=32, activation="relu",
        normalization="instance", unroll_t=10, lr=0.001, lr_halve_every=400,
        batch_size=2, epochs=MRI_TRAIN_EPOCHS, train_seed=seed, threads=1))
    samples = n * MRI_TRAIN_EPOCHS
    return Plan([Command("train", cfg, os.path.join(work, "train"), samples)],
                main="train", train_samples=samples)


def verify_fixture() -> dict:
    """The mri-eval checkpoint must be exactly the generated one; returns
    its manifest."""
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    with open(FIXTURE, "rb") as fh:
        blob = fh.read()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != manifest["sha256"]:
        raise CheckFailed(f"fixture sha256 {digest} != manifest {manifest['sha256']}")
    return manifest


def _mri_eval(seed: int, work: str) -> Plan:
    from npgd import checkpoint

    trained = verify_fixture()["train_config"]
    # load verifies the stored CRC; restore rebuilds the net from it
    checkpoint.restore_net(checkpoint.load(FIXTURE))
    # reconstruction is only meaningful under the mask the weights were
    # trained with, so the problem keys come from the checkpoint's manifest
    problem = {k: trained[k] for k in ("task", "image_size", "mask_rate",
                                       "mask_center_fraction", "mask_decay", "mask_seed")}
    n, g, v = MRI_EVAL_IMAGES, MRI_EVAL_GRID, MRI_EVAL_VAL
    cfg = _write_config(os.path.join(work, "mri-eval.cfg"), dict(
        problem, data_num=n + v, holdout=n,
        data_seed=EVAL_DATA_SEED_BASE + seed, checkpoint_path=FIXTURE,
        cs_iterations=300, cs_levels=4, cs_solver="fista", cs_grid_points=g,
        cs_val_images=v, threads=1))
    return Plan([Command("reconstruct", cfg, os.path.join(work, "recon"), n),
                 Command("baseline", cfg, os.path.join(work, "cs"), g * v + n)],
                main="reconstruct")


def _sr_chain(seed: int, work: str) -> Plan:
    from npgd.config import parse_config
    from npgd.core import norm
    from npgd.experiment import build_dataset, split_dataset

    n = SR_ANALYZE_IMAGES
    train_out = os.path.join(work, "train")
    cfg = _write_config(os.path.join(work, "sr-chain.cfg"), dict(
        task="sr", image_size=32, data_num=SR_TRAIN_IMAGES + n, holdout=n,
        data_seed=seed, arch="chain", chain_layers=3, chain_kernel=5,
        feature_maps=4, activation="swish", normalization="none", unroll_t=10,
        alpha_init=4.0, beta=0.25, lr=0.0003, lr_halve_every=300, batch_size=2,
        epochs=SR_TRAIN_EPOCHS, train_seed=seed, threads=1,
        checkpoint_path=os.path.join(train_out, "checkpoint.npgd")))
    # ||x*|| of each held-out image turns the NRMSE column of the analyze
    # traces back into the error norms the criterion-5 identities use
    _, test_set = split_dataset(build_dataset(parse_config(cfg)), n)
    samples = SR_TRAIN_IMAGES * SR_TRAIN_EPOCHS
    return Plan([Command("train", cfg, train_out, samples),
                 Command("analyze", cfg, os.path.join(work, "analyze"), n)],
                main="train", train_samples=samples,
                truth_norms=[norm(x) for x in test_set])


PLANNERS: Dict[str, Callable[[int, str], Plan]] = {
    "mri-train": _mri_train, "mri-eval": _mri_eval, "sr-chain": _sr_chain,
}


# ---------------------------------------------------------------------------
# output checks; each returns the quality numbers the command produced


def _rows(path: str) -> List[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(values, what: str) -> None:
    for v in values:
        if not math.isfinite(v):
            raise CheckFailed(f"{what}: non-finite value {v}")


def _mean(values) -> float:
    return sum(values) / len(values)


def _check_train(cmd: Command, plan: Plan) -> Dict[str, float]:
    losses = [float(r["loss_total"]) for r in _rows(os.path.join(cmd.out, "loss_trace.csv"))]
    if not losses:
        raise CheckFailed("train: empty loss trace")
    _finite(losses, "train loss")
    if not losses[-1] < losses[0]:
        raise CheckFailed(f"train: final loss {losses[-1]:.6g} not below first {losses[0]:.6g}")
    return {"train_loss_final": losses[-1]}


def _snr_pair(path: str, expected: int, what: str):
    rows = _rows(path)
    if len(rows) != expected:
        raise CheckFailed(f"{what}: {len(rows)} rows, expected {expected}")
    snr = [float(r["snr_db"]) for r in rows]
    zf = [float(r["snr_zf_db"]) for r in rows]
    _finite(snr + zf, what)
    if not _mean(snr) > _mean(zf):
        raise CheckFailed(f"{what}: mean SNR {_mean(snr):.3f} dB does not exceed "
                          f"zero-filled {_mean(zf):.3f} dB")
    return _mean(snr), _mean(zf)


def _check_reconstruct(cmd: Command, plan: Plan) -> Dict[str, float]:
    snr, zf = _snr_pair(os.path.join(cmd.out, "metrics.csv"), cmd.items, "reconstruct")
    for kind in ("recon", "zf", "truth"):
        for i in range(cmd.items):
            if not os.path.isfile(os.path.join(cmd.out, f"{kind}_{i:04d}.pgm")):
                raise CheckFailed(f"reconstruct: missing {kind}_{i:04d}.pgm")
    return {"recon_snr_db": snr, "zf_snr_db": zf}


def _check_baseline(cmd: Command, plan: Plan) -> Dict[str, float]:
    held_out = MRI_EVAL_IMAGES
    snr, _ = _snr_pair(os.path.join(cmd.out, "cs_metrics.csv"), held_out, "baseline")
    for i in range(held_out):
        objs = [float(r["objective"])
                for r in _rows(os.path.join(cmd.out, f"cs_trace_{i:04d}.csv"))]
        _finite(objs, "FISTA objective")
        # the first traced iterate is one ISTA step from x = 0, which never
        # raises the objective, so ending below it ends below the start
        if not objs[-1] < objs[0]:
            raise CheckFailed(f"baseline: image {i} final objective {objs[-1]:.6g} "
                              f"not below first {objs[0]:.6g}")
    return {"cs_snr_db": snr}


def _check_analyze(cmd: Command, plan: Plan) -> Dict[str, float]:
    for i, ref in enumerate(plan.truth_norms):
        rows = _rows(os.path.join(cmd.out, f"trace_{i:04d}.csv"))
        if not rows:
            raise CheckFailed(f"analyze: empty trace for sample {i}")
        delta = [float(r["nrmse"]) * ref for r in rows]
        for t, r in enumerate(rows):
            resid, slack = float(r["decomp_residual"]), float(r["bound_slack"])
            _finite([resid, slack, delta[t]], "analyze trace")
            # err_next is the next row's error norm; past the last row it is
            # unknown, and taking it as 0 only tightens the check
            err_next = delta[t + 1] if t + 1 < len(rows) else 0.0
            if resid > 1e-4 * (err_next + 1.0):
                raise CheckFailed(f"analyze: sample {i} t={r['t']} decomposition "
                                  f"residual {resid:.3g}")
            if slack < -1e-5 * delta[t]:
                raise CheckFailed(f"analyze: sample {i} t={r['t']} bound slack {slack:.3g}")
    debias = _rows(os.path.join(cmd.out, "debias.csv"))
    if len(debias) != len(plan.truth_norms):
        raise CheckFailed(f"analyze: {len(debias)} de-bias rows")
    return {}


CHECKS = {"train": _check_train, "reconstruct": _check_reconstruct,
          "baseline": _check_baseline, "analyze": _check_analyze}


def output_digest(out_dir: str) -> str:
    """Digest of every file a command wrote, for the repeat-identity check."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
