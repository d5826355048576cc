"""Experiment drivers shared by the CLI and the acceptance suite: dataset
assembly, operator construction, training/evaluation/baseline/analysis
runs, and their artifact files.

Each command is ``run_<command>(cfg, out_dir, log)``: it writes its files
under ``out_dir`` and passes every line it reports to ``log``."""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import checkpoint as ckpt_io
from .baselines import default_lambda_grid, fista, ista, tune_lambda
from .config import ExperimentConfig, parse_sweep_grid
from .contraction import analyze_trajectory, debias
from .core import magnitude, norm, write_csv
from .errors import ConfigError, FormatError, NumericsError, ParameterError
from .metrics import nrmse, snr_db, ssim
from .operators import BoxDownsampleOperator, LinearOperator, MaskedFourierOperator
from .pgm import read_pgm, write_pgm16
from .phantoms import generate_dataset
from .sampling import generate_vardens_mask, save_mask_bits, save_mask_pgm
from .unroll import reconstruct, train, write_trace_csv


# ---------------------------------------------------------------------------
# data and operators


def _center_crop_pad(plane: np.ndarray, size: int) -> np.ndarray:
    h, w = plane.shape
    out = np.zeros((size, size), np.float32)
    src_r = max((h - size) // 2, 0)
    src_c = max((w - size) // 2, 0)
    dst_r = max((size - h) // 2, 0)
    dst_c = max((size - w) // 2, 0)
    rows = min(h, size)
    cols = min(w, size)
    out[dst_r:dst_r + rows, dst_c:dst_c + cols] = \
        plane[src_r:src_r + rows, src_c:src_c + cols]
    return out


def load_image_dir(path: str, size: int) -> List[np.ndarray]:
    """Ingest a directory of PGMs as (2, size, size) images: paired
    *_re.pgm/*_im.pgm complex images or plain grayscale ones (imaginary
    part zero), center-cropped/padded. Extensions and the _re/_im tags
    match in any case."""
    names = sorted(f for f in os.listdir(path) if f.lower().endswith(".pgm"))
    if not names:
        raise ParameterError(f"no PGM images found in {path}")
    by_lower = {}
    for name in names:
        by_lower.setdefault(name.lower(), []).append(name)

    def partner(name: str, tag: str) -> Optional[str]:
        found = by_lower.get(name[:-7].lower() + tag, [])
        if len(found) > 1:
            raise ParameterError(f"{' and '.join(found)} differ only in case")
        return found[0] if found else None

    images = []
    for name in names:
        suffix = name[-7:].lower()
        if suffix == "_im.pgm":
            if partner(name, "_re.pgm") is None:
                raise ParameterError(f"{name} has no matching _re.pgm")
            continue
        re_plane = read_pgm(os.path.join(path, name))
        if suffix == "_re.pgm":
            im_name = partner(name, "_im.pgm")
            if im_name is None:
                raise ParameterError(f"{name} has no matching _im.pgm")
            im_plane = read_pgm(os.path.join(path, im_name))
            if im_plane.shape != re_plane.shape:
                raise ParameterError(f"{name} and {im_name} differ in shape: "
                                     f"{re_plane.shape} vs {im_plane.shape}")
        else:
            im_plane = np.zeros_like(re_plane)
        images.append(np.stack((_center_crop_pad(re_plane, size),
                                _center_crop_pad(im_plane, size))))
    return images


def build_dataset(cfg: ExperimentConfig) -> List[np.ndarray]:
    if cfg.data_dir is not None:
        return load_image_dir(cfg.data_dir, cfg.image_size)
    return generate_dataset(cfg.data_num, cfg.image_size, cfg.data_seed,
                            cfg.phantom_phase)


def split_dataset(images: Sequence[np.ndarray], holdout: int):
    if holdout >= len(images):
        raise ConfigError(f"holdout ({holdout}) must be smaller than the "
                          f"dataset ({len(images)})")
    return list(images[:-holdout]), list(images[-holdout:])


def build_operator(cfg: ExperimentConfig) -> LinearOperator:
    """The operator of the configured task."""
    if cfg.task == "mri":
        return MaskedFourierOperator(generate_vardens_mask(
            cfg.image_size, cfg.image_size, cfg.mask_rate, cfg.mask_center_fraction,
            cfg.mask_decay, cfg.mask_seed))
    return BoxDownsampleOperator(cfg.image_size, cfg.image_size)


def simulate_measurements(images: Sequence[np.ndarray], op: LinearOperator,
                          noise_std: float = 0.0,
                          seed: Union[int, Sequence[int]] = 0) -> List[np.ndarray]:
    ys = [op.apply(x) for x in images]
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        # one draw per image fills the real plane, then the imaginary one; a
        # draw beyond float32's range becomes inf, which the check below reports
        with np.errstate(over="ignore"):
            ys = [y + np.where(op.measured, rng.normal(0, noise_std, y.shape).astype(np.float32),
                               np.float32(0)) for y in ys]
        if not all(np.isfinite(y).all() for y in ys):
            raise ConfigError(f"noise_std {noise_std} makes a measurement non-finite")
    return ys


def _setup(cfg: ExperimentConfig):
    """The (train, test) split and the operator every command starts from."""
    train_set, test_set = split_dataset(build_dataset(cfg), cfg.holdout)
    return train_set, test_set, build_operator(cfg)


TRAIN, HELD_OUT, VALIDATION = 0, 1, 2  # noise streams of the image sets


def _measure(cfg: ExperimentConfig, op: LinearOperator,
             images: Sequence[np.ndarray], stream: int,
             noise_std: Optional[float] = None) -> List[np.ndarray]:
    """Simulated measurements of images, with the config's noise unless
    noise_std says otherwise. Training images draw their noise from
    data_seed and every other image set from [data_seed, stream]."""
    std = cfg.noise_std if noise_std is None else noise_std
    seed = cfg.data_seed if stream == TRAIN else [cfg.data_seed, stream]
    return simulate_measurements(images, op, std, seed)


def _pmap(fn, items, threads: int):
    """Order-preserving map; per-item work is independent and
    deterministic, so results do not depend on the worker count."""
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# evaluation helpers


@dataclass
class EvalRow:
    index: int
    snr_zf: float
    snr: float
    ssim: float
    nrmse: float


EVAL_HEADER = ("index", "snr_zf_db", "snr_db", "ssim", "nrmse")


def _magnitude32(x: np.ndarray) -> np.ndarray:
    """The magnitude image, rounded to float32 as stored and scored."""
    return magnitude(x).astype(np.float32)


def _evaluate(op: LinearOperator, pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
              estimates: Sequence[np.ndarray]):
    """Score the estimate of every (truth, measurement) pair, next to the
    zero-filled adjoint(y), against its truth.

    Returns the rows and the zero-filled images.
    """
    rows, zero_filled = [], []
    for i, ((x_true, y), xhat) in enumerate(zip(pairs, estimates)):
        zf = op.adjoint(y)
        zero_filled.append(zf)
        rows.append(EvalRow(i, snr_db(zf, x_true), snr_db(xhat, x_true),
                            ssim(_magnitude32(xhat), _magnitude32(x_true)),
                            nrmse(xhat, x_true)))
    return rows, zero_filled


def _reconstruct_all(net, alpha: float, op: LinearOperator, iterations: int,
                     pairs: Sequence[Tuple[np.ndarray, np.ndarray]], threads: int):
    """The unrolled reconstruction (x_T, residuals) of every pair's
    measurement, spread over threads, and its wall time per image."""
    t0 = time.perf_counter()
    solved = _pmap(lambda pair: reconstruct(net, alpha, op, pair[1], iterations),
                   pairs, threads)
    bad = [(i, t) for i, (_, res) in enumerate(solved)
           for t, r in enumerate(res, start=1) if not np.isfinite(r)]
    if bad:
        raise NumericsError("image {}: non-finite residual at iteration t={}".format(*bad[0]))
    return solved, (time.perf_counter() - t0) / len(pairs)


def mean_snr(rows: Sequence[EvalRow]) -> float:
    return float(np.mean([r.snr for r in rows]))


# ---------------------------------------------------------------------------
# command bodies


def run_genmask(cfg: ExperimentConfig, out_dir: str, log) -> None:
    if cfg.task != "mri":
        raise ConfigError("genmask requires task = mri")
    os.makedirs(out_dir, exist_ok=True)
    mask = build_operator(cfg).mask
    pgm = os.path.join(out_dir, "mask.pgm")
    bits = os.path.join(out_dir, "mask.bits")
    save_mask_pgm(mask, pgm)
    save_mask_bits(mask, bits)
    log(f"mask: {mask.popcount} samples -> {pgm}, {bits}")


def run_gendata(cfg: ExperimentConfig, out_dir: str, log) -> None:
    os.makedirs(out_dir, exist_ok=True)
    images = build_dataset(cfg)
    for i, img in enumerate(images):
        write_pgm16(os.path.join(out_dir, f"img_{i:04d}_re.pgm"), img[0])
        write_pgm16(os.path.join(out_dir, f"img_{i:04d}_im.pgm"), img[1])
    log(f"dataset: {len(images)} images -> {out_dir}")


def run_train(cfg: ExperimentConfig, out_dir: str, log) -> None:
    os.makedirs(out_dir, exist_ok=True)
    train_set, _, op = _setup(cfg)
    result = train(train_set, op, cfg.train, cfg.prox, _measure(cfg, op, train_set, TRAIN),
                   log=log)
    ckpt_path = os.path.join(out_dir, "checkpoint.npgd")
    ckpt_io.save(ckpt_io.from_training(result, cfg.train), ckpt_path)
    write_trace_csv(result.trace, os.path.join(out_dir, "loss_trace.csv"))
    log(f"trained in {result.seconds:.1f}s, final loss {result.trace[-1][3]:.6g}")
    log(f"checkpoint: {ckpt_path}")


def _load_checkpoint(cfg: ExperimentConfig):
    if cfg.checkpoint_path is None:
        raise ConfigError("checkpoint_path is required for this command")
    ck = ckpt_io.load(cfg.checkpoint_path)
    try:
        net, alpha = ckpt_io.restore_net(ck)
    except FormatError as exc:  # restore_net holds the checkpoint, not its file
        raise FormatError(f"{cfg.checkpoint_path}: {exc}") from None
    return ck, net, alpha


def run_reconstruct(cfg: ExperimentConfig, out_dir: str, log) -> None:
    os.makedirs(out_dir, exist_ok=True)
    ck, net, alpha = _load_checkpoint(cfg)
    _, test_set, op = _setup(cfg)
    pairs = list(zip(test_set, _measure(cfg, op, test_set, HELD_OUT)))
    solved, per_image = _reconstruct_all(net, alpha, op, ck.unroll_t, pairs, cfg.threads)
    rows, zero_filled = _evaluate(op, pairs, [xhat for xhat, _ in solved])
    for i, ((x_true, _), (xhat, _), zf) in enumerate(zip(pairs, solved, zero_filled)):
        write_pgm16(os.path.join(out_dir, f"recon_{i:04d}.pgm"), _magnitude32(xhat))
        write_pgm16(os.path.join(out_dir, f"zf_{i:04d}.pgm"), _magnitude32(zf))
        write_pgm16(os.path.join(out_dir, f"truth_{i:04d}.pgm"), _magnitude32(x_true))
    write_csv(os.path.join(out_dir, "residuals.csv"), ("index", "t", "residual"),
              [(i, t, r) for i, (_, residuals) in enumerate(solved)
               for t, r in enumerate(residuals, start=1)])
    path = os.path.join(out_dir, "metrics.csv")
    write_csv(path, EVAL_HEADER, [astuple(r) for r in rows])
    log(f"mean SNR {mean_snr(rows):.2f} dB (zero-filled "
        f"{float(np.mean([r.snr_zf for r in rows])):.2f} dB), "
        f"{per_image:.3g} s/image -> {path}")


def run_baseline(cfg: ExperimentConfig, out_dir: str, log) -> None:
    os.makedirs(out_dir, exist_ok=True)
    train_set, test_set, op = _setup(cfg)
    pairs = list(zip(test_set, _measure(cfg, op, test_set, HELD_OUT)))
    lam = cfg.cs_lambda
    if lam is None:
        val = train_set[-min(cfg.cs_val_images, len(train_set)):]
        ys_val = _measure(cfg, op, val, VALIDATION)
        grid = default_lambda_grid(np.stack(ys_val), op, cfg.cs.levels, cfg.cs_grid_points)
        lam, _ = tune_lambda(list(zip(val, ys_val)), op, grid, cfg.cs)
        log(f"tuned lambda = {lam:.6g}")
    solve = fista if cfg.cs.solver == "fista" else ista
    # the held-out set is one batch; threads does not apply
    t0 = time.perf_counter()
    estimates, traces = solve(np.stack([y for _, y in pairs]), op, cfg.cs, [lam] * len(pairs))
    per_solve = (time.perf_counter() - t0) / len(pairs)
    rows, _ = _evaluate(op, pairs, estimates)
    for i, trace in enumerate(traces):
        write_csv(os.path.join(out_dir, f"cs_trace_{i:04d}.csv"),
                  ("iter", "objective", "data_term", "l1_term"), trace)
    path = os.path.join(out_dir, "cs_metrics.csv")
    write_csv(path, EVAL_HEADER, [astuple(r) for r in rows])
    log(f"CS baseline (lambda={lam:.4g}): mean SNR {mean_snr(rows):.2f} dB, "
        f"{per_solve:.3g} s/solve -> {path}")


def run_analyze(cfg: ExperimentConfig, out_dir: str, log) -> None:
    os.makedirs(out_dir, exist_ok=True)
    ck, net, alpha = _load_checkpoint(cfg)
    _, test_set, op = _setup(cfg)
    pairs = list(zip(test_set, _measure(cfg, op, test_set, HELD_OUT, noise_std=0.0)))
    traces = [analyze_trajectory(net, alpha, op, x_star, y, ck.unroll_t)
              for x_star, y in pairs]
    aggregate = []
    for t in range(ck.unroll_t):
        row = [t + 1]
        for column in ("nrmse", "eta1", "eta2"):
            values = np.array([getattr(tr.rows[t], column) for tr in traces])
            row += [values.mean(), values.std()]
        aggregate.append(row)
    write_csv(os.path.join(out_dir, "aggregate.csv"),
              ("t", "nrmse_mean", "nrmse_std", "eta1_mean", "eta1_std",
               "eta2_mean", "eta2_std"), aggregate)
    columns = ("t", "nrmse", "eta1", "eta2", "xi_norm", "decomp_residual", "bound_slack")
    debias_rows = []
    for i, (tr, (_, y)) in enumerate(zip(traces, pairs)):
        write_csv(os.path.join(out_dir, f"trace_{i:04d}.csv"), columns,
                  [[getattr(r, c) for c in columns] for r in tr.rows])
        # linearize where the frozen map is actually applied: the final
        # proximal input g(x_T; y)
        res = debias(net, tr.masks_final, op, alpha, y, tr.x_final)
        debias_rows.append((i, int(res.converged), int(res.diverged),
                            res.iterations, norm(y - op.apply(tr.x_final)),
                            norm(y - op.apply(res.x))))
    write_csv(os.path.join(out_dir, "debias.csv"),
              ("index", "converged", "diverged", "iterations", "residual_xT",
               "residual_debiased"), debias_rows)
    n_conv = sum(row[1] for row in debias_rows)
    log(f"analyzed {len(traces)} samples -> {out_dir} "
        f"(debias converged on {n_conv}/{len(debias_rows)})")


def run_sweep(cfg: ExperimentConfig, out_dir: str, log) -> None:
    os.makedirs(out_dir, exist_ok=True)
    cells = parse_sweep_grid(cfg.sweep_grid)
    train_set, test_set, op = _setup(cfg)
    ys_train = _measure(cfg, op, train_set, TRAIN)
    test_pairs = list(zip(test_set, _measure(cfg, op, test_set, HELD_OUT)))
    rows = []
    for t, rb in cells:
        result = train(train_set, op, replace(cfg.train, iterations=t),
                       replace(cfg.prox, num_res_blocks=rb), ys_train, log=log)
        solved, infer_seconds = _reconstruct_all(result.net, float(result.alpha.value), op,
                                                 t, test_pairs, cfg.threads)
        eval_rows, _ = _evaluate(op, test_pairs, [xhat for xhat, _ in solved])
        rows.append((t, rb, result.seconds, infer_seconds,
                     mean_snr(eval_rows),
                     float(np.mean([r.ssim for r in eval_rows]))))
        log(f"cell T={t} RB={rb}: snr={rows[-1][4]:.2f} dB")
    path = os.path.join(out_dir, "sweep.csv")
    write_csv(path, ("T", "RBs", "train_seconds", "infer_seconds_per_image",
                     "snr_mean", "ssim_mean"), rows)
    log(f"sweep -> {path}")
