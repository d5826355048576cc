"""Compressed-sensing wavelet baseline: orthonormal Haar pyramid,
magnitude soft-thresholding, ISTA and FISTA solvers.

The solvers minimize 0.5 * ||y - apply(x)||^2 + lambda * ||W x||_1 where W
is the per-channel Haar transform and the l1 norm sums complex coefficient
magnitudes, so the proximal map is exact magnitude shrinkage and the ISTA
objective is monotone non-increasing for unit step (both operators here
have norm <= 1; this is verified numerically at solver startup).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import magnitude, norm
from .errors import DimensionError, ParameterError, SolverError
from .metrics import snr_db
from .operators import LinearOperator, gradient_step, power_iteration

_INV_SQRT2 = np.float32(1.0 / np.sqrt(2.0))


@dataclass
class CsConfig:
    lam: float = 0.01
    iterations: int = 300
    solver: str = "fista"
    levels: int = 3

    def validate(self) -> None:
        if self.lam < 0:
            raise ParameterError("lambda must be >= 0")
        if self.iterations < 1:
            raise ParameterError("iterations must be >= 1")
        if self.solver not in ("ista", "fista"):
            raise ParameterError(f"solver must be ista or fista, got {self.solver!r}")
        if self.levels < 1:
            raise ParameterError("levels must be >= 1")


# ---------------------------------------------------------------------------
# Haar pyramid


def _check_divisible(h: int, w: int, levels: int) -> None:
    d = 1 << levels
    if h % d or w % d:
        raise DimensionError(f"{h}x{w} not divisible by 2^{levels}")


def _haar_level_fwd(a: np.ndarray) -> np.ndarray:
    lo = (a[..., 0::2] + a[..., 1::2]) * _INV_SQRT2
    hi = (a[..., 0::2] - a[..., 1::2]) * _INV_SQRT2
    a = np.concatenate((lo, hi), axis=-1)
    lo = (a[..., 0::2, :] + a[..., 1::2, :]) * _INV_SQRT2
    hi = (a[..., 0::2, :] - a[..., 1::2, :]) * _INV_SQRT2
    return np.concatenate((lo, hi), axis=-2)


def _haar_level_inv(c: np.ndarray) -> np.ndarray:
    h2 = c.shape[-2] // 2
    lo, hi = c[..., :h2, :], c[..., h2:, :]
    a = np.empty_like(c)
    a[..., 0::2, :] = (lo + hi) * _INV_SQRT2
    a[..., 1::2, :] = (lo - hi) * _INV_SQRT2
    w2 = a.shape[-1] // 2
    lo, hi = a[..., :w2], a[..., w2:]
    out = np.empty_like(a)
    out[..., 0::2] = (lo + hi) * _INV_SQRT2
    out[..., 1::2] = (lo - hi) * _INV_SQRT2
    return out


def haar2_forward(x: np.ndarray, levels: int) -> np.ndarray:
    """Orthonormal separable Haar pyramid over the last two axes, so the
    planes of a (2, H, W) image are transformed independently."""
    out = np.array(x, np.float32, copy=True)
    h, w = out.shape[-2:]
    _check_divisible(h, w, levels)
    for _ in range(levels):
        out[..., :h, :w] = _haar_level_fwd(out[..., :h, :w])
        h //= 2
        w //= 2
    return out


def haar2_inverse(c: np.ndarray, levels: int) -> np.ndarray:
    out = np.array(c, np.float32, copy=True)
    _check_divisible(out.shape[-2], out.shape[-1], levels)
    h = out.shape[-2] >> (levels - 1)
    w = out.shape[-1] >> (levels - 1)
    for _ in range(levels):
        out[..., :h, :w] = _haar_level_inv(out[..., :h, :w])
        h *= 2
        w *= 2
    return out


# ---------------------------------------------------------------------------
# proximal map


def soft_threshold(v: np.ndarray, lam: float) -> np.ndarray:
    """Proximal map of lam * ||.||_1 on a (2, H, W) image: each (re, im)
    pair shrinks by its magnitude. With a zero imaginary plane this is the
    real shrinkage sign(v) * max(|v| - lam, 0)."""
    if lam < 0:
        raise ParameterError("threshold must be >= 0")
    mag = magnitude(v)
    factor = (np.maximum(mag - lam, 0.0) /
              np.maximum(mag, np.finfo(np.float64).tiny)).astype(np.float32)
    return v * factor


def cs_objective(x: np.ndarray, y: np.ndarray, op: LinearOperator,
                 lam: float, levels: int) -> Tuple[float, float, float]:
    data = 0.5 * norm(y - op.apply(x)) ** 2
    l1 = lam * float(np.sum(magnitude(haar2_forward(x, levels))))
    return data + l1, data, l1


def _solver_step_size(op: LinearOperator) -> float:
    est = power_iteration(op, iters=30, seed=0)
    return 1.0 if est <= 1.0 + 1e-3 else 1.0 / (est * est)


def _prox_step(x: np.ndarray, y: np.ndarray, op: LinearOperator,
               alpha: float, lam: float, levels: int) -> np.ndarray:
    u = gradient_step(x, y, alpha, op)
    return haar2_inverse(soft_threshold(haar2_forward(u, levels), alpha * lam), levels)


def ista(y: np.ndarray, op: LinearOperator, cfg: CsConfig
         ) -> Tuple[np.ndarray, List[Tuple[int, float, float, float]]]:
    """Proximal gradient iterations from x = 0; trace rows are
    (iter, objective, data_term, l1_term)."""
    cfg.validate()
    alpha = _solver_step_size(op)
    x = np.zeros((2,) + tuple(op.in_shape), np.float32)
    start_obj = cs_objective(x, y, op, cfg.lam, cfg.levels)[0]
    trace = []
    for it in range(1, cfg.iterations + 1):
        x = _prox_step(x, y, op, alpha, cfg.lam, cfg.levels)
        obj, data, l1 = cs_objective(x, y, op, cfg.lam, cfg.levels)
        trace.append((it, obj, data, l1))
        if start_obj > 0 and obj > 10.0 * start_obj:
            raise SolverError(f"ISTA diverged at iteration {it} "
                              f"(objective {obj:.3g} vs start {start_obj:.3g})")
    return x, trace


def nesterov_next_t(t: float) -> float:
    """Momentum recursion t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2."""
    return (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0


def fista(y: np.ndarray, op: LinearOperator, cfg: CsConfig
          ) -> Tuple[np.ndarray, List[Tuple[int, float, float, float]]]:
    """ISTA with Nesterov momentum starting from t_0 = 1."""
    cfg.validate()
    alpha = _solver_step_size(op)
    x_prev = np.zeros((2,) + tuple(op.in_shape), np.float32)
    z = x_prev
    t_k = 1.0
    start_obj = cs_objective(x_prev, y, op, cfg.lam, cfg.levels)[0]
    trace = []
    for it in range(1, cfg.iterations + 1):
        x = _prox_step(z, y, op, alpha, cfg.lam, cfg.levels)
        t_next = nesterov_next_t(t_k)
        # t_next is float64: cast, or the image would promote to float64
        z = x + np.float32((t_k - 1.0) / t_next) * (x - x_prev)
        x_prev, t_k = x, t_next
        obj, data, l1 = cs_objective(x, y, op, cfg.lam, cfg.levels)
        trace.append((it, obj, data, l1))
        if start_obj > 0 and obj > 10.0 * start_obj:
            raise SolverError(f"FISTA diverged at iteration {it} "
                              f"(objective {obj:.3g} vs start {start_obj:.3g})")
    return x_prev, trace


# ---------------------------------------------------------------------------
# tuning


def default_lambda_grid(ys: Sequence[np.ndarray], op: LinearOperator,
                        levels: int, points: int = 8,
                        lo: float = 1e-4, hi: float = 1e-1) -> List[float]:
    """Logarithmic grid scaled by the peak coefficient magnitude of the
    zero-filled estimates."""
    peak = 0.0
    for y in ys:
        peak = max(peak, float(magnitude(haar2_forward(op.adjoint(y), levels)).max()))
    if peak == 0.0:
        peak = 1.0
    return [float(g) for g in peak * np.geomspace(lo, hi, points)]


def tune_lambda(validation: Sequence[Tuple[np.ndarray, np.ndarray]],
                op: LinearOperator, grid: Sequence[float], cfg: CsConfig
                ) -> Tuple[float, List[Tuple[float, float]]]:
    """Exhaustive search over the grid by mean SNR; ties favor smaller lambda.

    validation holds (ground truth, measurement) pairs. Returns the winning
    lambda and the per-lambda mean-SNR table.
    """
    if len(grid) == 0:
        raise ParameterError("lambda grid is empty")
    solve = fista if cfg.solver == "fista" else ista
    table = []
    best_lam, best_snr = None, -np.inf
    for lam in sorted(set(float(g) for g in grid)):
        trial = CsConfig(lam=lam, iterations=cfg.iterations,
                         solver=cfg.solver, levels=cfg.levels)
        snrs = []
        for x_true, y in validation:
            xhat, _ = solve(y, op, trial)
            snrs.append(snr_db(xhat, x_true))
        mean_snr = float(np.mean(snrs))
        table.append((lam, mean_snr))
        if mean_snr > best_snr:
            best_lam, best_snr = lam, mean_snr
    return best_lam, table
