"""Compressed-sensing wavelet baseline: orthonormal Haar pyramid,
magnitude soft-thresholding, ISTA and FISTA solvers.

The solvers take an (N, 2, H, W) stack of measurements and solve it as one
batch: each image has its own lambda, its own objective trace and its own
divergence check, and its iterates are bit for bit those of solving it in a
stack of one. The Haar pyramid and the shrinkage also act on one image.

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
from .errors import DimensionError, ParameterError, ShapeError, SolverError
from .metrics import snr_db
from .operators import LinearOperator, gradient_step, power_iteration

_INV_SQRT2 = np.float32(1.0 / np.sqrt(2.0))


@dataclass(frozen=True)
class CsConfig:
    iterations: int = 300
    solver: str = "fista"
    levels: int = 3

    def __post_init__(self) -> None:
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


def _pair(a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """lo = (a + b) / sqrt(2) and hi = (a - b) / sqrt(2), scaled in contiguous
    temporaries: scaling the strided output views in place is slower."""
    np.multiply(a + b, _INV_SQRT2, out=lo)
    np.multiply(a - b, _INV_SQRT2, out=hi)


def haar2_forward(x: np.ndarray, levels: int) -> np.ndarray:
    """Orthonormal separable Haar pyramid over the last two axes, so the
    planes of a (2, H, W) image, or of every image of a stack, are
    transformed independently. Each level's row pass goes to a scratch
    buffer and its column pass straight back into the output."""
    out = np.array(x, np.float32, copy=True)
    h, w = out.shape[-2:]
    _check_divisible(h, w, levels)
    rows = np.empty_like(out)
    for _ in range(levels):
        a, r = out[..., :h, :w], rows[..., :h, :w]
        _pair(a[..., 0::2], a[..., 1::2], r[..., :w // 2], r[..., w // 2:])
        _pair(r[..., 0::2, :], r[..., 1::2, :], a[..., :h // 2, :], a[..., h // 2:, :])
        h //= 2
        w //= 2
    return out


def haar2_inverse(c: np.ndarray, levels: int) -> np.ndarray:
    out = np.array(c, np.float32, copy=True)
    _check_divisible(out.shape[-2], out.shape[-1], levels)
    h = out.shape[-2] >> (levels - 1)
    w = out.shape[-1] >> (levels - 1)
    cols = np.empty_like(out)
    for _ in range(levels):
        a, r = out[..., :h, :w], cols[..., :h, :w]
        _pair(a[..., :h // 2, :], a[..., h // 2:, :], r[..., 0::2, :], r[..., 1::2, :])
        _pair(r[..., :w // 2], r[..., w // 2:], a[..., 0::2], a[..., 1::2])
        h *= 2
        w *= 2
    return out


# ---------------------------------------------------------------------------
# proximal map


def _lambdas(lam) -> np.ndarray:
    lam = np.asarray(lam, np.float64)
    if not (np.isfinite(lam) & (lam >= 0)).all():
        raise ParameterError("lambda must be finite and >= 0")
    return lam


def _check_stack(ys: np.ndarray) -> None:
    if np.ndim(ys) != 4:
        raise ShapeError(f"expected an (N, 2, H, W) stack, got shape {np.shape(ys)}")


def soft_threshold(v: np.ndarray, lam) -> np.ndarray:
    """Proximal map of lam * ||.||_1 on a (2, H, W) image or an (N, 2, H, W)
    stack: each (re, im) pair shrinks by its magnitude. lam is one
    threshold, or one per image of a stack. With a zero imaginary plane this
    is the real shrinkage sign(v) * max(|v| - lam, 0)."""
    lam = _lambdas(lam)
    mag = magnitude(v)
    factor = mag - lam[..., None, None]
    np.maximum(factor, 0.0, out=factor)
    factor /= np.maximum(mag, np.finfo(np.float64).tiny, out=mag)
    return v * factor.astype(np.float32)[..., None, :, :]


def cs_objective(xs: np.ndarray, ys: np.ndarray, op: LinearOperator,
                 lams: Sequence[float], coeffs: np.ndarray):
    """One (objective, data_term, l1_term) per image of an (N, 2, H, W)
    stack, image i weighted by lams[i]. coeffs, shaped like xs, are the Haar
    coefficients of xs: haar2_forward's, or the shrunk c that the solver
    built x = W^T c from, whose ||c||_1 = ||W x||_1 up to roundoff."""
    _check_stack(ys)
    terms = []
    for r, m, lam in zip(ys - op.apply(xs), magnitude(coeffs), lams):
        data = 0.5 * norm(r) ** 2
        l1 = float(lam) * float(np.sum(m))
        terms.append((data + l1, data, l1))
    return terms


def _solver_step_size(op: LinearOperator) -> float:
    est = power_iteration(op, iters=30, seed=0)
    return 1.0 if est <= 1.0 + 1e-3 else 1.0 / (est * est)


def _prox_step(x: np.ndarray, y: np.ndarray, op: LinearOperator,
               alpha: float, lam, levels: int) -> Tuple[np.ndarray, np.ndarray]:
    """The next iterate and the shrunk Haar coefficients it is built from."""
    u = gradient_step(x, y, alpha, op)
    c = soft_threshold(haar2_forward(u, levels), alpha * lam)
    return haar2_inverse(c, levels), c


def _solve(ys: np.ndarray, op: LinearOperator, cfg: CsConfig,
           lams: Sequence[float], momentum: bool):
    """The one proximal-gradient loop behind ista (momentum off) and fista."""
    _check_stack(ys)
    lams = _lambdas(lams)
    if lams.shape != (len(ys),):
        raise ParameterError(f"{lams.size} lambdas for {len(ys)} images")
    name = "FISTA" if momentum else "ISTA"
    alpha = _solver_step_size(op)
    x = np.zeros((len(ys), 2) + tuple(op.in_shape), np.float32)
    z = x
    t_k = 1.0
    start = [row[0] for row in cs_objective(x, ys, op, lams, x)]  # x = 0 = W x
    traces = [[] for _ in ys]
    for it in range(1, cfg.iterations + 1):
        x_next, coeffs = _prox_step(z, ys, op, alpha, lams, cfg.levels)
        if momentum:
            t_next = nesterov_next_t(t_k)
            # t_next is float64: cast, or the image would promote to float64
            z = x_next + np.float32((t_k - 1.0) / t_next) * (x_next - x)
            t_k = t_next
        else:
            z = x_next
        x = x_next
        for i, row in enumerate(cs_objective(x, ys, op, lams, coeffs)):
            traces[i].append((it,) + row)
            if start[i] > 0 and row[0] > 10.0 * start[i]:
                raise SolverError(f"{name} diverged at image {i}, iteration {it} "
                                  f"(objective {row[0]:.3g} vs start {start[i]:.3g})")
    return x, traces


def ista(ys: np.ndarray, op: LinearOperator, cfg: CsConfig, lams: Sequence[float]):
    """Proximal gradient iterations from x = 0 on an (N, 2, h, w) stack of
    measurements, image i with lambda lams[i]. Returns the (N, 2, H, W)
    estimates and one trace of (iter, objective, data_term, l1_term) per image."""
    return _solve(ys, op, cfg, lams, momentum=False)


def nesterov_next_t(t: float) -> float:
    """Momentum recursion t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2."""
    return (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0


def fista(ys: np.ndarray, op: LinearOperator, cfg: CsConfig, lams: Sequence[float]):
    """ISTA with Nesterov momentum starting from t_0 = 1; same arguments
    and results as :func:`ista`."""
    return _solve(ys, op, cfg, lams, momentum=True)


# ---------------------------------------------------------------------------
# tuning


GRID_LO, GRID_HI = 1e-4, 1e-1  # the lambda grid's ends, relative to the peak


def default_lambda_grid(ys: np.ndarray, op: LinearOperator,
                        levels: int, points: int) -> List[float]:
    """Logarithmic grid from GRID_LO to GRID_HI times the peak coefficient
    magnitude of the zero-filled estimates of an (N, 2, h, w) stack."""
    peak = float(magnitude(haar2_forward(op.adjoint(ys), levels)).max())
    if peak == 0.0:
        peak = 1.0
    return [float(g) for g in peak * np.geomspace(GRID_LO, GRID_HI, points)]


def tune_lambda(validation: Sequence[Tuple[np.ndarray, np.ndarray]],
                op: LinearOperator, grid: Sequence[float], cfg: CsConfig
                ) -> Tuple[float, List[Tuple[float, float]]]:
    """Exhaustive search over the grid by mean SNR; ties favor smaller lambda.

    validation holds (ground truth, measurement) pairs. Returns the winning
    lambda and the per-lambda mean-SNR table.
    """
    if len(grid) == 0:
        raise ParameterError("lambda grid is empty")
    if len(validation) == 0:
        raise ParameterError("validation set is empty")
    lams = sorted(set(float(g) for g in grid))
    solve = fista if cfg.solver == "fista" else ista
    # one batch: every grid point times every validation measurement
    ys = np.stack([y for _ in lams for _, y in validation])
    xs, _ = solve(ys, op, cfg, lams=np.repeat(lams, len(validation)))
    table = []
    best_lam, best_snr = None, -np.inf
    for k, lam in enumerate(lams):
        block = xs[k * len(validation):(k + 1) * len(validation)]
        mean_snr = float(np.mean([snr_db(xhat, x_true)
                                  for xhat, (x_true, _) in zip(block, validation)]))
        table.append((lam, mean_snr))
        if mean_snr > best_snr:
            best_lam, best_snr = lam, mean_snr
    return best_lam, table
