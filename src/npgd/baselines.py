"""Compressed-sensing wavelet baseline: orthonormal Haar pyramid,
magnitude soft-thresholding, ISTA and FISTA solvers.

Everything here takes one (2, H, W) image or an (N, 2, H, W) stack, and a
stack is solved as one batch: each image has its own lambda, its own
objective trace and its own divergence check, and its iterates are bit for
bit those of solving it alone.

The solvers minimize 0.5 * ||y - apply(x)||^2 + lambda * ||W x||_1 where W
is the per-channel Haar transform and the l1 norm sums complex coefficient
magnitudes, so the proximal map is exact magnitude shrinkage and the ISTA
objective is monotone non-increasing for unit step (both operators here
have norm <= 1; this is verified numerically at solver startup).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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


def soft_threshold(v: np.ndarray, lam) -> np.ndarray:
    """Proximal map of lam * ||.||_1 on a (2, H, W) image or an (N, 2, H, W)
    stack: each (re, im) pair shrinks by its magnitude. lam is one
    threshold, or one per image of a stack. With a zero imaginary plane this
    is the real shrinkage sign(v) * max(|v| - lam, 0)."""
    lam = np.asarray(lam, np.float64)
    if np.any(lam < 0):
        raise ParameterError("threshold must be >= 0")
    mag = magnitude(v)
    factor = mag - lam[..., None, None]
    np.maximum(factor, 0.0, out=factor)
    factor /= np.maximum(mag, np.finfo(np.float64).tiny, out=mag)
    return v * factor.astype(np.float32)[..., None, :, :]


def cs_objective(x: np.ndarray, y: np.ndarray, op: LinearOperator,
                 lam, levels: int, coeffs: Optional[np.ndarray] = None):
    """(objective, data_term, l1_term) of a (2, H, W) image; for an
    (N, 2, H, W) stack, with one lam per image, a list of one such triple
    per image. coeffs, shaped like x, stands in for haar2_forward(x, levels):
    shrunk coefficients c with x = W^T c have ||c||_1 = ||W x||_1 up to roundoff."""
    stack = np.ndim(x) == 4
    xs, ys, lams = (x, y, lam) if stack else (x[None], y[None], [lam])
    resid = ys - op.apply(xs)
    mags = magnitude(haar2_forward(xs, levels) if coeffs is None
                     else np.reshape(coeffs, xs.shape))
    terms = []
    for r, m, lam_i in zip(resid, mags, lams):
        data = 0.5 * norm(r) ** 2
        l1 = float(lam_i) * float(np.sum(m))
        terms.append((data + l1, data, l1))
    return terms if stack else terms[0]


def _solver_step_size(op: LinearOperator) -> float:
    est = power_iteration(op, iters=30, seed=0)
    return 1.0 if est <= 1.0 + 1e-3 else 1.0 / (est * est)


def _prox_step(x: np.ndarray, y: np.ndarray, op: LinearOperator,
               alpha: float, lam, levels: int) -> Tuple[np.ndarray, np.ndarray]:
    """The next iterate and the shrunk Haar coefficients it is built from."""
    u = gradient_step(x, y, alpha, op)
    c = soft_threshold(haar2_forward(u, levels), alpha * lam)
    return haar2_inverse(c, levels), c


def _solve(y: np.ndarray, op: LinearOperator, cfg: CsConfig,
           lams: Optional[Sequence[float]], momentum: bool):
    """The one proximal-gradient loop behind ista (momentum off) and fista."""
    cfg.validate()
    stack = np.ndim(y) == 4
    ys = y if stack else y[None]
    lams = np.full(len(ys), float(cfg.lam)) if lams is None else np.array(lams, np.float64)
    if lams.shape != (len(ys),):
        raise ParameterError(f"{lams.size} lambdas for {len(ys)} images")
    if np.any(lams < 0):
        raise ParameterError("lambda must be >= 0")
    name = "FISTA" if momentum else "ISTA"
    alpha = _solver_step_size(op)
    x = np.zeros((len(ys), 2) + tuple(op.in_shape), np.float32)
    z = x
    t_k = 1.0
    start = [row[0] for row in cs_objective(x, ys, op, lams, cfg.levels)]
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
        for i, row in enumerate(cs_objective(x, ys, op, lams, cfg.levels, coeffs)):
            traces[i].append((it,) + row)
            if start[i] > 0 and row[0] > 10.0 * start[i]:
                where = f"image {i}, " if stack else ""
                raise SolverError(f"{name} diverged at {where}iteration {it} "
                                  f"(objective {row[0]:.3g} vs start {start[i]:.3g})")
    return (x, traces) if stack else (x[0], traces[0])


def ista(y: np.ndarray, op: LinearOperator, cfg: CsConfig,
         lams: Optional[Sequence[float]] = None):
    """Proximal gradient iterations from x = 0 on a (2, h, w) measurement,
    or on an (N, 2, h, w) stack of them solved as one batch.

    Each image uses cfg.lam, or its own entry of lams. Returns the estimate
    and its trace rows (iter, objective, data_term, l1_term); for a stack,
    the (N, 2, H, W) estimates and one trace per image.
    """
    return _solve(y, op, cfg, lams, momentum=False)


def nesterov_next_t(t: float) -> float:
    """Momentum recursion t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2."""
    return (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0


def fista(y: np.ndarray, op: LinearOperator, cfg: CsConfig,
          lams: Optional[Sequence[float]] = None):
    """ISTA with Nesterov momentum starting from t_0 = 1; same arguments
    and results as :func:`ista`."""
    return _solve(y, op, cfg, lams, momentum=True)


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
