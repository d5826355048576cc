"""Image-quality metrics: SNR (dB), SSIM, NRMSE.

SNR and NRMSE operate on the stacked re/im planes of (2, H, W) images;
SSIM is computed on real 2-D planes (pass core.magnitude of an image) with
a 7x7 Gaussian window (sigma = 1.5) and the standard constants K1 = 0.01,
K2 = 0.03.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import norm
from .errors import ParameterError, ShapeError, UndefinedMetricError

_SNR_CAP_DB = 100.0


def snr_db(xhat, xstar) -> float:
    """20 log10(||x*|| / ||xhat - x*||), capped at 100 dB for tiny errors."""
    _check_same_shape(xhat, xstar)
    ref = norm(xstar)
    if ref == 0.0:
        raise UndefinedMetricError("SNR undefined for a zero reference image")
    err = norm(_diff(xhat, xstar))
    if err < 1e-10 * ref:
        return _SNR_CAP_DB
    return float(20.0 * np.log10(ref / err))


def nrmse(xhat, xstar) -> float:
    """||xhat - x*|| / ||x*||."""
    _check_same_shape(xhat, xstar)
    ref = norm(xstar)
    if ref == 0.0:
        raise UndefinedMetricError("NRMSE undefined for a zero reference image")
    return norm(_diff(xhat, xstar)) / ref


def _diff(a, b) -> np.ndarray:
    return np.asarray(a, np.float32) - np.asarray(b, np.float32)


def _check_same_shape(a, b) -> None:
    if np.shape(a) != np.shape(b):
        raise ShapeError(f"metric inputs differ in shape: {np.shape(a)} vs {np.shape(b)}")


def _gaussian_window(size: int = 7, sigma: float = 1.5) -> np.ndarray:
    ax = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    win = np.outer(g, g)
    return win / win.sum()


def _local_stats(plane: np.ndarray, window: np.ndarray) -> np.ndarray:
    k = window.shape[0]
    views = np.lib.stride_tricks.sliding_window_view(plane, (k, k))
    return np.tensordot(views, window, axes=([2, 3], [0, 1]))


def ssim(xhat, xstar, data_range: Optional[float] = None) -> float:
    """Mean local SSIM of two real 2-D planes, such as magnitude images.

    data_range defaults to max(x*) - min(x*); pass it explicitly for
    images whose reference range is degenerate or externally defined.
    """
    _check_same_shape(xhat, xstar)
    a = np.asarray(xhat, np.float64)
    b = np.asarray(xstar, np.float64)
    if a.ndim != 2:
        raise ShapeError(f"SSIM needs 2-D planes, got shape {a.shape}")
    if min(a.shape) < 7:
        raise ParameterError("SSIM needs images of at least 7x7 pixels")
    if data_range is None:
        data_range = float(b.max() - b.min())
    if data_range <= 0.0:
        raise UndefinedMetricError("SSIM undefined for zero dynamic range")
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    win = _gaussian_window()
    mu1 = _local_stats(a, win)
    mu2 = _local_stats(b, win)
    s11 = _local_stats(a * a, win) - mu1 * mu1
    s22 = _local_stats(b * b, win) - mu2 * mu2
    s12 = _local_stats(a * b, win) - mu1 * mu2
    num = (2.0 * mu1 * mu2 + c1) * (2.0 * s12 + c2)
    den = (mu1 * mu1 + mu2 * mu2 + c1) * (s11 + s22 + c2)
    return float(np.mean(num / den))
