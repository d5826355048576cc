"""Synthetic ellipse phantoms: the desk-scale stand-in for clinical data.

Each phantom sums a handful of randomly placed soft-edged ellipses and
clips to [0, 1]. Magnitude-only by default; an optional smooth random
phase turns them into genuinely complex images.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .errors import ParameterError


MIN_ELLIPSES, MAX_ELLIPSES = 3, 8  # ellipses per phantom, inclusive
INTENSITY_MIN, INTENSITY_MAX = 0.2, 1.0  # amplitude range of one ellipse


def _ellipse(u, v, rng):
    cx, cy = rng.uniform(-0.55, 0.55, size=2)
    a = rng.uniform(0.12, 0.5)
    b = rng.uniform(0.12, 0.5)
    theta = rng.uniform(0.0, np.pi)
    amp = rng.uniform(INTENSITY_MIN, INTENSITY_MAX)
    du, dv = u - cx, v - cy
    ct, st = np.cos(theta), np.sin(theta)
    m = ((du * ct + dv * st) / a) ** 2 + ((-du * st + dv * ct) / b) ** 2
    # soft edge over the outer 30% of the ellipse metric keeps the image
    # from being exactly piecewise constant
    return amp * np.clip((1.0 - m) / 0.3, 0.0, 1.0)


def generate_phantom(size: int, phase: bool, rng: np.random.Generator) -> np.ndarray:
    """One (2, size, size) phantom; the imaginary plane is zero without phase."""
    ax = (np.arange(size) + 0.5) / size * 2.0 - 1.0
    u, v = np.meshgrid(ax, ax, indexing="ij")
    n = int(rng.integers(MIN_ELLIPSES, MAX_ELLIPSES + 1))
    mag = np.zeros((size, size), np.float64)
    for _ in range(n):
        mag += _ellipse(u, v, rng)
    mag = np.clip(mag, 0.0, 1.0)
    phi = 0.0
    if phase:
        c = rng.uniform(-1.0, 1.0, size=3)
        phi = (c[0] * u + c[1] * v + c[2] * u * v) * (np.pi / 3.0)
    return np.stack((mag * np.cos(phi), mag * np.sin(phi))).astype(np.float32)


def generate_dataset(count: int, size: int, seed: int,
                     phase: bool = False) -> List[np.ndarray]:
    if count < 1:
        raise ParameterError(f"dataset needs at least one image, got {count}")
    rng = np.random.default_rng(seed)
    return [generate_phantom(size, phase, rng) for _ in range(count)]
