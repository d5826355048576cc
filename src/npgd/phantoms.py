"""Synthetic ellipse phantoms: the desk-scale stand-in for clinical data.

Each phantom sums a handful of randomly placed soft-edged ellipses and
clips to [0, 1]. Magnitude-only by default; an optional smooth random
phase turns them into genuinely complex images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import ParameterError


@dataclass
class PhantomSpec:
    min_ellipses: int = 3
    max_ellipses: int = 8
    intensity_min: float = 0.2
    intensity_max: float = 1.0
    phase: bool = False

    def validate(self) -> None:
        if not (1 <= self.min_ellipses <= self.max_ellipses):
            raise ParameterError("ellipse count range is invalid")
        if not (0.0 <= self.intensity_min <= self.intensity_max):
            raise ParameterError("intensity range is invalid")


def _ellipse(u, v, rng, spec):
    cx, cy = rng.uniform(-0.55, 0.55, size=2)
    a = rng.uniform(0.12, 0.5)
    b = rng.uniform(0.12, 0.5)
    theta = rng.uniform(0.0, np.pi)
    amp = rng.uniform(spec.intensity_min, spec.intensity_max)
    du, dv = u - cx, v - cy
    ct, st = np.cos(theta), np.sin(theta)
    m = ((du * ct + dv * st) / a) ** 2 + ((-du * st + dv * ct) / b) ** 2
    # soft edge over the outer 30% of the ellipse metric keeps the image
    # from being exactly piecewise constant
    return amp * np.clip((1.0 - m) / 0.3, 0.0, 1.0)


def generate_phantom(size: int, spec: PhantomSpec, rng: np.random.Generator) -> np.ndarray:
    """One (2, size, size) phantom; the imaginary plane is zero without phase."""
    ax = (np.arange(size) + 0.5) / size * 2.0 - 1.0
    u, v = np.meshgrid(ax, ax, indexing="ij")
    n = int(rng.integers(spec.min_ellipses, spec.max_ellipses + 1))
    mag = np.zeros((size, size), np.float64)
    for _ in range(n):
        mag += _ellipse(u, v, rng, spec)
    mag = np.clip(mag, 0.0, 1.0)
    phi = 0.0
    if spec.phase:
        c = rng.uniform(-1.0, 1.0, size=3)
        phi = (c[0] * u + c[1] * v + c[2] * u * v) * (np.pi / 3.0)
    return np.stack((mag * np.cos(phi), mag * np.sin(phi))).astype(np.float32)


def generate_dataset(count: int, size: int, spec: PhantomSpec, seed: int) -> List[np.ndarray]:
    if count < 1:
        raise ParameterError(f"dataset needs at least one image, got {count}")
    spec.validate()
    rng = np.random.default_rng(seed)
    return [generate_phantom(size, spec, rng) for _ in range(count)]
