"""Variable-density undersampling masks for the Fourier operator.

Masks are stored in centered (fftshifted) k-space layout: the DC
coefficient sits at (H//2, W//2), which is also how the PGM visualization
and the raw bitmask file lay the bits out. The Fourier operator converts
to the natural FFT layout internally.

Sampling law: a centered low-frequency square is always fully sampled;
every remaining frequency gets weight (1 - r)^decay where r is its radius
relative to the grid corner, and the remaining quota is drawn without
replacement proportionally to those weights using the documented
xorshift64* generator, so a (H, W, rate, center_fraction, decay, seed)
tuple regenerates bit-identically anywhere.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import check_power_of_two
from .errors import CorruptionError, FormatError, ParameterError
from .rng import Xorshift64Star

BITMASK_MAGIC = b"NPGDMASK"


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


@dataclass
class SamplingMask:
    height: int
    width: int
    bits: np.ndarray  # (H, W) bool, centered layout

    @property
    def popcount(self) -> int:
        return int(np.count_nonzero(self.bits))

    def natural_bits(self) -> np.ndarray:
        """Bits rearranged to match the raw FFT layout (DC at [0, 0])."""
        return np.fft.ifftshift(self.bits)


def _center_slice(n: int, side: int) -> slice:
    start = (n - side) // 2
    return slice(start, start + side)


def mask_quota(height: int, width: int, rate: float, center_fraction: float,
               decay: float) -> Tuple[int, int]:
    """Check the sampling-law parameters for an H x W grid; returns the
    total sample count and the side of the fully sampled centre square."""
    if not (0.0 < rate <= 1.0):
        raise ParameterError(f"rate must be in (0, 1], got {rate}")
    if not (0.0 <= center_fraction < rate):
        raise ParameterError(
            f"center_fraction must satisfy 0 <= cf < rate, got {center_fraction}")
    if not decay >= 0:
        raise ParameterError(f"decay must be >= 0, got {decay}")
    n = height * width
    total = _round_half_up(rate * n)
    side = _round_half_up(np.sqrt(center_fraction * n))
    if side * side > total:
        raise ParameterError(
            f"center square ({side * side} samples) exceeds the total quota ({total}); "
            f"lower center_fraction or raise rate")
    return total, side


def generate_vardens_mask(height: int, width: int, rate: float,
                          center_fraction: float, decay: float,
                          seed: int) -> SamplingMask:
    """Draw a variable-density mask with an exact sample count.

    popcount(bits) == round(rate * H * W) always; the centered square of
    side round(sqrt(center_fraction * H * W)) is fully sampled.
    """
    check_power_of_two(height, "height")
    check_power_of_two(width, "width")
    total, side = mask_quota(height, width, rate, center_fraction, decay)
    bits = np.zeros((height, width), dtype=bool)
    bits[_center_slice(height, side), _center_slice(width, side)] = True
    quota = total - side * side
    if quota == 0:
        return SamplingMask(height, width, bits)

    fu = np.arange(height)[:, None] - height // 2
    fv = np.arange(width)[None, :] - width // 2
    r_max = np.sqrt((height / 2.0) ** 2 + (width / 2.0) ** 2)
    radius = np.sqrt(fu.astype(np.float64) ** 2 + fv.astype(np.float64) ** 2) / r_max
    weights = np.clip(1.0 - radius, 0.0, None) ** decay

    candidates = np.flatnonzero(~bits.ravel())  # row-major order
    w = weights.ravel()[candidates]
    gen = Xorshift64Star(seed)
    u = np.array(gen.uniforms(candidates.size), dtype=np.float64)
    # weighted sampling without replacement via exponential keys:
    # picking the k largest ln(u)/w is equivalent to drawing proportionally
    # to w one at a time. Zero-weight candidates sort last, deterministically.
    with np.errstate(divide="ignore", invalid="ignore"):
        keys = np.where(w > 0, np.log(u) / np.where(w > 0, w, 1.0), -np.inf)
    order = np.argsort(-keys, kind="stable")
    chosen = candidates[order[:quota]]
    flat = bits.ravel()
    flat[chosen] = True
    mask = SamplingMask(height, width, flat.reshape(height, width))
    assert mask.popcount == total
    return mask


# ---------------------------------------------------------------------------
# persistence


def save_mask_pgm(mask: SamplingMask, path) -> None:
    """P5 visualization: 255 = sampled, 0 = skipped (centered layout)."""
    data = np.where(mask.bits, 255, 0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def save_mask_bits(mask: SamplingMask, path) -> None:
    """Raw bitmask: magic, u32 H, u32 W (LE), bits row-major MSB-first."""
    packed = np.packbits(mask.bits.ravel(), bitorder="big")
    with open(path, "wb") as fh:
        fh.write(BITMASK_MAGIC)
        fh.write(struct.pack("<II", mask.height, mask.width))
        fh.write(packed.tobytes())


def load_mask_bits(path) -> SamplingMask:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != BITMASK_MAGIC:
        raise FormatError(f"{path}: bad bitmask magic")
    if len(blob) < 16:
        raise CorruptionError(f"{path}: truncated bitmask header")
    height, width = struct.unpack("<II", blob[8:16])
    if height == 0 or width == 0:
        raise FormatError(f"{path}: bitmask size {height}x{width} is empty")
    nbytes = (height * width + 7) // 8
    payload = blob[16:]
    if len(payload) != nbytes:
        raise CorruptionError(
            f"{path}: expected {nbytes} mask bytes, found {len(payload)}")
    bits = np.unpackbits(np.frombuffer(payload, np.uint8), bitorder="big")
    bits = bits[:height * width].astype(bool).reshape(height, width)
    return SamplingMask(height, width, bits)
