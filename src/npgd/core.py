"""Image layout, unitary 2D FFT, and small vector helpers.

An image is a float32 (2, H, W) array: plane 0 holds the real part, plane 1
the imaginary part. Operators, solvers, the proximal net, losses and
metrics all take and return that one layout; the FFT, the operators and
the baseline solvers also take a stack of images with leading axes,
(N, 2, H, W), and act on each image independently. Norms and inner products
accumulate in float64 so that diagnostics built on them do not lose digits
to cancellation. The FFT is unitary (1/sqrt(HW) both ways), which keeps
every measurement operator built from a binary sampling mask at operator
norm <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ShapeError


def check_power_of_two(n: int, axis: str) -> None:
    if n < 1 or (n & (n - 1)) != 0:
        raise DimensionError(f"size {n} along {axis} is not a power of two")


def _check_planes(x: np.ndarray, what: str) -> None:
    """Raise ShapeError unless x ends in the (2, H, W) image layout."""
    if np.ndim(x) < 3 or np.shape(x)[-3] != 2:
        raise ShapeError(f"{what}: expected (..., 2, H, W), got {np.shape(x)}")


@dataclass
class ComplexImage:
    """H x W complex image as separate float32 planes; converts between the
    (2, H, W) layout and complex arrays."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        self.re = np.asarray(self.re, dtype=np.float32)
        self.im = np.asarray(self.im, dtype=np.float32)
        if self.re.ndim != 2 or self.im.ndim != 2:
            raise ShapeError("ComplexImage planes must be 2-D")
        if self.re.shape != self.im.shape:
            raise ShapeError(
                f"re/im shapes differ: {self.re.shape} vs {self.im.shape}"
            )

    @classmethod
    def from_complex(cls, z: np.ndarray) -> "ComplexImage":
        return cls(z.real.astype(np.float32), z.imag.astype(np.float32))

    @classmethod
    def from_channels(cls, arr: np.ndarray) -> "ComplexImage":
        """Build from a (2, H, W) float array (channel 0 = re, 1 = im)."""
        _check_planes(arr, "from_channels")
        return cls(arr[0], arr[1])

    def to_complex(self) -> np.ndarray:
        return self.re.astype(np.complex64) + 1j * self.im.astype(np.complex64)

    def to_channels(self) -> np.ndarray:
        return np.stack((self.re, self.im))


def _as_flat64(a) -> np.ndarray:
    return np.asarray(a).ravel().astype(np.float64)


def dot(a, b) -> float:
    """Euclidean inner product; a (2, H, W) image counts as a real vector of
    its stacked re/im entries."""
    fa, fb = _as_flat64(a), _as_flat64(b)
    if fa.shape != fb.shape:
        raise ShapeError(f"dot: length {fa.size} vs {fb.size}")
    return float(np.dot(fa, fb))


def norm(a) -> float:
    f = _as_flat64(a)
    return float(np.sqrt(np.dot(f, f)))


def magnitude(x: np.ndarray) -> np.ndarray:
    """Pixelwise |re + i im| of a (..., 2, H, W) image or stack, in float64
    with the plane axis dropped. Round to float32 where a stored image or
    an image metric expects float32."""
    re = x[..., 0, :, :].astype(np.float64)
    im = x[..., 1, :, :].astype(np.float64)
    re *= re
    re += np.multiply(im, im, out=im)
    return np.sqrt(re, out=re)


def to_complex(x: np.ndarray) -> np.ndarray:
    """complex64 (..., H, W) form of a (..., 2, H, W) image or stack, H and W powers of two."""
    _check_planes(x, "fft")
    check_power_of_two(x.shape[-2], "height")
    check_power_of_two(x.shape[-1], "width")
    z = np.empty(x.shape[:-3] + x.shape[-2:], np.complex64)
    z.real = x[..., 0, :, :]
    z.imag = x[..., 1, :, :]
    return z


def to_planes(z: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_complex`: the (..., 2, H, W) planes of z."""
    return np.stack((z.real, z.imag), axis=-3)


def fft2(x: np.ndarray) -> np.ndarray:
    """Unitary 2D DFT of a (..., 2, H, W) image or stack, per image. H and W
    must be powers of two."""
    return to_planes(np.fft.fft2(to_complex(x), norm="ortho"))


def ifft2(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fft2` (also unitary)."""
    # not out=: numpy 2.4's ifft2 with out= returns wrong values
    return to_planes(np.fft.ifft2(to_complex(x), norm="ortho"))
