"""Measurement operators and the data-consistency gradient step.

Both concrete operators satisfy <apply(x), y> == <x, adjoint(y)> exactly
(up to float roundoff) and have operator norm <= 1, so a unit step size
is always safe for the gradient step x + alpha * adjoint(y - apply(x)).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .autograd import Tape, Variable
from .core import fft2, ifft2, norm, to_complex, to_planes
from .errors import DimensionError, ShapeError
from .sampling import SamplingMask


class LinearOperator:
    """apply/adjoint pair on (2, H, W) images, or on (N, 2, H, W) stacks of
    them image by image."""

    in_shape: tuple
    out_shape: tuple
    # where apply's output holds a measurement: all of it, or an out_shape mask
    measured: Union[bool, np.ndarray] = True

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def normal_channels(self, x2: np.ndarray) -> np.ndarray:
        """adjoint(apply(x)) on a (2, H, W) plane stack."""
        return self.adjoint(self.apply(x2))

    def residual(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """r = y - apply(x) and adjoint(r), the negative data-term gradient."""
        r = y - self.apply(x)
        return r, self.adjoint(r)

    def direction(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """adjoint(y - apply(x)) alone: ``residual(x, y)[1]`` bit for bit."""
        return self.residual(x, y)[1]


def _check(x: np.ndarray, hw: tuple, what: str) -> None:
    """Raise ShapeError unless x ends in the (2, H, W) of one image."""
    if np.shape(x)[-3:] != (2,) + tuple(hw):
        raise ShapeError(f"{what}: image {np.shape(x)} vs expected (..., 2, {hw[0]}, {hw[1]})")


class MaskedFourierOperator(LinearOperator):
    """y = mask * fft2(x); the adjoint is the zero-filled inverse FFT."""

    def __init__(self, mask: SamplingMask):
        self.mask = mask
        self.measured = mask.natural_bits()  # the sampled k-space, in FFT layout
        self.in_shape = (mask.height, mask.width)
        self.out_shape = (mask.height, mask.width)

    def apply(self, x: np.ndarray) -> np.ndarray:
        _check(x, self.in_shape, "mf_apply")
        return np.where(self.measured, fft2(x), np.float32(0))

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        _check(y, self.out_shape, "mf_adjoint")
        return ifft2(np.where(self.measured, y, np.float32(0)))

    def _round_trip(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Complex r = y - apply(x) and adjoint(r) from one masked FFT pair (y
        kept off the mask): the base residual bit for bit, before to_planes."""
        _check(x, self.in_shape, "mf_apply")
        _check(y, self.out_shape, "mf_adjoint")
        r = to_complex(y) - np.where(self.measured, np.fft.fft2(to_complex(x), norm="ortho"),
                                     np.complex64(0))
        # not out=: numpy 2.4's ifft2 with out= returns wrong values
        return r, np.fft.ifft2(np.where(self.measured, r, np.complex64(0)), norm="ortho")

    def residual(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        r, back = self._round_trip(x, y)
        return to_planes(r), to_planes(back)

    def direction(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return to_planes(self._round_trip(x, y)[1])  # r's planes are never formed


class BoxDownsampleOperator(LinearOperator):
    """2x2 block averaging; the adjoint spreads y/4 back over each block."""

    def __init__(self, height: int, width: int):
        if height % 2 or width % 2:
            raise DimensionError(f"box downsample needs even dims, got {height}x{width}")
        self.in_shape = (height, width)
        self.out_shape = (height // 2, width // 2)

    def apply(self, x: np.ndarray) -> np.ndarray:
        _check(x, self.in_shape, "box_apply")
        return 0.25 * (x[..., 0::2, 0::2] + x[..., 0::2, 1::2]
                       + x[..., 1::2, 0::2] + x[..., 1::2, 1::2])

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        _check(y, self.out_shape, "box_adjoint")
        return np.repeat(np.repeat(y * np.float32(0.25), 2, axis=-2), 2, axis=-1)


def gradient_step(x: np.ndarray, y: np.ndarray, alpha: float,
                  op: LinearOperator) -> np.ndarray:
    """One data-consistency step: x + alpha * adjoint(y - apply(x))."""
    return x + np.float32(alpha) * op.direction(x, y)


def preconditioned(op: LinearOperator, alpha: float, v: np.ndarray) -> np.ndarray:
    """(I - alpha * adjoint(apply(.))) v on a plane stack."""
    return v - np.float32(alpha) * op.normal_channels(v)


def gradient_step_channels(x_var: Variable, alpha: Union[float, Variable],
                           op: LinearOperator, direction: np.ndarray,
                           tape: Optional[Tape] = None) -> Variable:
    """Differentiable gradient step x + alpha * direction, where direction
    is ``op.direction(x, y)``; bit for bit :func:`gradient_step`.

    Differentiates through x and, when alpha is a Variable, through the
    step size: the normal operator adjoint(apply(.)) is self-adjoint, so
    the pullback of x is g - alpha * normal(g).
    """
    a = float(alpha.value if isinstance(alpha, Variable) else alpha)
    out = Variable(x_var.value + np.float32(a) * direction)
    if tape is not None:
        pulls = [(x_var, lambda g: preconditioned(op, a, g))]
        if isinstance(alpha, Variable):
            pulls.append((alpha, lambda g: np.float32(
                np.sum(g.astype(np.float64) * direction.astype(np.float64)))))
        tape.record(out, pulls)
    return out


def data_residual_sq(x_var: Variable, residual_norm: float, direction: np.ndarray,
                     tape: Optional[Tape] = None) -> Variable:
    """Differentiable ||y - apply(x)||^2 from the ||r|| and direction of ``op.residual(x, y)``."""
    out = Variable(np.float32(residual_norm ** 2))
    if tape is not None:
        tape.record(out, [(x_var, lambda g: np.float32(-2) * direction * g)])
    return out


def power_iteration(op: LinearOperator, iters: int = 50, seed: int = 0) -> float:
    """Estimate the operator norm ||op|| via power iteration on adjoint(apply(.))."""
    rng = np.random.default_rng(seed)
    h, w = op.in_shape
    v = np.stack((rng.standard_normal((h, w)).astype(np.float32),
                  rng.standard_normal((h, w)).astype(np.float32)))
    lam = 0.0
    for _ in range(iters):
        nv = norm(v)
        if nv == 0:
            return 0.0
        v = v * np.float32(1.0 / nv)
        v = op.adjoint(op.apply(v))
        lam = norm(v)
    return float(np.sqrt(lam))
