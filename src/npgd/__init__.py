"""Neural proximal gradient descent for ill-posed linear inverse imaging:
unrolled recurrent reconstruction with a learned convolutional proximal,
ISTA/FISTA wavelet baselines, and contraction diagnostics on real
trajectories."""

from .core import ComplexImage, dot, fft2, ifft2, magnitude, norm

__version__ = "0.1.0"

__all__ = ["ComplexImage", "dot", "fft2", "ifft2", "magnitude", "norm", "__version__"]
