"""Shared test constructions.

``make_identity_resnet`` builds a net whose forward pass is exactly the
identity: the head splits each input channel into +/- copies, the residual
blocks are zeroed (skip-path only), the relu tail passes the nonnegative
split parts through unchanged, and the last 1x1 conv recombines them.
"""

import numpy as np
import pytest

from npgd.proxnet import ProximalConfig, build
from npgd.sampling import SamplingMask


def make_identity_resnet(feature_maps=4, num_res_blocks=1):
    assert feature_maps >= 4
    cfg = ProximalConfig(arch="resnet", num_res_blocks=num_res_blocks,
                         feature_maps=feature_maps, activation="relu",
                         normalization="none")
    net = build(cfg, seed=0)
    for var in net.params.values():
        var.value = np.zeros_like(var.value)
    head = net.params["head.kernel"].value
    head[0, 0, 1, 1] = 1.0
    head[1, 1, 1, 1] = 1.0
    head[2, 0, 1, 1] = -1.0
    head[3, 1, 1, 1] = -1.0
    for name in ("tail1", "tail2"):
        k = net.params[f"{name}.kernel"].value
        for c in range(feature_maps):
            k[c, c, 0, 0] = 1.0
    t3 = net.params["tail3.kernel"].value
    t3[0, 0, 0, 0] = 1.0
    t3[0, 2, 0, 0] = -1.0
    t3[1, 1, 0, 0] = 1.0
    t3[1, 3, 0, 0] = -1.0
    return net


def random_complex_image(h, w, seed=0, scale=1.0):
    """(2, h, w) image with standard normal real and imaginary planes."""
    rng = np.random.default_rng(seed)
    return np.stack((
        (scale * rng.standard_normal((h, w))).astype(np.float32),
        (scale * rng.standard_normal((h, w))).astype(np.float32)))


def nonzero_complex_image(h, w, seed=0):
    """Random image with no exactly-zero entries (keeps relu masks stable)."""
    rng = np.random.default_rng(seed)
    re = rng.uniform(0.1, 1.0, (h, w)) * rng.choice([-1.0, 1.0], (h, w))
    im = rng.uniform(0.1, 1.0, (h, w)) * rng.choice([-1.0, 1.0], (h, w))
    return np.stack((re, im)).astype(np.float32)


def images_with_zero_pixels(shape, seed):
    """Standard normal (..., 2, H, W) planes with pixel (0, 0) zero in both
    planes and column 1 zero in the imaginary plane."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(np.float32)
    x[..., :, 0, 0] = 0.0
    x[..., 1, :, 1] = 0.0
    return x


def full_mask(h, w):
    return SamplingMask(h, w, np.ones((h, w), bool))


def empty_mask(h, w):
    return SamplingMask(h, w, np.zeros((h, w), bool))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
