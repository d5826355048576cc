import numpy as np
import pytest

from npgd.core import magnitude
from npgd.errors import ShapeError, UndefinedMetricError
from npgd.metrics import nrmse, snr_db, ssim

from conftest import random_complex_image


def test_snr_identical_hits_cap():
    x = random_complex_image(16, 16, seed=1)
    assert snr_db(x, x) == pytest.approx(100.0)


def test_snr_zero_estimate_is_zero_db():
    x = random_complex_image(16, 16, seed=2)
    assert snr_db(np.zeros((2, 16, 16), np.float32), x) == pytest.approx(0.0, abs=1e-5)


def test_snr_tenth_error_is_twenty_db():
    x = random_complex_image(16, 16, seed=3)
    err = random_complex_image(16, 16, seed=4)
    from npgd.core import norm
    scaled = err * (0.1 * norm(x) / norm(err))
    assert snr_db(x + scaled, x) == pytest.approx(20.0, abs=1e-3)


def test_snr_zero_reference_undefined():
    with pytest.raises(UndefinedMetricError):
        snr_db(random_complex_image(8, 8), np.zeros((2, 8, 8), np.float32))


def test_nrmse_trivials():
    x = random_complex_image(16, 16, seed=5)
    assert nrmse(x, x) == 0.0
    assert nrmse(np.zeros((2, 16, 16), np.float32), x) == pytest.approx(1.0, abs=1e-6)
    assert nrmse(x * 2.0, x) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(UndefinedMetricError):
        nrmse(x, np.zeros((2, 16, 16), np.float32))


def test_snr_nrmse_relation():
    rng = np.random.default_rng(6)
    for seed in range(10):
        x = random_complex_image(16, 16, seed=100 + seed)
        noise = random_complex_image(16, 16, seed=200 + seed)
        xhat = x + noise * float(rng.uniform(0.01, 0.5))
        assert snr_db(xhat, x) == pytest.approx(-20 * np.log10(nrmse(xhat, x)),
                                                abs=1e-6)


def test_ssim_identical_is_one():
    x = magnitude(random_complex_image(16, 16, seed=7))
    assert ssim(x, x) == pytest.approx(1.0, abs=1e-7)


def test_ssim_constant_images_analytic():
    # zero variances: formula reduces to (2 c c' + C1) / (c^2 + c'^2 + C1)
    c, cp, data_range = 0.6, 0.4, 1.0
    a = np.full((16, 16), c, np.float64)
    b = np.full((16, 16), cp, np.float64)
    c1 = (0.01 * data_range) ** 2
    expected = (2 * c * cp + c1) / (c * c + cp * cp + c1)
    assert ssim(a, b, data_range=data_range) == pytest.approx(expected, rel=1e-9)


def test_ssim_zero_range_undefined():
    a = np.full((16, 16), 0.5, np.float64)
    with pytest.raises(UndefinedMetricError):
        ssim(a, a)


def test_ssim_penalizes_distortion():
    x = random_complex_image(16, 16, seed=8)
    y = np.stack((-x[0] + float(magnitude(x).max()), x[1]))
    assert ssim(magnitude(y), magnitude(x)) < 1.0


def test_ssim_symmetric_when_ranges_match():
    rng = np.random.default_rng(9)
    a = rng.uniform(0.0, 1.0, (16, 16))
    b = rng.uniform(0.0, 1.0, (16, 16))
    r = max(a.max() - a.min(), b.max() - b.min())
    assert ssim(a, b, data_range=r) == pytest.approx(ssim(b, a, data_range=r), rel=1e-9)


def test_ssim_shape_checks():
    with pytest.raises(ShapeError):
        ssim(np.zeros((8, 8)), np.zeros((8, 9)))
    x = random_complex_image(16, 16, seed=10)
    with pytest.raises(ShapeError):
        ssim(x, x)  # a (2, H, W) image, not a real plane
