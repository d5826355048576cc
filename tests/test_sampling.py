import struct

import numpy as np
import pytest

from npgd.errors import CorruptionError, DimensionError, FormatError, ParameterError
from npgd.rng import Xorshift64Star
from npgd.sampling import (BITMASK_MAGIC, generate_vardens_mask, load_mask_bits,
                           load_mask_pgm, save_mask_bits, save_mask_pgm)


def test_rate_one_gives_full_mask():
    mask = generate_vardens_mask(16, 16, 1.0, 0.1, 3.0, 1)
    assert mask.bits.all()


def test_exact_popcount_64x64_rate_02():
    mask = generate_vardens_mask(64, 64, 0.2, 0.04, 3.0, 1)
    assert mask.popcount == 819  # round(0.2 * 4096)


@pytest.mark.parametrize("rate", [0.1, 0.25, 0.5, 0.9])
@pytest.mark.parametrize("cf", [0.0, 0.02, 0.05])
def test_popcount_exact_on_grid(rate, cf):
    if cf >= rate:
        pytest.skip("invalid combination by contract")
    mask = generate_vardens_mask(32, 32, rate, cf, 2.0, 3)
    assert mask.popcount == int(np.floor(rate * 1024 + 0.5))


def test_center_square_fully_sampled():
    mask = generate_vardens_mask(64, 64, 0.3, 0.04, 3.0, 5)
    side = int(np.floor(np.sqrt(0.04 * 4096) + 0.5))
    r0 = (64 - side) // 2
    assert mask.bits[r0:r0 + side, r0:r0 + side].all()


def test_same_seed_identical_different_seed_differs():
    a = generate_vardens_mask(32, 32, 0.3, 0.03, 3.0, 7)
    b = generate_vardens_mask(32, 32, 0.3, 0.03, 3.0, 7)
    c = generate_vardens_mask(32, 32, 0.3, 0.03, 3.0, 8)
    assert np.array_equal(a.bits, b.bits)
    assert not np.array_equal(a.bits, c.bits)
    side = int(np.floor(np.sqrt(0.03 * 1024) + 0.5))
    r0 = (32 - side) // 2
    center = np.zeros((32, 32), bool)
    center[r0:r0 + side, r0:r0 + side] = True
    # differences are confined to the stochastic region outside the center
    assert not (a.bits ^ c.bits)[center].any()
    assert (a.bits ^ c.bits)[~center].any()


def test_density_monotone_in_radius():
    h = w = 32
    fu = np.arange(h)[:, None] - h // 2
    fv = np.arange(w)[None, :] - w // 2
    radius = np.sqrt(fu ** 2 + fv ** 2) / np.sqrt(2 * 16.0 ** 2)
    edges = [0.15, 0.35, 0.55, 0.75, 0.95]
    counts = np.zeros(len(edges) - 1)
    totals = np.zeros(len(edges) - 1)
    for seed in range(200):
        mask = generate_vardens_mask(h, w, 0.25, 0.02, 3.0, seed)
        for i in range(len(edges) - 1):
            sel = (radius >= edges[i]) & (radius < edges[i + 1])
            counts[i] += mask.bits[sel].sum()
            totals[i] += sel.sum()
    freq = counts / totals
    for i in range(len(freq) - 1):
        assert freq[i] >= freq[i + 1] - 0.01, freq


def test_parameter_errors():
    with pytest.raises(ParameterError):
        generate_vardens_mask(16, 16, 0.0, 0.0, 3.0, 1)
    with pytest.raises(ParameterError):
        generate_vardens_mask(16, 16, 1.1, 0.0, 3.0, 1)
    with pytest.raises(ParameterError):
        generate_vardens_mask(16, 16, 0.2, 0.2, 3.0, 1)
    with pytest.raises(DimensionError):
        generate_vardens_mask(12, 16, 0.2, 0.02, 3.0, 1)
    # rounding can push the center square past the total budget
    with pytest.raises(ParameterError):
        generate_vardens_mask(64, 64, 0.04, 0.039, 3.0, 1)


def test_bitmask_round_trip(tmp_path):
    mask = generate_vardens_mask(32, 32, 0.3, 0.03, 2.5, 9)
    path = tmp_path / "m.bits"
    save_mask_bits(mask, path)
    loaded = load_mask_bits(path)
    assert np.array_equal(loaded.bits, mask.bits)
    assert (loaded.height, loaded.width) == (32, 32)


def test_bitmask_format_errors(tmp_path):
    path = tmp_path / "m.bits"
    mask = generate_vardens_mask(16, 16, 0.3, 0.03, 2.5, 9)
    save_mask_bits(mask, path)
    blob = path.read_bytes()
    (tmp_path / "magic.bits").write_bytes(b"XXXXXXXX" + blob[8:])
    with pytest.raises(FormatError):
        load_mask_bits(tmp_path / "magic.bits")
    (tmp_path / "trunc.bits").write_bytes(blob[:-3])
    with pytest.raises(CorruptionError):
        load_mask_bits(tmp_path / "trunc.bits")


@pytest.mark.parametrize("height, width", [(0, 16), (16, 0), (0, 0)])
def test_bitmask_empty_size_rejected(tmp_path, height, width):
    path = tmp_path / "empty.bits"
    path.write_bytes(BITMASK_MAGIC + struct.pack("<II", height, width))
    with pytest.raises(FormatError, match="empty"):
        load_mask_bits(path)


def test_mask_pgm_contents(tmp_path):
    mask = generate_vardens_mask(16, 16, 0.5, 0.05, 2.0, 4)
    path = tmp_path / "m.pgm"
    save_mask_pgm(mask, path)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n16 16\n255\n")
    raster = np.frombuffer(blob[len(b"P5\n16 16\n255\n"):], np.uint8).reshape(16, 16)
    assert np.array_equal(raster == 255, mask.bits)
    assert set(np.unique(raster)) <= {0, 255}


def test_mask_pgm_round_trip(tmp_path):
    mask = generate_vardens_mask(16, 16, 0.5, 0.05, 2.0, 4)
    path = tmp_path / "m.pgm"
    save_mask_pgm(mask, path)
    loaded = load_mask_pgm(path)
    assert np.array_equal(loaded.bits, mask.bits)
    assert loaded.popcount == mask.popcount


def test_xorshift_stream_is_reproducible():
    a = Xorshift64Star(42)
    b = Xorshift64Star(42)
    seq_a = [a.next_u64() for _ in range(5)]
    seq_b = [b.next_u64() for _ in range(5)]
    assert seq_a == seq_b
    assert all(0 <= u < 2 ** 64 for u in seq_a)
    u = Xorshift64Star(0).uniform()
    assert 0.0 <= u < 1.0
