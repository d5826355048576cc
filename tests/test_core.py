import ast
import os

import numpy as np
import pytest

from npgd import checkpoint
from npgd.core import (ComplexImage, dot, fft2, ifft2, magnitude, norm, to_complex,
                       to_planes, write_csv)
from npgd.errors import DimensionError, ShapeError
from npgd.pgm import write_pgm16
from npgd.proxnet import ProximalConfig, build
from npgd.sampling import generate_vardens_mask, save_mask_bits, save_mask_pgm

from conftest import images_with_zero_pixels, interrupt_write, random_complex_image

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "npgd")


def test_fft2_delta_becomes_flat_spectrum():
    x = np.zeros((2, 4, 4), np.float32)
    x[0, 0, 0] = 1.0
    f = fft2(x)
    assert f.shape == (2, 4, 4) and f.dtype == np.float32
    assert np.allclose(f[0], 0.25, atol=1e-6)
    assert np.allclose(f[1], 0.0, atol=1e-6)


def test_ifft2_constant_becomes_delta():
    c = np.stack((np.full((4, 4), 0.25, np.float32), np.zeros((4, 4), np.float32)))
    x = ifft2(c)
    expected = np.zeros((4, 4), np.float32)
    expected[0, 0] = 1.0
    assert np.allclose(x[0], expected, atol=1e-6)
    assert np.allclose(x[1], 0.0, atol=1e-6)


def test_ifft2_zero_is_zero():
    z = ifft2(np.zeros((2, 8, 8), np.float32))
    assert not z.any()


def test_fft_round_trip_all_sizes():
    for i, n in enumerate((4, 8, 16, 32, 64)):
        x = random_complex_image(n, n, seed=i)
        back = ifft2(fft2(x))
        assert np.abs(back[0] - x[0]).max() < 1e-5
        assert np.abs(back[1] - x[1]).max() < 1e-5


def test_fft_round_trip_non_square():
    for i, (h, w) in enumerate(((16, 32), (32, 8), (4, 64))):
        x = random_complex_image(h, w, seed=i)
        f = fft2(x)
        assert f.shape == (2, h, w)
        assert np.abs(ifft2(f) - x).max() < 1e-5
        # a swapped H/W axis would not match numpy's own 2-D transform
        want = np.fft.fft2(x[0] + 1j * x[1], norm="ortho")
        assert np.abs(f[0] - want.real).max() < 1e-5
        assert np.abs(f[1] - want.imag).max() < 1e-5


def test_fft_inverse_other_order():
    x = random_complex_image(16, 16, seed=42)
    back = fft2(ifft2(x))
    assert np.abs(back[0] - x[0]).max() < 1e-5
    assert np.abs(back[1] - x[1]).max() < 1e-5


def test_parseval_bulk():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = np.stack((rng.standard_normal((16, 16)).astype(np.float32),
                      rng.standard_normal((16, 16)).astype(np.float32)))
        nx = norm(x)
        assert abs(norm(fft2(x)) - nx) <= 1e-5 * nx


def test_fft_linearity():
    x = random_complex_image(16, 16, seed=1)
    y = random_complex_image(16, 16, seed=2)
    a = 1.7
    lhs = fft2(x * a + y)
    rhs = fft2(x) * a + fft2(y)
    scale = max(norm(lhs), 1.0)
    assert norm(lhs - rhs) <= 1e-5 * scale


def test_fft_rejects_non_power_of_two():
    bad = np.zeros((2, 6, 8), np.float32)
    with pytest.raises(DimensionError, match="height"):
        fft2(bad)
    with pytest.raises(DimensionError, match="width"):
        ifft2(np.zeros((2, 8, 12), np.float32))


def test_dot_norm_basics():
    assert dot(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == pytest.approx(11.0)
    assert norm(np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_dot_complex_image_stacks_planes():
    a = np.array([[[1.0]], [[2.0]]], np.float32)
    b = np.array([[[3.0]], [[4.0]]], np.float32)
    assert dot(a, b) == pytest.approx(1 * 3 + 2 * 4)
    assert norm(a) == pytest.approx(np.sqrt(5.0))
    assert magnitude(b)[0, 0] == 5.0


def test_shape_mismatches_raise():
    with pytest.raises(ShapeError):
        dot(np.ones(3), np.ones(4))
    for bad in (np.zeros((8, 8), np.float32), np.zeros((3, 8, 8), np.float32)):
        with pytest.raises(ShapeError):
            fft2(bad)
    with pytest.raises(ShapeError):
        ComplexImage(np.zeros((2, 2), np.float32), np.zeros((3, 2), np.float32))


def test_complex_image_converts_layouts():
    x = random_complex_image(4, 8, seed=3)
    img = ComplexImage.from_channels(x)
    assert np.array_equal(img.to_channels(), x)
    z = img.to_complex()
    assert z.dtype == np.complex64 and z.shape == (4, 8)
    assert np.array_equal(ComplexImage.from_complex(z).to_channels(), x)


def test_norm_is_zero_iff_zero():
    z = np.zeros((2, 8, 8), np.float32)
    assert norm(z) == 0.0
    z[1, 3, 3] = 1e-3
    assert norm(z) > 0.0


def test_only_core_names_complex_image():
    # the (2, H, W) array is the one image layout inside the package;
    # ComplexImage only converts to and from complex arrays
    offenders = []
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py") or name in ("core.py", "__init__.py"):
            continue
        with open(os.path.join(PKG, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            ident = (getattr(node, "id", None) or getattr(node, "attr", None)
                     or (node.name if isinstance(node, ast.alias) else None))
            if ident == "ComplexImage":
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def test_fft_stack_matches_each_image():
    # a stack of images is transformed image by image, to the bit
    xs = np.stack([random_complex_image(8, 16, seed=40 + i) for i in range(3)])
    for transform in (fft2, ifft2):
        got = transform(xs)
        assert got.shape == (3, 2, 8, 16) and got.dtype == np.float32
        for i in range(3):
            assert np.array_equal(got[i], transform(xs[i]))
    assert np.array_equal(magnitude(xs)[1], magnitude(xs[1]))


def test_fft_stack_rejects_bad_trailing_shape():
    for transform in (fft2, ifft2):
        with pytest.raises(ShapeError):
            transform(np.zeros((4, 3, 8, 8), np.float32))
        for bad in ((4, 2, 8, 12), (4, 2, 12, 8)):
            with pytest.raises(DimensionError):
                transform(np.zeros(bad, np.float32))


@pytest.mark.parametrize("shape", [(2, 8, 8), (3, 2, 4, 16), (2, 3, 2, 16, 4)])
def test_magnitude_bit_equal_to_reference(shape):
    x = images_with_zero_pixels(shape, seed=len(shape))
    want = np.sqrt(x[..., 0, :, :].astype(np.float64) ** 2
                   + x[..., 1, :, :].astype(np.float64) ** 2)
    got = magnitude(x)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)
    assert not got[..., 0, 0].any()


@pytest.mark.parametrize("shape", [(2, 8, 8), (3, 2, 4, 16)])
def test_fft_bit_equal_to_reference(shape):
    x = images_with_zero_pixels(shape, seed=7)
    z = np.empty(x.shape[:-3] + x.shape[-2:], np.complex64)
    z.real = x[..., 0, :, :]
    z.imag = x[..., 1, :, :]
    assert np.array_equal(to_complex(x), z)
    assert np.array_equal(to_planes(z), x)
    for transform, numpy_fn in ((fft2, np.fft.fft2), (ifft2, np.fft.ifft2)):
        f = numpy_fn(z, norm="ortho")
        assert np.array_equal(transform(x), np.stack((f.real, f.imag), axis=-3))


# ---------------------------------------------------------------------------
# output files


def _checkpoint(seed):
    prox = ProximalConfig(arch="chain", chain_layers=2, chain_kernel=3, feature_maps=4,
                          activation="swish", normalization="none")
    return checkpoint.Checkpoint(prox=prox, unroll_t=2, beta=0.75, loss="l2", alpha=1.0,
                                 params={k: v.value for k, v in build(prox, seed).params.items()},
                                 seed=seed)


def _mask(seed):
    return generate_vardens_mask(16, 16, 0.3, 0.03, 2.5, seed)


# every writer of an output file, as write(path, seed); two seeds write different bytes
WRITERS = {
    "checkpoint": lambda path, seed: checkpoint.save(_checkpoint(seed), path),
    "pgm16": lambda path, seed: write_pgm16(
        path, np.random.default_rng(seed).uniform(-1, 1, (16, 8))),
    "csv": lambda path, seed: write_csv(
        path, ("i", "x"), [(i, seed / (i + 1)) for i in range(40)]),
    "mask-pgm": lambda path, seed: save_mask_pgm(_mask(seed), path),
    "mask-bits": lambda path, seed: save_mask_bits(_mask(seed), path),
}


def _disk_full(fd):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("fault", ["fsync", "interrupt"])
@pytest.mark.parametrize("writer", list(WRITERS))
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer, fault):
    # a full disk at fsync, or Ctrl-C with half the bytes written, leaves the
    # previous file whole, no file where there was none, and no temp file
    write = WRITERS[writer]
    path = tmp_path / "out.dat"
    write(path, 1)
    before = path.read_bytes()
    for target in (path, tmp_path / "new.dat"):
        with monkeypatch.context() as m:
            if fault == "fsync":
                m.setattr(os, "fsync", _disk_full)
            else:
                interrupt_write(m)
            with pytest.raises(OSError if fault == "fsync" else KeyboardInterrupt):
                write(target, 2)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.dat"]


def _disk_writes(tree):
    """(enclosing function, call) of every call in a module's syntax tree
    that writes a file: a write-mode open, os.open, os.replace, os.rename or
    os.fsync, or a write_bytes, write_text or tofile method."""
    found = []

    def kind(call):
        f = call.func
        if isinstance(f, ast.Name) and f.id == "open":
            mode = call.args[1] if len(call.args) > 1 else next(
                (k.value for k in call.keywords if k.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and not set(mode.value) & set("wax+")):
                return "open"
        elif isinstance(f, ast.Attribute):
            if isinstance(f.value, ast.Name) and f.value.id == "os" \
                    and f.attr in ("replace", "rename", "fsync", "open"):
                return f"os.{f.attr}"
            if f.attr in ("write_bytes", "write_text", "tofile"):
                return f.attr
        return None

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            call = isinstance(child, ast.Call) and kind(child)
            if call:
                found.append((where, call))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else where)

    visit(tree, "<module>")
    return found


def test_only_core_write_file_writes_to_disk():
    # every output file goes through the one atomic writer; a new writer that
    # opens, syncs or renames a file itself would bypass it
    writes = {}
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name)) as fh:
                for where, call in _disk_writes(ast.parse(fh.read(), name)):
                    writes.setdefault(f"{name[:-3]}.{where}", set()).add(call)
    assert writes == {"core.write_file": {"open", "os.fsync", "os.replace"}}
