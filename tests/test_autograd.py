"""Finite-difference oracles for every autodiff primitive.

Each check composes the primitive with a fixed quadratic readout
loss(theta) = sum((op(theta) + c)^2), runs one taped backward for the
analytic gradient, and compares against central differences of the same
scalar evaluated without a tape. Norm-wise relative error is the yardstick.
"""

import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npgd import autograd as ag
from npgd.autograd import Tape, Variable, backward
from npgd.errors import ContractError, ParameterError, ShapeError
from npgd.operators import MaskedFourierOperator
from npgd.phantoms import generate_dataset
from npgd.proxnet import ProximalConfig, build
from npgd.sampling import generate_vardens_mask
from npgd.unroll import loss_p1, unrolled_forward


def _loss_through(op_fn, cot, variables, tape):
    out = op_fn(variables, tape)
    return ag.sum_squares(ag.add(out, Variable(cot), tape), tape)


def gradcheck(op_fn, arrays, out_shape, h=1e-3, tol=1e-3, seed=0):
    """Analytic vs central-difference gradients for op_fn(variables)."""
    rng = np.random.default_rng(seed)
    cot = rng.standard_normal(out_shape).astype(np.float32)

    def loss_value(arrs):
        variables = [Variable(a) for a in arrs]
        return float(_loss_through(op_fn, cot, variables, None).value)

    variables = [Variable(a.copy()) for a in arrays]
    tape = Tape()
    loss = _loss_through(op_fn, cot, variables, tape)
    backward(tape, loss)

    for vi, base in enumerate(arrays):
        analytic = variables[vi].grad_or_zeros().astype(np.float64)
        fd = np.zeros(base.shape, np.float64).ravel()
        flat_base = base.ravel()
        for idx in range(flat_base.size):
            bumped = [a.copy() for a in arrays]
            bumped[vi].ravel()[idx] = flat_base[idx] + h
            fp = loss_value(bumped)
            bumped[vi].ravel()[idx] = flat_base[idx] - h
            fm = loss_value(bumped)
            fd[idx] = (fp - fm) / (2.0 * h)
        fd = fd.reshape(base.shape)
        err = np.linalg.norm(analytic - fd)
        ref = max(np.linalg.norm(fd), 1e-6)
        assert err / ref < tol, f"input {vi}: rel grad error {err / ref:.2e}"


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_one_pixel():
    out = ag.conv2d(Variable(np.array([[[2.0]]], np.float32)),
                    Variable(np.array([[[[3.0]]]], np.float32)),
                    Variable(np.array([1.0], np.float32)))
    assert out.value.shape == (1, 1, 1)
    assert out.value[0, 0, 0] == pytest.approx(7.0)


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 3, 3)).astype(np.float32)
    k = np.zeros((1, 1, 3, 3), np.float32)
    k[0, 0, 1, 1] = 1.0
    out = ag.conv2d(Variable(x), Variable(k), Variable(np.zeros(1, np.float32)))
    assert np.array_equal(out.value, x)


def test_conv2d_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 8, 8)).astype(np.float32)
    k = (rng.standard_normal((4, 2, 3, 3)) * 0.5).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    gradcheck(lambda v, t: ag.conv2d(v[0], v[1], v[2], tape=t),
              [x, k, b], out_shape=(4, 8, 8), h=0.05, tol=1e-3)


def test_conv2d_contract_errors():
    x = Variable(np.zeros((3, 4, 4), np.float32))
    k_bad_channels = Variable(np.zeros((2, 2, 3, 3), np.float32))
    with pytest.raises(ShapeError):
        ag.conv2d(x, k_bad_channels, Variable(np.zeros(2, np.float32)))
    with pytest.raises(ParameterError):
        ag.conv2d(Variable(np.zeros((2, 4, 4), np.float32)),
                  Variable(np.zeros((2, 2, 2, 2), np.float32)),
                  Variable(np.zeros(2, np.float32)))


def _closure_arrays(fn, seen=None):
    """Every ndarray a function's closure keeps alive, through nested closures."""
    seen = set() if seen is None else seen
    if id(fn) in seen:
        return []
    seen.add(id(fn))
    found = []
    for cell in fn.__closure__ or ():
        try:
            obj = cell.cell_contents
        except ValueError:  # empty cell
            continue
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif callable(obj) and hasattr(obj, "__closure__"):
            found += _closure_arrays(obj, seen)
    return found


@pytest.mark.parametrize("c_in, c_out, k",
                         [(4, 4, 3), (2, 8, 3), (4, 2, 5), (2, 4, 5), (4, 4, 1)])
def test_conv2d_tape_keeps_no_column_matrix(c_in, c_out, k):
    # the tape holds the input, not its c_in*k*k x H*(W+2p) column matrix,
    # the flat-padded planes or the widened g of the scatter (2, 4, 5)
    rng = np.random.default_rng(11)
    x = Variable(rng.standard_normal((c_in, 9, 12)).astype(np.float32))
    kernel = Variable(rng.standard_normal((c_out, c_in, k, k)).astype(np.float32))
    bias = Variable(rng.standard_normal(c_out).astype(np.float32))
    tape = Tape()
    out = ag.conv2d(x, kernel, bias, tape)
    (_, pulls), = tape._records
    limit = max(x.value.nbytes, out.value.nbytes)
    for _, vjp in pulls:
        for arr in _closure_arrays(vjp):
            assert arr.nbytes <= limit, (arr.shape, x.value.shape, out.value.shape)


def test_conv2d_records_x_kernel_bias_pulls_in_order():
    # perfbench's tracer names a conv's pulls by position: x, kernel, bias
    rng = np.random.default_rng(12)
    x = Variable(rng.standard_normal((2, 5, 6)).astype(np.float32))
    kernel = Variable(rng.standard_normal((3, 2, 3, 3)).astype(np.float32))
    bias = Variable(rng.standard_normal(3).astype(np.float32))
    tape = Tape()
    out = ag.conv2d(x, kernel, bias, tape)
    (recorded, pulls), = tape._records
    assert recorded is out.node
    assert len(pulls) == 3
    g = rng.standard_normal(out.value.shape).astype(np.float32)
    for (node, vjp), var in zip(pulls, (x, kernel, bias)):
        assert node is var.node
        assert vjp(g).shape == var.value.shape


def _strided_im2col(v, k):
    """The (C*k*k, H*W) column matrix as one as_strided view of the padded input."""
    c, h, w = v.shape
    p = (k - 1) // 2
    xp = np.zeros((c, h + 2 * p, w + 2 * p), np.float32)
    xp[:, p:p + h, p:p + w] = v
    sc, sh, sw = xp.strides
    win = np.lib.stride_tricks.as_strided(xp, (c, k, k, h, w), (sc, sh, sw, sh, sw),
                                          writeable=False)
    return np.ascontiguousarray(win).reshape(c * k * k, h * w)


def _looped_col2im(cols, c, h, w, k):
    """Adjoint of _strided_im2col: one slice add per tap, taps in (i, j) order."""
    p = (k - 1) // 2
    out = np.zeros((c, h + 2 * p, w + 2 * p), np.float32)
    cols = cols.reshape(c, k, k, h, w)
    for i in range(k):
        for j in range(k):
            out[:, i:i + h, j:j + w] += cols[:, i, j]
    return out[:, p:p + h, p:p + w]


def _conv2d_strided_oracle(x, kv, b, g):
    """Forward and input VJP through the (C*k*k, H*W) column matrix."""
    c_out, c_in, k, _ = kv.shape
    _, h, w = x.shape
    w2 = kv.reshape(c_out, -1)
    out = (w2 @ _strided_im2col(x, k) + b[:, None]).reshape(c_out, h, w)
    if c_in >= c_out:
        wf = kv[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1)
        return out, (wf @ _strided_im2col(g, k)).reshape(c_in, h, w)
    return out, _looped_col2im(w2.T @ g.reshape(c_out, -1), c_in, h, w, k)


def _taped_conv(x, kv, b):
    variables = [Variable(a) for a in (x, kv, b)]
    tape = Tape()
    out = ag.conv2d(*variables, tape)
    (_, pulls), = tape._records
    return out.value, pulls[0][1], pulls[1][1]


def _random_conv(c_in, c_out, k, size):
    """x, kernel, bias and an output cotangent g, seeded by the shape."""
    rng = np.random.default_rng(c_in * 100 + c_out * 10 + k)
    return (rng.standard_normal((c_in, size, size)).astype(np.float32),
            rng.standard_normal((c_out, c_in, k, k)).astype(np.float32),
            rng.standard_normal(c_out).astype(np.float32),
            rng.standard_normal((c_out, size, size)).astype(np.float32))


# (c_in, c_out, k, size) run in several row bands: the resnet's 32->2 tail,
# where the small-GEMM floor sets the bands, and k = 5, 7 layers with rows
# that do not split evenly, so some bands are a row shorter than others
_BAND_SHAPES = [(32, 2, 3, 64), (16, 32, 5, 40), (32, 32, 5, 40), (32, 16, 7, 24),
                (32, 32, 7, 24)]


@pytest.mark.parametrize("c_in, c_out, k, size", [
    (32, 32, 3, 64), (2, 32, 3, 64), (2, 4, 5, 32), (4, 4, 5, 32), (4, 2, 5, 32),
    *_BAND_SHAPES])
def test_conv2d_flat_lowering_matches_strided_oracle_bitwise(c_in, c_out, k, size):
    # the layer shapes of the benchmark's resnet and chain, then multi-band
    # ones: forward and input VJP keep K = c*k*k, so neither dropping the junk
    # columns nor splitting the rows into bands changes a bit
    x, kv, b, g = _random_conv(c_in, c_out, k, size)
    out, vjp_x, _ = _taped_conv(x, kv, b)
    ref_out, ref_dx = _conv2d_strided_oracle(x, kv, b, g)
    assert np.array_equal(out, ref_out)
    assert np.array_equal(vjp_x(g), ref_dx)


def _band_gemms(monkeypatch, fn):
    """(M, K, N) of every band GEMM, the np.matmul(..., out=) calls, of fn()."""
    gemms, matmul = [], np.matmul

    def spy(a, b, out):
        gemms.append((a.shape[0], b.shape[0], b.shape[1]))
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    fn()
    monkeypatch.setattr(np, "matmul", matmul)
    return gemms


@pytest.mark.parametrize("c_in, c_out, k, size", _BAND_SHAPES)
def test_band_shapes_split_rows_evenly_above_the_small_gemm_size(monkeypatch, c_in,
                                                                 c_out, k, size):
    # the forward and the c_in >= c_out input VJP run several bands that cover
    # the rows once, differ by at most a row, and each multiply more than
    # SMALL_GEMM times, where OpenBLAS rounds the same way as for the whole product
    x, kv, b, g = _random_conv(c_in, c_out, k, size)
    _, vjp_x, _ = _taped_conv(x, kv, b)
    forward = _band_gemms(monkeypatch, lambda: _taped_conv(x, kv, b))
    backward_x = _band_gemms(monkeypatch, lambda: vjp_x(g))
    # the tail's input VJP correlates a 2-channel g, whose columns fit in one band
    assert (backward_x != []) == (c_in >= c_out > 2)
    for gemms in [forward, backward_x] if backward_x else [forward]:
        heights = [n // (size + k - 1) for _, _, n in gemms]
        assert len(heights) > 1 and sum(heights) == size
        assert max(heights) - min(heights) <= 1
        assert (max(heights) > min(heights)) == ((c_in, c_out) != (32, 2))
        assert all(m * kk * n > ag.SMALL_GEMM for m, kk, n in gemms)


def test_single_band_convs_run_no_band_gemm(monkeypatch):
    # the benchmark's chain layers and resnet head fit in one band, which
    # takes the plain product, not the banded path
    for c_in, c_out, k, size in [(2, 32, 3, 64), (2, 4, 5, 32), (4, 4, 5, 32), (4, 2, 5, 32)]:
        x, kv, b, g = _random_conv(c_in, c_out, k, size)
        _, vjp_x, _ = _taped_conv(x, kv, b)
        assert _band_gemms(monkeypatch, lambda: (_taped_conv(x, kv, b), vjp_x(g))) == []


def test_conv2d_bands_are_bit_equal_across_python_threads():
    # _pmap runs conv2d from several threads at once; no band buffer is shared
    cases = [_random_conv(*shape) for shape in [(32, 32, 3, 64), (32, 32, 5, 40)]] * 3

    def run(case):
        x, kv, b, g = case
        out, vjp_x, vjp_kernel = _taped_conv(x, kv, b)
        return out, vjp_x(g), vjp_kernel(g)

    serial = [run(case) for case in cases]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(run, cases))
    for want, got in zip(serial, threaded):
        assert all(np.array_equal(a, b) for a, b in zip(want, got))


def test_conv2d_passes_allocate_less_than_the_column_matrix():
    # a taped 32->32 3x3 64^2 forward and each of its VJPs peak below the
    # 4.87 MB column matrix C*k*k x H*(W+2p) that one GEMM over all rows needs
    x, kv, b, g = _random_conv(32, 32, 3, 64)
    columns = 32 * 9 * 64 * 66 * 4
    tracemalloc.start()
    try:
        _, vjp_x, vjp_kernel = _taped_conv(x, kv, b)
        peaks = [tracemalloc.get_traced_memory()[1]]
        for vjp in (vjp_x, vjp_kernel):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            vjp(g)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert max(peaks) < columns, peaks


# (c_in, c_out, k, size): the benchmark's resnet and chain layers, 1x1 ones
# included, then the multi-band shapes; in the 3x3 tail to 2 maps the
# small-GEMM floor, not the band bytes, sets the channel bands
_KERNEL_VJP_SHAPES = [(32, 32, 3, 64), (2, 32, 3, 64), (32, 32, 1, 64), (32, 2, 1, 64),
                      (2, 4, 5, 32), (4, 4, 5, 32), (4, 2, 5, 32), *_BAND_SHAPES]


@pytest.mark.parametrize("c_in, c_out, k, size", _KERNEL_VJP_SHAPES)
def test_kernel_vjp_is_bit_equal_to_the_single_gemm(c_in, c_out, k, size):
    # bands of input channels keep each entry's whole H*(W+2p) dot product
    x, kv, b, g = _random_conv(c_in, c_out, k, size)
    _, _, vjp_kernel = _taped_conv(x, kv, b)
    single = (ag._im2col(x, k).reshape(c_in * k * k, -1) @ ag._widen(g, k).T).T
    assert np.array_equal(vjp_kernel(g), single.reshape(kv.shape))


@pytest.mark.parametrize("c_in, c_out, k, size", _KERNEL_VJP_SHAPES)
def test_kernel_vjp_bands_stay_above_the_small_gemm_size(monkeypatch, c_in, c_out, k, size):
    # band GEMMs, if any, cover the C_in*k*k column rows once, and none
    # multiplies SMALL_GEMM times or fewer unless the whole product does;
    # a 1x1 layer's input is its own column matrix, so it takes one product
    x, kv, b, g = _random_conv(c_in, c_out, k, size)
    _, _, vjp_kernel = _taped_conv(x, kv, b)
    gemms = _band_gemms(monkeypatch, lambda: vjp_kernel(g))
    whole = c_in * k * k * size * (size + k - 1) * c_out
    assert not gemms or sum(m for m, _, _ in gemms) == c_in * k * k
    assert all(m * kk * n > ag.SMALL_GEMM for m, kk, n in gemms) or whole <= ag.SMALL_GEMM
    assert k > 1 or len(gemms) <= 1


_ADJOINT_SHAPES = [  # (c_in, c_out, k, h, w): H != W, H or W below k, both input VJPs
    (3, 2, 3, 5, 8), (2, 3, 3, 7, 4), (2, 5, 5, 3, 9), (4, 2, 5, 9, 2),
    (3, 4, 7, 6, 11), (5, 2, 7, 10, 5), (1, 1, 7, 1, 1), (2, 3, 5, 1, 6),
    (3, 2, 1, 4, 6)]


def test_adjoint_shapes_cover_both_input_vjps():
    assert {c_in >= c_out for c_in, c_out, k, _, _ in _ADJOINT_SHAPES if k > 1} \
        == {True, False}


@pytest.mark.parametrize("c_in, c_out, k, h, w", _ADJOINT_SHAPES)
def test_conv2d_vjps_are_adjoint(c_in, c_out, k, h, w):
    # <conv(x; K), g> = <x, vjp_x(g)> = <K, vjp_kernel(g)> with zero bias;
    # a junk column left in or a wrong widen reads another pixel, off by O(1)
    rng = np.random.default_rng(h * 100 + w * 10 + k)
    x = rng.standard_normal((c_in, h, w)).astype(np.float32)
    kv = rng.standard_normal((c_out, c_in, k, k)).astype(np.float32)
    zero = np.zeros(c_out, np.float32)
    g = rng.standard_normal((c_out, h, w)).astype(np.float32)
    out, vjp_x, vjp_kernel = _taped_conv(x, kv, zero)
    abs_out = ag.conv2d(Variable(np.abs(x)), Variable(np.abs(kv)), Variable(zero)).value

    def dot(a, b):
        return float(np.sum(a.astype(np.float64) * b.astype(np.float64)))

    # float32 sums of at most n terms on each side: n * eps * sum |terms|
    n = max(c_in, c_out) * k * k + h * (w + k)
    tol = 2 * n * np.finfo(np.float32).eps * dot(abs_out, np.abs(g))
    lhs = dot(out, g)
    assert abs(lhs - dot(x, vjp_x(g))) <= tol
    assert abs(lhs - dot(kv, vjp_kernel(g))) <= tol


# ---------------------------------------------------------------------------
# activations


def test_relu_values():
    out = ag.relu(Variable(np.array([-1.0, 0.0, 2.0], np.float32)))
    assert np.array_equal(out.value, np.array([0.0, 0.0, 2.0], np.float32))
    # the gate is where(v > 0, v, 0) to the byte: -0.0 and NaN map to +0.0
    v = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, -1.0, 2.0, -np.nan], np.float32)
    tape = Tape()
    out = ag.relu(Variable(v), tape)
    assert out.value.tobytes() == np.where(v > 0, v, np.float32(0)).tobytes()
    (_, pulls), = tape._records
    (_, vjp), = pulls
    g = np.array([3.0, -3.0, 5.0, 7.0, -7.0, 11.0, -13.0, 17.0], np.float32)
    dv = vjp(g)
    closed = (v <= 0) | np.isnan(v)
    assert np.all(dv[closed] == 0)
    assert np.array_equal(dv[~closed], g[~closed])


def test_swish_matches_sigmoid_gate():
    z = np.array([-3.0, -0.5, 0.5, 3.0], np.float32)
    out = ag.swish(Variable(z))
    assert out.value[np.abs(z) < 1e-12].size == 0
    assert np.allclose(out.value / z, ag.sigmoid(z), atol=1e-6)
    assert ag.swish(Variable(np.zeros(1, np.float32))).value[0] == 0.0


def test_taped_relu_keeps_one_bit_per_element_and_not_its_input():
    # the pullback holds the packed mask, at most ceil(n / 8) bytes, and
    # returns g * (v > 0) to the byte; 32*64*64 is a whole number of bytes,
    # 3*5*7 is not
    rng = np.random.default_rng(15)
    for shape in [(32, 64, 64), (3, 5, 7)]:
        x = Variable(rng.standard_normal(shape).astype(np.float32))
        v, value = x.value.copy(), weakref.ref(x.value)
        tape = Tape()
        ag.relu(x, tape)
        (_, ((_, vjp),)), = tape._records
        assert sum(a.nbytes for a in _closure_arrays(vjp)) <= -(-v.size // 8)
        del x
        assert value() is None
        g = rng.standard_normal(shape).astype(np.float32)
        assert vjp(g).tobytes() == (g * (v > 0)).tobytes()


def test_taped_swish_keeps_one_output_sized_array():
    # the slope d + v*d*(1 - d) is taken in the forward, in the same order
    rng = np.random.default_rng(16)
    v = rng.standard_normal((4, 9, 11)).astype(np.float32)
    tape = Tape()
    ag.swish(Variable(v), tape)
    (_, ((_, vjp),)), = tape._records
    kept = _closure_arrays(vjp)
    assert [a.shape for a in kept] == [v.shape]
    d = ag.sigmoid(v)
    g = rng.standard_normal(v.shape).astype(np.float32)
    assert vjp(g).tobytes() == (g * (d + v * d * (np.float32(1) - d))).tobytes()


def _two_branch_sigmoid(z):
    """The logistic by boolean gathers: exp of -z where z >= 0, of z elsewhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bitwise_matches_two_branch_form_without_warnings():
    rng = np.random.default_rng(13)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 88.8, -88.8, 104.0, -104.0,
                        1e-45, -1e-45, 3.4e38, -3.4e38], np.float32)
    for z in (special, (rng.standard_normal((2, 32, 32)) * 20).astype(np.float32)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = ag.sigmoid(z)
        assert s.dtype == np.float32
        assert s.tobytes() == _two_branch_sigmoid(z).tobytes()


def _away_from_kinks(rng, shape, margin=2e-2):
    z = rng.standard_normal(shape).astype(np.float32)
    z = z + np.sign(z) * margin
    z[z == 0] = margin
    return z


def test_relu_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    z = _away_from_kinks(rng, (40,))
    gradcheck(lambda v, t: ag.relu(v[0], t), [z], out_shape=(40,), h=5e-3, tol=1e-3)


def test_swish_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((40,)).astype(np.float32)
    gradcheck(lambda v, t: ag.swish(v[0], t), [z], out_shape=(40,), h=5e-3, tol=1e-3)


def test_instance_norm_gradients():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 5, 5)).astype(np.float32)
    gamma = rng.uniform(0.5, 1.5, 3).astype(np.float32)
    beta = rng.standard_normal(3).astype(np.float32)
    gradcheck(lambda v, t: ag.instance_norm(v[0], v[1], v[2], tape=t),
              [x, gamma, beta], out_shape=(3, 5, 5), h=3e-3, tol=1e-3, seed=1)


def _instance_norm_reference(v, gamma, beta, g, eps=1e-5):
    """instance_norm's forward and (x, gamma, beta) VJPs written as plain
    separate passes; the taped op must match them bit for bit."""
    mean = v.mean(axis=(1, 2), keepdims=True)
    var = v.var(axis=(1, 2), keepdims=True)
    inv_std = (1.0 / np.sqrt(var + np.float32(eps))).astype(np.float32)
    xhat = (v - mean) * inv_std
    out = gamma[:, None, None] * xhat + beta[:, None, None]
    n = v.shape[1] * v.shape[2]
    dxhat = g * gamma[:, None, None]
    sum_d = dxhat.sum(axis=(1, 2), keepdims=True)
    sum_dx = (dxhat * xhat).sum(axis=(1, 2), keepdims=True)
    gx = (inv_std / n) * (n * dxhat - sum_d - xhat * sum_dx)
    return out, gx, (g * xhat).sum(axis=(1, 2)), g.sum(axis=(1, 2))


@pytest.mark.parametrize("shape", [(4, 6, 10), (3, 7, 5), (32, 24, 40)])
def test_instance_norm_bit_equal_to_reference(shape):
    rng = np.random.default_rng(sum(shape))
    v = (rng.standard_normal(shape) * 3 + 1.5).astype(np.float32)
    v[1] = np.float32(0.7)  # a constant channel: zero variance, inv_std = 1/sqrt(eps)
    gamma = rng.uniform(0.5, 1.5, shape[0]).astype(np.float32)
    beta = rng.standard_normal(shape[0]).astype(np.float32)
    g = rng.standard_normal(shape).astype(np.float32)
    tape = Tape()
    out = ag.instance_norm(Variable(v), Variable(gamma), Variable(beta), tape=tape)
    (_, pulls), = tape._records
    got = [out.value] + [vjp(g) for _, vjp in pulls]
    for name, a, b in zip(("forward", "vjp_x", "vjp_gamma", "vjp_beta"), got,
                          _instance_norm_reference(v, gamma, beta, g)):
        assert a.dtype == b.dtype == np.float32 and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


# ---------------------------------------------------------------------------
# losses and elementwise


def test_mse_loss_values_and_gradient():
    assert float(ag.mse_loss(Variable(np.array([1.0, 2.0], np.float32)),
                             np.array([1.0, 2.0], np.float32)).value) == 0.0
    tape = Tape()
    a = Variable(np.array([3.0], np.float32))
    loss = ag.mse_loss(a, np.array([1.0], np.float32), tape)
    assert float(loss.value) == pytest.approx(4.0)
    backward(tape, loss)
    assert a.grad[0] == pytest.approx(4.0)  # 2 (a - b)


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((12,)).astype(np.float32)
    target = rng.standard_normal((12,)).astype(np.float32)

    for fn in (lambda v, t: ag.mse_loss(v[0], target, t),
               lambda v, t: ag.sum_squares(v[0], t),
               lambda v, t: ag.smooth_l1_loss(v[0], target, tape=t)):
        variables = [Variable(a.copy())]
        tape = Tape()
        loss = fn(variables, tape)
        backward(tape, loss)
        analytic = variables[0].grad.astype(np.float64)
        h = 1e-3
        fd = np.zeros(12)
        for i in range(12):
            ap = a.copy(); ap[i] += h
            am = a.copy(); am[i] -= h
            fd[i] = (float(fn([Variable(ap)], None).value)
                     - float(fn([Variable(am)], None).value)) / (2 * h)
        err = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-6)
        assert err < 1e-3


def test_add_scale_mul_shapes_and_values():
    a = Variable(np.array([1.0, 2.0], np.float32))
    b = Variable(np.array([3.0, 4.0], np.float32))
    assert np.allclose(ag.add(a, b).value, [4.0, 6.0])
    assert np.allclose(ag.scale(a, 2.0).value, [2.0, 4.0])
    assert np.allclose(ag.mul(a, b).value, [3.0, 8.0])
    with pytest.raises(ShapeError):
        ag.add(a, Variable(np.zeros(3, np.float32)))
    with pytest.raises(ShapeError):
        ag.mul(a, Variable(np.zeros(3, np.float32)))


# ---------------------------------------------------------------------------
# backward semantics


def test_add_parents_get_separate_grads():
    # add's VJP hands g to one parent and a copy to the other; later
    # contributions to either parent must not reach the other
    rng = np.random.default_rng(12)
    a64 = rng.standard_normal((3, 4))
    b64 = rng.standard_normal((3, 4))
    a, b = Variable(a64), Variable(b64)
    tape = Tape()
    p = ag.mul(a, b, tape)        # reached last in the reverse sweep
    s = ag.add(a, b, tape)        # first contribution to both a and b
    q = ag.add(s, p, tape)
    loss = ag.sum_squares(q, tape)
    backward(tape, loss)
    a64, b64 = a.value.astype(np.float64), b.value.astype(np.float64)
    q64 = a64 + b64 + a64 * b64
    np.testing.assert_allclose(a.grad, 2 * q64 * (1 + b64), rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(b.grad, 2 * q64 * (1 + a64), rtol=1e-5, atol=1e-6)
    assert all(var.grad is None for var in (p, s, q, loss))  # released by backward
    assert not np.shares_memory(a.grad, b.grad)


def test_weight_sharing_two_uses_product_rule():
    # f(f(x0)) with f(u) = w * u: d/dw = 2 w x0
    w = Variable(np.array(1.7, np.float32))
    x0 = Variable(np.array(3.0, np.float32))
    tape = Tape()
    y1 = ag.mul(w, x0, tape)
    y2 = ag.mul(w, y1, tape)
    backward(tape, y2)
    assert float(w.grad) == pytest.approx(2 * 1.7 * 3.0, rel=1e-6)


def test_weight_sharing_unrolled_power():
    # w applied T times to x0: d(w^T x0)/dw = T w^(T-1) x0
    t_steps, w0, x0v = 5, 1.1, 0.7
    w = Variable(np.array(w0, np.float32))
    x = Variable(np.array(x0v, np.float32))
    tape = Tape()
    cur = x
    for _ in range(t_steps):
        cur = ag.mul(w, cur, tape)
    backward(tape, cur)
    expected = t_steps * w0 ** (t_steps - 1) * x0v
    assert float(w.grad) == pytest.approx(expected, rel=1e-5)


def test_full_small_chain_gradcheck():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 4, 4)).astype(np.float32)
    k = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
    b = rng.standard_normal(2).astype(np.float32)

    def loss_fn(v, t):
        return ag.sum_squares(ag.relu(ag.conv2d(v[0], v[1], v[2], tape=t), t), t)

    variables = [Variable(x.copy()), Variable(k.copy()), Variable(b.copy())]
    tape = Tape()
    loss = loss_fn(variables, tape)
    backward(tape, loss)
    h = 1e-3
    for vi, base in enumerate((x, k, b)):
        analytic = variables[vi].grad_or_zeros().astype(np.float64)
        fd = np.zeros(base.size)
        for idx in range(base.size):
            bp = [a.copy() for a in (x, k, b)]
            bp[vi].ravel()[idx] += h
            fp = float(loss_fn([Variable(a) for a in bp], None).value)
            bp[vi].ravel()[idx] -= 2 * h
            fm = float(loss_fn([Variable(a) for a in bp], None).value)
            fd[idx] = (fp - fm) / (2 * h)
        err = np.linalg.norm(analytic.ravel() - fd) / max(np.linalg.norm(fd), 1e-6)
        assert err < 1e-3, f"input {vi}: {err:.2e}"


def test_elementwise_vjps_bulk_random_instances():
    # 100 random instances per elementwise primitive, kinks avoided
    rng = np.random.default_rng(77)
    for i in range(100):
        n = int(rng.integers(4, 24))
        z = _away_from_kinks(rng, (n,))
        target = rng.standard_normal((n,)).astype(np.float32)
        checks = [
            (lambda v, t: ag.relu(v[0], t), 5e-3),
            (lambda v, t: ag.swish(v[0], t), 5e-3),
            (lambda v, t: ag.mse_loss(v[0], target, t), 5e-2),
            (lambda v, t: ag.sum_squares(v[0], t), 5e-2),
        ]
        fn, h = checks[i % len(checks)]
        gradcheck(fn, [z], out_shape=fn([Variable(z)], None).value.shape,
                  h=h, tol=1e-3, seed=i)


def _conv2d_reference(x, kernel, bias):
    """Stride-1 "same" cross-correlation as a float64 loop over pixels and taps."""
    c_out, c_in, k, _ = kernel.shape
    _, h, w = x.shape
    p = (k - 1) // 2
    out = np.zeros((c_out, h, w))
    for o in range(c_out):
        for r in range(h):
            for s in range(w):
                acc = float(bias[o])
                for c in range(c_in):
                    for i in range(k):
                        for j in range(k):
                            y, z = r + i - p, s + j - p
                            if 0 <= y < h and 0 <= z < w:
                                acc += float(kernel[o, c, i, j]) * float(x[c, y, z])
                out[o, r, s] = acc
    return out


def test_conv2d_vjps_bulk_random_instances():
    # k = 1 is the plain-matmul path; for k > 1 the input VJP is one GEMM
    # when c_in >= c_out and a column scatter otherwise: cover all three
    rng = np.random.default_rng(78)
    paths = set()
    for i in range(30):
        k = (1, 3, 5)[i % 3]
        c_in = int(rng.integers(1, 5))
        c_out = int(rng.integers(1, 5))
        h, w = (int(n) for n in rng.choice([3, 4, 5, 6], size=2, replace=False))
        x = rng.standard_normal((c_in, h, w)).astype(np.float32)
        kv = (rng.standard_normal((c_out, c_in, k, k)) * 0.5).astype(np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)
        paths.add("1x1" if k == 1 else ("gemm" if c_in >= c_out else "scatter"))
        out = ag.conv2d(Variable(x), Variable(kv), Variable(b)).value
        ref = _conv2d_reference(x, kv, b)
        # float32 accumulation of n terms: |error| <= n * eps * sum |terms|
        bound = _conv2d_reference(np.abs(x), np.abs(kv), np.abs(b))
        n_terms = c_in * k * k + 1
        assert np.all(np.abs(out - ref) <= n_terms * np.finfo(np.float32).eps * bound)
        gradcheck(lambda v, t: ag.conv2d(v[0], v[1], v[2], tape=t),
                  [x, kv, b], out_shape=(c_out, h, w), h=0.05, tol=1e-3, seed=i)
    assert paths == {"1x1", "gemm", "scatter"}


def test_unused_parameter_keeps_zero_grad():
    used = Variable(np.array(2.0, np.float32))
    unused = Variable(np.array(5.0, np.float32))
    unused.grad = np.zeros_like(unused.value)
    tape = Tape()
    loss = ag.sum_squares(used, tape)
    backward(tape, loss)
    assert np.all(unused.grad == 0)
    assert used.grad is not None


def test_backward_rejects_non_scalar_root():
    tape = Tape()
    v = ag.scale(Variable(np.ones(3, np.float32)), 2.0, tape)
    with pytest.raises(ContractError):
        backward(tape, v)


def test_backward_is_deterministic():
    def run():
        rng = np.random.default_rng(10)
        x = Variable(rng.standard_normal((2, 6, 6)).astype(np.float32))
        k = Variable(rng.standard_normal((3, 2, 3, 3)).astype(np.float32))
        b = Variable(rng.standard_normal(3).astype(np.float32))
        tape = Tape()
        loss = ag.sum_squares(ag.swish(ag.conv2d(x, k, b, tape=tape), tape), tape)
        backward(tape, loss)
        return x.grad.copy(), k.grad.copy(), b.grad.copy()

    first, second = run(), run()
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()


def _conv_norm_leaves(seed):
    rng = np.random.default_rng(seed)
    return (Variable(rng.standard_normal((2, 6, 6)).astype(np.float32)),
            Variable(rng.standard_normal((3, 2, 3, 3)).astype(np.float32)),
            Variable(rng.standard_normal(3).astype(np.float32)),
            Variable(np.ones(3, np.float32)), Variable(np.zeros(3, np.float32)))


def test_backward_consumes_the_tape_and_keeps_only_leaf_grads():
    leaves = x, k, b, gamma, beta = _conv_norm_leaves(13)
    tape = Tape()
    c = ag.conv2d(x, k, b, tape)
    r = ag.relu(ag.instance_norm(c, gamma, beta, tape), tape)
    s = ag.add(r, c, tape)
    loss = ag.sum_squares(s, tape)
    backward(tape, loss)
    assert not tape._records
    assert all(var.grad is None for var in (c, r, s, loss))
    assert all(var.grad is not None for var in leaves)


def test_second_backward_on_a_consumed_tape_is_rejected():
    x = Variable(np.ones(3, np.float32))
    tape = Tape()
    loss = ag.sum_squares(x, tape)
    backward(tape, loss)
    with pytest.raises(ContractError):
        backward(tape, loss)


def test_conv_output_dies_with_its_variable_when_only_instance_norm_reads_it():
    # instance_norm's pullbacks keep xhat, not x: once the caller drops the
    # conv output, no record holds its value
    x, k, b, gamma, beta = _conv_norm_leaves(14)
    tape = Tape()
    c = ag.conv2d(x, k, b, tape)
    value = weakref.ref(c.value)
    n = ag.instance_norm(c, gamma, beta, tape)
    del c
    assert value() is None
    backward(tape, ag.sum_squares(n, tape))
    assert x.grad is not None


@pytest.mark.parametrize("c_in, c_out", [(4, 2), (2, 4)])
def test_adopted_input_grad_keeps_no_junk_columns(c_in, c_out):
    # both input VJPs (correlation, col2im) return a crop of a C_in x H x
    # (W+2p) buffer; the grad that adopts it is a contiguous copy instead
    rng = np.random.default_rng(17)
    x = Variable(rng.standard_normal((c_in, 8, 8)).astype(np.float32))
    k = Variable(rng.standard_normal((c_out, c_in, 5, 5)).astype(np.float32))
    b = Variable(np.zeros(c_out, np.float32))
    tape = Tape()
    backward(tape, ag.sum_squares(ag.conv2d(x, k, b, tape), tape))
    assert x.grad.flags.c_contiguous and x.grad.base is None


def _mri_sample(size, seed=5):
    x_true = generate_dataset(1, size, seed=seed)[0]
    op = MaskedFourierOperator(generate_vardens_mask(size, size, 0.3, 0.05, 3.0, 6))
    return x_true, op, op.apply(x_true)


def test_taped_resnet_sample_peak_memory():
    # a 32^2, 8-map resnet sample at T = 3, forward plus backward, peaked at
    # 3.2 MB of numpy allocations while the tape kept every op output and
    # every intermediate grad to the end; with slots and a consuming sweep
    # it peaked at 1.219 MB, with 1-bit relu masks at 1.191 MB, with conv
    # inputs kept as rebuilds at 1.007 MB, with the head and tail2 outputs
    # rebuilt by their cheap convs at 0.831 MB, and with the whole 1x1 tail
    # rebuilt it peaks at 0.769 MB
    x_true, op, y = _mri_sample(32)
    net = build(ProximalConfig(feature_maps=8), seed=7, zero_init_output=False)
    alpha = Variable(np.array(1.0, np.float32))
    tracemalloc.start()
    try:
        tape = Tape()
        total, _, _ = loss_p1(*unrolled_forward(net, op, y, 3, alpha, tape), x_true,
                              beta=0.75, tape=tape)
        backward(tape, total)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alpha.grad is not None
    assert peak < 1.01e6, peak  # the measured peak plus 31%


def test_taped_benchmark_resnet_forward_keeps_a_small_tape():
    # the benchmark's 64^2 sample (32 maps, T = 10): per iteration the tape
    # keeps both xhats and the step input; the inputs of conv1, conv2 and the
    # three tail convs are rebuilt in backward. 38.2 MB when it kept all of
    # them, 27.7 MB with the head's output u and tail3's input, 17.2 MB with
    # tail2's input, 12.0 MB now
    x_true, op, y = _mri_sample(64)
    net = build(ProximalConfig(feature_maps=32), seed=7, zero_init_output=False)
    alpha = Variable(np.array(1.0, np.float32))
    tracemalloc.start()
    try:
        tape = Tape()
        trajectory = unrolled_forward(net, op, y, 10, alpha, tape)
        del trajectory
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert tape._records
    assert kept <= 12.37e6, kept  # the measured 12.00 MB plus 3%


# ---------------------------------------------------------------------------
# rebuilds: a taped op's output, recomputed from what the tape keeps


def _norm_input(rng, shape=(4, 6, 7)):
    v = (rng.standard_normal(shape) * 2 + 0.5).astype(np.float32)
    v[2] = np.float32(-1.25)  # a constant channel: zero variance
    return (Variable(v), Variable(rng.uniform(0.5, 1.5, shape[0]).astype(np.float32)),
            Variable(rng.standard_normal(shape[0]).astype(np.float32)))


def _assert_rebuilds_value(out):
    # fresh and bit-equal every time: an in-place rebuild writes into no kept array
    for _ in range(2):
        r = out.rebuild()
        assert r.dtype == np.float32 and not np.shares_memory(r, out.value)
        assert r.tobytes() == out.value.tobytes()


def test_rebuilds_return_the_value_bit_for_bit():
    rng = np.random.default_rng(31)
    tape = Tape()
    x, gamma, beta = _norm_input(rng)
    leaf = Variable(rng.standard_normal(x.value.shape).astype(np.float32))
    n1 = ag.instance_norm(x, gamma, beta, tape)
    n2 = ag.instance_norm(x, beta, gamma, tape)
    r, s = ag.relu(n1, tape), ag.swish(n2, tape)
    outs = [n1, n2, r, s,
            ag.add(r, s, tape),  # both sides rebuilt
            ag.add(leaf, r, tape), ag.add(s, leaf, tape),  # one side each way
            ag.add(ag.add(leaf, ag.relu(n2, tape), tape), ag.swish(n1, tape), tape),
            # the resnet's cheap convs: a 2->32 3x3 head on a leaf and a 32->32 1x1
            ag.conv2d(Variable(rng.standard_normal((2, 12, 13)).astype(np.float32)),
                      Variable(rng.standard_normal((32, 2, 3, 3)).astype(np.float32)),
                      Variable(rng.standard_normal(32).astype(np.float32)), tape),
            ag.conv2d(Variable(rng.standard_normal((32, 12, 13)).astype(np.float32)),
                      Variable(rng.standard_normal((32, 32, 1, 1)).astype(np.float32)),
                      Variable(rng.standard_normal(32).astype(np.float32)), tape)]
    for out in outs:
        _assert_rebuilds_value(out)
    assert np.all(n1.value[2] == beta.value[2])  # the zero-variance channel


def test_cheap_conv_rebuild_keeps_only_what_its_record_keeps():
    # the rebuild reads the input value the kernel VJP keeps; of its own it
    # keeps only the kernel and bias, never an output-sized array
    x, k, b, _, _ = _conv_norm_leaves(37)
    tape = Tape()
    out = ag.conv2d(x, k, b, tape)
    (_, pulls), = tape._records
    kept = {id(a) for _, vjp in pulls for a in _closure_arrays(vjp)}
    for arr in _closure_arrays(out.rebuild):
        assert id(arr) in kept or arr.size <= k.value.size, arr.shape
    assert out.rebuild().tobytes() == out.value.tobytes()


def test_conv_outputs_and_ops_on_unrebuilt_inputs_get_no_rebuild():
    # a conv output is rebuilt only at REBUILD_MACS multiply-adds per value or
    # fewer: a 4->3 3x3 conv costs 36 and gets none, and neither do the ops
    # over its output. A 3->3 3x3 (27) or 3->3 1x1 (3) conv gets one over a
    # rebuilt input too, which it reads through the input's rebuild
    rng = np.random.default_rng(32)
    x = Variable(rng.standard_normal((4, 6, 6)).astype(np.float32))
    k = Variable(rng.standard_normal((3, 4, 3, 3)).astype(np.float32))
    _, _, b, gamma, beta = _conv_norm_leaves(32)
    other = Variable(np.ones((3, 6, 6), np.float32))
    tape = Tape()
    c = ag.conv2d(x, k, b, tape)
    rebuilt = ag.relu(ag.instance_norm(c, gamma, beta, tape), tape)
    assert 4 * 3 * 3 > ag.REBUILD_MACS >= 3 * 3 * 3 and rebuilt.rebuild is not None
    outs = [c, ag.relu(c, tape), ag.swish(c, tape), ag.add(c, other, tape),
            ag.scale(c, 2.0, tape), ag.mul(c, other, tape)]
    assert all(out.rebuild is None for out in outs)
    for kk in (rng.standard_normal((3, 3, 3, 3)), rng.standard_normal((3, 3, 1, 1))):
        _assert_rebuilds_value(ag.conv2d(rebuilt, Variable(kk.astype(np.float32)), b, tape))


def test_reassigned_leaves_leave_a_cheap_conv_rebuild_as_it_was():
    # Adam replaces the kernel and bias values and a caller may replace the
    # input's: the rebuild holds the forward-time arrays, so it still returns
    # the value forward computed
    rng = np.random.default_rng(38)
    x = Variable(rng.standard_normal((3, 7, 8)).astype(np.float32))
    k = Variable(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
    b = Variable(rng.standard_normal(4).astype(np.float32))
    out = ag.conv2d(x, k, b, Tape())
    for var in (x, k, b):
        var.value = rng.standard_normal(var.value.shape).astype(np.float32)
    _assert_rebuilds_value(out)


def test_chain_convs_get_no_rebuild(monkeypatch):
    # a 5x5 chain conv costs 2*25 = 50 or 4*25 = 100 multiply-adds per value
    outs = []
    conv = ag.conv2d

    def spy(*args, **kwargs):
        outs.append(conv(*args, **kwargs))
        return outs[-1]

    monkeypatch.setattr(ag, "conv2d", spy)
    net = build(ProximalConfig(arch="chain", chain_layers=3, chain_kernel=5, feature_maps=4,
                               activation="swish", normalization="none"),
                seed=7, zero_init_output=False)
    net.forward(np.random.default_rng(39).standard_normal((2, 8, 8)).astype(np.float32),
                Tape())
    assert len(outs) == 3 and all(out.rebuild is None for out in outs)


def test_no_taped_op_sets_a_rebuild_on_its_inputs():
    rng = np.random.default_rng(34)
    x, k, b, gamma, beta = _conv_norm_leaves(34)
    tape = Tape()
    n = ag.instance_norm(ag.conv2d(x, k, b, tape), gamma, beta, tape)
    r = ag.relu(n, tape)
    before = n.rebuild, r.rebuild
    leaf = Variable(rng.standard_normal(r.value.shape).astype(np.float32))
    ops = [lambda: ag.relu(r, tape), lambda: ag.swish(leaf, tape),
           lambda: ag.add(leaf, r, tape), lambda: ag.add(r, n, tape),
           lambda: ag.scale(leaf, 3.0, tape), lambda: ag.mul(r, leaf, tape),
           lambda: ag.instance_norm(r, gamma, beta, tape),
           lambda: ag.conv2d(r, Variable(np.ones((2, 3, 3, 3), np.float32)),
                             Variable(np.zeros(2, np.float32)), tape),
           lambda: ag.sum_squares(r, tape), lambda: ag.mse_loss(leaf, r.value, tape),
           lambda: ag.smooth_l1_loss(r, leaf.value, tape)]
    for op in ops:
        op()
    assert all(var.rebuild is None for var in (x, k, b, gamma, beta, leaf))
    assert (n.rebuild, r.rebuild) == before


def test_a_reassigned_leaf_feeds_its_new_value_to_the_next_taped_conv():
    # a conv keeps its input's rebuild if it has one; a leaf has none, so a
    # conv after ``leaf.value = ...`` must see the new value, not the first conv's
    rng = np.random.default_rng(35)
    x = Variable(rng.standard_normal((3, 7, 8)).astype(np.float32))
    k = Variable(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
    b = Variable(np.zeros(4, np.float32))
    ag.conv2d(x, k, b, Tape())
    x.value = rng.standard_normal(x.value.shape).astype(np.float32)
    tape = Tape()
    backward(tape, ag.sum_squares(ag.conv2d(x, k, b, tape), tape))
    fresh_k, fresh = Variable(k.value), Tape()
    backward(fresh, ag.sum_squares(
        ag.conv2d(Variable(x.value.copy()), fresh_k, Variable(b.value), fresh), fresh))
    assert k.grad.tobytes() == fresh_k.grad.tobytes()


def test_conv_on_a_rebuilt_input_keeps_nothing_input_sized_of_its_own():
    # the conv record keeps relu(norm(.))'s rebuild, which reads the xhat the
    # norm record keeps; the relu output itself dies with the caller's Variable
    rng = np.random.default_rng(36)
    x, gamma, beta = _norm_input(rng, (8, 16, 16))
    tape = Tape()
    n = ag.instance_norm(x, gamma, beta, tape)
    r = ag.relu(n, tape)
    value = weakref.ref(r.value)
    ag.conv2d(r, Variable(rng.standard_normal((8, 8, 3, 3)).astype(np.float32)),
              Variable(np.zeros(8, np.float32)), tape)
    del n, r
    assert value() is None
    (_, norm_pulls), _, (_, conv_pulls) = tape._records
    norm_kept = [id(a) for _, vjp in norm_pulls for a in _closure_arrays(vjp)]
    for _, vjp in conv_pulls:
        for arr in _closure_arrays(vjp):
            assert arr.nbytes < x.value.nbytes or id(arr) in norm_kept, arr.shape


# input channels: per output value a 3x3 conv costs 9 or 27 multiply-adds (cheap)
# or 36 or 297, and a 1x1 conv over 33 channels costs 33
_CHANNELS = (1, 3, 4, 33)


def _random_chain(ops, seed, tape, suppress=False):
    """Run taped ops over two leaf inputs, each op on a pool member that the
    seed picks, with fresh leaf parameters. Returns the leaves, every op
    output, and each conv output with whether it is cheap. ``suppress``
    clears every output's rebuild as it is made."""
    rng = np.random.default_rng(seed)
    leaves = []

    def leaf(shape, scale=1.0):
        leaves.append(Variable((scale * rng.standard_normal(shape)).astype(np.float32)))
        return leaves[-1]

    pool = [leaf((c, 5, 6)) for c in rng.choice(_CHANNELS, 2)]
    outs, convs = [], []
    for op in ops:
        x = pool[rng.integers(len(pool))]
        c = x.value.shape[0]
        if op == "conv":
            k, c_out = rng.choice((1, 3)), rng.choice(_CHANNELS)
            out = ag.conv2d(x, leaf((c_out, c, k, k), (c * k * k) ** -0.5), leaf(c_out), tape)
            convs.append((out, c * k * k <= ag.REBUILD_MACS))
        elif op == "norm":
            out = ag.instance_norm(x, leaf(c), leaf(c), tape)
        elif op == "add":
            same = [v for v in pool if v.value.shape == x.value.shape]
            out = ag.add(x, same[rng.integers(len(same))], tape)
        else:
            out = getattr(ag, op)(x, tape)
        if suppress:
            out.rebuild = None
        pool.append(out)
        outs.append(out)
    return leaves, outs, convs


@settings(max_examples=100)
@given(st.lists(st.sampled_from(("conv", "norm", "relu", "swish", "add")), min_size=1,
                max_size=10), st.integers(0, 2 ** 32 - 1))
def test_rebuilds_are_bit_equal_to_their_values_on_random_op_chains(ops, seed):
    # cheap and costly convs over kept and rebuilt inputs: every cheap conv
    # output gets a rebuild, every rebuild returns a fresh copy of its value,
    # and the leaf gradients are those of the same chain with no rebuilds
    _, outs, convs = _random_chain(ops, seed, Tape())
    assert all((out.rebuild is not None) == cheap for out, cheap in convs)
    for out in outs:
        if out.rebuild is not None:
            _assert_rebuilds_value(out)
    grads = []
    for suppress in (False, True):
        tape = Tape()
        leaves, outs, _ = _random_chain(ops, seed, tape, suppress)
        total = ag.sum_squares(outs[0], tape)
        for out in outs[1:]:
            total = ag.add(total, ag.sum_squares(out, tape), tape)
        backward(tape, total)
        grads.append([None if v.grad is None else v.grad.tobytes() for v in leaves])
    assert grads[0] == grads[1]


def _suppress_rebuilds(monkeypatch):
    """Clear the rebuild of every output of the ops that set one."""
    for name in ("conv2d", "instance_norm", "relu", "swish", "add"):
        def cleared(*args, _op=getattr(ag, name), **kwargs):
            out = _op(*args, **kwargs)
            out.rebuild = None
            return out
        monkeypatch.setattr(ag, name, cleared)


def _sample_grads(cfg):
    x_true, op, y = _mri_sample(16)
    net = build(ProximalConfig(feature_maps=8, **cfg), seed=7, zero_init_output=False)
    alpha = Variable(np.array(1.0, np.float32))
    tape = Tape()
    total, _, _ = loss_p1(*unrolled_forward(net, op, y, 3, alpha, tape), x_true,
                          beta=0.75, tape=tape)
    backward(tape, total)
    return {name: var.grad.tobytes() for name, var in [*net.params.items(), ("alpha", alpha)]}


@pytest.mark.parametrize("cfg", [{}, {"activation": "swish"}, {"num_res_blocks": 2}])
def test_resnet_gradients_are_bit_equal_with_rebuilds_suppressed(monkeypatch, cfg):
    rebuilt = []
    conv = ag.conv2d

    def spy(x, *args, **kwargs):
        rebuilt.append(x.rebuild is not None)
        return conv(x, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(ag, "conv2d", spy)
        with_rebuilds = _sample_grads(cfg)
    # every conv1 and conv2 and the whole 1x1 tail, at each of the T = 3 iterations
    assert sum(rebuilt) == 3 * (2 * cfg.get("num_res_blocks", 1) + 3)
    _suppress_rebuilds(monkeypatch)
    assert _sample_grads(cfg) == with_rebuilds


@pytest.mark.parametrize("blocks", [1, 2])
def test_tail_rebuilds_run_once_per_backward_and_are_released(monkeypatch, blocks):
    # each 1x1 tail conv reads its rebuilt input through its input's Grad memo:
    # the chain tail3 -> tail2 -> tail1 computes u = head(s) + relu(.) and
    # relu(tail1(u)) once per iteration, where without the memo tail2's and
    # tail1's kernel VJPs would rebuild them again (u three times, relu(tail1(u))
    # twice). After backward no Grad holds a rebuilt array
    calls, arrays = [], []
    conv = ag.conv2d

    def counted(rebuild, i):
        def read():
            calls[i] += 1
            arrays.append(weakref.ref(out := rebuild()))
            return out
        return read

    def spy(x, kernel, *args, **kwargs):
        if kernel.value.shape[2] == 1:
            assert x.rebuild is not None
            calls.append(0)
            x.rebuild = counted(x.rebuild, len(calls) - 1)
        return conv(x, kernel, *args, **kwargs)

    monkeypatch.setattr(ag, "conv2d", spy)
    x_true, op, y = _mri_sample(16)
    net = build(ProximalConfig(feature_maps=8, num_res_blocks=blocks), seed=7,
                zero_init_output=False)
    alpha = Variable(np.array(1.0, np.float32))
    tape = Tape()
    total, _, _ = loss_p1(*unrolled_forward(net, op, y, 3, alpha, tape), x_true,
                          beta=0.75, tape=tape)
    nodes = {id(n): n for out, pulls in tape._records for n in (out, *(p for p, _ in pulls))}
    assert calls == [0] * 9  # three tail convs at each of the T = 3 iterations
    backward(tape, total)
    assert calls == [1] * 9
    assert all(node.memo is None for node in nodes.values())
    assert arrays and all(ref() is None for ref in arrays)
