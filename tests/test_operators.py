import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npgd.core import dot, fft2, ifft2, norm
from npgd.errors import DimensionError, ShapeError
from npgd.operators import (BoxDownsampleOperator, MaskedFourierOperator,
                            data_residual_sq, gradient_step,
                            gradient_step_channels, power_iteration)
from npgd.autograd import Tape, Variable, backward
from npgd.sampling import SamplingMask, generate_vardens_mask

from conftest import empty_mask, full_mask, random_complex_image


def _random_op(h=16, w=16, seed=0):
    return MaskedFourierOperator(generate_vardens_mask(h, w, 0.4, 0.05, 3.0, seed))


def test_full_mask_apply_is_fft():
    op = MaskedFourierOperator(full_mask(8, 8))
    x = random_complex_image(8, 8, seed=1)
    f = fft2(x)
    y = op.apply(x)
    assert np.array_equal(y, f)


def test_empty_mask_apply_is_zero():
    op = MaskedFourierOperator(empty_mask(8, 8))
    y = op.apply(random_complex_image(8, 8, seed=2))
    assert not y.any()


def test_full_mask_adjoint_inverts():
    op = MaskedFourierOperator(full_mask(16, 16))
    x = random_complex_image(16, 16, seed=3)
    back = op.adjoint(fft2(x))
    assert norm(back - x) <= 1e-5 * norm(x)


def test_adjoint_of_zero_is_zero():
    op = _random_op()
    z = op.adjoint(np.zeros((2, 16, 16), np.float32))
    assert not z.any()


def test_masked_fourier_adjoint_identity_bulk():
    for trial in range(100):
        op = _random_op(seed=trial)
        x = random_complex_image(16, 16, seed=1000 + trial)
        y = random_complex_image(16, 16, seed=2000 + trial)
        lhs = dot(op.apply(x), y)
        rhs = dot(x, op.adjoint(y))
        assert abs(lhs - rhs) < 1e-5 * norm(x) * norm(y)


def test_adjoint_identity_non_square():
    ops = [_random_op(16, 32, seed=1), _random_op(32, 8, seed=2),
           BoxDownsampleOperator(16, 32), BoxDownsampleOperator(32, 8)]
    for trial, op in enumerate(ops):
        x = random_complex_image(*op.in_shape, seed=3000 + trial)
        y = random_complex_image(*op.out_shape, seed=4000 + trial)
        assert op.apply(x).shape == (2,) + op.out_shape
        assert op.adjoint(y).shape == (2,) + op.in_shape
        assert abs(dot(op.apply(x), y) - dot(x, op.adjoint(y))) < 1e-5 * norm(x) * norm(y)


def test_non_square_rejects_transposed_shape():
    for op in (_random_op(16, 32), _random_op(32, 8),
               BoxDownsampleOperator(16, 32), BoxDownsampleOperator(32, 8)):
        h, w = op.in_shape
        with pytest.raises(ShapeError):
            op.apply(random_complex_image(w, h))
        with pytest.raises(ShapeError):
            op.adjoint(random_complex_image(op.out_shape[1], op.out_shape[0]))
        with pytest.raises(ShapeError):
            op.apply(random_complex_image(h, w)[0])


def test_projection_idempotence():
    op = _random_op(seed=9)
    x = random_complex_image(16, 16, seed=5)
    once = op.apply(x)
    thrice = op.apply(op.adjoint(once))
    assert norm(thrice - once) <= 1e-5 * max(norm(once), 1.0)


def test_box_block_mean():
    x = np.stack((np.array([[1.0, 2.0], [3.0, 4.0]], np.float32),
                  np.zeros((2, 2), np.float32)))
    y = BoxDownsampleOperator(2, 2).apply(x)
    assert y[0, 0, 0] == pytest.approx(2.5)


def test_box_constant_behavior():
    op = BoxDownsampleOperator(8, 8)
    c = np.stack((np.full((8, 8), 3.0, np.float32), np.zeros((8, 8), np.float32)))
    assert np.allclose(op.apply(c)[0], 3.0)
    c_small = np.stack((np.full((4, 4), 3.0, np.float32), np.zeros((4, 4), np.float32)))
    assert np.allclose(op.adjoint(c_small)[0], 0.75)  # c / 4


def test_box_adjoint_identity():
    op = BoxDownsampleOperator(16, 16)
    for trial in range(100):
        x = random_complex_image(16, 16, seed=trial)
        y = random_complex_image(8, 8, seed=500 + trial)
        assert abs(dot(op.apply(x), y) - dot(x, op.adjoint(y))) < 1e-6 * norm(x) * norm(y)


def test_box_rejects_odd_dimensions():
    with pytest.raises(DimensionError):
        BoxDownsampleOperator(7, 8)


def test_shape_mismatch_raises():
    op = _random_op()
    with pytest.raises(ShapeError):
        op.apply(random_complex_image(8, 8))
    with pytest.raises(ShapeError):
        BoxDownsampleOperator(8, 8).adjoint(random_complex_image(8, 8))


# ---------------------------------------------------------------------------
# gradient step


def test_gradient_step_fixed_point_when_consistent():
    op = _random_op(seed=11)
    x = random_complex_image(16, 16, seed=6)
    y = op.apply(x)
    for alpha in (0.3, 1.0, 1.7):
        out = gradient_step(x, y, alpha, op)
        assert norm(out - x) <= 1e-5 * norm(x)


def test_gradient_step_from_zero_is_scaled_zero_fill():
    op = _random_op(seed=12)
    y = op.apply(random_complex_image(16, 16, seed=7))
    alpha = 0.7
    out = gradient_step(np.zeros((2, 16, 16), np.float32), y, alpha, op)
    expected = op.adjoint(y) * alpha
    assert norm(out - expected) <= 1e-6 * max(norm(expected), 1.0)
    # a float64 step size scales in float32, as every image stays float32
    assert np.array_equal(gradient_step(np.zeros_like(y), y, np.float64(alpha), op), out)


def test_gradient_step_full_mask_unit_alpha_solves():
    op = MaskedFourierOperator(full_mask(16, 16))
    y = op.apply(random_complex_image(16, 16, seed=8))
    out = gradient_step(random_complex_image(16, 16, seed=9), y, 1.0, op)
    assert norm(out - ifft2(y)) <= 1e-5 * norm(y)


def test_consistency_map_non_expansive():
    for trial in range(20):
        op = _random_op(seed=20 + trial)
        d = random_complex_image(16, 16, seed=40 + trial)
        alpha = np.random.default_rng(trial).uniform(0.05, 1.0)
        moved = d - alpha * op.adjoint(op.apply(d))
        assert norm(moved) <= norm(d) * (1 + 1e-6)


def test_gradient_step_strictly_decreases_residual():
    rng = np.random.default_rng(13)
    for trial in range(20):
        op = _random_op(seed=60 + trial)
        x = random_complex_image(16, 16, seed=80 + trial)
        y = op.apply(random_complex_image(16, 16, seed=100 + trial))
        before = norm(y - op.apply(x))
        assert before > 1e-3  # x not already consistent
        alpha = rng.uniform(0.05, 1.95)
        after = norm(y - op.apply(gradient_step(x, y, alpha, op)))
        assert after < before


def test_power_iteration_estimates():
    assert power_iteration(_random_op(seed=14)) == pytest.approx(1.0, abs=1e-3)
    assert power_iteration(BoxDownsampleOperator(16, 16)) == pytest.approx(0.5, abs=1e-3)


# ---------------------------------------------------------------------------
# differentiable wrappers


def test_gradient_step_channels_matches_plain():
    # one step formula: the unrolled loop's step is gradient_step, bit for bit
    x = random_complex_image(16, 16, seed=10)
    for op in (_random_op(seed=15), BoxDownsampleOperator(16, 16)):
        y = op.apply(random_complex_image(16, 16, seed=11))
        plain = gradient_step(x, y, 0.8, op).tobytes()
        for alpha in (0.8, Variable(np.array(0.8, np.float32))):
            taped = gradient_step_channels(Variable(x), alpha, op, op.residual(x, y)[1], Tape())
            assert taped.value.tobytes() == plain


def test_gradient_step_channels_alpha_gradient():
    # d/dalpha of sum((x + alpha * dir + c)^2) via tape vs finite differences
    from npgd import autograd as ag
    op = _random_op(seed=16)
    x2 = random_complex_image(16, 16, seed=12)
    y = op.apply(random_complex_image(16, 16, seed=13))
    cot = np.random.default_rng(14).standard_normal(x2.shape).astype(np.float32)
    direction = op.residual(x2, y)[1]

    def value(a):
        out = gradient_step_channels(Variable(x2), a, op, direction)
        return float(np.sum((out.value.astype(np.float64) + cot) ** 2))

    alpha = Variable(np.array(0.9, np.float32))
    tape = Tape()
    out = gradient_step_channels(Variable(x2), alpha, op, direction, tape)
    loss = ag.sum_squares(ag.add(out, Variable(cot), tape), tape)
    backward(tape, loss)
    h = 1e-3
    fd = (value(0.9 + h) - value(0.9 - h)) / (2 * h)
    assert float(alpha.grad) == pytest.approx(fd, rel=1e-3)


def test_data_residual_sq_value_and_gradient():
    op = _random_op(seed=17)
    x = random_complex_image(16, 16, seed=15)
    y = op.apply(random_complex_image(16, 16, seed=16))
    xv = Variable(x)
    tape = Tape()
    resid, direction = op.residual(x, y)
    r = data_residual_sq(xv, norm(resid), direction, tape)
    assert float(r.value) == pytest.approx(norm(y - op.apply(x)) ** 2, rel=1e-5)
    backward(tape, r)
    # analytic gradient is -2 adjoint(y - apply(x))
    expected = -2.0 * op.adjoint(y - op.apply(x))
    assert np.linalg.norm(xv.grad - expected) <= 1e-5 * np.linalg.norm(expected)


@pytest.mark.parametrize("op", [_random_op(8, 16, seed=3), BoxDownsampleOperator(8, 16)],
                         ids=["fourier", "box"])
def test_operators_act_on_stacks_image_by_image(op):
    xs = np.stack([random_complex_image(8, 16, seed=60 + i) for i in range(3)])
    ys = op.apply(xs)
    assert ys.shape == (3, 2) + op.out_shape and ys.dtype == np.float32
    back = op.adjoint(ys)
    assert back.shape == xs.shape and back.dtype == np.float32
    for i in range(3):
        assert np.array_equal(ys[i], op.apply(xs[i]))
        assert np.array_equal(back[i], op.adjoint(ys[i]))


@pytest.mark.parametrize("op", [_random_op(8, 16, seed=3), BoxDownsampleOperator(8, 16)],
                         ids=["fourier", "box"])
def test_operators_reject_bad_stack_shapes(op):
    h, w = op.in_shape
    oh, ow = op.out_shape
    for bad in ((4, 3, h, w), (4, 2, w, h), (4, 2, h, w + 2)):
        with pytest.raises(ShapeError):
            op.apply(np.zeros(bad, np.float32))
    for bad in ((4, 3, oh, ow), (4, 2, ow, oh), (4, 2, oh + 2, ow)):
        with pytest.raises(ShapeError):
            op.adjoint(np.zeros(bad, np.float32))


def _two_pass_fft(x, transform):
    """The unitary FFT as packed, transformed and unpacked before the
    operators' one-round-trip residual existed."""
    z = np.empty(x.shape[:-3] + x.shape[-2:], np.complex64)
    z.real = x[..., 0, :, :]
    z.imag = x[..., 1, :, :]
    f = transform(z, norm="ortho")
    return np.stack((f.real, f.imag), axis=-3)


def _two_pass_residual_adjoint(op, x, y):
    """adjoint(y - apply(x)) as two operator calls in the plane layout,
    with the masked Fourier pair written out."""
    if not isinstance(op, MaskedFourierOperator):
        return op.adjoint(y - op.apply(x))
    bits = op.mask.natural_bits()
    ax = np.where(bits, _two_pass_fft(x, np.fft.fft2), np.float32(0))
    return _two_pass_fft(np.where(bits, y - ax, np.float32(0)), np.fft.ifft2)


@pytest.mark.parametrize("n", [None, 1, 3])
@pytest.mark.parametrize("hw", [(16, 16), (8, 32), (32, 8)])
@pytest.mark.parametrize("task", ["fourier", "box"])
def test_residual_adjoint_bit_equal_to_two_passes(task, hw, n):
    h, w = hw
    rng = np.random.default_rng(h * w + (n or 0))
    if task == "fourier":
        op = MaskedFourierOperator(SamplingMask(h, w, rng.random((h, w)) < 0.4))
    else:
        op = BoxDownsampleOperator(h, w)
    lead = () if n is None else (n,)
    x = rng.standard_normal(lead + (2, h, w)).astype(np.float32)
    # y is nonzero off the mask too, as a noisy measurement is
    y = rng.standard_normal(lead + (2,) + op.out_shape).astype(np.float32)
    want = _two_pass_residual_adjoint(op, x, y)
    resid, got = op.residual(x, y)
    assert got.dtype == np.float32 and got.shape == x.shape
    assert np.array_equal(got, want)
    assert np.array_equal(got, op.adjoint(y - op.apply(x)))
    assert resid.dtype == np.float32 and np.array_equal(resid, y - op.apply(x))
    assert np.array_equal(gradient_step(x, y, 0.7, op), x + np.float32(0.7) * want)


# ---------------------------------------------------------------------------
# properties of the data-consistency step over random operators and stacks


@st.composite
def _operator_case(draw):
    """A random operator (a masked Fourier one over any sampling pattern with
    H and W powers of two drawn independently, or a box one over even H and
    W), an image or (N, 2, H, W) stack x and a measurement y nonzero off any
    mask."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        h, w = (2 ** draw(st.integers(0, 5)) for _ in range(2))
        op = MaskedFourierOperator(SamplingMask(h, w, rng.random((h, w)) < draw(
            st.floats(0.0, 1.0))))
    else:
        h, w = (2 * draw(st.integers(1, 12)) for _ in range(2))
        op = BoxDownsampleOperator(h, w)
    lead = draw(st.sampled_from([(), (1,), (3,)]))
    x = rng.standard_normal(lead + (2, h, w)).astype(np.float32)
    y = rng.standard_normal(lead + (2,) + op.out_shape).astype(np.float32)
    return op, x, y


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_operator_case())
def test_residual_and_direction_are_bit_equal_to_apply_then_adjoint(case):
    op, x, y = case
    r = y - op.apply(x)
    resid, back = op.residual(x, y)
    assert resid.dtype == back.dtype == np.float32
    assert resid.shape == r.shape and resid.tobytes() == r.tobytes()
    assert back.shape == x.shape and back.tobytes() == op.adjoint(r).tobytes()
    assert op.direction(x, y).tobytes() == back.tobytes()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_operator_case())
def test_apply_and_adjoint_are_adjoint(case):
    op, x, y = case
    lhs, rhs = dot(op.apply(x), y), dot(x, op.adjoint(y))
    assert abs(lhs - rhs) <= 1e-5 * norm(x) * norm(y)  # relative to the bound on both sides
