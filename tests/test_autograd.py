"""Finite-difference oracles for every autodiff primitive.

Each check composes the primitive with a fixed quadratic readout
loss(theta) = sum((op(theta) + c)^2), runs one taped backward for the
analytic gradient, and compares against central differences of the same
scalar evaluated without a tape. Norm-wise relative error is the yardstick.
"""

import numpy as np
import pytest

from npgd import autograd as ag
from npgd.autograd import Tape, Variable, backward
from npgd.errors import ContractError, ParameterError, ShapeError


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
