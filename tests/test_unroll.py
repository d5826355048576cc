import numpy as np
import pytest

from npgd import autograd as ag
from npgd.autograd import Tape, Variable, backward
from npgd.core import norm
from npgd.errors import NumericsError, ParameterError
from npgd.operators import MaskedFourierOperator, gradient_step
from npgd.phantoms import PhantomSpec, generate_dataset
from npgd.proxnet import ProximalConfig, build
from npgd.sampling import generate_vardens_mask
from npgd.unroll import (TrainConfig, Trajectory, UnrollConfig, loss_p1,
                         reconstruct, train, unrolled_forward, write_trace_csv)

from conftest import full_mask, make_identity_resnet, random_complex_image


def _op(seed=0, n=16):
    return MaskedFourierOperator(generate_vardens_mask(n, n, 0.4, 0.05, 3.0, seed))


def test_t1_is_proximal_of_scaled_zero_fill():
    net = build(ProximalConfig(feature_maps=4), seed=1, zero_init_output=False)
    op = _op(seed=2)
    y = op.apply(random_complex_image(16, 16, seed=3))
    alpha = 0.8
    traj = unrolled_forward(net, op, y, 1, alpha)
    expected = net.forward(alpha * op.adjoint(y)).value
    assert np.allclose(traj.final, expected, atol=1e-6)


def test_identity_proximal_reproduces_plain_landweber():
    net = make_identity_resnet()
    op = _op(seed=4)
    y = op.apply(random_complex_image(16, 16, seed=5))
    alpha = 0.9
    traj = unrolled_forward(net, op, y, 5, alpha)
    # independent re-implementation of the bare iteration
    x = np.zeros((2, 16, 16), np.float32)
    for t in range(5):
        x = gradient_step(x, y, alpha, op)
        assert norm(traj.x[t] - x) <= 1e-5 * max(norm(x), 1.0)


def test_identity_proximal_fixed_point_convergence():
    net = make_identity_resnet()
    op = _op(seed=6)
    x_star = random_complex_image(16, 16, seed=7)
    y = op.apply(x_star)
    traj = unrolled_forward(net, op, y, 8, 1.0)
    residuals = [norm(y - op.apply(x)) for x in traj.x]
    for a, b in zip(residuals, residuals[1:]):
        assert b <= a + 1e-6
    errs = [norm(x - x_star) for x in traj.x]
    assert errs[-1] <= errs[0] + 1e-6


def test_trajectory_prefix_property():
    net = build(ProximalConfig(feature_maps=4), seed=8, zero_init_output=False)
    op = _op(seed=9)
    y = op.apply(random_complex_image(16, 16, seed=10))
    short = unrolled_forward(net, op, y, 2, 1.0)
    long = unrolled_forward(net, op, y, 5, 1.0)
    for t in range(2):
        assert np.array_equal(short.x[t], long.x[t])
        assert np.array_equal(short.s[t], long.s[t])


def test_loss_p1_beta_one_is_terminal_only():
    net = build(ProximalConfig(feature_maps=4), seed=11, zero_init_output=False)
    op = _op(seed=12)
    x_true = random_complex_image(16, 16, seed=13)
    y = op.apply(x_true)
    tape = Tape()
    traj = unrolled_forward(net, op, y, 3, 1.0, tape)
    total, term, cons = loss_p1(traj, x_true, y, op, beta=1.0, tape=tape)
    assert float(total.value) == pytest.approx(term, rel=1e-6)
    assert cons > 0.0  # untrained iterates are inconsistent, the term just gets zero weight


def test_loss_p1_perfect_trajectory_is_zero():
    op = _op(seed=14)
    x_true = random_complex_image(16, 16, seed=15)
    y = op.apply(x_true)
    tape = Tape()
    perfect = Trajectory(s=[x_true] * 3, x=[x_true] * 3,
                         x_vars=[Variable(x_true) for _ in range(3)])
    total, term, cons = loss_p1(perfect, x_true, y, op, beta=0.75, tape=tape)
    assert float(total.value) == pytest.approx(0.0, abs=1e-8)
    assert term == pytest.approx(0.0, abs=1e-9)
    assert cons == pytest.approx(0.0, abs=1e-8)


def test_loss_p1_beta_zero_matches_hand_computation():
    net = build(ProximalConfig(feature_maps=4), seed=16, zero_init_output=False)
    op = _op(seed=17)
    x_true = random_complex_image(16, 16, seed=18)
    y = op.apply(x_true)
    tape = Tape()
    traj = unrolled_forward(net, op, y, 2, 1.0, tape)
    total, _, _ = loss_p1(traj, x_true, y, op, beta=0.0, tape=tape)
    byhand = sum(norm(y - op.apply(x)) ** 2 for x in traj.x)
    assert float(total.value) == pytest.approx(byhand, rel=1e-5)


def test_consistency_term_nonnegative():
    net = build(ProximalConfig(feature_maps=4), seed=19, zero_init_output=False)
    op = _op(seed=20)
    y = op.apply(random_complex_image(16, 16, seed=21))
    tape = Tape()
    traj = unrolled_forward(net, op, y, 3, 1.0, tape)
    _, _, cons = loss_p1(traj, random_complex_image(16, 16, seed=22), y, op,
                         beta=0.5, tape=tape)
    assert cons >= 0.0


def test_lr_schedule():
    cfg = TrainConfig(lr=1e-3, lr_halve_every=100)
    assert cfg.lr_at(0) == pytest.approx(1e-3)
    assert cfg.lr_at(99) == pytest.approx(1e-3)
    assert cfg.lr_at(100) == pytest.approx(5e-4)
    assert cfg.lr_at(250) == pytest.approx(2.5e-4)


def test_overfit_single_sample_smoke():
    imgs = generate_dataset(1, 16, PhantomSpec(), seed=30)
    op = MaskedFourierOperator(full_mask(16, 16))
    prox = ProximalConfig(feature_maps=8, normalization="none")
    result = train(imgs, op,
                   UnrollConfig(iterations=1, alpha_init=1.0, beta=0.75),
                   TrainConfig(lr=1e-2, epochs=200, batch_size=1, seed=0), prox,
                   [op.apply(x) for x in imgs])
    first = result.trace[0][3]
    last = result.trace[-1][3]
    assert last <= first / 10.0, (first, last)


def test_training_is_seed_deterministic(tmp_path):
    imgs = generate_dataset(4, 16, PhantomSpec(), seed=31)
    op = _op(seed=32)

    def run():
        res = train(imgs, op, UnrollConfig(iterations=2),
                    TrainConfig(lr=1e-3, epochs=2, batch_size=2, seed=5),
                    ProximalConfig(feature_maps=4), [op.apply(x) for x in imgs])
        path = tmp_path / "trace.csv"
        write_trace_csv(res.trace, path)
        return path.read_bytes()

    assert run() == run()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_loss_aborts_with_diagnostic():
    imgs = generate_dataset(2, 16, PhantomSpec(), seed=33)
    op = _op(seed=34)
    with pytest.raises(NumericsError, match="step"):
        train(imgs, op, UnrollConfig(iterations=2),
              TrainConfig(lr=1e12, epochs=50, batch_size=2, seed=0),
              ProximalConfig(feature_maps=4, normalization="none"),
              [op.apply(x) for x in imgs])


def test_alpha_clamped_at_floor():
    imgs = generate_dataset(2, 16, PhantomSpec(), seed=35)
    op = _op(seed=36)
    res = train(imgs, op,
                UnrollConfig(iterations=1, alpha_init=2e-4),
                TrainConfig(lr=0.5, epochs=3, batch_size=2, seed=1),
                ProximalConfig(feature_maps=4, normalization="none"),
                [op.apply(x) for x in imgs])
    assert float(res.alpha.value) >= float(np.float32(1e-4))


def test_empty_dataset_rejected():
    with pytest.raises(ParameterError):
        train([], None, UnrollConfig(), TrainConfig(), ProximalConfig(), [])


def test_reconstruct_deterministic_and_zero_input():
    net = build(ProximalConfig(feature_maps=4, normalization="none"), seed=37,
                zero_init_output=False)
    op = _op(seed=38)
    y = op.apply(random_complex_image(16, 16, seed=39))
    a, res_a = reconstruct(net, 1.0, op, y, 3)
    b, res_b = reconstruct(net, 1.0, op, y, 3)
    assert np.array_equal(a, b)
    assert res_a == res_b
    # zero measurement with zero biases keeps the whole trajectory at zero
    x0, _ = reconstruct(net, 1.0, op, np.zeros((2, 16, 16), np.float32), 3)
    assert norm(x0) == 0.0


def test_unrolled_loss_gradient_matches_finite_differences():
    # tiny instance: 8x8 image, T=2, 1 RB, 4 feature maps
    imgs = generate_dataset(1, 8, PhantomSpec(), seed=40)
    x_true = imgs[0]
    op = MaskedFourierOperator(generate_vardens_mask(8, 8, 0.5, 0.05, 3.0, 41))
    y = op.apply(x_true)
    prox = ProximalConfig(feature_maps=4, num_res_blocks=1)
    net = build(prox, seed=42, zero_init_output=False)
    alpha = Variable(np.array(1.0, np.float32))

    def loss_value():
        tape = Tape()
        traj = unrolled_forward(net, op, y, 2, alpha, tape)
        total, _, _ = loss_p1(traj, x_true, y, op, beta=0.75, tape=tape)
        return tape, total

    tape, total = loss_value()
    for var in list(net.params.values()) + [alpha]:
        var.zero_grad()
    backward(tape, total)
    grads = {name: var.grad_or_zeros().copy() for name, var in net.params.items()}
    grads["alpha"] = alpha.grad_or_zeros().copy()

    rng = np.random.default_rng(43)
    slots = dict(net.params)
    slots["alpha"] = alpha
    direction = {name: rng.standard_normal(var.value.shape).astype(np.float32)
                 for name, var in slots.items()}
    dir_norm = np.sqrt(sum(float(np.sum(d.astype(np.float64) ** 2))
                           for d in direction.values()))
    h = 1e-2
    originals = {name: var.value.copy() for name, var in slots.items()}

    def eval_at(sign):
        for name, var in slots.items():
            var.value = originals[name] + np.float32(sign * h / dir_norm) * direction[name]
        _, total = loss_value()
        return float(total.value)

    fp, fm = eval_at(+1.0), eval_at(-1.0)
    for name, var in slots.items():
        var.value = originals[name]
    fd = (fp - fm) / (2 * h)
    analytic = sum(float(np.sum(grads[name].astype(np.float64)
                                * direction[name].astype(np.float64)))
                   for name in slots) / dir_norm
    assert analytic == pytest.approx(fd, rel=1e-2), (analytic, fd)
