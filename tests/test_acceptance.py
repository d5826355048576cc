"""Acceptance criteria, one test per criterion, one PASS line each.

Criteria 4, 5, and 7 train real desk-scale models; the whole module took
418 s single-threaded at commit 262c84e, 411 s of it in criterion 4
(2-vCPU Xeon, one run). Run with `pytest -v -s
tests/test_acceptance.py` to watch the per-criterion lines. Every test
here carries the ``acceptance`` marker, so `pytest -m "not acceptance"`
runs the rest of the suite in seconds.
"""

import time

import numpy as np
import pytest

from npgd import autograd as ag
from npgd.autograd import Tape, Variable, backward
from npgd.baselines import (CsConfig, default_lambda_grid, fista, haar2_forward,
                            haar2_inverse, ista, soft_threshold, tune_lambda)
from npgd.checkpoint import deserialize, from_training, serialize
from npgd.contraction import analyze_trajectory, debias
from npgd.core import dot, fft2, ifft2, norm
from npgd.errors import CorruptionError
from npgd.metrics import snr_db, ssim
from npgd.operators import (BoxDownsampleOperator, MaskedFourierOperator,
                            gradient_step)
from npgd.phantoms import generate_dataset
from npgd.proxnet import ProximalConfig, build, capture_masks
from npgd.sampling import generate_vardens_mask
from npgd.unroll import (TrainConfig, loss_p1, reconstruct, train, unrolled_forward,
                         write_trace_csv)

from conftest import random_complex_image

pytestmark = pytest.mark.acceptance


def _report(name, elapsed, detail=""):
    print(f"\nPASS {name} [{elapsed:.1f}s] {detail}", flush=True)


# ---------------------------------------------------------------------------
# criterion 1: operator correctness


def test_criterion_1_operator_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    # FFT Parseval and round trip
    for _ in range(1000):
        x = np.stack((rng.standard_normal((16, 16)).astype(np.float32),
                      rng.standard_normal((16, 16)).astype(np.float32)))
        nx = norm(x)
        assert abs(norm(fft2(x)) - nx) <= 1e-5 * nx
    for i, n in enumerate((4, 8, 16, 32, 64)):
        x = random_complex_image(n, n, seed=i)
        back = ifft2(fft2(x))
        assert np.abs(back[0] - x[0]).max() < 1e-5
        assert np.abs(back[1] - x[1]).max() < 1e-5
    # adjoint identities, 100 random trials per operator
    for trial in range(100):
        mask = generate_vardens_mask(16, 16, 0.4, 0.05, 3.0, trial)
        op = MaskedFourierOperator(mask)
        x = random_complex_image(16, 16, seed=300 + trial)
        y = random_complex_image(16, 16, seed=600 + trial)
        assert abs(dot(op.apply(x), y) - dot(x, op.adjoint(y))) \
            < 1e-5 * norm(x) * norm(y)
    box = BoxDownsampleOperator(16, 16)
    for trial in range(100):
        x = random_complex_image(16, 16, seed=trial)
        y = random_complex_image(8, 8, seed=900 + trial)
        assert abs(dot(box.apply(x), y) - dot(x, box.adjoint(y))) \
            < 1e-5 * norm(x) * norm(y)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("criterion 1 (operator correctness)", elapsed)


# ---------------------------------------------------------------------------
# criterion 2: autograd gradient checks


def _gradient_direction_check(loss_fn, slots, h):
    """FD of the loss along the (normalized) gradient direction; the
    directional derivative there equals ||g||, the strongest possible
    signal-to-noise for a float32 forward pass."""
    tape, total = loss_fn()
    for var in slots.values():
        var.zero_grad()
    backward(tape, total)
    grads = {k: v.grad_or_zeros().astype(np.float64) for k, v in slots.items()}
    gnorm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    assert gnorm > 0
    originals = {k: v.value.copy() for k, v in slots.items()}

    def eval_at(sign):
        for k, v in slots.items():
            v.value = (originals[k]
                       + np.float32(sign * h / gnorm) * grads[k].astype(np.float32))
        _, val = loss_fn()
        return float(val.value)

    fp, fm = eval_at(1.0), eval_at(-1.0)
    for k, v in slots.items():
        v.value = originals[k]
    fd = (fp - fm) / (2 * h)
    return abs(gnorm - fd) / max(abs(fd), 1e-8), grads, originals


def _coordinate_subsample_check(loss_fn, slots, grads, originals, h, n_coords, seed):
    """Per-coordinate central differences on the largest-gradient
    coordinates (plus random ones); norm-wise relative error."""
    entries = []
    for k, g in grads.items():
        flat = np.abs(g).ravel()
        order = np.argsort(-flat)
        for idx in order[:max(2, n_coords // (2 * len(grads)))]:
            entries.append((k, int(idx)))
    rng = np.random.default_rng(seed)
    for _ in range(n_coords // 2):
        k = list(slots)[int(rng.integers(len(slots)))]
        entries.append((k, int(rng.integers(slots[k].value.size))))
    analytic, fd = [], []
    for k, idx in entries:
        var = slots[k]
        base = originals[k].ravel()[idx]
        var.value.ravel()[idx] = base + h
        _, vp = loss_fn()
        var.value.ravel()[idx] = base - h
        _, vm = loss_fn()
        var.value.ravel()[idx] = base
        fd.append((float(vp.value) - float(vm.value)) / (2 * h))
        analytic.append(float(grads[k].ravel()[idx]))
    analytic, fd = np.array(analytic), np.array(fd)
    return np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-8)


def test_criterion_2_autograd_gradients():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)

    def vjp_against_fd(op_fn, arrays, h):
        cot = rng.standard_normal(op_fn([Variable(a) for a in arrays], None)
                                  .value.shape).astype(np.float32)
        tape = Tape()
        variables = [Variable(a.copy()) for a in arrays]
        total = ag.sum_squares(ag.add(op_fn(variables, tape), Variable(cot), tape), tape)
        backward(tape, total)
        for vi, base in enumerate(arrays):
            analytic = variables[vi].grad_or_zeros().astype(np.float64)
            fd = np.zeros(base.size)
            for idx in range(base.size):
                bumped = [a.copy() for a in arrays]
                bumped[vi].ravel()[idx] += h
                fp = float(ag.sum_squares(ag.add(op_fn([Variable(a) for a in bumped],
                                                       None), Variable(cot))).value)
                bumped[vi].ravel()[idx] -= 2 * h
                fm = float(ag.sum_squares(ag.add(op_fn([Variable(a) for a in bumped],
                                                       None), Variable(cot))).value)
                fd[idx] = (fp - fm) / (2 * h)
            err = np.linalg.norm(analytic.ravel() - fd) / max(np.linalg.norm(fd), 1e-6)
            assert err < 1e-3, f"primitive VJP input {vi}: {err:.2e}"

    # every primitive
    x = rng.standard_normal((2, 8, 8)).astype(np.float32)
    k = (rng.standard_normal((4, 2, 3, 3)) * 0.5).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    vjp_against_fd(lambda v, t: ag.conv2d(v[0], v[1], v[2], tape=t), [x, k, b], h=0.05)
    z = rng.standard_normal((40,)).astype(np.float32)
    z = z + np.sign(z) * 2e-2
    vjp_against_fd(lambda v, t: ag.relu(v[0], t), [z], h=5e-3)
    vjp_against_fd(lambda v, t: ag.swish(v[0], t), [z], h=5e-3)
    gmm = rng.uniform(0.5, 1.5, 3).astype(np.float32)
    bet = rng.standard_normal(3).astype(np.float32)
    xn = rng.standard_normal((3, 5, 5)).astype(np.float32)
    vjp_against_fd(lambda v, t: ag.instance_norm(v[0], v[1], v[2], tape=t),
                   [xn, gmm, bet], h=3e-3)
    a = rng.standard_normal((12,)).astype(np.float32)
    bb = rng.standard_normal((12,)).astype(np.float32)
    vjp_against_fd(lambda v, t: ag.add(v[0], v[1], t), [a, bb], h=0.05)
    vjp_against_fd(lambda v, t: ag.mul(v[0], v[1], t), [a, bb], h=0.05)
    vjp_against_fd(lambda v, t: ag.scale(v[0], 1.7, t), [a], h=0.05)
    target = rng.standard_normal((12,)).astype(np.float32)
    vjp_against_fd(lambda v, t: ag.mse_loss(v[0], target, t), [a], h=0.05)
    vjp_against_fd(lambda v, t: ag.sum_squares(v[0], t), [a], h=0.05)
    vjp_against_fd(lambda v, t: ag.smooth_l1_loss(v[0], target, tape=t), [a], h=1e-3)

    # full unrolled loss on the 8x8 / T=2 / 4-feature instance
    imgs = generate_dataset(1, 8, seed=40)
    x_true = imgs[0]
    op = MaskedFourierOperator(generate_vardens_mask(8, 8, 0.5, 0.05, 3.0, 41))
    y = op.apply(x_true)
    net = build(ProximalConfig(feature_maps=4, num_res_blocks=1), seed=42,
                zero_init_output=False)
    alpha = Variable(np.array(1.0, np.float32))
    slots = dict(net.params)
    slots["alpha"] = alpha

    def full_loss():
        tape = Tape()
        iterates, residuals = unrolled_forward(net, op, y, 2, alpha, tape)
        total, _, _ = loss_p1(iterates, residuals, x_true, beta=0.75, tape=tape)
        return tape, total

    rel, grads, originals = _gradient_direction_check(full_loss, slots, h=3e-4)
    assert rel < 1e-2, f"full chain gradient-direction error {rel:.2e}"
    rel_coords = _coordinate_subsample_check(full_loss, slots, grads, originals,
                                             h=5e-4, n_coords=60, seed=4)
    assert rel_coords < 1e-2, f"full chain coordinate error {rel_coords:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("criterion 2 (autograd gradients)", elapsed)


# ---------------------------------------------------------------------------
# criterion 3: baseline properties


def test_criterion_3_baseline_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    # soft threshold against the brute-force scalar proximal
    for _ in range(1000):
        v = float(rng.uniform(-3, 3))
        lam = float(rng.uniform(0, 2))
        # a one-pixel image with a zero imaginary plane
        got = float(soft_threshold(np.array([[[v]], [[0.0]]], np.float32), lam)[0, 0, 0])
        lo, hi = -4.0, 4.0
        for _ in range(6):
            grid = np.linspace(lo, hi, 201)
            objective = 0.5 * (grid - v) ** 2 + lam * np.abs(grid)
            best = grid[np.argmin(objective)]
            span = (hi - lo) / 200
            lo, hi = best - 2 * span, best + 2 * span
        assert abs(got - best) < 1e-4
    # Haar orthonormality
    for seed in range(20):
        x = random_complex_image(16, 16, seed=seed)
        c = haar2_forward(x, 2)
        assert abs(norm(c) - norm(x)) <= 1e-5 * norm(x)
        assert norm(haar2_inverse(c, 2) - x) <= 1e-5 * norm(x)
    # ISTA monotone and FISTA no slower, 20 random 16x16 problems
    for trial in range(20):
        mask = generate_vardens_mask(16, 16, 0.4, 0.05, 3.0, 50 + trial)
        op = MaskedFourierOperator(mask)
        y = op.apply(random_complex_image(16, 16, seed=100 + trial))
        cfg_i = CsConfig(iterations=50, solver="ista", levels=2)
        cfg_f = CsConfig(iterations=50, solver="fista", levels=2)
        _, (tr_i,) = ista(y[None], op, cfg_i, [0.02])
        objs = [row[1] for row in tr_i]
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-7 * max(abs(a), 1.0)
        _, (tr_f,) = fista(y[None], op, cfg_f, [0.02])
        assert tr_f[-1][1] <= tr_i[-1][1] * (1 + 1e-6)
    _report("criterion 3 (baseline properties)", time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# criterion 4: desk-scale reconstruction trend (the big training run)


@pytest.fixture(scope="module")
def mri_bundle():
    t0 = time.perf_counter()
    images = generate_dataset(200, 64, seed=7)
    train_set, test_set = images[:180], images[180:]
    mask = generate_vardens_mask(64, 64, 0.2, 0.04, 3.0, 1)
    op = MaskedFourierOperator(mask)
    ys_test = [op.apply(x) for x in test_set]

    # lambda-tuned FISTA baseline (300 iterations)
    val = train_set[-10:]
    ys_val = np.stack([op.apply(x) for x in val])
    cs = CsConfig(iterations=300, solver="fista", levels=4)
    grid = default_lambda_grid(ys_val, op, 4, 8)
    best_lam, _ = tune_lambda(list(zip(val, ys_val)), op, grid, cs)
    # one batch: each image's iterates are bit-equal to solving it alone
    xs_cs, _ = fista(np.stack(ys_test), op, cs, [best_lam] * len(ys_test))
    fista_snr = float(np.mean([snr_db(xhat, x) for xhat, x in zip(xs_cs, test_set)]))

    prox = ProximalConfig(arch="resnet", num_res_blocks=1, feature_maps=32,
                          activation="relu", normalization="instance")
    ys_train = [op.apply(x) for x in train_set]
    main = train(train_set, op,
                 TrainConfig(iterations=10, lr=1e-3, lr_halve_every=400, epochs=8,
                             batch_size=2, seed=3), prox, ys_train)

    sweep = {}
    for t_cells in (1, 3):
        sweep[t_cells] = train(train_set, op,
                               TrainConfig(iterations=t_cells, lr=1e-3, lr_halve_every=400,
                                           epochs=4, batch_size=2, seed=3), prox, ys_train)
    return {"op": op, "test": test_set, "ys": ys_test, "fista_snr": fista_snr,
            "main": main, "sweep": sweep, "seconds": time.perf_counter() - t0,
            "t0": t0}


def test_criterion_4_reconstruction_trend(mri_bundle):
    b = mri_bundle
    op, test_set, ys = b["op"], b["test"], b["ys"]
    zf_snr = float(np.mean([snr_db(op.adjoint(y), x)
                            for x, y in zip(test_set, ys)]))
    alpha = float(b["main"].alpha.value)
    npgd_snr = float(np.mean([snr_db(reconstruct(b["main"].net, alpha, op, y, 10)[0], x)
                              for x, y in zip(test_set, ys)]))
    sweep_snr = {}
    for t_cells, result in b["sweep"].items():
        a = float(result.alpha.value)
        sweep_snr[t_cells] = float(np.mean(
            [snr_db(reconstruct(result.net, a, op, y, t_cells)[0], x)
             for x, y in zip(test_set, ys)]))
    elapsed = time.perf_counter() - b["t0"]
    assert npgd_snr >= zf_snr + 6.0, (npgd_snr, zf_snr)
    assert npgd_snr >= b["fista_snr"] + 0.5, (npgd_snr, b["fista_snr"])
    assert sweep_snr[3] > sweep_snr[1], sweep_snr
    assert elapsed <= 45 * 60
    _report("criterion 4 (desk-scale reconstruction trend)", elapsed,
            f"ZF {zf_snr:.2f} dB | FISTA {b['fista_snr']:.2f} dB | "
            f"NPGD {npgd_snr:.2f} dB | T=1 {sweep_snr[1]:.2f} dB | "
            f"T=3 {sweep_snr[3]:.2f} dB")


# ---------------------------------------------------------------------------
# criterion 5: contraction suite on the superresolution chain model


@pytest.fixture(scope="module")
def sr_bundle():
    t0 = time.perf_counter()
    images = generate_dataset(120, 32, seed=11)
    train_set, test_set = images[:100], images[100:]
    op = BoxDownsampleOperator(32, 32)
    prox = ProximalConfig(arch="chain", chain_layers=3, chain_kernel=5,
                          feature_maps=4, activation="swish", normalization="none")
    result = train(train_set, op,
                   TrainConfig(iterations=10, alpha_init=4.0, beta=0.25, lr=3e-4,
                               lr_halve_every=300, epochs=6, batch_size=2, seed=7), prox,
                   [op.apply(x) for x in train_set])
    ys = [op.apply(x) for x in test_set]
    return {"op": op, "test": test_set, "ys": ys, "result": result, "t0": t0}


def test_criterion_5_contraction_suite(sr_bundle):
    b = sr_bundle
    op, test_set, ys = b["op"], b["test"], b["ys"]
    net = b["result"].net
    alpha = float(b["result"].alpha.value)
    traces = [analyze_trajectory(net, alpha, op, x, y, 10) for x, y in zip(test_set, ys)]
    # (a) decomposition identity at every step of every trajectory
    for i, tr in enumerate(traces):
        for row in tr.rows:
            assert row.decomp_residual <= 1e-4 * (row.err_next + 1.0), \
                (i, row.t, row.decomp_residual)
    # (b) bound slack everywhere
    for i, tr in enumerate(traces):
        for row in tr.rows:
            assert row.bound_slack >= -1e-5 * row.delta_norm, (i, row.t)
    # (c) NRMSE decreases from t=1 to t=T on >= 90% of samples
    improved = sum(1 for tr in traces if tr.rows[-1].nrmse < tr.rows[0].nrmse)
    assert improved >= int(np.ceil(0.9 * len(traces))), improved
    # (d) median eta1 >= median eta2 at every t
    ratios = []
    for t in range(10):
        e1 = float(np.median([tr.rows[t].eta1 for tr in traces]))
        e2 = float(np.median([tr.rows[t].eta2 for tr in traces]))
        assert e1 >= e2, (t + 1, e1, e2)
        ratios.append(e1 / max(e2, 1e-12))
    elapsed = time.perf_counter() - b["t0"]
    assert elapsed <= 10 * 60
    _report("criterion 5 (contraction suite)", elapsed,
            f"NRMSE trend {improved}/{len(traces)} | "
            f"median eta1/eta2 ratio {min(ratios):.1f}-{max(ratios):.1f}")


# ---------------------------------------------------------------------------
# criterion 6: determinism and persistence


def test_criterion_6_determinism_and_persistence(tmp_path):
    t0 = time.perf_counter()
    # bit-identical loss traces for identical seeds
    images = generate_dataset(6, 16, seed=31)
    mask = generate_vardens_mask(16, 16, 0.4, 0.05, 3.0, 32)
    op = MaskedFourierOperator(mask)
    prox = ProximalConfig(feature_maps=8, normalization="instance")

    def run_once(path):
        res = train(images, op,
                    TrainConfig(iterations=2, lr=1e-3, epochs=2, batch_size=2, seed=5), prox,
                    [op.apply(x) for x in images])
        write_trace_csv(res.trace, path)
        return res, path.read_bytes()

    res_a, blob_a = run_once(tmp_path / "a.csv")
    res_b, blob_b = run_once(tmp_path / "b.csv")
    assert blob_a == blob_b
    # bit-identical masks for identical seeds
    m1 = generate_vardens_mask(64, 64, 0.2, 0.04, 3.0, 9)
    m2 = generate_vardens_mask(64, 64, 0.2, 0.04, 3.0, 9)
    assert np.array_equal(m1.bits, m2.bits)
    # checkpoint round trip is byte-identical, corruption rejected
    ck = from_training(res_a, TrainConfig(iterations=2, seed=5))
    blob = serialize(ck)
    again = serialize(deserialize(blob))
    assert blob == again
    corrupted = bytearray(blob)
    corrupted[len(corrupted) // 3] ^= 0x5A
    with pytest.raises(CorruptionError):
        deserialize(bytes(corrupted))
    _report("criterion 6 (determinism & persistence)", time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# criterion 7: de-biasing


def test_criterion_7_debias(sr_bundle):
    t0 = time.perf_counter()
    b = sr_bundle
    op, test_set, ys = b["op"], b["test"], b["ys"]
    net = b["result"].net
    alpha = float(b["result"].alpha.value)
    n_converged = 0
    for x_true, y in zip(test_set, ys):
        x_t = unrolled_forward(net, op, y, 10, alpha)[0][-1].value
        masks = capture_masks(net, gradient_step(x_t, y, alpha, op))
        res = debias(net, masks, op, alpha, y, x_t)
        assert res.converged or res.diverged or res.iterations >= 200
        if res.converged:
            n_converged += 1
            before = norm(y - op.apply(x_t))
            after = norm(y - op.apply(res.x))
            assert after <= before * (1 + 1e-5), (before, after)
    _report("criterion 7 (de-biasing)", time.perf_counter() - t0,
            f"converged on {n_converged}/{len(test_set)} samples")
