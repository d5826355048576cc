from dataclasses import astuple

import numpy as np
import pytest

from npgd.contraction import (ContractionTrace, FrozenAffineMap, analyze_trajectory,
                              bound_slack, contraction_step, debias)
from npgd.core import ifft2, norm
from npgd.errors import ContractError, UnsupportedConfigError
from npgd.operators import BoxDownsampleOperator, MaskedFourierOperator, gradient_step
from npgd.proxnet import MaskSnapshot, ProximalConfig, build, capture_masks
from npgd.sampling import generate_vardens_mask
from npgd.unroll import unrolled_forward

from conftest import (empty_mask, full_mask, make_identity_resnet,
                      nonzero_complex_image, random_complex_image)


def _chain_net(seed=0, layers=3, kernel=5, feats=6):
    cfg = ProximalConfig(arch="chain", chain_layers=layers, chain_kernel=kernel,
                         feature_maps=feats, activation="swish",
                         normalization="none")
    return build(cfg, seed=seed, zero_init_output=False)


def _rand2(h, w, seed):
    return np.random.default_rng(seed).standard_normal((2, h, w)).astype(np.float32)


def _step(net, op, alpha, x_star, x_t, masks_star=None, masks_t=None):
    """contraction_step on the live transition from x_t under y = apply(x_star);
    the frozen maps default to the masks captured at x_star and s_{t+1}."""
    y = op.apply(x_star)
    s_next = gradient_step(x_t, y, alpha, op)
    x_next = net.forward(s_next).value
    if masks_star is None:
        masks_star = capture_masks(net, x_star)
    if masks_t is None:
        masks_t = capture_masks(net, s_next)
    return contraction_step(1, FrozenAffineMap(net, masks_star),
                            FrozenAffineMap(net, masks_t), net.forward(x_star).value - x_star,
                            op, alpha, x_star, x_t, x_next)


# ---------------------------------------------------------------------------
# frozen maps


def test_frozen_apply_matches_forward_at_capture_point():
    for net in (_chain_net(seed=1),
                build(ProximalConfig(feature_maps=4, normalization="none"), seed=2)):
        x = _rand2(16, 16, 3)
        out, snap = net.forward_and_masks(x)
        assert np.array_equal(FrozenAffineMap(net, snap)(x), out)


def test_frozen_rejects_normalization():
    # the contract is checked where the frozen map is evaluated
    net = build(ProximalConfig(feature_maps=4, normalization="instance"), seed=4)
    x = _rand2(8, 8, 5)
    snap = capture_masks(net, x)
    with pytest.raises(UnsupportedConfigError):
        FrozenAffineMap(net, snap)(x)


def test_all_ones_mask_is_pure_conv_composition():
    net = _chain_net(seed=6, layers=2, kernel=3, feats=4)
    for name in net.params:
        if name.endswith(".bias"):
            net.params[name].value[:] = 0.0
    snap = MaskSnapshot(("out.act",), (np.ones((2, 8, 8), np.float32),),
                        net.config.signature)
    u = _rand2(8, 8, 7)
    from npgd import autograd as ag
    from npgd.autograd import Variable
    expected = ag.conv2d(ag.conv2d(Variable(u), net.params["layer1.kernel"],
                                   net.params["layer1.bias"]),
                         net.params["layer2.kernel"], net.params["layer2.bias"]).value
    assert np.array_equal(FrozenAffineMap(net, snap)(u), expected)


def test_frozen_linear_part_is_linear():
    net = _chain_net(seed=8)
    base = _rand2(16, 16, 9)
    snap = capture_masks(net, base)
    frozen = FrozenAffineMap(net, snap)
    rng = np.random.default_rng(10)
    for trial in range(5):
        u = rng.standard_normal((2, 16, 16)).astype(np.float32)
        v = rng.standard_normal((2, 16, 16)).astype(np.float32)
        w = rng.standard_normal((2, 16, 16)).astype(np.float32)
        # additivity of differences: frozen(u+w) - frozen(u) == frozen(v+w) - frozen(v)
        lhs = frozen(u + w) - frozen(u)
        rhs = frozen(v + w) - frozen(v)
        scale = max(np.linalg.norm(lhs), 1.0)
        assert np.linalg.norm(lhs - rhs) <= 1e-5 * scale
        # homogeneity of the linear part
        a = float(rng.uniform(0.5, 2.0))
        lin_u = frozen.linear(u)
        lin_au = frozen.linear(a * u)
        assert np.linalg.norm(lin_au - a * lin_u) <= 1e-5 * max(np.linalg.norm(lin_au), 1.0)


# ---------------------------------------------------------------------------
# eta ratios


def test_eta1_identity_net_full_mask_is_zero():
    net = make_identity_resnet()
    x_star = nonzero_complex_image(16, 16, seed=11)
    op = MaskedFourierOperator(full_mask(16, 16))
    delta = random_complex_image(16, 16, seed=12)
    row = _step(net, op, 1.0, x_star, x_star + delta)
    assert row.eta1 == pytest.approx(0.0, abs=1e-5)


def test_eta1_identity_net_empty_mask_is_one():
    net = make_identity_resnet()
    x_star = nonzero_complex_image(16, 16, seed=13)
    op = MaskedFourierOperator(empty_mask(16, 16))
    delta = random_complex_image(16, 16, seed=14)
    row = _step(net, op, 0.7, x_star, x_star + delta)
    assert row.eta1 == pytest.approx(1.0, abs=1e-5)


def test_eta_zero_delta_row():
    # at x_t = x_* the ratios would be 0/0: the row reports zeros, and its
    # residual and slack come from the formulas of every other row
    net = _chain_net(seed=15)
    op = BoxDownsampleOperator(16, 16)
    for x_star in (random_complex_image(16, 16, seed=16), np.zeros((2, 16, 16), np.float32)):
        row = _step(net, op, 0.5, x_star, x_star)
        assert (row.nrmse, row.eta1, row.eta2, row.delta_norm) == (0.0, 0.0, 0.0, 0.0)
        # y = apply(x_*) makes s_{t+1} = x_*: M_t = M_* and x_{t+1} - x_* = xi
        assert row.decomp_residual == 0.0
        assert row.err_next == row.xi_norm
        assert row.bound_slack == bound_slack(0.0, 0.0, 0.0, row.xi_norm, row.err_next)
    # masks from elsewhere: the perturbation term M_t(x_*) - M_*(x_*) stays in
    x_star = random_complex_image(16, 16, seed=16)
    other = capture_masks(net, random_complex_image(16, 16, seed=17))
    row = _step(net, op, 0.5, x_star, x_star, masks_t=other)
    assert (row.eta1, row.eta2) == (0.0, 0.0)
    expected = norm(net.forward(x_star).value - FrozenAffineMap(net, other)(x_star))
    assert row.decomp_residual == pytest.approx(expected, rel=1e-5)


def test_eta2_identical_masks_is_zero():
    net = _chain_net(seed=17)
    x_star = random_complex_image(16, 16, seed=18)
    masks = capture_masks(net, x_star)
    op = BoxDownsampleOperator(16, 16)
    delta = random_complex_image(16, 16, seed=19)
    row = _step(net, op, 0.5, x_star, x_star + delta, masks_star=masks, masks_t=masks)
    assert row.eta2 == 0.0


def test_eta2_single_layer_matrix_oracle():
    # 1x1-kernel single-layer net: frozen map with mask d is u -> d * (W u)
    net = _chain_net(seed=20, layers=1, kernel=1, feats=6)
    net.params["layer1.bias"].value[:] = 0.0
    w = net.params["layer1.kernel"].value[:, :, 0, 0]  # (2, 2) pixelwise matrix
    h = 8
    ones = MaskSnapshot(("out.act",), (np.ones((2, h, h), np.float32),),
                        net.config.signature)
    zeros = MaskSnapshot(("out.act",), (np.zeros((2, h, h), np.float32),),
                         net.config.signature)
    op = MaskedFourierOperator(empty_mask(h, h))  # (I - a N) = I
    x_star = random_complex_image(h, h, seed=21)
    delta = random_complex_image(h, h, seed=22)
    got = _step(net, op, 1.0, x_star, x_star + delta, masks_star=zeros,
                masks_t=ones).eta2
    u = x_star + delta
    w_u = np.einsum("oc,chw->ohw", w.astype(np.float64), u.astype(np.float64))
    expected = np.linalg.norm(w_u) / norm(delta)
    assert got == pytest.approx(expected, rel=1e-5)


def test_eta1_scale_invariant():
    net = _chain_net(seed=23)
    x_star = random_complex_image(16, 16, seed=24)
    op = BoxDownsampleOperator(16, 16)
    delta = random_complex_image(16, 16, seed=25)
    a = _step(net, op, 0.5, x_star, x_star + delta).eta1
    b = _step(net, op, 0.5, x_star, x_star + delta * 3.7).eta1
    assert a == pytest.approx(b, rel=1e-4)


def test_eta2_scale_invariant_for_biasfree_net():
    # with zero biases the perturbation difference is linear, so the ratio
    # is invariant under scaling of delta at fixed masks
    net = _chain_net(seed=26)
    for name in net.params:
        if name.endswith(".bias"):
            net.params[name].value[:] = 0.0
    op = BoxDownsampleOperator(16, 16)
    x_star = np.zeros((2, 16, 16), np.float32)
    m_a = capture_masks(net, random_complex_image(16, 16, seed=27))
    m_b = capture_masks(net, random_complex_image(16, 16, seed=28))
    delta = random_complex_image(16, 16, seed=29)
    a = _step(net, op, 0.5, x_star, delta, masks_star=m_a, masks_t=m_b).eta2
    b = _step(net, op, 0.5, x_star, delta * 2.9, masks_star=m_a, masks_t=m_b).eta2
    assert a == pytest.approx(b, rel=1e-4)


# ---------------------------------------------------------------------------
# xi


def _xi(net, x_star):
    """The analyzer's xi = forward(x_*) - x_*, and the norm its rows report."""
    op = MaskedFourierOperator(full_mask(16, 16))
    tr = analyze_trajectory(net, 1.0, op, x_star, op.apply(x_star), 1)
    return net.forward_and_masks(x_star)[0] - x_star, tr.rows[0].xi_norm


def test_xi_identity_net_is_zero():
    net = make_identity_resnet()
    x_star = nonzero_complex_image(16, 16, seed=30)
    xi, xi_norm = _xi(net, x_star)
    assert xi_norm == norm(xi)
    assert xi_norm == pytest.approx(0.0, abs=1e-6)


def test_xi_identity_plus_bias():
    net = make_identity_resnet()
    net.params["tail3.bias"].value[:] = np.array([0.01, -0.02], np.float32)
    x_star = nonzero_complex_image(16, 16, seed=31)
    offset = np.zeros((2, 16, 16), np.float32)
    offset[0] = 0.01
    offset[1] = -0.02
    xi, xi_norm = _xi(net, x_star)
    assert xi_norm == pytest.approx(np.linalg.norm(offset), rel=1e-5)
    assert np.allclose(xi, offset, atol=1e-6)


# ---------------------------------------------------------------------------
# decomposition and bound


def test_decomposition_identity_net_residual_roundoff():
    net = make_identity_resnet()
    op = MaskedFourierOperator(generate_vardens_mask(16, 16, 0.4, 0.05, 3.0, 32))
    x_star = nonzero_complex_image(16, 16, seed=33)
    x_t = nonzero_complex_image(16, 16, seed=34)
    assert _step(net, op, 1.0, x_star, x_t).decomp_residual < 1e-5


def test_decomposition_single_layer_hand_expansion():
    # one gated layer z = W u + b, sigma = swish: expand every term with
    # dense matrices on a 2x2 image and compare against the module
    net = _chain_net(seed=35, layers=1, kernel=1, feats=6)
    rng = np.random.default_rng(36)
    net.params["layer1.bias"].value[:] = rng.standard_normal(2).astype(np.float32) * 0.1
    w = net.params["layer1.kernel"].value[:, :, 0, 0].astype(np.float64)
    b = net.params["layer1.bias"].value.astype(np.float64)
    op = BoxDownsampleOperator(2, 2)
    x_star = random_complex_image(2, 2, seed=37)
    y = op.apply(x_star)
    x_t = random_complex_image(2, 2, seed=38)
    alpha = 0.5

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    def pre(u2):  # z = W u + b per pixel
        return np.einsum("oc,chw->ohw", w, u2) + b[:, None, None]

    def live(u2):  # the actual proximal output
        z = pre(u2)
        return sigmoid(z) * z

    def frozen_at(capture_pt, u2):
        d = sigmoid(pre(capture_pt))
        return d * pre(u2)

    x2 = x_star.astype(np.float64)
    s2 = x_t.astype(np.float64)
    nrm = lambda v: np.float64(np.sqrt((v ** 2).sum()))
    s_next = gradient_step(x_t, y, alpha, op).astype(np.float64)
    w_vec = s_next - x2  # (I - a N)(x_t - x_*) for consistent y
    lhs = live(s_next) - x2
    term1 = frozen_at(x2, x2 + w_vec) - frozen_at(x2, x2)
    term2 = (frozen_at(s_next, x2 + w_vec) - frozen_at(s_next, x2)) - term1
    term3 = frozen_at(s_next, x2) - frozen_at(x2, x2)
    xi = frozen_at(x2, x2) - x2
    hand_resid = nrm(lhs - (term1 + term2 + term3 + xi))
    assert hand_resid < 1e-6  # the identity holds in the hand expansion
    row = _step(net, op, alpha, x_star, x_t)
    assert row.decomp_residual < 1e-5
    d_norm = nrm(s2 - x2)
    assert row.eta1 == pytest.approx(nrm(term1) / d_norm, rel=1e-4)
    assert row.eta2 == pytest.approx(nrm(term2 + term3) / d_norm, rel=1e-4)


def test_decomposition_chain_net_random():
    net = _chain_net(seed=39)
    op = BoxDownsampleOperator(16, 16)
    x_star = random_complex_image(16, 16, seed=40)
    y = op.apply(x_star)
    for seed in range(3):
        x_t = random_complex_image(16, 16, seed=50 + seed)
        s_next = gradient_step(x_t, y, 0.5, op)
        x_next = net.forward(s_next).value
        resid = _step(net, op, 0.5, x_star, x_t).decomp_residual
        assert resid <= 1e-4 * (norm(x_next - x_star) + 1.0)


def test_decomposition_rejects_noisy_measurements():
    net = _chain_net(seed=41)
    op = BoxDownsampleOperator(16, 16)
    x_star = random_complex_image(16, 16, seed=42)
    y = op.apply(x_star)
    noisy = y.copy()
    noisy[0] += 0.1
    with pytest.raises(ContractError):
        analyze_trajectory(net, 0.5, op, x_star, noisy, 1)


def test_bound_slack_nonnegative_on_real_steps():
    net = _chain_net(seed=43)
    op = BoxDownsampleOperator(16, 16)
    x_star = random_complex_image(16, 16, seed=44)
    y = op.apply(x_star)
    tr = analyze_trajectory(net, 0.5, op, x_star, y, 5)
    for row in tr.rows:
        assert row.bound_slack >= -1e-5 * row.delta_norm
        assert row.decomp_residual <= 1e-4 * (row.err_next + 1.0)


def test_bound_slack_identity_consistent_both_sides_zero():
    net = make_identity_resnet()
    op = MaskedFourierOperator(full_mask(16, 16))
    x_star = nonzero_complex_image(16, 16, seed=45)
    y = op.apply(x_star)
    tr = analyze_trajectory(net, 1.0, op, x_star, y, 3)
    for row in tr.rows:
        assert row.nrmse <= 1e-5
        assert abs(row.bound_slack) <= 1e-4


# ---------------------------------------------------------------------------
# debias


def test_debias_identity_full_mask_lands_on_inverse():
    net = make_identity_resnet()
    op = MaskedFourierOperator(full_mask(16, 16))
    x_star = nonzero_complex_image(16, 16, seed=46)
    y = op.apply(x_star)
    x_t = nonzero_complex_image(16, 16, seed=47)
    masks = capture_masks(net, x_t)
    res = debias(net, masks, op, 1.0, y, x_t, max_iters=10)
    assert res.converged
    assert norm(res.x - ifft2(y)) <= 1e-4 * norm(x_star)


def test_debias_fixed_point_returns_input():
    net = make_identity_resnet()
    op = MaskedFourierOperator(full_mask(16, 16))
    x_star = nonzero_complex_image(16, 16, seed=48)
    y = op.apply(x_star)
    masks = capture_masks(net, x_star)
    res = debias(net, masks, op, 1.0, y, x_star, max_iters=10)
    assert res.converged
    assert norm(res.x - x_star) <= 1e-4 * norm(x_star)


def test_debias_divergence_flagged_and_input_returned():
    net = _chain_net(seed=49, layers=1, kernel=1, feats=6)
    # inflate the single conv so the affine iteration blows up
    net.params["layer1.kernel"].value *= 50.0
    op = BoxDownsampleOperator(16, 16)
    x_t = random_complex_image(16, 16, seed=50)
    y = op.apply(x_t)
    masks = capture_masks(net, x_t)
    res = debias(net, masks, op, 0.5, y, x_t, max_iters=500)
    assert res.diverged and not res.converged
    assert np.array_equal(res.x, x_t)


# ---------------------------------------------------------------------------
# trajectory analysis


def test_analyze_identity_consistent_nrmse_zero_after_first():
    net = make_identity_resnet()
    op = MaskedFourierOperator(full_mask(16, 16))
    x_star = nonzero_complex_image(16, 16, seed=51)
    y = op.apply(x_star)
    tr = analyze_trajectory(net, 1.0, op, x_star, y, 4)
    for row in tr.rows:
        assert row.nrmse <= 1e-5
    assert [row.t for row in tr.rows] == [1, 2, 3, 4]


def test_analyze_untrained_net_trace_is_finite():
    net = _chain_net(seed=52)
    op = BoxDownsampleOperator(16, 16)
    for i in range(2):
        x = random_complex_image(16, 16, seed=60 + i)
        tr = analyze_trajectory(net, 0.5, op, x, op.apply(x), 3)
        assert isinstance(tr, ContractionTrace)
        for row in tr.rows:
            for v in (row.nrmse, row.eta1, row.eta2, row.xi_norm,
                      row.decomp_residual, row.bound_slack):
                assert np.isfinite(v)


def test_analyze_returns_final_iterate_and_its_masks():
    # de-biasing linearizes at g(x_T; y); the analyzer hands back x_T and the
    # masks it captured there instead of having them recomputed
    net = _chain_net(seed=55)
    op = BoxDownsampleOperator(16, 16)
    x = random_complex_image(16, 16, seed=56)
    y = op.apply(x)
    tr = analyze_trajectory(net, 0.5, op, x, y, 3)
    x_final = unrolled_forward(net, op, y, 3, 0.5)[0][-1].value
    masks = capture_masks(net, gradient_step(x_final, y, 0.5, op))
    assert np.array_equal(tr.x_final, x_final)
    for got, want in zip(tr.masks_final.masks, masks.masks):
        assert np.array_equal(got, want)


def _separate_forwards_analyze(net, alpha, op, x_star, y, iterations):
    """analyze's rows from the loop that ran one proximal per purpose: the
    unrolled forward, capture_masks per state, forward(x_*) - x_* for xi and
    a separate extra forward past x_T. Every state is gradient_step of the
    previous iterate."""
    xs = [x.value for x in unrolled_forward(net, op, y, iterations, alpha)[0]]
    m_star = FrozenAffineMap(net, capture_masks(net, x_star))
    xi = net.forward(x_star).value - x_star
    s_states = [gradient_step(x, y, alpha, op) for x in xs]
    xs.append(net.forward(s_states[-1]).value)
    rows = []
    for t in range(1, iterations + 1):
        masks_t = capture_masks(net, s_states[t - 1])
        rows.append(contraction_step(t, m_star, FrozenAffineMap(net, masks_t), xi,
                                     op, alpha, x_star, xs[t - 1], xs[t]))
    return rows, xs[-2], masks_t


def test_analyze_matches_separate_forwards_bit_for_bit():
    relu = build(ProximalConfig(feature_maps=4, activation="relu", normalization="none"),
                 seed=58, zero_init_output=False)
    fourier = MaskedFourierOperator(generate_vardens_mask(16, 16, 0.4, 0.05, 3.0, 59))
    for net, op, alpha in ((_chain_net(seed=57), BoxDownsampleOperator(16, 16), 0.5),
                           (relu, fourier, 0.7)):
        pairs = [(x, op.apply(x)) for x in
                 (random_complex_image(16, 16, seed=60 + i) for i in range(2))]
        for x_star, y in pairs:
            tr = analyze_trajectory(net, alpha, op, x_star, y, 4)
            rows, x_final, masks_final = _separate_forwards_analyze(net, alpha, op,
                                                                    x_star, y, 4)
            assert [repr(astuple(r)) for r in tr.rows] == [repr(astuple(r)) for r in rows]
            assert tr.x_final.tobytes() == x_final.tobytes()
            assert tr.masks_final.layer_ids == masks_final.layer_ids
            for got, want in zip(tr.masks_final.masks, masks_final.masks, strict=True):
                assert got.tobytes() == want.tobytes()


def test_analyze_rejects_normalized_net():
    net = build(ProximalConfig(feature_maps=4, normalization="instance"), seed=53)
    op = BoxDownsampleOperator(16, 16)
    x = random_complex_image(16, 16, seed=54)
    with pytest.raises(UnsupportedConfigError):
        analyze_trajectory(net, 0.5, op, x, op.apply(x), 2)


def test_bound_slack_formula():
    assert bound_slack(0.5, 0.1, 2.0, 0.3, 1.0) == pytest.approx(0.6 * 2.0 + 0.3 - 1.0)
