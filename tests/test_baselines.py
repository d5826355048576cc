import numpy as np
import pytest

from npgd import baselines
from npgd.baselines import (CsConfig, cs_objective, default_lambda_grid, fista,
                            haar2_forward, haar2_inverse, ista, nesterov_next_t,
                            soft_threshold, tune_lambda)
from npgd.core import ifft2, magnitude, norm
from npgd.errors import DimensionError, ParameterError, ShapeError, SolverError
from npgd.metrics import snr_db
from npgd.operators import (BoxDownsampleOperator, LinearOperator,
                            MaskedFourierOperator, gradient_step)
from npgd.sampling import generate_vardens_mask

from conftest import full_mask, images_with_zero_pixels, random_complex_image


def _haar_matrix_one_level(n):
    """Independent construction of the single-level Haar analysis matrix."""
    m = np.zeros((n, n))
    inv = 1.0 / np.sqrt(2.0)
    for i in range(n // 2):
        m[i, 2 * i] = m[i, 2 * i + 1] = inv
        m[n // 2 + i, 2 * i] = inv
        m[n // 2 + i, 2 * i + 1] = -inv
    return m


def test_haar_one_level_matches_matrix_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((8, 8)).astype(np.float32)
    m = _haar_matrix_one_level(8)
    expected = m @ x @ m.T
    got = haar2_forward(x, 1)
    assert np.allclose(got, expected, atol=1e-5)


def test_haar_row_pair_formula():
    x = np.array([[3.0, 5.0], [3.0, 5.0]], np.float32)
    m = _haar_matrix_one_level(2)
    assert np.allclose(haar2_forward(x, 1), m @ x @ m.T, atol=1e-6)


def test_haar_constant_image_only_ll():
    c = np.full((16, 16), 2.5, np.float32)
    coeffs = haar2_forward(c, 2)
    ll = coeffs[:4, :4].copy()
    coeffs[:4, :4] = 0.0
    assert np.abs(coeffs).max() < 1e-5
    assert np.abs(ll).max() > 0


def test_haar_orthonormal_and_invertible():
    x = random_complex_image(16, 16, seed=2)
    c = haar2_forward(x, 2)
    assert abs(norm(c) - norm(x)) <= 1e-5 * norm(x)
    assert norm(haar2_inverse(c, 2) - x) <= 1e-5 * norm(x)


def test_haar_round_trip_non_square():
    for i, (h, w) in enumerate(((16, 32), (32, 16), (32, 8))):
        x = random_complex_image(h, w, seed=20 + i)
        c = haar2_forward(x, 2)
        assert c.shape == (2, h, w)
        assert norm(haar2_inverse(c, 2) - x) <= 1e-5 * norm(x)
        # each plane matches the one-level oracle, with the row and column
        # matrices sized by their own axis
        one = haar2_forward(x, 1)
        rows = _haar_matrix_one_level(h)
        cols = _haar_matrix_one_level(w)
        for p in range(2):
            assert np.allclose(one[p], rows @ x[p] @ cols.T, atol=1e-5)


def test_haar_rejects_indivisible():
    with pytest.raises(DimensionError):
        haar2_forward(np.zeros((12, 16), np.float32), 3)


def _real(v):
    """A one-pixel (2, 1, 1) image with real part v and a zero imaginary plane."""
    return np.array([[[v]], [[0.0]]], np.float32)


def test_soft_threshold_scalars():
    assert soft_threshold(_real(1.5), 1.0)[0, 0, 0] == pytest.approx(0.5)
    assert soft_threshold(_real(-0.3), 0.5)[0, 0, 0] == pytest.approx(0.0)


def test_soft_threshold_complex_magnitude():
    v = np.array([[[3.0]], [[4.0]]], np.float32)
    out = soft_threshold(v, 1.0)  # magnitude 5 shrinks to 4
    assert out[0, 0, 0] == pytest.approx(2.4, rel=1e-6)
    assert out[1, 0, 0] == pytest.approx(3.2, rel=1e-6)


def test_soft_threshold_matches_bruteforce_prox():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        v = float(rng.uniform(-3, 3))
        lam = float(rng.uniform(0, 2))
        got = float(soft_threshold(_real(v), lam)[0, 0, 0])
        # brute-force refinement of argmin_u 0.5 (u - v)^2 + lam |u|
        lo, hi = -4.0, 4.0
        for _ in range(6):
            grid = np.linspace(lo, hi, 201)
            objective = 0.5 * (grid - v) ** 2 + lam * np.abs(grid)
            best = grid[np.argmin(objective)]
            span = (hi - lo) / 200
            lo, hi = best - 2 * span, best + 2 * span
        assert abs(got - best) < 1e-4


class _IdentityOperator(LinearOperator):
    def __init__(self, n):
        self.in_shape = (n, n)
        self.out_shape = (n, n)

    def apply(self, x):
        return x.copy()

    adjoint = apply


class _AntiAdjointOperator(_IdentityOperator):
    # deliberately wrong adjoint: the gradient step walks uphill
    def adjoint(self, y):
        return y * (-1.0)


def test_ista_trivial_operator_single_step():
    op = _IdentityOperator(8)
    y = random_complex_image(8, 8, seed=4)
    cfg = CsConfig(iterations=3, solver="ista", levels=2)
    (x,), _ = ista(y[None], op, cfg, [0.05])
    expected = haar2_inverse(soft_threshold(haar2_forward(y, 2), 0.05), 2)
    assert norm(x - expected) <= 1e-5 * max(norm(expected), 1.0)


def test_ista_lambda_zero_full_mask_is_zero_fill():
    op = MaskedFourierOperator(full_mask(8, 8))
    y = op.apply(random_complex_image(8, 8, seed=5))
    cfg = CsConfig(iterations=2, solver="ista", levels=2)
    (x,), _ = ista(y[None], op, cfg, [0.0])
    assert norm(op.apply(x) - y) <= 1e-5 * norm(y)
    assert norm(x - ifft2(y)) <= 1e-5 * norm(y)


def test_ista_objective_monotone():
    for trial in range(5):
        mask = generate_vardens_mask(16, 16, 0.4, 0.05, 3.0, trial)
        op = MaskedFourierOperator(mask)
        y = op.apply(random_complex_image(16, 16, seed=50 + trial))
        cfg = CsConfig(iterations=50, solver="ista", levels=2)
        _, (trace,) = ista(y[None], op, cfg, [0.02])
        objs = [row[1] for row in trace]
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-7 * max(abs(a), 1.0)


def test_fista_momentum_first_step_is_golden_ratio():
    assert nesterov_next_t(1.0) == pytest.approx((1 + np.sqrt(5.0)) / 2)


def test_fista_not_slower_than_ista():
    for trial in range(5):
        mask = generate_vardens_mask(16, 16, 0.4, 0.05, 3.0, 100 + trial)
        op = MaskedFourierOperator(mask)
        y = op.apply(random_complex_image(16, 16, seed=150 + trial))
        ista_cfg = CsConfig(iterations=50, solver="ista", levels=2)
        fista_cfg = CsConfig(iterations=50, solver="fista", levels=2)
        _, (tr_i,) = ista(y[None], op, ista_cfg, [0.02])
        _, (tr_f,) = fista(y[None], op, fista_cfg, [0.02])
        assert tr_f[-1][1] <= tr_i[-1][1] * (1 + 1e-6)


def test_fista_lambda_zero_residual_vanishes():
    op = MaskedFourierOperator(full_mask(16, 16))
    y = op.apply(random_complex_image(16, 16, seed=6))
    (x,), _ = fista(y[None], op, CsConfig(iterations=30, solver="fista", levels=2), [0.0])
    assert norm(op.apply(x) - y) <= 1e-4 * norm(y)


def test_fista_matches_float32_reference_loop():
    # nesterov_next_t returns float64; the momentum must scale the image in
    # float32, which a plain float32 loop pins bit for bit
    op = MaskedFourierOperator(generate_vardens_mask(16, 16, 0.4, 0.05, 3.0, 3))
    y = op.apply(random_complex_image(16, 16, seed=7))
    lam, levels = 0.02, 2
    x_prev = z = np.zeros((2, 16, 16), np.float32)
    t = 1.0
    for _ in range(4):  # unit step: the operator norm is 1
        u = haar2_forward(gradient_step(z, y, 1.0, op), levels)
        x = haar2_inverse(soft_threshold(u, lam), levels)
        t_next = nesterov_next_t(t)
        z = x + np.float32((t - 1.0) / t_next) * (x - x_prev)
        x_prev, t = x, t_next
    (got,), _ = fista(y[None], op, CsConfig(iterations=4, solver="fista", levels=levels), [lam])
    assert got.dtype == np.float32
    assert np.array_equal(got, x_prev)


def test_solver_divergence_detected():
    op = _AntiAdjointOperator(8)
    y = random_complex_image(8, 8, seed=7)
    with pytest.raises(SolverError):
        ista(y[None], op, CsConfig(iterations=500, solver="ista", levels=2), [0.01])


def test_cs_objective_terms():
    op = _IdentityOperator(8)
    x = random_complex_image(8, 8, seed=8)
    y = random_complex_image(8, 8, seed=9)
    (obj, data, l1), = cs_objective(x[None], y[None], op, [0.1], haar2_forward(x[None], 2))
    assert obj == pytest.approx(data + l1)
    assert data == pytest.approx(0.5 * norm(y - x) ** 2, rel=1e-6)
    assert l1 == pytest.approx(0.1 * float(np.sum(magnitude(haar2_forward(x, 2)))), rel=1e-6)


def test_cs_objective_takes_coefficients():
    # coefficients passed in stand in for the transform of x, image by image
    op = _IdentityOperator(8)
    xs = np.stack([random_complex_image(8, 8, seed=8 + i) for i in range(2)])
    ys = np.stack([random_complex_image(8, 8, seed=10 + i) for i in range(2)])
    c = haar2_forward(xs, 2)
    rows = cs_objective(xs, ys, op, [0.1, 0.2], 2 * c)
    for i, (_, data, l1) in enumerate(rows):
        (_, want_data, want_l1), = cs_objective(xs[i:i + 1], ys[i:i + 1], op, [0.1 * (i + 1)],
                                                haar2_forward(xs[i:i + 1], 2))
        assert (data, l1) == (want_data, 2 * want_l1)


def test_one_image_is_not_a_stack():
    # a (2, H, W) measurement would otherwise read as a stack of two images
    op = _IdentityOperator(8)
    y = random_complex_image(8, 8, seed=12)
    for solve in (ista, fista):
        with pytest.raises(ShapeError, match=r"\(N, 2, H, W\) stack"):
            solve(y, op, CsConfig(iterations=2, levels=2), [0.1, 0.1])
    with pytest.raises(ShapeError, match=r"\(N, 2, H, W\) stack"):
        cs_objective(y, y, op, [0.1, 0.1], haar2_forward(y, 2))


def test_tune_lambda_grid_of_one_and_duplicates():
    mask = generate_vardens_mask(16, 16, 0.4, 0.05, 3.0, 8)
    op = MaskedFourierOperator(mask)
    truth = random_complex_image(16, 16, seed=10)
    val = [(truth, op.apply(truth))]
    cfg = CsConfig(iterations=10, solver="fista", levels=2)
    lam1, _ = tune_lambda(val, op, [0.05], cfg)
    assert lam1 == pytest.approx(0.05)
    lam2, table = tune_lambda(val, op, [0.05, 0.05, 0.01, 0.01], cfg)
    lam3, _ = tune_lambda(val, op, [0.05, 0.01], cfg)
    assert lam2 == lam3
    assert len(table) == 2


def test_tune_lambda_matches_exhaustive_table():
    mask = generate_vardens_mask(16, 16, 0.3, 0.03, 3.0, 11)
    op = MaskedFourierOperator(mask)
    from npgd.phantoms import generate_dataset
    truths = generate_dataset(2, 16, seed=12)
    val = [(x, op.apply(x)) for x in truths]
    cfg = CsConfig(iterations=20, solver="fista", levels=2)
    grid = [0.001, 0.01, 0.1]
    best, table = tune_lambda(val, op, grid, cfg)
    top = max(snr for _, snr in table)
    winners = [lam for lam, snr in table if snr == top]
    assert best == min(winners)


def test_default_lambda_grid_scales_with_peak():
    mask = generate_vardens_mask(16, 16, 0.4, 0.05, 3.0, 13)
    op = MaskedFourierOperator(mask)
    y = op.apply(random_complex_image(16, 16, seed=14))
    grid = default_lambda_grid(y[None], op, levels=2, points=8)
    assert len(grid) == 8
    assert grid[0] < grid[-1]
    c = haar2_forward(op.adjoint(y), 2)
    peak = float(np.sqrt(c[0].astype(np.float64) ** 2
                         + c[1].astype(np.float64) ** 2).max())
    assert grid[0] == pytest.approx(1e-4 * peak, rel=1e-9)
    assert grid[-1] == pytest.approx(1e-1 * peak, rel=1e-9)


@pytest.mark.parametrize("task", ["fourier", "box"])
def test_default_lambda_grid_peak_is_the_per_image_maximum(task):
    # one transform of the stack finds the peak that a loop over its images finds
    if task == "fourier":
        op = MaskedFourierOperator(generate_vardens_mask(16, 16, 0.4, 0.05, 3.0, 15))
    else:
        op = BoxDownsampleOperator(16, 16)
    ys = np.stack([op.apply(random_complex_image(16, 16, seed=16 + i, scale=s))
                   for i, s in enumerate((1.0, 3.0, 2.0))])
    peak = 0.0
    for y in ys:
        peak = max(peak, float(magnitude(haar2_forward(op.adjoint(y), 2)).max()))
    assert default_lambda_grid(ys, op, 2, 5) == \
        [float(g) for g in peak * np.geomspace(1e-4, 1e-1, 5)]
    single = default_lambda_grid(ys[1:2], op, 2, 5)
    assert single == default_lambda_grid(ys, op, 2, 5)  # image 1 holds the peak


def test_cs_config_validation():
    with pytest.raises(ParameterError):
        CsConfig(iterations=0)
    with pytest.raises(ParameterError):
        CsConfig(solver="admm")
    with pytest.raises(ParameterError):
        CsConfig(levels=0)


@pytest.mark.parametrize("solver", ["ista", "fista"])
@pytest.mark.parametrize("lam", [-0.1, float("nan"), float("inf")], ids=lambda v: f"lam={v}")
def test_solver_rejects_lambda_not_finite_and_nonnegative(lam, solver):
    # the solver's own check, before any iteration: one bad entry is enough
    op = _IdentityOperator(8)
    ys = np.stack([random_complex_image(8, 8, seed=13 + i) for i in range(2)])
    cfg = CsConfig(iterations=2, solver=solver, levels=2)
    for lams in ([lam], [0.01, lam]):
        with pytest.raises(ParameterError, match="lambda must be finite and >= 0"):
            getattr(baselines, solver)(ys[:len(lams)], op, cfg, lams)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), [0.1, float("nan")]],
                         ids=["nan", "inf", "one-nan"])
def test_soft_threshold_rejects_lambda_not_finite(lam):
    v = np.stack([random_complex_image(4, 4, seed=14 + i) for i in range(2)])
    with pytest.raises(ParameterError, match="lambda must be finite and >= 0"):
        soft_threshold(v, lam)


# ---------------------------------------------------------------------------
# stacks: one batched solve, each image bit-equal to solving it alone


def _reference_solve(y, op, lam, levels, iterations, momentum):
    """Plain float32 loop on one image at unit step (both operators here
    have norm <= 1). Returns the last iterate and the shrunk coefficients
    it is the inverse transform of."""
    x_prev = z = np.zeros((2,) + op.in_shape, np.float32)
    t = 1.0
    for _ in range(iterations):
        u = haar2_forward(gradient_step(z, y, 1.0, op), levels)
        c = soft_threshold(u, lam)
        x = haar2_inverse(c, levels)
        if momentum:
            t_next = nesterov_next_t(t)
            z = x + np.float32((t - 1.0) / t_next) * (x - x_prev)
            t = t_next
        else:
            z = x
        x_prev = x
    return x_prev, c


@pytest.mark.parametrize("solver", ["ista", "fista"])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("task", ["fourier", "box"])
def test_stack_matches_reference_loop_per_image(solver, n, task):
    h, w, levels = 16, 32, 2
    if task == "fourier":
        op = MaskedFourierOperator(generate_vardens_mask(h, w, 0.4, 0.05, 3.0, 17))
    else:
        op = BoxDownsampleOperator(h, w)
    truths = [random_complex_image(h, w, seed=70 + i) for i in range(n)]
    ys = np.stack([op.apply(x) for x in truths])
    lams = [0.01 * (i + 1) for i in range(n)]
    cfg = CsConfig(iterations=6, solver=solver, levels=levels)
    solve = fista if solver == "fista" else ista
    xs, traces = solve(ys, op, cfg, lams=lams)
    assert xs.shape == (n, 2, h, w) and xs.dtype == np.float32
    assert len(traces) == n
    for i in range(n):
        ref, ref_c = _reference_solve(ys[i], op, lams[i], levels, 6, solver == "fista")
        assert np.array_equal(xs[i], ref)
        (alone_x,), (alone_trace,) = solve(ys[i:i + 1], op, cfg, [lams[i]])
        assert alone_x.dtype == np.float32
        assert np.array_equal(alone_x, ref)
        assert traces[i] == alone_trace
        # the trace's l1 term is lambda * ||c||_1 of the solver's own shrunk
        # coefficients c: ||W x||_1 up to roundoff, as W is orthonormal
        _, obj, data, l1 = traces[i][-1]
        (_, want_data, want_l1), = cs_objective(ref[None], ys[i:i + 1], op, [lams[i]],
                                                haar2_forward(ref[None], levels))
        assert data == want_data
        assert l1 == lams[i] * float(np.sum(magnitude(ref_c)))
        assert l1 == pytest.approx(want_l1, rel=1e-6)
        assert obj == data + l1


def test_stack_with_one_diverging_image_raises():
    op = _AntiAdjointOperator(8)
    # image 0 is 100x larger, so its start objective is 10^4x image 1's
    ys = np.stack([random_complex_image(8, 8, seed=80 + i, scale=100.0 if i == 0 else 1.0)
                   for i in range(3)])
    # a huge lambda shrinks every iterate to zero, so images 0 and 2 never
    # leave their start objective; image 1 walks uphill, and is caught at
    # the iteration where it is caught when solved alone
    cfg = CsConfig(iterations=500, solver="ista", levels=2)
    with pytest.raises(SolverError) as alone:
        ista(ys[1:2], op, cfg, [0.01])
    iteration = str(alone.value).split("iteration ")[1].split()[0]
    with pytest.raises(SolverError, match=f"image 1, iteration {iteration} "):
        ista(ys, op, cfg, lams=[1e6, 0.01, 1e6])
    ista(ys[[0, 2]], op, cfg, lams=[1e6, 1e6])  # no diverging image, no error


def test_stack_lambda_count_and_sign_checked():
    op = _IdentityOperator(8)
    ys = np.stack([random_complex_image(8, 8, seed=90 + i) for i in range(2)])
    cfg = CsConfig(iterations=2, solver="fista", levels=2)
    with pytest.raises(ParameterError):
        fista(ys, op, cfg, lams=[0.1])
    with pytest.raises(ParameterError):
        fista(ys, op, cfg, lams=[0.1, -0.1])


def test_soft_threshold_per_image():
    v = np.stack([random_complex_image(4, 4, seed=95 + i) for i in range(3)])
    lams = [0.0, 0.5, 2.0]
    got = soft_threshold(v, lams)
    assert got.dtype == np.float32
    for i, lam in enumerate(lams):
        assert np.array_equal(got[i], soft_threshold(v[i], lam))
    with pytest.raises(ParameterError):
        soft_threshold(v, [0.1, -0.1, 0.1])


def test_haar_stack_matches_each_image():
    xs = np.stack([random_complex_image(16, 32, seed=97 + i) for i in range(3)])
    c = haar2_forward(xs, 3)
    back = haar2_inverse(c, 3)
    for i in range(3):
        assert np.array_equal(c[i], haar2_forward(xs[i], 3))
        assert np.array_equal(back[i], haar2_inverse(c[i], 3))


def test_tune_lambda_table_matches_separate_solves():
    # the batched grid search scores each lambda on exactly the estimates
    # of solving every validation image alone with that lambda
    mask = generate_vardens_mask(16, 16, 0.3, 0.03, 3.0, 19)
    op = MaskedFourierOperator(mask)
    truths = [random_complex_image(16, 16, seed=110 + i) for i in range(3)]
    val = [(x, op.apply(x)) for x in truths]
    cfg = CsConfig(iterations=8, solver="fista", levels=2)
    grid = [0.3, 0.003, 0.03]
    _, table = tune_lambda(val, op, grid, cfg)
    assert [lam for lam, _ in table] == sorted(grid)
    for lam, mean_snr in table:
        snrs = [snr_db(fista(y[None], op, cfg, [lam])[0][0], x) for x, y in val]
        assert mean_snr == float(np.mean(snrs))


# ---------------------------------------------------------------------------
# rewritten primitives, bit for bit against their earlier formulas


def _in_place_pair(a, b, lo, hi):
    """The Haar butterfly that scales the strided outputs in place."""
    np.add(a, b, out=lo)
    lo *= np.float32(1.0 / np.sqrt(2.0))
    np.subtract(a, b, out=hi)
    hi *= np.float32(1.0 / np.sqrt(2.0))


def _soft_threshold_reference(v, lam):
    lam = np.asarray(lam, np.float64)
    mag = np.sqrt(v[..., 0, :, :].astype(np.float64) ** 2
                  + v[..., 1, :, :].astype(np.float64) ** 2)
    factor = (np.maximum(mag - lam[..., None, None], 0.0) /
              np.maximum(mag, np.finfo(np.float64).tiny)).astype(np.float32)
    return v * factor[..., None, :, :]


@pytest.mark.parametrize("shape,levels", [((2, 16, 16), 1), ((2, 8, 32), 3),
                                          ((3, 2, 32, 16), 4), ((2, 2, 8, 8), 3)])
def test_haar_bit_equal_to_in_place_pair(shape, levels, monkeypatch):
    x = images_with_zero_pixels(shape, seed=shape[-1] + levels)
    got_c, got_x = haar2_forward(x, levels), haar2_inverse(x, levels)
    monkeypatch.setattr(baselines, "_pair", _in_place_pair)
    assert np.array_equal(got_c, haar2_forward(x, levels))
    assert np.array_equal(got_x, haar2_inverse(x, levels))


@pytest.mark.parametrize("shape,lam", [((2, 8, 8), 0.5), ((2, 4, 16), 0.0),
                                       ((3, 2, 16, 4), [0.0, 0.3, 1.0])])
def test_soft_threshold_bit_equal_to_reference(shape, lam):
    v = images_with_zero_pixels(shape, seed=len(shape))
    got = soft_threshold(v, lam)
    assert got.dtype == np.float32
    assert np.array_equal(got, _soft_threshold_reference(v, lam))
    assert not got[..., 0, 0].any()
