"""Reverse-mode automatic differentiation over float32 numpy arrays.

Deliberately minimal: exactly the primitives a small convolutional
reconstruction network and its training loss need. Ops take an optional
``tape``; with ``tape=None`` they just compute values, which keeps
inference and diagnostics free of bookkeeping.

Gradients accumulate additively, so a parameter reused many times (shared
weights across unrolled iterations) receives the sum of all contributions.
Callers zero grads between steps.

A tape is single-use. It keeps gradient slots and what backward reads (a
conv's input or that input's ``rebuild``, a norm's xhat, a swish's slope,
one bit per relu mask), and ``backward`` consumes it. A taped norm, gate or
add sets ``rebuild`` on its output only: it returns a fresh array bit-equal
to the value from forward-time arrays that some record keeps. A conv sets
one only when its record keeps its input's value anyway (the input has no
rebuild) and each output value costs at most ``REBUILD_MACS`` multiply-adds,
so no rebuild recomputes a conv from another conv's rebuild.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ContractError, ParameterError, ShapeError


class Grad:
    """A Variable's gradient slot: what a tape record holds in its place."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: Optional[np.ndarray] = None

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # adopted (no pullback hands out a shared array); a cropped view is copied
            self.grad = np.asarray(g, np.float32, order="C")
        else:
            self.grad += g


class Variable:
    """A value, a gradient slot made on first use (untaped ops make none), and a rebuild."""

    __slots__ = ("value", "_node", "rebuild")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float32)
        self._node: Optional[Grad] = None
        self.rebuild: Optional[Callable[[], np.ndarray]] = None

    @property
    def node(self) -> Grad:
        if self._node is None:
            self._node = Grad()
        return self._node

    @property
    def grad(self) -> Optional[np.ndarray]:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g: Optional[np.ndarray]) -> None:
        self.node.grad = g

    def zero_grad(self) -> None:
        self.grad = None

    def grad_or_zeros(self) -> np.ndarray:
        return self.grad if self.grad is not None else np.zeros_like(self.value)


class Tape:
    """Execution-ordered record of primitive ops.

    Each record pairs the op output's gradient slot with (parent slot,
    vector-Jacobian product) closures. Appending in execution order makes
    the list topologically sorted, so one reverse sweep suffices.
    """

    def __init__(self):
        self._records: Optional[List[Tuple[Grad, List[Tuple[Grad, Callable]]]]] = []

    def record(self, out: Variable, pulls: List[Tuple[Variable, Callable]]) -> None:
        self._records.append((out.node, [(var.node, vjp) for var, vjp in pulls]))


def backward(tape: Tape, root: Variable) -> None:
    """Accumulate d(root)/d(v) into v.grad for every variable on the tape.

    root must be scalar. Nodes not on any path to root contribute
    nothing (their grad stays as the caller left it). The sweep consumes
    the tape, releasing each op output's grad before its pullbacks run, so
    only leaves keep grads; a second backward on the tape is an error.
    """
    if root.value.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.value.shape}")
    records, tape._records = tape._records, None
    if records is None:
        raise ContractError("backward on a tape that backward has already consumed")
    root.node.accumulate(np.ones_like(root.value))
    while records:
        out, pulls = records.pop()
        g, out.grad = out.grad, None
        if g is None:
            continue
        for node, vjp in pulls:
            node.accumulate(vjp(g))


# ---------------------------------------------------------------------------
# elementwise ops


def _require_same_shape(a: Variable, b: Variable, what: str) -> None:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{what}: shape {a.value.shape} vs {b.value.shape}")


def add(a: Variable, b: Variable, tape: Optional[Tape] = None) -> Variable:
    _require_same_shape(a, b, "add")
    out = Variable(a.value + b.value)
    if tape is not None:
        tape.record(out, [(a, lambda g: g), (b, lambda g: g.copy())])
        ra, rb = a.rebuild, b.rebuild  # summed in place into a rebuild's fresh array
        if ra and rb:
            out.rebuild = lambda: np.add(y := ra(), rb(), out=y)
        elif ra or rb:  # the side without one keeps its value; addition commutes
            r, other = (ra, b.value) if ra else (rb, a.value)
            out.rebuild = lambda: np.add(y := r(), other, out=y)
    return out


def scale(a: Variable, s: float, tape: Optional[Tape] = None) -> Variable:
    s32 = np.float32(s)
    out = Variable(a.value * s32)
    if tape is not None:
        tape.record(out, [(a, lambda g: g * s32)])
    return out


def mul(a: Variable, b: Variable, tape: Optional[Tape] = None) -> Variable:
    _require_same_shape(a, b, "mul")
    out = Variable(a.value * b.value)
    if tape is not None:
        av, bv = a.value, b.value
        tape.record(out, [(a, lambda g: g * bv), (b, lambda g: g * av)])
    return out


def relu(x: Variable, tape: Optional[Tape] = None) -> Variable:
    """Gated activation with mask D(z) = 1 if z > 0 else 0 (D(0) = 0).

    ``fmax(v, 0)`` returns exactly what ``where(v > 0, v, 0)`` does,
    including +0.0 for -0.0 and 0 for NaN, without the branch on a random
    sign pattern.
    """
    v = x.value
    out = Variable(np.fmax(v, np.float32(0)))
    if tape is not None:
        bits, shape = np.packbits(v > 0), v.shape  # one bit per element; never v itself
        tape.record(out, [(x, lambda g: g * np.unpackbits(bits, count=g.size)
                           .view(bool).reshape(shape))])
        if (r := x.rebuild) is not None:  # captures r only, never x or v
            out.rebuild = lambda: np.fmax(y := r(), np.float32(0), out=y)
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, float32 in/out: exp is only
    taken of -|z|, so it cannot overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def swish(x: Variable, tape: Optional[Tape] = None) -> Variable:
    """Gated activation z * sigmoid(z); the mask D(z) = sigmoid(z)."""
    v = x.value
    d = sigmoid(v)
    out = Variable(v * d)
    if tape is not None:
        slope = d + v * d * (np.float32(1) - d)
        tape.record(out, [(x, lambda g: g * slope)])
        if (r := x.rebuild) is not None:  # captures r only, never x or v
            out.rebuild = lambda: np.multiply(u := r(), sigmoid(u), out=u)
    return out


def instance_norm(x: Variable, gamma: Variable, beta: Variable,
                  tape: Optional[Tape] = None) -> Variable:
    """Per-channel normalization over the spatial axes with learned affine.

    x: (C, H, W); gamma, beta: (C,). Batch-size independent and
    deterministic at inference.
    """
    v = x.value
    if v.ndim != 3:
        raise ShapeError(f"instance_norm expects (C, H, W), got {v.shape}")
    c = v.shape[0]
    if gamma.value.shape != (c,) or beta.value.shape != (c,):
        raise ShapeError("instance_norm affine params must have shape (C,)")
    n = v.shape[1] * v.shape[2]
    mean = v.mean(axis=(1, 2), keepdims=True)
    # centre once; the variance follows np.var's own order (square, sum, / n),
    # so mean, var and xhat are bit-equal to v.mean, v.var and (v - mean) * inv_std
    xhat = v - mean
    var = np.square(xhat).sum(axis=(1, 2), keepdims=True) / n
    inv_std = (1.0 / np.sqrt(var + np.float32(1e-5))).astype(np.float32)
    xhat *= inv_std
    gamma_v, beta_v = gamma.value[:, None, None], beta.value[:, None, None]
    def affine():  # the output, and its rebuild: Adam replaces gamma and beta, never writes them
        y = gamma_v * xhat
        y += beta_v
        return y
    out = Variable(affine())
    if tape is not None:
        out.rebuild = affine
        def vjp_x(g):
            # inv_std/n * (n*dxhat - sum_d - xhat*sum_dx), updated in place
            t = g * gamma.value[:, None, None]
            sum_d = t.sum(axis=(1, 2), keepdims=True)
            sum_dx = (t * xhat).sum(axis=(1, 2), keepdims=True)
            t *= n
            t -= sum_d
            t -= xhat * sum_dx
            t *= inv_std / n
            return t

        tape.record(out, [
            (x, vjp_x),
            (gamma, lambda g: (g * xhat).sum(axis=(1, 2))),
            (beta, lambda g: g.sum(axis=(1, 2))),
        ])
    return out


# ---------------------------------------------------------------------------
# convolution


def _im2col(v: np.ndarray, k: int) -> np.ndarray:
    """(C, H, W) -> uncopied (C, k, k, H*(W+2p)) view: the k x k windows of
    the zero-padded "same" input over an H x (W+2p) output grid.

    Each plane is zero-padded by p, with one more zero row, and read flat,
    so window (c, i, j) is one contiguous slice from i*(W+2p) + j. The last
    2p columns of each grid row are junk (they read the next image row): a
    caller crops them from its product or multiplies them by _widen's
    zeros. A 1x1 kernel needs no copy: the input is its own window.
    """
    c, h, w = v.shape
    if k == 1:
        return v.reshape(c, 1, 1, h * w)
    p = (k - 1) // 2
    wp = w + 2 * p
    flat = np.zeros((c, h + 2 * p + 1, wp), np.float32)
    flat[:, p:p + h, p:p + w] = v
    sc, sh, s = flat.strides
    return np.ndarray((c, k, k, h * wp), np.float32, flat, 0, (sc, sh, s, s))


BAND_BYTES = 512 << 10  # column bytes per band GEMM: a quarter of a 2 MiB L2 cache
KERNEL_BAND_BYTES = 4 * BAND_BYTES  # kernel-VJP bands: longer GEMMs measured faster
SMALL_GEMM = 100 ** 3  # MACs up to which OpenBLAS's small-matrix kernel rounds apart
REBUILD_MACS = 32  # multiply-adds per output value up to which a conv output is rebuilt


def _bands(units: int, size: int, rows: int, budget: int) -> int:
    """Even bands of `units` (`size` column floats each, multiplied into `rows` outputs):
    the fewest within `budget` bytes, none at SMALL_GEMM MACs or under unless all are."""
    return max(1, min(-(-4 * size * units // budget), units // (SMALL_GEMM // (rows * size) + 1)))


def _conv_same(w2: np.ndarray, v: np.ndarray, k: int) -> np.ndarray:
    """w2 @ im2col(v), junk columns cropped: (C_out, H, W). Even bands of image
    rows, about BAND_BYTES of columns each, are copied and multiplied in cache.
    Each output keeps its K = C*k*k dot product and no band falls to SMALL_GEMM
    multiply-adds unless the whole product does, so bands change no bit."""
    c, h, w = v.shape
    n = w + k - 1  # grid columns per image row
    row = c * k * k * n  # column entries per image row
    bands = _bands(h, row, len(w2), BAND_BYTES)
    if bands <= 1:
        return (w2 @ _im2col(v, k).reshape(c * k * k, -1)).reshape(len(w2), h, n)[:, :, :w]
    win, out = _im2col(v, k), np.empty((len(w2), h * n), np.float32)
    for b in range(bands):
        s = slice(b * h // bands * n, (b + 1) * h // bands * n)
        np.matmul(w2, win[..., s].reshape(c * k * k, -1), out=out[:, s])
    return out.reshape(len(w2), h, n)[:, :, :w]


def _widen(g: np.ndarray, k: int) -> np.ndarray:
    """(C, H, W) -> (C, H*(W+2p)): g on _im2col's grid, junk columns zero."""
    c, h, w = g.shape
    if k == 1:
        return g.reshape(c, h * w)
    gw = np.zeros((c, h, w + k - 1), np.float32)
    gw[:, :, :w] = g
    return gw.reshape(c, -1)


def _col2im(cols: np.ndarray, c: int, h: int, w: int, k: int) -> np.ndarray:
    """Adjoint of _im2col: scatter-add the columns, junk columns zero, back
    onto (C, H, W). One strided write puts row (c, i, j) at offset
    i*(W+2p) + j of tap (i, j)'s own padded plane, and one sum over the
    taps adds them in (i, j) order."""
    p = (k - 1) // 2
    wp = w + 2 * p
    taps = np.zeros((c, k * k, h + 2 * p + 1, wp), np.float32)
    sc, st, sh, s = taps.strides
    np.ndarray((c, k, k, h * wp), np.float32, taps, 0,
               (sc, k * st + sh, st + s, s))[...] = cols.reshape(c, k, k, -1)
    return taps.sum(axis=1)[:, p:p + h, p:p + w]


def conv2d(x: Variable, kernel: Variable, bias: Variable,
           tape: Optional[Tape] = None) -> Variable:
    """Stride-1 "same" 2-D cross-correlation with per-channel bias.

    x: (C_in, H, W); kernel: (C_out, C_in, k, k) with k odd; bias: (C_out,).
    The output is (C_out, H, W), zero padding (k-1)/2 on each side.
    """
    kv = kernel.value
    if kv.ndim != 4 or kv.shape[2] != kv.shape[3]:
        raise ShapeError(f"kernel must be (C_out, C_in, k, k), got {kv.shape}")
    c_out, c_in, k, _ = kv.shape
    if k % 2 == 0:
        raise ParameterError(f"kernel size must be odd, got {k}")
    v = x.value
    if v.ndim != 3:
        raise ShapeError(f"conv2d input must be (C, H, W), got {v.shape}")
    if v.shape[0] != c_in:
        raise ShapeError(f"input has {v.shape[0]} channels, kernel expects {c_in}")
    if bias.value.shape != (c_out,):
        raise ShapeError(f"bias must have shape ({c_out},), got {bias.value.shape}")
    _, h, w = v.shape
    if h < 1 or w < 1:
        raise ShapeError(f"conv2d output would be empty for input {v.shape}")
    w2, b = kv.reshape(c_out, -1), bias.value[:, None, None]
    out = Variable(_conv_same(w2, v, k) + b)
    if tape is not None:
        # the tape keeps the input or its rebuild, not the k*k times larger column
        # matrix; only the kernel VJP needs the columns, and it makes them
        src = x.rebuild or (lambda: v)  # never set on x: a leaf's value may change
        if x.rebuild is None and c_in * k * k <= REBUILD_MACS:
            # one GEMM from the v this record keeps anyway, so no rebuild chains convs
            out.rebuild = lambda: np.add(_conv_same(w2, v, k), b)
        def vjp_x(g):
            if k == 1:
                return (w2.T @ g.reshape(c_out, -1)).reshape(c_in, h, w)
            # materialize the smaller column matrix: an im2col of g has
            # c_out*k*k rows, the columns w2.T @ g to scatter back c_in*k*k
            if c_in >= c_out:
                # correlation of g with the flipped, transposed kernel
                wf = kv[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1)
                return _conv_same(wf, g, k)
            return _col2im(w2.T @ _widen(g, k), c_in, h, w, k)

        def vjp_kernel(g):
            # bands of input channels: each entry keeps its whole H*(W+2p) dot product
            win, gw = _im2col(src(), k), _widen(g, k).T
            bands = _bands(c_in, k * k * gw.shape[0], c_out, KERNEL_BAND_BYTES) if k > 1 else 1
            dk = np.empty((c_in, k * k, c_out), np.float32)
            for b in range(bands):
                s = slice(b * c_in // bands, (b + 1) * c_in // bands)
                np.matmul(win[s].reshape(-1, gw.shape[0]), gw, out=dk[s].reshape(-1, c_out))
            return dk.reshape(-1, c_out).T.reshape(kv.shape)

        tape.record(out, [
            (x, vjp_x),
            (kernel, vjp_kernel),
            (bias, lambda g: g.sum(axis=(1, 2))),
        ])
    return out


# ---------------------------------------------------------------------------
# reductions / losses


def sum_squares(a: Variable, tape: Optional[Tape] = None) -> Variable:
    v64 = a.value.astype(np.float64)
    out = Variable(np.sum(v64 * v64))
    if tape is not None:
        av = a.value
        tape.record(out, [(a, lambda g: np.float32(2) * av * g)])
    return out


def mse_loss(a: Variable, target: np.ndarray, tape: Optional[Tape] = None) -> Variable:
    """Sum of squared differences ||a - target||^2 (no averaging)."""
    target = np.asarray(target, np.float32)
    if a.value.shape != target.shape:
        raise ShapeError(f"mse_loss: shape {a.value.shape} vs {target.shape}")
    d = a.value - target
    out = Variable(np.sum(d.astype(np.float64) ** 2))
    if tape is not None:
        tape.record(out, [(a, lambda g: np.float32(2) * d * g)])
    return out


def smooth_l1_loss(a: Variable, target: np.ndarray,
                   tape: Optional[Tape] = None) -> Variable:
    """Sum of sqrt(d^2 + 1e-8): differentiable stand-in for the l1 cost."""
    target = np.asarray(target, np.float32)
    if a.value.shape != target.shape:
        raise ShapeError(f"smooth_l1_loss: shape {a.value.shape} vs {target.shape}")
    d = a.value - target
    root = np.sqrt(d * d + np.float32(1e-8))
    out = Variable(np.sum(root.astype(np.float64)))
    if tape is not None:
        tape.record(out, [(a, lambda g: g * d / root)])
    return out
