"""Reverse-mode automatic differentiation over float32 numpy arrays.

Deliberately minimal: exactly the primitives a small convolutional
reconstruction network and its training loss need. Ops take an optional
``tape``; with ``tape=None`` they just compute values, which keeps
inference and diagnostics free of bookkeeping.

Gradients accumulate additively, so a parameter reused many times (shared
weights across unrolled iterations) receives the sum of all contributions.
Callers zero grads between steps.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ContractError, ParameterError, ShapeError


class Variable:
    """A value plus its (lazily allocated) gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float32)
        self.grad: Optional[np.ndarray] = None

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a copy, never g itself: add's VJP hands one array to both parents
            self.grad = np.array(g, dtype=np.float32)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def grad_or_zeros(self) -> np.ndarray:
        return self.grad if self.grad is not None else np.zeros_like(self.value)

    def __repr__(self):
        return f"Variable(shape={self.value.shape})"


Pull = Tuple[Variable, Callable[[np.ndarray], np.ndarray]]


class Tape:
    """Execution-ordered record of primitive ops.

    Each record pairs the op's output with (parent, vector-Jacobian
    product) closures. Appending in execution order makes the list
    topologically sorted, so one reverse sweep suffices.
    """

    def __init__(self):
        self._records: List[Tuple[Variable, List[Pull]]] = []

    def record(self, out: Variable, pulls: List[Pull]) -> None:
        self._records.append((out, pulls))

    def __len__(self) -> int:
        return len(self._records)


def backward(tape: Tape, root: Variable) -> None:
    """Accumulate d(root)/d(v) into v.grad for every variable on the tape.

    root must be scalar. Nodes not on any path to root contribute
    nothing (their grad stays as the caller left it).
    """
    if root.value.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.value.shape}")
    root.accumulate(np.ones_like(root.value))
    for out, pulls in reversed(tape._records):
        g = out.grad
        if g is None:
            continue
        for var, vjp in pulls:
            var.accumulate(vjp(g))


# ---------------------------------------------------------------------------
# elementwise ops


def _require_same_shape(a: Variable, b: Variable, what: str) -> None:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{what}: shape {a.value.shape} vs {b.value.shape}")


def add(a: Variable, b: Variable, tape: Optional[Tape] = None) -> Variable:
    _require_same_shape(a, b, "add")
    out = Variable(a.value + b.value)
    if tape is not None:
        tape.record(out, [(a, lambda g: g), (b, lambda g: g)])
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
        mask = v > 0
        tape.record(out, [(x, lambda g: g * mask)])
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, float32 in/out."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def swish(x: Variable, tape: Optional[Tape] = None) -> Variable:
    """Gated activation z * sigmoid(z); the mask D(z) = sigmoid(z)."""
    v = x.value
    d = sigmoid(v)
    out = Variable(v * d)
    if tape is not None:
        tape.record(out, [(x, lambda g: g * (d + v * d * (np.float32(1) - d)))])
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
    out = Variable(gamma.value[:, None, None] * xhat + beta.value[:, None, None])
    if tape is not None:
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
    """(C, H, W) -> (C*k*k, H*W): the k x k windows of the zero-padded
    "same" input, one column per output pixel, rows ordered (c, i, j)."""
    c, h, w = v.shape
    p = (k - 1) // 2
    xp = np.zeros((c, h + 2 * p, w + 2 * p), np.float32)
    xp[:, p:p + h, p:p + w] = v
    sc, sh, sw = xp.strides
    win = np.lib.stride_tricks.as_strided(xp, (c, k, k, h, w), (sc, sh, sw, sh, sw),
                                          writeable=False)
    return np.ascontiguousarray(win).reshape(c * k * k, h * w)


def _columns(v: np.ndarray, k: int) -> np.ndarray:
    """The column matrix of v; a 1x1 kernel needs no im2col, since the
    input itself is its column matrix."""
    c, h, w = v.shape
    return v.reshape(c, h * w) if k == 1 else _im2col(v, k)


def _col2im(cols: np.ndarray, c: int, h: int, w: int, k: int) -> np.ndarray:
    """Adjoint of _im2col: scatter-add the columns back onto (C, H, W)."""
    p = (k - 1) // 2
    out = np.zeros((c, h + 2 * p, w + 2 * p), np.float32)
    cols = cols.reshape(c, k, k, h, w)
    for i in range(k):
        for j in range(k):
            out[:, i:i + h, j:j + w] += cols[:, i, j]
    return out[:, p:p + h, p:p + w]


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
    w2 = kv.reshape(c_out, -1)
    out = Variable((w2 @ _columns(v, k) + bias.value[:, None]).reshape(c_out, h, w))
    if tape is not None:
        # the tape keeps the input, not its k*k times larger column matrix;
        # only the kernel VJP needs the columns, and it rebuilds them
        def vjp_x(g):
            if k == 1:
                return (w2.T @ g.reshape(c_out, -1)).reshape(c_in, h, w)
            # materialize the smaller column matrix: an im2col of g has
            # c_out*k*k rows, the columns w2.T @ g to scatter back c_in*k*k
            if c_in >= c_out:
                # correlation of g with the flipped, transposed kernel
                wf = kv[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1)
                return (wf @ _im2col(g, k)).reshape(c_in, h, w)
            return _col2im(w2.T @ g.reshape(c_out, -1), c_in, h, w, k)

        def vjp_kernel(g):
            return (_columns(v, k) @ g.reshape(c_out, -1).T).T.reshape(kv.shape)

        tape.record(out, [
            (x, vjp_x),
            (kernel, vjp_kernel),
            (bias, lambda g: g.sum(axis=(1, 2))),
        ])
    return out


# ---------------------------------------------------------------------------
# reductions / losses


def _scalar(value_f64: float) -> Variable:
    return Variable(np.float32(value_f64))


def sum_squares(a: Variable, tape: Optional[Tape] = None) -> Variable:
    v64 = a.value.astype(np.float64)
    out = _scalar(np.sum(v64 * v64))
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
    out = _scalar(np.sum(d.astype(np.float64) ** 2))
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
    out = _scalar(np.sum(root.astype(np.float64)))
    if tape is not None:
        tape.record(out, [(a, lambda g: g * d / root)])
    return out
