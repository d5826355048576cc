"""Unrolled recurrent reconstruction: inference, training objective, Adam loop.

The recursion alternates a data-consistency gradient step with the learned
proximal, starting from a zero image:

    s_{t+1} = x_t + alpha * adjoint(y - apply(x_t))
    x_{t+1} = proximal(s_{t+1})

Weights and the scalar step size alpha are shared across all T iterations
and trained end to end on a composite cost: beta times the terminal
reconstruction error plus (1 - beta) times the summed per-iteration
measurement residuals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import autograd as ag
from .autograd import Tape, Variable, backward
from .core import check_finite_float32, norm, write_csv
from .errors import NumericsError, ParameterError
from .operators import LinearOperator, data_residual_sq, gradient_step_channels
from .proxnet import ProximalConfig, ProximalNet, build


@dataclass(frozen=True)
class TrainConfig:
    """One training run: the unrolled recursion (T, initial step size,
    cost weight beta, loss) and its Adam schedule. Ranges are checked at
    construction, so every instance is in range, ``replace``'s included."""

    iterations: int = 10
    alpha_init: float = 1.0
    beta: float = 0.75
    loss: str = "l2"
    lr: float = 1e-3
    lr_halve_every: int = 10000
    batch_size: int = 2
    epochs: int = 10
    seed: int = 3

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ParameterError("iterations must be >= 1")
        if not (0.0 <= self.beta <= 1.0):
            raise ParameterError(f"beta must lie in [0, 1], got {self.beta}")
        if self.loss not in ("l2", "l1"):
            raise ParameterError(f"loss must be l2 or l1, got {self.loss!r}")
        for name in ("alpha_init", "lr", "lr_halve_every", "batch_size", "epochs"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be positive")
        # alpha and Adam's lr are float32, which turns a larger value into inf
        check_finite_float32(self.alpha_init, "alpha_init")
        check_finite_float32(self.lr, "lr")
        if self.seed < 0:  # numpy takes no negative seed
            raise ParameterError("seed must be >= 0")

    def lr_at(self, step: int) -> float:
        return self.lr * 0.5 ** (step // self.lr_halve_every)


def unrolled_forward(net: ProximalNet, op: LinearOperator, y: np.ndarray,
                     iterations: int, alpha: Union[float, Variable],
                     tape: Optional[Tape] = None) -> Tuple[List[Variable], list]:
    """Run T alternations of gradient step and proximal from x_0 = 0; return
    the iterates x_1..x_T and, per iterate, (||r_t||, adjoint(r_t)) of its
    data residual r_t = y - apply(x_t), formed once for the next step, the
    training cost and :func:`reconstruct`. With a tape, the trajectory is
    differentiable through the shared weights and alpha."""
    x_var = Variable(np.zeros((2,) + tuple(op.in_shape), np.float32))
    direction = op.direction(x_var.value, y)
    iterates, residuals = [], []
    for _ in range(iterations):
        x_var = net.forward(gradient_step_channels(x_var, alpha, op, direction, tape), tape)
        r, direction = op.residual(x_var.value, y)
        iterates.append(x_var)
        residuals.append((norm(r), direction))
        del r  # only its norm is kept
    return iterates, residuals


def loss_p1(iterates: Sequence[Variable], residuals: Sequence[Tuple[float, np.ndarray]],
            x_true: np.ndarray, beta: float, loss_kind: str = "l2",
            tape: Optional[Tape] = None) -> Tuple[Variable, float, float]:
    """Composite training cost over :func:`unrolled_forward`'s iterates and
    residuals; returns (total, terminal value, consistency value)."""
    if loss_kind == "l1":
        terminal = ag.smooth_l1_loss(iterates[-1], x_true, tape=tape)
    else:
        terminal = ag.mse_loss(iterates[-1], x_true, tape=tape)
    consistency = None
    for xv, (residual_norm, direction) in zip(iterates, residuals):
        r = data_residual_sq(xv, residual_norm, direction, tape)
        consistency = r if consistency is None else ag.add(consistency, r, tape)
    total = ag.add(ag.scale(terminal, beta, tape),
                   ag.scale(consistency, 1.0 - beta, tape), tape)
    return total, float(terminal.value), float(consistency.value)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
ALPHA_FLOOR = 1e-4  # the step size never falls below this


class Adam:
    """Adam over the net parameters plus the scalar step size."""

    def __init__(self, params: Dict[str, Variable], alpha_var: Variable):
        self.slots: Dict[str, Variable] = dict(params)
        self.slots["alpha"] = alpha_var
        self.m = {k: np.zeros_like(v.value) for k, v in self.slots.items()}
        self.v = {k: np.zeros_like(v.value) for k, v in self.slots.items()}
        self.step_count = 0

    def grad_norm(self) -> float:
        total = 0.0
        for var in self.slots.values():
            if var.grad is not None:
                g64 = var.grad.astype(np.float64)
                total += float(np.sum(g64 * g64))
        return float(np.sqrt(total))

    def step(self, lr: float) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        for k, var in self.slots.items():
            g = var.grad_or_zeros()
            self.m[k] = ADAM_BETA1 * self.m[k] + (1.0 - ADAM_BETA1) * g
            self.v[k] = ADAM_BETA2 * self.v[k] + (1.0 - ADAM_BETA2) * g * g
            mhat = self.m[k] / bc1
            vhat = self.v[k] / bc2
            var.value = (var.value - np.float32(lr) * mhat /
                         (np.sqrt(vhat) + np.float32(ADAM_EPS))).astype(np.float32)
        alpha = self.slots["alpha"]
        alpha.value = np.maximum(alpha.value, np.float32(ALPHA_FLOOR))


TRACE_HEADER = ("step", "epoch", "lr", "loss_total", "loss_terminal",
                "loss_consistency", "alpha", "grad_norm")


@dataclass
class TrainResult:
    net: ProximalNet
    alpha: Variable
    optimizer: Adam
    trace: List[tuple] = field(default_factory=list)
    epochs_run: int = 0
    seconds: float = 0.0


def _first_nonfinite(arrays: Dict[str, Optional[np.ndarray]]) -> Optional[str]:
    """Name of the first array holding a NaN or infinity, else None."""
    for name, arr in arrays.items():
        if arr is not None and not np.isfinite(arr).all():
            return name
    return None


@np.errstate(over="ignore", invalid="ignore")
def train(dataset: Sequence[np.ndarray], op: LinearOperator,
          train_cfg: TrainConfig, prox_cfg: ProximalConfig,
          measurements: Sequence[np.ndarray],
          log: Optional[Callable[[str], None]] = None) -> TrainResult:
    """Mini-batch Adam over the composite cost, from a freshly built net.

    Deterministic given the seed: the per-epoch data order comes from one
    seeded generator, and all numerics are fixed-order. Aborts with a
    diagnostic on a non-finite loss, gradient, parameter or step size;
    numpy's overflow warnings on the way there are silenced.
    """
    if len(dataset) == 0:
        raise ParameterError("training dataset is empty")
    net = build(prox_cfg, seed=train_cfg.seed)
    alpha_var = Variable(np.float32(train_cfg.alpha_init))
    optimizer = Adam(net.params, alpha_var)
    result = TrainResult(net, alpha_var, optimizer)
    order_rng = np.random.default_rng(train_cfg.seed)
    t0 = time.perf_counter()
    step = 0
    for epoch in range(train_cfg.epochs):
        perm = order_rng.permutation(len(dataset))
        for start in range(0, len(perm), train_cfg.batch_size):
            batch = perm[start:start + train_cfg.batch_size]
            lr = train_cfg.lr_at(step)
            for var in optimizer.slots.values():
                var.zero_grad()
            tot = term = cons = 0.0
            for i in batch:
                tape = Tape()
                # left unbound, so backward frees each direction as it consumes the tape
                total, term_v, cons_v = loss_p1(
                    *unrolled_forward(net, op, measurements[i], train_cfg.iterations,
                                      alpha_var, tape),
                    dataset[i], train_cfg.beta, train_cfg.loss, tape)
                if not np.isfinite(float(total.value)):
                    raise NumericsError(f"non-finite loss at step {step} on training "
                                        f"image {i} (lr={lr:.3g})")
                mean = ag.scale(total, 1.0 / len(batch), tape)
                backward(tape, mean)
                tot += float(total.value) / len(batch)
                term += term_v / len(batch)
                cons += cons_v / len(batch)
            grad_norm = optimizer.grad_norm()
            if not np.isfinite(grad_norm):
                bad = _first_nonfinite({k: v.grad for k, v in optimizer.slots.items()})
                raise NumericsError(f"non-finite gradient of {bad} at step {step} "
                                    f"(lr={lr:.3g})")
            optimizer.step(lr)
            bad = _first_nonfinite({k: v.value for k, v in optimizer.slots.items()})
            if bad is not None:
                raise NumericsError(f"non-finite {bad} after the update at step "
                                    f"{step} (lr={lr:.3g}, grad_norm={grad_norm:.3g})")
            result.trace.append((step, epoch, lr, tot, term, cons,
                                 float(alpha_var.value), grad_norm))
            step += 1
        result.epochs_run = epoch + 1
        if log is not None:
            log(f"epoch {epoch + 1}/{train_cfg.epochs} loss={tot:.6g} "
                f"alpha={float(alpha_var.value):.4g}")
    result.seconds = time.perf_counter() - t0
    return result


def write_trace_csv(rows: Sequence[tuple], path) -> None:
    write_csv(path, TRACE_HEADER, rows)


@np.errstate(over="ignore", invalid="ignore")
def reconstruct(net: ProximalNet, alpha: float, op: LinearOperator,
                y: np.ndarray, iterations: int) -> Tuple[np.ndarray, List[float]]:
    """Inference pass; returns x_T and the per-iteration residuals ||y - apply(x_t)||."""
    iterates, residuals = unrolled_forward(net, op, y, iterations, alpha)
    return iterates[-1].value, [residual_norm for residual_norm, _ in residuals]
