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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import autograd as ag
from .autograd import Tape, Variable, backward
from .core import norm
from .checkpoint import Checkpoint
from .errors import NumericsError, ParameterError
from .operators import LinearOperator, data_residual_sq, gradient_step_channels
from .proxnet import ProximalConfig, ProximalNet, build


@dataclass
class UnrollConfig:
    iterations: int = 10
    alpha_init: float = 1.0
    beta: float = 0.75
    loss: str = "l2"

    def validate(self) -> None:
        if self.iterations < 1:
            raise ParameterError("iterations must be >= 1")
        if not (0.0 <= self.beta <= 1.0):
            raise ParameterError(f"beta must lie in [0, 1], got {self.beta}")
        if self.alpha_init <= 0:
            raise ParameterError("alpha_init must be positive")
        if self.loss not in ("l2", "l1"):
            raise ParameterError(f"loss must be l2 or l1, got {self.loss!r}")


@dataclass
class TrainConfig:
    lr: float = 1e-3
    lr_halve_every: int = 10000
    batch_size: int = 2
    epochs: int = 10
    seed: int = 0

    def validate(self) -> None:
        for name in ("lr", "lr_halve_every", "batch_size", "epochs"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be positive")
        # Adam casts lr to float32, which turns a larger value into inf
        with np.errstate(over="ignore"):
            if not np.isfinite(np.float32(self.lr)):
                raise ParameterError(f"lr {self.lr} is not finite in float32")

    def lr_at(self, step: int) -> float:
        return self.lr * 0.5 ** (step // self.lr_halve_every)


@dataclass
class Trajectory:
    """States s_1..s_T and outputs x_1..x_T of one unrolled run."""

    s: List[np.ndarray]
    x: List[np.ndarray]
    x_vars: Optional[List[Variable]] = None

    @property
    def final(self) -> np.ndarray:
        return self.x[-1]


def unrolled_forward(net: ProximalNet, op: LinearOperator, y: np.ndarray,
                     iterations: int, alpha: Union[float, Variable],
                     tape: Optional[Tape] = None) -> Trajectory:
    """Run T alternations of gradient step and proximal from x_0 = 0.

    With a tape, the whole trajectory is differentiable through the shared
    weights and alpha.
    """
    ahy = op.adjoint(y)
    h, w = op.in_shape
    x_var = Variable(np.zeros((2, h, w), np.float32))
    s_list, x_list, x_vars = [], [], []
    for _ in range(iterations):
        s_var = gradient_step_channels(x_var, alpha, op, ahy, tape)
        x_var = net.forward(s_var, tape)
        s_list.append(s_var.value)
        x_list.append(x_var.value)
        x_vars.append(x_var)
    return Trajectory(s_list, x_list, x_vars if tape is not None else None)


def loss_p1(traj: Trajectory, x_true: np.ndarray, y: np.ndarray,
            op: LinearOperator, beta: float, loss_kind: str = "l2",
            tape: Optional[Tape] = None) -> Tuple[Variable, float, float]:
    """Composite training cost; returns (total, terminal value, consistency value)."""
    if traj.x_vars is None:
        raise ParameterError("loss_p1 needs a trajectory built with a tape")
    x_t_var = traj.x_vars[-1]
    if loss_kind == "l1":
        terminal = ag.smooth_l1_loss(x_t_var, x_true, tape=tape)
    else:
        terminal = ag.mse_loss(x_t_var, x_true, tape=tape)
    consistency = None
    for xv in traj.x_vars:
        r = data_residual_sq(xv, op, y, tape)
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

    def to_checkpoint(self, unroll: UnrollConfig, seed: int) -> Checkpoint:
        params = {k: v.value.copy() for k, v in self.net.params.items()}
        return Checkpoint(
            prox=self.net.config, unroll_t=unroll.iterations, beta=unroll.beta,
            loss=unroll.loss, alpha=float(self.alpha.value),
            params=params,
            adam_m={k: v.copy() for k, v in self.optimizer.m.items()},
            adam_v={k: v.copy() for k, v in self.optimizer.v.items()},
            adam_step=self.optimizer.step_count, seed=seed, epoch=self.epochs_run)


def _first_nonfinite(arrays: Dict[str, Optional[np.ndarray]]) -> Optional[str]:
    """Name of the first array holding a NaN or infinity, else None."""
    for name, arr in arrays.items():
        if arr is not None and not np.isfinite(arr).all():
            return name
    return None


@np.errstate(over="ignore", invalid="ignore")
def train(dataset: Sequence[np.ndarray], op: LinearOperator,
          unroll_cfg: UnrollConfig, train_cfg: TrainConfig,
          prox_cfg: ProximalConfig, measurements: Sequence[np.ndarray],
          log: Optional[Callable[[str], None]] = None) -> TrainResult:
    """Mini-batch Adam over the composite cost, from a freshly built net.

    Deterministic given the seed: the per-epoch data order comes from one
    seeded generator, and all numerics are fixed-order. Aborts with a
    diagnostic on a non-finite loss, gradient, parameter or step size;
    numpy's overflow warnings on the way there are silenced.
    """
    unroll_cfg.validate()
    train_cfg.validate()
    if len(dataset) == 0:
        raise ParameterError("training dataset is empty")
    net = build(prox_cfg, seed=train_cfg.seed)
    alpha_var = Variable(np.float32(unroll_cfg.alpha_init))
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
                traj = unrolled_forward(net, op, measurements[i],
                                        unroll_cfg.iterations, alpha_var, tape)
                total, term_v, cons_v = loss_p1(traj, dataset[i], measurements[i],
                                                op, unroll_cfg.beta,
                                                unroll_cfg.loss, tape)
                if not np.isfinite(float(total.value)):
                    raise NumericsError(
                        f"non-finite loss at step {step} (lr={lr:.3g}, "
                        f"grad_norm={optimizer.grad_norm():.3g})")
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


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Comma-separated table: integers as written by str, every other
    value as a float with 9 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.9g}"


def write_trace_csv(rows: Sequence[tuple], path) -> None:
    write_csv(path, TRACE_HEADER, rows)


def reconstruct(net: ProximalNet, alpha: float, op: LinearOperator,
                y: np.ndarray, iterations: int) -> Tuple[np.ndarray, List[float]]:
    """Inference pass; returns x_T and the per-iteration residuals ||y - apply(x_t)||."""
    traj = unrolled_forward(net, op, y, iterations, alpha)
    residuals = [norm(y - op.apply(x)) for x in traj.x]
    return traj.final, residuals
