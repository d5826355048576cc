"""Contraction diagnostics for the unrolled iteration.

With every gate pinned to a recorded mask snapshot the proximal becomes an
affine map. Writing M_* for the map frozen at the ground truth x_* and M_t
for the map frozen at the actual proximal input of step t, one error step
decomposes exactly (in exact arithmetic) as

    x_{t+1} - x_* = L_*[(I - a N) d_t]                (frozen linear part)
                  + (M_t - M_*)[x_* + (I - a N) d_t]  (mask perturbation)
                  + (M_*(x_*) - x_*)                  (representation error xi)

where d_t = x_t - x_*, N = adjoint(apply(.)), a is the step size, and
L_*(v) = M_*(v) - M_*(0) is the linear part of M_*. The two contraction
ratios measured on real trajectories are

    eta1_t = ||L_*[(I - a N) d_t]|| / ||d_t||
    eta2_t = ||(M_t - M_*)[x_* + (I - a N) d_t]|| / ||d_t||

and the triangle inequality gives the per-step bound
||x_{t+1} - x_*|| <= (eta1_t + eta2_t) ||d_t|| + ||xi||, whose slack is
reported alongside the decomposition residual.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .autograd import Variable
from .core import norm
from .errors import ContractError
from .operators import LinearOperator, gradient_step, gradient_step_channels, preconditioned
from .proxnet import MaskSnapshot, ProximalNet
from .unroll import write_csv


class FrozenAffineMap:
    """The proximal with gates pinned to one snapshot: an affine operator.

    ``linear`` applies the linear part (differences kill the bias), with
    the constant M(0) cached after the first use.
    """

    def __init__(self, net: ProximalNet, snapshot: MaskSnapshot):
        self.net = net
        self.snapshot = snapshot
        self._at_zero: Optional[np.ndarray] = None

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.net.forward_frozen(u, self.snapshot)

    def linear(self, v: np.ndarray) -> np.ndarray:
        if self._at_zero is None:
            self._at_zero = self(np.zeros(v.shape, np.float32))
        return self(v) - self._at_zero


def bound_slack(eta1_t: float, eta2_t: float, delta_norm: float,
                xi: float, err_next: float) -> float:
    """(eta1 + eta2) ||d_t|| + ||xi|| - ||x_{t+1} - x_*||; nonnegative up to
    roundoff by the triangle inequality."""
    return (eta1_t + eta2_t) * delta_norm + xi - err_next


@dataclass
class TraceRow:
    t: int
    nrmse: float
    eta1: float
    eta2: float
    xi_norm: float
    decomp_residual: float
    bound_slack: float
    delta_norm: float
    err_next: float


TRACE_COLUMNS = ("t", "nrmse", "eta1", "eta2", "xi_norm", "decomp_residual",
                 "bound_slack")


def contraction_step(t: int, m_star: FrozenAffineMap, m_t: FrozenAffineMap,
                     xi: np.ndarray, op: LinearOperator, alpha: float,
                     x_star: np.ndarray, x_t: np.ndarray,
                     x_next: np.ndarray) -> TraceRow:
    """eta1, eta2, decomposition residual and bound slack of one transition
    x_t -> s_{t+1} = g(x_t; y) -> x_{t+1} = M(s_{t+1}).

    m_star is the proximal frozen at the truth x_*, m_t the proximal frozen
    at s_{t+1}, and xi = forward(x_*) - x_*. The residual is exact only for
    noiseless y = apply(x_*). At x_t = x_* the row reports eta1 = eta2 = 0 and
    NRMSE 0 in place of 0/0; its residual and slack use the same formulas as
    every other row. Otherwise the NRMSE against a zero truth is inf.
    """
    delta = x_t - x_star
    dn = norm(delta)
    err_next = norm(x_next - x_star)
    w = preconditioned(op, alpha, delta)
    term_frozen = m_star.linear(w)
    u = x_star + w
    perturb = m_t(u) - m_star(u)
    if dn == 0.0:
        nrmse = e1 = e2 = 0.0
    else:
        ref = norm(x_star)
        nrmse = dn / ref if ref > 0.0 else float("inf")
        e1, e2 = norm(term_frozen) / dn, norm(perturb) / dn
    xi_n = norm(xi)
    resid = norm((x_next - x_star) - (term_frozen + perturb + xi))
    return TraceRow(t, nrmse, e1, e2, xi_n, resid,
                    bound_slack(e1, e2, dn, xi_n, err_next), dn, err_next)


@dataclass
class ContractionTrace:
    """One sample's rows, plus x_T and the gate masks at g(x_T; y) that the
    last transition froze (the linearization point for de-biasing)."""

    sample: int
    rows: List[TraceRow]
    x_final: np.ndarray
    masks_final: MaskSnapshot


@dataclass
class DebiasResult:
    x: np.ndarray
    converged: bool
    diverged: bool
    iterations: int


def debias(net: ProximalNet, masks_t: MaskSnapshot, op: LinearOperator,
           alpha: float, y: np.ndarray, x_t: np.ndarray,
           max_iters: int = 200, tol: float = 1e-5) -> DebiasResult:
    """Re-solve the fixed point with the proximal replaced by its frozen
    affine map (masks from the final iterate).

    The affine iteration is not guaranteed to contract; on divergence
    (norm growing 100x) the original x_t comes back with a flag.
    """
    frozen = FrozenAffineMap(net, masks_t)
    x = x_t
    norm0 = max(norm(x_t), np.finfo(np.float32).tiny)
    for it in range(1, max_iters + 1):
        xn = frozen(gradient_step(x, y, alpha, op))
        if norm(xn) > 100.0 * norm0:
            return DebiasResult(x_t, converged=False, diverged=True, iterations=it)
        step = norm(xn - x)
        x = xn
        if step <= tol * max(norm(x), np.finfo(np.float32).tiny):
            return DebiasResult(x, converged=True, diverged=False, iterations=it)
    return DebiasResult(x, converged=False, diverged=False, iterations=max_iters)


def analyze_trajectory(net: ProximalNet, alpha: float, op: LinearOperator,
                       test_set: Sequence[Tuple[np.ndarray, np.ndarray]],
                       iterations: int,
                       out_dir: Optional[Union[str, os.PathLike]] = None
                       ) -> Tuple[List[ContractionTrace], List[tuple]]:
    """Per-sample contraction traces over (ground truth, measurement) pairs.

    Row t covers iterate x_t and the transition to x_{t+1}, the last one
    through s_{T+1} = g(x_T; y). One forward at x_* gives xi and M_*, and one
    per state s_{t+1} gives both x_{t+1} and M_t. When out_dir is given,
    writes trace_NNNN.csv per sample plus aggregate.csv.
    """
    traces = []
    for idx, (x_star, y) in enumerate(test_set):
        if norm(y - op.apply(x_star)) > 1e-4 * max(norm(y), 1e-12):
            raise ContractError("decomposition requires noiseless measurements y = apply(x*)")
        fx_star, masks_star = net.forward_and_masks(x_star)
        m_star, xi = FrozenAffineMap(net, masks_star), fx_star - x_star
        ahy = op.adjoint(y)

        def step(x):  # the unrolled loop's gradient step, bit for bit
            return gradient_step_channels(Variable(x), alpha, op, ahy).value

        x_t = net.forward(step(np.zeros((2,) + tuple(op.in_shape), np.float32))).value
        rows = []
        for t in range(1, iterations + 1):
            s_next = step(x_t) if t < iterations else gradient_step(x_t, y, alpha, op)
            x_next, masks_t = net.forward_and_masks(s_next)
            rows.append(contraction_step(t, m_star, FrozenAffineMap(net, masks_t), xi,
                                         op, alpha, x_star, x_t, x_next))
            if t < iterations:
                x_t = x_next
        traces.append(ContractionTrace(idx, rows, x_t, masks_t))

    aggregate = []
    for t in range(1, iterations + 1):
        at = [tr.rows[t - 1] for tr in traces]
        nr = np.array([r.nrmse for r in at])
        e1 = np.array([r.eta1 for r in at])
        e2 = np.array([r.eta2 for r in at])
        aggregate.append((t, nr.mean(), nr.std(), e1.mean(), e1.std(),
                          e2.mean(), e2.std()))

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for tr in traces:
            write_csv(os.path.join(out_dir, f"trace_{tr.sample:04d}.csv"), TRACE_COLUMNS,
                      [[getattr(r, c) for c in TRACE_COLUMNS] for r in tr.rows])
        write_csv(os.path.join(out_dir, "aggregate.csv"),
                  ("t", "nrmse_mean", "nrmse_std", "eta1_mean", "eta1_std",
                   "eta2_mean", "eta2_std"), aggregate)
    return traces, aggregate
