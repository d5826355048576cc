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

from dataclasses import dataclass
from typing import List

import numpy as np

from .core import norm
from .errors import ContractError
from .operators import LinearOperator, gradient_step, preconditioned
from .proxnet import MaskSnapshot, ProximalNet


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


def contraction_step(t: int, m_star: MaskSnapshot, m_t: MaskSnapshot,
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
    """One trajectory's rows, plus x_T and the gate masks at g(x_T; y) that
    the last transition froze (the linearization point for de-biasing)."""

    rows: List[TraceRow]
    x_final: np.ndarray
    masks_final: MaskSnapshot


@dataclass
class DebiasResult:
    x: np.ndarray
    converged: bool
    diverged: bool
    iterations: int


def debias(snapshot: MaskSnapshot, op: LinearOperator, alpha: float, y: np.ndarray,
           x_t: np.ndarray, max_iters: int = 200, tol: float = 1e-5) -> DebiasResult:
    """Re-solve the fixed point with the proximal replaced by the snapshot's
    affine map (masks from the final iterate).

    The affine iteration is not guaranteed to contract; on divergence
    (norm growing 100x) the original x_t comes back with a flag.
    """
    x = x_t
    norm0 = max(norm(x_t), np.finfo(np.float32).tiny)
    for it in range(1, max_iters + 1):
        xn = snapshot(gradient_step(x, y, alpha, op))
        if norm(xn) > 100.0 * norm0:
            return DebiasResult(x_t, converged=False, diverged=True, iterations=it)
        step = norm(xn - x)
        x = xn
        if step <= tol * max(norm(x), np.finfo(np.float32).tiny):
            return DebiasResult(x, converged=True, diverged=False, iterations=it)
    return DebiasResult(x, converged=False, diverged=False, iterations=max_iters)


def analyze_trajectory(net: ProximalNet, alpha: float, op: LinearOperator,
                       x_star: np.ndarray, y: np.ndarray,
                       iterations: int) -> ContractionTrace:
    """The contraction trace of one (ground truth, measurement) pair.

    Row t covers iterate x_t and the transition to x_{t+1}, the last one
    through s_{T+1} = g(x_T; y). One forward at x_* gives xi and M_*, and one
    per state s_{t+1} gives both x_{t+1} and M_t.
    """
    if norm(y - op.apply(x_star)) > 1e-4 * max(norm(y), 1e-12):
        raise ContractError("decomposition requires noiseless measurements y = apply(x*)")
    fx_star, m_star = net.forward_and_masks(x_star)
    xi = fx_star - x_star
    x_next = net.forward(gradient_step(np.zeros((2,) + tuple(op.in_shape), np.float32),
                                       y, alpha, op)).value
    rows = []
    for t in range(1, iterations + 1):
        x_t = x_next
        x_next, m_t = net.forward_and_masks(gradient_step(x_t, y, alpha, op))
        rows.append(contraction_step(t, m_star, m_t, xi, op, alpha, x_star, x_t, x_next))
    return ContractionTrace(rows, x_t, m_t)
