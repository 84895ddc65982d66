"""Stationarity residuals, proximal inner solves, merit-function tracking,
and a finite-difference harness for gradient oracles.

The inner solve computes x_r(y, z) = argmin_{x in X} F_r(x, y, z) where
F_r(x, y, z) = F(x, y) + (r/2) ||x - z||^2.  For r > rho this objective is
(r - rho)-strongly convex, so projected gradient descent converges linearly
and a tight residual tolerance is cheap to hit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (FiniteSum, ProblemInstance, RegimeError, as_vector,
                   full_grad_x, full_grad_y, full_grads, full_value)
from .projections import Box, normal_cone_dist

__all__ = [
    "MaxItersError",
    "LyapunovValue",
    "gs_residuals",
    "mc_gs_residuals",
    "solve_x_r",
    "dz_norm",
    "lyapunov",
    "fd_check",
]

logger = logging.getLogger("spidergda.diagnostics")


class MaxItersError(Exception):
    """An inner solve ran out of iterations.

    Attributes
    ----------
    best : numpy.ndarray
        The iterate with the smallest residual seen.
    residual : float
        Its projected-gradient residual.
    """

    def __init__(self, message: str, best: Optional[np.ndarray] = None,
                 residual: Optional[float] = None):
        super().__init__(message)
        self.best = best
        self.residual = residual


# The strongly convex inner solves take the constant step 1/(r + L_x), safe
# for the (L_x + r)-smooth proximal objective, and stop at this
# projected-gradient residual or iteration count.
_INNER_TOL = 1e-8
_INNER_MAX_ITERS = 100_000

# Monte-Carlo residual batch, and seeded ascent starts of the merit's p_r
_MC_BATCH = 10_000
_P_R_STARTS = 8


# ----------------------------------------------------------------------------
# stationarity residuals

def gs_residuals(problem: ProblemInstance, x: np.ndarray, y: np.ndarray
                 ) -> tuple[float, float]:
    """Exact game-stationarity residuals at a feasible pair (x, y):

        res_x = dist(0, grad_x F(x,y) + N_X(x))
        res_y = dist(0, -grad_y F(x,y) + N_Y(y))

    Requires exact gradients, hence the finite-sum regime; use
    `mc_gs_residuals` for Monte-Carlo estimates in the online regime.

    Raises
    ------
    RegimeError
        In the online regime.
    InfeasibleError
        If (x, y) is not feasible.
    """
    if not isinstance(problem.regime, FiniteSum):
        raise RegimeError("exact residuals need the finite-sum regime; "
                          "see mc_gs_residuals for the online variant")
    x = as_vector(x, problem.dim_x)
    y = as_vector(y, problem.dim_y)
    gx, gy = full_grads(problem, x, y)
    res_x = normal_cone_dist(problem.set_x, x, gx)
    res_y = normal_cone_dist(problem.set_y, y, -gy)
    return res_x, res_y


def mc_gs_residuals(problem: ProblemInstance, x: np.ndarray, y: np.ndarray,
                    rng: Optional[np.random.Generator] = None
                    ) -> tuple[float, float, float, float]:
    """Monte-Carlo residuals (res_x, res_y, se_x, se_y) for either regime.

    Residuals are computed on the mean gradient of `_MC_BATCH` draws.  The
    normal-cone distance is 1-Lipschitz in the gradient argument, so the
    reported standard error of the mean-gradient estimate (in L2) also
    bounds the standard error of each residual.
    """
    x = as_vector(x, problem.dim_x)
    y = as_vector(y, problem.dim_y)
    rng = rng if rng is not None else np.random.default_rng(0)
    ids = problem.oracle.draw(rng, _MC_BATCH)
    gx, gy = problem.oracle.grads_at(x, y, ids)
    mx, my = gx.mean(axis=0), gy.mean(axis=0)
    se_x = float(np.sqrt(np.sum(gx.var(axis=0, ddof=1)) / _MC_BATCH))
    se_y = float(np.sqrt(np.sum(gy.var(axis=0, ddof=1)) / _MC_BATCH))
    res_x = normal_cone_dist(problem.set_x, x, mx)
    res_y = normal_cone_dist(problem.set_y, y, -my)
    return res_x, res_y, se_x, se_y


# ----------------------------------------------------------------------------
# inner proximal solve

def solve_x_r(problem: ProblemInstance, r: float, y: np.ndarray,
              z: np.ndarray, x0: Optional[np.ndarray] = None) -> np.ndarray:
    """Minimize F(x, y) + (r/2)||x - z||^2 over X by projected gradient.

    Starts from proj_X(z) (or the warm start x0) and stops once the
    projected-gradient residual ||x - proj_X(x - step g)|| / step at the
    current iterate is <= `_INNER_TOL`; the returned point is the one at
    which that residual was measured.

    Raises
    ------
    ValueError
        If r <= rho (the objective would not be strongly convex).
    MaxItersError
        If the tolerance is not reached; carries the best iterate.
    """
    meta = problem.constants
    if not r > meta.rho:
        raise ValueError(f"need r > rho for a strongly convex inner problem "
                         f"(r={r}, rho={meta.rho})")
    y = as_vector(y, problem.dim_y)
    z = as_vector(z, problem.dim_x)
    step = 1.0 / (r + meta.L_x)
    x = problem.set_x.project(as_vector(x0, problem.dim_x) if x0 is not None else z)
    best, best_res = x, math.inf
    for _ in range(_INNER_MAX_ITERS):
        g = full_grad_x(problem, x, y) + r * (x - z)
        x_next = problem.set_x.project(x - step * g)
        res = float(np.linalg.norm(x_next - x)) / step
        if res < best_res:
            best, best_res = x, res
        if res <= _INNER_TOL:
            return x
        x = x_next
    raise MaxItersError(
        f"inner solve stalled at residual {best_res:.3e} "
        f"(tol {_INNER_TOL:.1e}) after {_INNER_MAX_ITERS} iterations",
        best=best, residual=best_res)


def dz_norm(problem: ProblemInstance, r: float, y: np.ndarray, z: np.ndarray
            ) -> float:
    """r * ||z - x_r(y, z)||, the proximal-tracking stationarity measure.

    Zero exactly when z is the fixed point of the proximal map; the solver's
    convergence guarantee is stated on this quantity at the sampled output.
    """
    x_r = solve_x_r(problem, r, y, z)
    z = as_vector(z, problem.dim_x)
    return float(r * np.linalg.norm(z - x_r))


# ----------------------------------------------------------------------------
# merit function
#
#   Phi_r(x, y, z) = (F_r(x,y,z) - d_r(y,z)) + (p_r(z) - d_r(y,z)) + p_r(z)
#
# with d_r(y,z) = min_x F_r(x,y,z) and p_r(z) = max_y d_r(y,z).  Both gap
# terms are nonnegative, so Phi_r >= p_r(z) always.

@dataclass(frozen=True)
class LyapunovValue:
    """Merit-function evaluation with its ingredients.

    `certified` is True only when the inner maximization over y was
    grid-certified (1-D dual on a box); otherwise p_r came from seeded
    multi-start ascent and is a heuristic (lower bound on the true p_r,
    making `value` a lower bound as well).
    """

    value: float
    f_r: float
    d_r: float
    p_r: float
    certified: bool

    def __float__(self) -> float:
        return self.value


def _d_r(problem: ProblemInstance, r: float, y: np.ndarray, z: np.ndarray,
         x0=None) -> tuple[float, np.ndarray]:
    x_r = solve_x_r(problem, r, y, z, x0=x0)
    val = full_value(problem, x_r, y) + 0.5 * r * float(np.sum((x_r - z) ** 2))
    return val, x_r


def _ascend_d_r(problem: ProblemInstance, r: float, y0: np.ndarray,
                z: np.ndarray, max_ascent: int = 2000
                ) -> tuple[float, np.ndarray]:
    """Projected gradient ascent on d_r(., z) from y0 (Danskin gradient:
    grad_y d_r(y, z) = grad_y F(x_r(y, z), y))."""
    meta = problem.constants
    denom = meta.L_y + meta.L_y ** 2 / max(r - meta.rho, 1e-12)
    step = 1.0 / denom if denom > 0 else 1.0
    y = problem.set_y.project(y0)
    x_warm = None
    for _ in range(max_ascent):
        x_warm = solve_x_r(problem, r, y, z, x0=x_warm)
        g = full_grad_y(problem, x_warm, y)
        y, y_prev = problem.set_y.project(y + step * g), y
        if float(np.linalg.norm(y - y_prev)) / step <= _INNER_TOL * 10:
            break
    val, _ = _d_r(problem, r, y, z, x0=x_warm)
    return val, y


def lyapunov(problem: ProblemInstance, r: float, x: np.ndarray,
             y: np.ndarray, z: np.ndarray) -> LyapunovValue:
    """Merit-function value Phi_r(x, y, z) via nested inner solves.

    d_r values use the strongly convex inner solve.  p_r(z) is a global
    maximum of d_r(., z): on a 1-D box dual it is certified by a dense grid
    plus local ascent; otherwise it is the best of `_P_R_STARTS` seeded ascent
    starts (the given y plus random perturbations) and flagged heuristic.

    Requires the finite-sum regime (exact values/gradients).
    """
    if not isinstance(problem.regime, FiniteSum):
        raise RegimeError("merit tracking needs the finite-sum regime")
    x = as_vector(x, problem.dim_x)
    y = as_vector(y, problem.dim_y)
    z = as_vector(z, problem.dim_x)

    f_r = full_value(problem, x, y) + 0.5 * r * float(np.sum((x - z) ** 2))
    d_here, _ = _d_r(problem, r, y, z)

    certified = problem.dim_y == 1 and isinstance(problem.set_y, Box)
    if certified:
        lo, hi = float(problem.set_y.lo[0]), float(problem.set_y.hi[0])
        grid = np.linspace(lo, hi, 513)
        best_val, best_y = -math.inf, y
        x_warm = None
        for gy in grid:
            val, x_warm = _d_r(problem, r, np.array([gy]), z, x0=x_warm)
            if val > best_val:
                best_val, best_y = val, np.array([gy])
        val, _ = _ascend_d_r(problem, r, best_y, z)
        p_r = max(best_val, val)
    else:
        rng = np.random.default_rng(0)
        span = problem.constants.D_Y or 1.0
        p_r = -math.inf
        for s in range(_P_R_STARTS):
            y_start = y if s == 0 else y + span * rng.normal(size=problem.dim_y)
            val, _ = _ascend_d_r(problem, r, y_start, z)
            p_r = max(p_r, val)

    p_r = max(p_r, d_here)  # d_r(y, z) itself is a valid lower bound
    value = (f_r - d_here) + (p_r - d_here) + p_r
    return LyapunovValue(value=value, f_r=f_r, d_r=d_here, p_r=p_r,
                         certified=certified)


# ----------------------------------------------------------------------------
# finite-difference harness

def fd_check(value_fn: Callable[[np.ndarray], float],
             grad_fn: Callable[[np.ndarray], np.ndarray],
             point: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error of grad_fn against central differences of value_fn.

    Per-coordinate error |fd_j - g_j| is normalized by max(1, ||g||), so the
    result is meaningful for both tiny and large gradients.
    """
    point = np.asarray(point, dtype=np.float64)
    grad = np.asarray(grad_fn(point), dtype=np.float64)
    fd = np.empty_like(grad)
    for j in range(point.size):
        e = np.zeros_like(point)
        e[j] = h
        fd[j] = (value_fn(point + e) - value_fn(point - e)) / (2.0 * h)
    denom = max(1.0, float(np.linalg.norm(grad)))
    return float(np.max(np.abs(fd - grad)) / denom)
