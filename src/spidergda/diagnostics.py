"""Stationarity residuals, proximal inner solves and merit-function
tracking.

The inner solve computes x_r(y, z) = argmin_{x in X} F_r(x, y, z) where
F_r(x, y, z) = F(x, y) + (r/2) ||x - z||^2.  For r > rho this objective is
(r - rho)-strongly convex, so projected gradient descent converges linearly
and a tight residual tolerance is cheap to hit.

The finite-sum diagnostics run over whole windows of points, bit for bit
their one-point results: the exact residuals of many points take their
gradients from one rows call and their normal-cone distances from one
rows call per side; inner solves run many rows in lockstep, and the merit
function's ascent reuses the y gradient that each inner solve's last
oracle call gave, instead of asking the oracle for it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (ProblemInstance, _exact_means, _exact_values, _row_norms,
                   as_vector, full_value)
from .projections import Box, _normal_cone_rows, _project_rows, normal_cone_dist

__all__ = [
    "MaxItersError",
    "LyapunovValue",
    "gs_residuals",
    "mc_gs_residuals",
    "solve_x_r",
    "dz_norm",
    "lyapunov",
]

class MaxItersError(Exception):
    """An inner solve ran out of iterations.

    Attributes
    ----------
    best : numpy.ndarray
        The iterate with the smallest residual seen.
    residual : float
        Its projected-gradient residual.
    """

    def __init__(self, message: str, best: np.ndarray, residual: float):
        super().__init__(message)
        self.best = best
        self.residual = residual


# The strongly convex inner solves take the constant step 1/(r + L_x), safe
# for the (L_x + r)-smooth proximal objective, and stop at this
# projected-gradient residual or iteration count.
_INNER_TOL = 1e-8
_INNER_MAX_ITERS = 100_000

# Monte-Carlo residual batch; seeded ascent starts of the merit's p_r, run
# as the rows of one ascent, and the ascent's step limit
_MC_BATCH = 10_000
_P_R_STARTS = 8
_MAX_ASCENT = 2000


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
    x = as_vector(x, problem.dim_x)
    y = as_vector(y, problem.dim_y)
    return _gs_residual_rows(problem, x[None], y[None])[0]


def _gs_residual_rows(problem: ProblemInstance, X: np.ndarray, Y: np.ndarray
                      ) -> list[tuple[float, float]]:
    """`gs_residuals` at each finite-sum point (X[s], Y[s]), bit for bit,
    with the exact gradients of all rows from one `_exact_means` pass and
    the normal-cone distances of all rows from one `_normal_cone_rows` call
    per side, which checks each row's feasibility."""
    GX, GY = _exact_means(problem, X, Y, problem.oracle.batch_grads)
    return list(zip(_normal_cone_rows(problem.set_x, X, GX).tolist(),
                    _normal_cone_rows(problem.set_y, Y, -GY).tolist()))


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
    return (normal_cone_dist(problem.set_x, x, mx),
            normal_cone_dist(problem.set_y, y, -my), se_x, se_y)


# ----------------------------------------------------------------------------
# inner proximal solve

def solve_x_r(problem: ProblemInstance, r: float, y: np.ndarray,
              z: np.ndarray) -> np.ndarray:
    """Minimize F(x, y) + (r/2)||x - z||^2 over X by projected gradient.

    Starts from proj_X(z) and stops once the projected-gradient residual
    ||x - proj_X(x - step g)|| / step at the current iterate is <=
    `_INNER_TOL`; the returned point is the one at which that residual was
    measured.

    Raises
    ------
    ValueError
        If r <= rho (the objective would not be strongly convex).
    MaxItersError
        If the tolerance is not reached; carries the best iterate.
    """
    y = as_vector(y, problem.dim_y)
    z = as_vector(z, problem.dim_x)
    return _solve_rows(problem, r, y[None], z, z[None])[0][0]


def _solve_rows(problem: ProblemInstance, r: float, Y: np.ndarray, z: np.ndarray,
                X0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The solve of `solve_x_r` at each row Y[s] from X0[s], all rows in
    lockstep: a row leaves at its first iterate whose residual is within
    tolerance and keeps it while the others go on, so each row's result
    equals its one-row solve bit for bit.  A MaxItersError carries the
    best iterate and residual of the first row that stalled.

    Returns the rows X[s] = x_r(Y[s], z) and GY, whose row s is the exact
    grad_y F(X[s], Y[s]) that the oracle call of row s's last iteration
    gave along with its x side.
    """
    meta = problem.constants
    if not r > meta.rho:
        raise ValueError(f"need r > rho for a strongly convex inner problem "
                         f"(r={r}, rho={meta.rho})")
    step = 1.0 / (r + meta.L_x)
    X = _project_rows(problem.set_x, X0)
    GY = np.empty(Y.shape)
    # x, Y, best and best_res hold the rows still going, whose indices into
    # X are `live`; a row is written back to X and GY when it leaves
    live, x = np.arange(len(X)), X
    best, best_res = X.copy(), np.full(len(X), math.inf)
    for _ in range(_INNER_MAX_ITERS):
        gx, gy = _exact_means(problem, x, Y, problem.oracle.batch_grads)
        x_next = _project_rows(problem.set_x, x - step * (gx + r * (x - z)))
        res = _row_norms(x_next - x) / step
        better = res < best_res
        np.copyto(best, x, where=better[:, None])
        np.copyto(best_res, res, where=better)
        done = res <= _INNER_TOL
        if done.any():
            X[live[done]] = x[done]
            GY[live[done]] = gy[done]
            keep = ~done
            live, x_next, Y = live[keep], x_next[keep], Y[keep]
            best, best_res = best[keep], best_res[keep]
            if not live.size:
                return X, GY
        x = x_next
    raise MaxItersError(
        f"inner solve stalled at residual {best_res[0]:.3e} "
        f"(tol {_INNER_TOL:.1e}) after {_INNER_MAX_ITERS} iterations",
        best=best[0], residual=float(best_res[0]))


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


def _d_r(problem: ProblemInstance, r: float, Y: np.ndarray, z: np.ndarray,
         X0: np.ndarray) -> tuple[list[float], np.ndarray]:
    """d_r(Y[s], z) for each row, with the x_r rows of its inner solves
    (run from X0 in lockstep) and the exact values of all rows from one
    `_exact_values` call."""
    X, _ = _solve_rows(problem, r, Y, z, X0)
    return [f + 0.5 * r * float(np.sum((x - z) ** 2))
            for f, x in zip(_exact_values(problem, X, Y).tolist(), X)], X


def _ascend_d_r(problem: ProblemInstance, r: float, Y0: np.ndarray,
                z: np.ndarray) -> list[float]:
    """Projected gradient ascent on d_r(., z) from each row of Y0, all rows
    in lockstep (Danskin gradient: grad_y d_r(y, z) = grad_y F(x_r(y, z), y));
    returns d_r at each row's last point.

    Every inner solve warm-starts from its row's previous x_r, the first
    from z, and gives the Danskin gradient from its last oracle call.  A
    row stops after its first step shorter than 10 `_INNER_TOL` times the
    step size and keeps its point while the others go on, so each row's
    value equals its one-row ascent bit for bit.
    """
    meta = problem.constants
    denom = meta.L_y + meta.L_y ** 2 / max(r - meta.rho, 1e-12)
    step = 1.0 / denom if denom > 0 else 1.0
    Y = _project_rows(problem.set_y, Y0)
    X = np.repeat(z[None], len(Y), axis=0)
    live = np.arange(len(Y))
    for _ in range(_MAX_ASCENT):
        y = Y[live]
        X[live], gy = _solve_rows(problem, r, y, z, X[live])
        Y[live] = y_next = _project_rows(problem.set_y, y + step * gy)
        live = live[~(_row_norms(y_next - y) / step <= _INNER_TOL * 10)]
        if not live.size:
            break
    return _d_r(problem, r, Y, z, X)[0]


def lyapunov(problem: ProblemInstance, r: float, x: np.ndarray,
             y: np.ndarray, z: np.ndarray) -> LyapunovValue:
    """Merit-function value Phi_r(x, y, z) via nested inner solves.

    d_r values use the strongly convex inner solve.  p_r(z) is a global
    maximum of d_r(., z): on a 1-D box dual it is certified by a dense grid
    plus local ascent; otherwise it is the best of `_P_R_STARTS` seeded ascent
    starts (the given y plus random perturbations), ascended together as
    rows, and flagged heuristic.

    Requires the finite-sum regime (exact values/gradients).
    """
    x = as_vector(x, problem.dim_x)
    y = as_vector(y, problem.dim_y)
    z = as_vector(z, problem.dim_x)

    f_r = full_value(problem, x, y) + 0.5 * r * float(np.sum((x - z) ** 2))
    (d_here,), _ = _d_r(problem, r, y[None], z, z[None])

    certified = problem.dim_y == 1 and isinstance(problem.set_y, Box)
    if certified:
        # a warm-start chain: each grid point's solve starts from the last
        best_val, best_y, x_warm = -math.inf, y, z[None]
        for gy in np.linspace(problem.set_y.lo[0], problem.set_y.hi[0], 513):
            (val,), x_warm = _d_r(problem, r, np.array([[gy]]), z, x_warm)
            if val > best_val:
                best_val, best_y = val, np.array([gy])
        (val,) = _ascend_d_r(problem, r, best_y[None], z)
        p_r = max(best_val, val)
    else:
        rng = np.random.default_rng(0)
        span = problem.constants.D_Y or 1.0
        starts = np.vstack([y, y + span * rng.normal(
            size=(_P_R_STARTS - 1, problem.dim_y))])
        p_r = max(-math.inf, *_ascend_d_r(problem, r, starts, z))

    p_r = max(p_r, d_here)  # d_r(y, z) itself is a valid lower bound
    value = (f_r - d_here) + (p_r - d_here) + p_r
    return LyapunovValue(value=value, f_r=f_r, d_r=d_here, p_r=p_r,
                         certified=certified)
