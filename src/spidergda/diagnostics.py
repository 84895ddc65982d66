"""Stationarity residuals, proximal inner solves and merit-function
tracking, and `diagnose`, the one pass that measures a run's trace.

The inner solve computes x_r(y, z) = argmin_{x in X} F_r(x, y, z) where
F_r(x, y, z) = F(x, y) + (r/2) ||x - z||^2.  For r > rho this objective is
(r - rho)-strongly convex and (r + L_x)-smooth, so accelerated projected
gradient with the constant momentum of its condition number
kappa = (r + L_x)/(r - rho) converges linearly at a rate set by
sqrt(kappa), not kappa.  The merit function's dual maximum p_r(z) comes
from a FISTA ascent on d_r(., z).  Both loops are one routine,
`_descend_rows`, with gradient restart, and each also stops once its step
is within float resolution of its point, so a solve at a huge r + L_x
does not run until an iterate rounds onto itself.

The finite-sum diagnostics run over whole windows of points, bit for bit
their one-point results: the exact residuals of many points take their
gradients from one rows call and their normal-cone distances from one
rows call per side; inner solves and ascents run many rows in lockstep,
and the merit function's ascent reuses the y gradient that each inner
solve's last oracle call gave, instead of asking the oracle for it again.
The merit rows of a whole trace are one `_lyapunov_rows` call: the
d_r(y, z) of every row, and on a 1-D box dual the 513 grid points of each
row's certified p_r, are the rows of one lockstep solve, each row with its
own prox centre z, and the ascent starts of every row are the rows of one
ascent; `lyapunov` is its one-row case.  Each merit row carries a label,
its trace row in `diagnose`, which the solve and the ascent repeat over the
rows they run for it, so a stalled inner solve raises one MaxItersError
that names the caller's row.

`diagnose` owns which trace rows are measured: the residuals of every
`residual_stride`-th row, the last row and the output pair, and the merit
values of every `lyapunov_stride`-th row and the last.  Online residuals
are Monte-Carlo, each on its own stream keyed by (trace.seed, row), so a
trace's diagnostics follow from the trace alone.  Like `run`, it takes a
seed axis: given the list of a command's runs, it decides where the
report stops, at the first seed that fails, and measures the complete
traces before the first failed run in one pass, the residual rows of all
of them in one rows call and their merit rows, each labelled by its trace
row, in one `_lyapunov_rows` call; rows of different seeds share a
lockstep bit for bit, as rows of one seed do.  A stall there raises with
a trace row of some seed, so `diagnose` then measures the traces on their
own, in order, up to the first whose own call raises: that seed's error
is the one its own call raises, and no seed after it is measured.  The
CLI formats what it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import FiniteSum, ProblemInstance, _exact_means, _exact_values, _row_norms, as_vector
from .projections import (FEAS_TOL, Box, ConstraintSet, InfeasibleError, _normal_cone_rows,
                          _project_rows, normal_cone_dist)
from .solver import RunTrace, SolverConfig

__all__ = [
    "MaxItersError",
    "LyapunovValue",
    "gs_residuals",
    "mc_gs_residuals",
    "solve_x_r",
    "dz_norm",
    "lyapunov",
    "diagnose",
]

class MaxItersError(Exception):
    """An inner solve ran out of iterations.

    Attributes
    ----------
    best : numpy.ndarray
        The iterate with the smallest residual seen.
    residual : float
        Its projected-gradient residual.
    row : int
        The label of the row whose solve stalled: the label its caller gave
        that row (a trace row index for `diagnose`), else its index among
        the rows that the raising function was given (0 for a one-point
        function).
    """

    def __init__(self, message: str, best: np.ndarray, residual: float, row: int):
        super().__init__(message)
        self.best, self.residual, self.row = best, residual, row


# The inner solves stop at this projected-gradient residual or iteration
# count; any descent also stops at a step within this multiple of
# (1 + ||w||) (a few ulps), which no finer tolerance can improve on.
_INNER_TOL = 1e-8
_INNER_MAX_ITERS = 100_000
_FLOAT_RES = 4 * np.finfo(float).eps

# Monte-Carlo residual batch; seeded ascent starts of the merit's p_r, run
# as the rows of one ascent, and the ascent's step limit
_MC_BATCH = 10_000
_P_R_STARTS = 8
_MAX_ASCENT = 2000
# merit rows per lockstep solve and ascent: a certified merit row is 514
# solve rows, so this bounds the solve at 32,896 rows
_MERIT_ROWS = 64
# stream tag of the output pair's Monte-Carlo residuals in `diagnose`; trace
# row indices are far below it, so the two never share a stream
_OUTPUT_TAG = 2 ** 63


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
    x, y = as_vector(x, problem.set_x.dim), as_vector(y, problem.set_y.dim)
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
                    rng: np.random.Generator
                    ) -> tuple[float, float, float, float]:
    """Monte-Carlo residuals (res_x, res_y, se_x, se_y) for either regime.

    Residuals are computed on the mean gradient of `_MC_BATCH` draws from
    the caller's `rng` (two calls are independent only on two streams).
    The normal-cone distance is 1-Lipschitz in the gradient argument, so
    the reported standard error of the mean-gradient estimate (in L2) also
    bounds the standard error of each residual.
    """
    x, y = as_vector(x, problem.set_x.dim), as_vector(y, problem.set_y.dim)
    gx, gy = problem.oracle.grads_at(x, y, problem.oracle.draw(rng, _MC_BATCH))
    se_x = float(np.sqrt(np.sum(gx.var(axis=0, ddof=1)) / _MC_BATCH))
    se_y = float(np.sqrt(np.sum(gy.var(axis=0, ddof=1)) / _MC_BATCH))
    return (normal_cone_dist(problem.set_x, x, gx.mean(axis=0)),
            normal_cone_dist(problem.set_y, y, -gy.mean(axis=0)), se_x, se_y)


# ----------------------------------------------------------------------------
# accelerated descent over rows

def _descend_rows(cset: ConstraintSet, P: np.ndarray, step: float, tol: float,
                  max_iters: int, grad: Callable, momentum: Optional[float] = None):
    """Accelerated projected gradient descent from each row of P, all rows
    in lockstep.

    Each iteration asks ``grad(W, live)`` for the descent directions G at
    the rows W (`live` holds their indices into P), steps to
    P_new = proj(W - step G) and extrapolates the next
    W = P_new + beta (P_new - P) from the last two iterates; the first W is
    proj(P).  beta is `momentum` if given, else FISTA's (t - 1)/t_new with
    t_new = (1 + sqrt(1 + 4 t^2))/2 (Beck & Teboulle, 2009); either way a
    row whose gradient mapping (W - P_new)/step points along its step
    P_new - P restarts with beta = 0 and t = 1 (gradient restart;
    O'Donoghue & Candes, 2015).  A row leaves at its first W whose
    residual ||P_new - W|| / step is <= tol, or whose step ||P_new - W|| is
    <= `_FLOAT_RES` (1 + ||W||), the float resolution at W, and keeps that
    W while the others go on, so its result equals its one-row descent bit
    for bit.

    Returns the rows W at which each row left (a row still going after
    `max_iters` iterations keeps its last W) and, of the rows still going,
    their indices into P, the W of the smallest residual seen and that
    residual (all three empty when every row left).
    """
    W = P = _project_rows(cset, P)
    live, out, t = np.arange(len(P)), np.empty_like(P), np.ones(len(P))
    best, best_res = P.copy(), np.full(len(P), math.inf)
    for _ in range(max_iters):
        out[live] = W
        P_new = _project_rows(cset, W - step * grad(W, live))
        res = _row_norms(P_new - W) / step
        np.copyto(best, W, where=(res < best_res)[:, None])
        best_res = np.minimum(best_res, res)
        done = (res <= tol) | (res * step <= _FLOAT_RES * (1.0 + _row_norms(W)))
        if np.logical_and.reduce(done):
            return out, live[:0], best[:0], best_res[:0]
        if np.logical_or.reduce(done):
            live, W, P, P_new, t, best, best_res = [
                a[~done] for a in (live, W, P, P_new, t, best, best_res)]
        restart = ((P_new - W)[:, None, :] @ (P_new - P)[:, :, None])[:, 0, 0] < 0.0
        t_new = np.where(restart, 1.0, 0.5 + np.sqrt(0.25 + t * t)) if momentum is None else t
        beta = np.where(restart, 0.0, (t - 1.0) / t_new if momentum is None else momentum)
        W, P, t = P_new + beta[:, None] * (P_new - P), P_new, t_new
    return out, live, best, best_res


# ----------------------------------------------------------------------------
# inner proximal solve

def solve_x_r(problem: ProblemInstance, r: float, y: np.ndarray,
              z: np.ndarray) -> np.ndarray:
    """Minimize F(x, y) + (r/2)||x - z||^2 over X by accelerated projected
    gradient.

    The objective is (r - rho)-strongly convex and (r + L_x)-smooth, so the
    solve takes the step 1/(r + L_x) with the constant momentum
    (sqrt(kappa) - 1)/(sqrt(kappa) + 1), kappa = (r + L_x)/(r - rho), from
    proj_X(z), restarting the momentum whenever it runs against the
    gradient.  It stops at the first extrapolated point w whose
    projected-gradient residual ||w - proj_X(w - step g)|| / step is <=
    `_INNER_TOL`, or whose step is within float resolution of w, and
    returns that w, which lies within the length of that step of X.

    Raises
    ------
    ValueError
        Unless rho < r < inf (the objective must be strongly convex, and
        the step 1/(r + L_x) positive).
    MaxItersError
        If no stop rule is met; carries the best iterate.
    """
    y, z = as_vector(y, problem.set_y.dim), as_vector(z, problem.set_x.dim)
    return _solve_rows(problem, r, y[None], z, z[None])[0][0]


def _solve_rows(problem: ProblemInstance, r: float, Y: np.ndarray, z: np.ndarray,
                X0: np.ndarray, labels: Optional[np.ndarray] = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """The solve of `solve_x_r` at each row Y[s] from X0[s] with the prox
    centre z[s] (a single z is every row's), all rows in lockstep by
    `_descend_rows`, so each row's result equals its one-row solve bit for
    bit.  A MaxItersError carries the label (labels[s], by default s), best
    iterate and residual of the first row that stalled.

    Returns the rows X[s] = x_r(Y[s], z[s]), each the point at which its
    residual was measured, and GY, whose row s is the exact
    grad_y F(X[s], Y[s]) that the same oracle call gave with its x side.
    """
    meta = problem.constants
    if not meta.rho < r < math.inf:
        raise ValueError(f"need rho < r < inf for a strongly convex inner problem (r={r}, "
                         f"rho={meta.rho})")
    # (sqrt(kappa) - 1)/(sqrt(kappa) + 1), kappa = (r + L_x)/(r - rho)
    momentum = 1.0 - 2.0 / (1.0 + math.sqrt((r + meta.L_x) / (r - meta.rho)))
    GY, Z = np.empty(Y.shape), np.broadcast_to(z, X0.shape)

    def grad(W, live):
        gx, GY[live] = _exact_means(problem, W, Y[live], problem.oracle.batch_grads)
        return gx + r * (W - Z[live])

    X, stalled, best, best_res = _descend_rows(problem.set_x, X0, 1.0 / (r + meta.L_x),
                                               _INNER_TOL, _INNER_MAX_ITERS, grad, momentum)
    if stalled.size:
        raise MaxItersError(f"inner solve stalled at residual {best_res[0]:.3e} (tol "
                            f"{_INNER_TOL:.1e}) after {_INNER_MAX_ITERS} iterations",
                            best=best[0], residual=float(best_res[0]),
                            row=int(stalled[0] if labels is None else labels[stalled[0]]))
    return X, GY


def dz_norm(problem: ProblemInstance, r: float, y: np.ndarray, z: np.ndarray
            ) -> float:
    """r * ||z - x_r(y, z)||, the proximal-tracking stationarity measure.

    Zero exactly when z is the fixed point of the proximal map; the solver's
    convergence guarantee is stated on this quantity at the sampled output.
    """
    z = as_vector(z, problem.set_x.dim)
    return float(r * np.linalg.norm(z - solve_x_r(problem, r, y, z)))


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


def _f_r(problem: ProblemInstance, r: float, X: np.ndarray, Y: np.ndarray,
         z: np.ndarray) -> list[float]:
    """F_r(X[s], Y[s], z[s]) for each row (a single z is every row's), with
    the exact values of all rows from one `_exact_values` call."""
    return [f + 0.5 * r * float(np.sum((x - c) ** 2)) for f, x, c in
            zip(_exact_values(problem, X, Y).tolist(), X, np.broadcast_to(z, X.shape))]


def _ascend_d_r(problem: ProblemInstance, r: float, Y0: np.ndarray, z: np.ndarray,
                labels: Optional[np.ndarray] = None) -> list[float]:
    """FISTA ascent on d_r(., z[s]) with gradient restart from each row
    Y0[s] (a single z is every row's), all rows in lockstep by
    `_descend_rows` (Danskin gradient at the extrapolated point w:
    grad_y d_r(w, z) = grad_y F(x_r(w, z), w)); returns d_r at each row's
    last w.  A MaxItersError carries the label (labels[s], by default s) of
    the row whose inner solve stalled.

    The step is 1/(L_y + L_y^2/(r - rho)).  Every inner solve warm-starts
    from its row's previous x_r, the first from z, and gives the Danskin
    gradient from its last oracle call, so d_r at the last w needs no
    further solve.  A row stops at its first w whose step is shorter than
    10 `_INNER_TOL` times the step size (or within float resolution), or
    after `_MAX_ASCENT` steps, and keeps its point while the others go on,
    so each row's value equals its one-row ascent bit for bit.
    """
    meta = problem.constants
    denom = meta.L_y + meta.L_y ** 2 / max(r - meta.rho, 1e-12)
    Z = np.broadcast_to(z, (len(Y0), problem.set_x.dim))
    X, labels = Z.copy(), np.arange(len(Y0)) if labels is None else labels

    def grad(W, live):
        X[live], gy = _solve_rows(problem, r, W, Z[live], X[live], labels[live])
        return -gy

    Y = _descend_rows(problem.set_y, Y0, 1.0 / denom if denom > 0 else 1.0,
                      10 * _INNER_TOL, _MAX_ASCENT, grad)[0]
    return _f_r(problem, r, X, Y, Z)


def lyapunov(problem: ProblemInstance, r: float, x: np.ndarray,
             y: np.ndarray, z: np.ndarray) -> LyapunovValue:
    """Merit-function value Phi_r(x, y, z) at a feasible (x, y) via nested
    inner solves.

    d_r values use the strongly convex inner solve.  p_r(z) is a global
    maximum of d_r(., z): on a 1-D box dual it is certified by a dense grid
    plus local ascent; otherwise it is the best of `_P_R_STARTS` seeded ascent
    starts (the given y plus random perturbations scaled by the diameter
    of set_y), ascended together as rows, and flagged heuristic.  Either
    way p_r is at least d_r(y, z).

    This is the one-row case of `_lyapunov_rows`, which takes the merit
    rows of a trace through one lockstep solve and one ascent.  d_r(y, z)
    and the grid's d_r values are rows of that solve, each started from z,
    and F_r(x, y, z) and all of them come from one exact-values call; the
    ascent starts at the grid's first strict maximum (never a NaN).  Cold
    rows cost more oracle rows than a chain of solves each warm-started
    from the last, but far fewer oracle calls while the grid points share
    them: on a 3x1 quadratic saddle at N = 16, 300 calls of 166,736 rows
    against the chain's 8,033 calls of 128,528, and three such merit rows
    in one call make 631 calls, not 910.  Above N = 1,024 each grid point
    is an exact call of its own, so the calls outnumber the chain's too
    (8,266 against 5,782 at N = 2,048), and merit rows in one call make
    the sum of their one-row calls.

    Requires the finite-sum regime (exact values/gradients).

    Raises
    ------
    InfeasibleError
        If x is not in X or y is not in Y (z may be any prox centre).
    """
    return _lyapunov_rows(problem, r, *(as_vector(v, cset.dim)[None] for v, cset in (
        (x, problem.set_x), (y, problem.set_y), (z, problem.set_x))))[0]


def _lyapunov_rows(problem: ProblemInstance, r: float, X: np.ndarray, Y: np.ndarray,
                   Z: np.ndarray, labels: Optional[np.ndarray] = None
                   ) -> list[LyapunovValue]:
    """`lyapunov` at each row (X[j], Y[j], Z[j]), each bit for bit its
    one-row value.  The d_r(Y[j], Z[j]) of every row and, on a 1-D box
    dual, the 513 grid points of each row after it are the rows of one
    lockstep solve; F_r and all d_r values come from one exact-values call;
    the ascent starts of every row are the rows of one ascent.  More than
    `_MERIT_ROWS` rows go in blocks of that many, each block such a call,
    which bounds the memory of the lockstep state.  Row j's label is
    labels[j] (by default j); the solve and the ascent repeat it over the
    solve and ascent rows that row j owns.

    Raises
    ------
    InfeasibleError
        Naming the label of the first row whose x or y is not in its set.
    MaxItersError
        Whose `row` is the label of the first row with a stalled inner
        solve.
    """
    labels = np.arange(len(Y)) if labels is None else labels
    for j, x, y in zip(labels, X, Y):
        for name, v, cset in (("x", x, problem.set_x), ("y", y, problem.set_y)):
            if not cset._contains(v):
                raise InfeasibleError(f"{name} is not in its set at row {j} (tol {FEAS_TOL})")
    m, dim_y = Y.shape
    if m > _MERIT_ROWS:  # blocks of _MERIT_ROWS rows, each a call of its own
        return [lv for lo in range(0, m, _MERIT_ROWS) for lv in _lyapunov_rows(
            problem, r, *(V[lo:lo + _MERIT_ROWS] for V in (X, Y, Z, labels)))]
    # p_r: the best of d_r(y, z), the grid and an ascent from the grid's
    # first strict maximum (certified), or of d_r(y, z) and the seeded
    # ascent starts; each row owns a block of solve rows, its y and, when
    # certified, the grid after it, and k ascent rows
    certified = dim_y == 1 and isinstance(problem.set_y, Box)
    grid = np.linspace(problem.set_y.lo[0], problem.set_y.hi[0], 513) if certified else Y[:0, 0]
    noise = np.random.default_rng(0).normal(size=(0 if certified else _P_R_STARTS - 1, dim_y))
    starts = np.concatenate([Y[:, None], Y[:, None] + (problem.set_y.diameter or 1.0) * noise], 1)
    block, k = 1 + len(grid), starts.shape[1]
    YS, ZS = np.hstack([Y, np.tile(grid, (m, 1))]).reshape(-1, dim_y), Z.repeat(block, axis=0)
    XS = _solve_rows(problem, r, YS, ZS, ZS, labels.repeat(block))[0]
    vals = _f_r(problem, r, np.vstack([X, XS]), np.vstack([Y, YS]), np.vstack([Z, ZS]))
    best = [-math.inf] * m
    for j in range(m):
        for val, gy in zip(vals[m + j * block + 1:m + (j + 1) * block], grid):
            if val > best[j]:  # never a NaN
                best[j], starts[j] = val, gy
    asc = _ascend_d_r(problem, r, starts.reshape(-1, dim_y), Z.repeat(k, axis=0),
                      labels.repeat(k))
    return [LyapunovValue((f - d) + (p - d) + p, f, d, p, certified)
            for j, (f, d, b) in enumerate(zip(vals, vals[m::block], best))
            for p in [max(b, d, *asc[j * k:(j + 1) * k])]]


# ----------------------------------------------------------------------------
# a run's diagnostics

def diagnose(problem: ProblemInstance, trace, config: SolverConfig,
             residual_stride: Optional[int], lyapunov_stride: Optional[int]):
    """The diagnostics of the run `trace`, keyed by trace row index; a
    stride of None is off, and `config` gives only the prox parameter r.

    Returns the residuals (res_x, res_y, se_x, se_y) at every
    `residual_stride`-th row, the last row and the output pair (key -1),
    and the merit values Phi_r at every `lyapunov_stride`-th row and the
    last.  Finite-sum residuals are exact, all of them from one rows call
    (no standard errors); online ones are Monte-Carlo, each on a stream
    keyed by (trace.seed, row), the output pair's by (trace.seed, 2**63).
    The merit rows are one `_lyapunov_rows` call, labelled by their trace
    rows.  The points come from the trace's x, y and z columns, one index
    per column of each trace, and no `TraceRow` is built.

    Given the list that `run(..., seeds=...)` returns, `diagnose` returns
    one entry per seed, in order, up to and including the first seed that
    fails: each complete trace's (residuals, merit) pair, bit for bit its
    one-trace call; then the failing seed's entry, the NonFiniteError that
    `run` returned or the MaxItersError that the seed's own call raises.
    No trace after that seed is measured.  The residual rows of the
    complete traces before the first NonFiniteError are one rows call, and
    their merit rows one `_lyapunov_rows` call; if an inner solve stalls
    there, those traces are measured again on their own, in order, up to
    the first whose own call stalls, so that its error names its own trace
    row.

    Raises
    ------
    RegimeError
        If `lyapunov_stride` is set in the online regime.
    MaxItersError
        For one trace: whose `row` is the trace row of the first merit row
        with a stalled inner solve.
    """
    args = (problem, config.r, residual_stride, lyapunov_stride)
    if isinstance(trace, RunTrace):
        return _diagnose_traces(*args, [trace])[0]
    # the complete traces before the first failed run, then that run's error
    n = next((i for i, t in enumerate(trace) if not isinstance(t, RunTrace)), len(trace))
    done, failed = trace[:n], list(trace[n:n + 1])
    try:
        return (_diagnose_traces(*args, done) if done else []) + failed
    except (MaxItersError, InfeasibleError):
        # each trace on its own, so that each error names its own trace row
        found = []
        for t in done:
            try:
                found.append(_diagnose_traces(*args, [t])[0])
            except MaxItersError as err:
                return found + [err]
        return found + failed


def _diagnose_traces(problem: ProblemInstance, r: float, residual_stride: Optional[int],
                     lyapunov_stride: Optional[int], traces) -> list:
    """The (residuals, merit) pair of `diagnose` for each complete trace of
    `traces`: the residual rows of all traces, gathered from their columns,
    are one rows call, and their merit rows, labelled by trace row, one
    `_lyapunov_rows` call."""
    want, merit = [], []  # the residual and merit rows of each trace
    for t in traces:
        last = len(t.k) - 1
        want.append([*range(0, last, residual_stride), last, -1] if residual_stride else [last, -1])
        merit.append([*range(0, last, lyapunov_stride), last] if lyapunov_stride else [])
    # one index per column of each trace, whose output pair is its row -1
    X, Y = (np.concatenate([np.vstack((getattr(t, v), t.output_pair[j]))[w] for t, w in
                            zip(traces, want)]) for j, v in enumerate("xy"))
    if isinstance(problem.regime, FiniteSum):
        res = iter([(rx, ry, None, None) for rx, ry in _gs_residual_rows(problem, X, Y)])
    else:
        keys = [(t.seed, _OUTPUT_TAG if i < 0 else i) for t, w in zip(traces, want) for i in w]
        res = iter([mc_gs_residuals(problem, x, y, np.random.default_rng(key))
                    for x, y, key in zip(X, Y, keys)])
    X, Y, Z = (np.concatenate([getattr(t, v)[m] for t, m in zip(traces, merit)]) for v in "xyz")
    lya = iter(_lyapunov_rows(problem, r, X, Y, Z, np.concatenate(merit)) if len(X) else [])
    return [(dict(zip(w, res)), {i: next(lya).value for i in m}) for w, m in zip(want, merit)]
