"""Main optimization loop: smoothed stochastic gradient descent-ascent with
variance-reduced estimates over K epochs of T inner steps.

Per inner step, with estimates G = (G_x, G_y) at the current (x, y):

    x+ = proj_X( x - alpha_x [G_x + r (x - z)] )
    y+ = proj_Y( y + alpha_y G_y )
    z+ = z + beta (x+ - z)

`step` is exactly these three lines.  `run` owns the loop state (x, y, z, G)
and, after each step but the last, refreshes G at the new point: a
recursion inside an epoch, a fresh anchor at epoch rollover (which carries
x, y, z unchanged).  Step `count` (1-based) has epoch and inner index
(k, tau) = divmod(count - 1, T).  The returned pair (x~, y~) is drawn
uniformly over all K*T post-update iterates via single-slot reservoir
sampling, so the full trajectory is never stored.  `samples_drawn` is the
one sample-accounting formula, shared with the tuner.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .core import FiniteSum, ProblemInstance, Regime
from .estimator import anchor, batch_rng, recurse
from .projections import Ball, Box, ConstraintSet, FullSpace, Simplex

__all__ = [
    "SolverConfig",
    "TraceRow",
    "RunTrace",
    "NonFiniteError",
    "default_initial_point",
    "samples_drawn",
    "step",
    "run",
]

logger = logging.getLogger("spidergda.solver")


class NonFiniteError(Exception):
    """An iterate became NaN/Inf; carries the partial trace when raised by run."""

    def __init__(self, message: str, trace: Optional["RunTrace"] = None):
        super().__init__(message)
        self.trace = trace


# ----------------------------------------------------------------------------
# configuration and state

@dataclass
class SolverConfig:
    """Static schedule for one run.

    K epochs of T inner steps; M recursion batch size; B anchor batch size
    (ignored under the finite-sum regime, which anchors on all N
    components).  beta must lie in (0, 1]; step sizes and r are positive.
    """

    K: int
    T: int
    M: int
    B: int
    alpha_x: float
    alpha_y: float
    beta: float
    r: float
    seed: int = 0
    record_trace: bool = True
    trace_stride: int = 1

    def __post_init__(self):
        for name in ("K", "T", "M", "B", "trace_stride"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be a positive integer")
        for name in ("alpha_x", "alpha_y", "r"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        # batch_rng keys epochs 0..K-1 with 31 bits and steps 0..T-1 with 32
        for name, bits in (("K", 31), ("T", 32)):
            if int(getattr(self, name)) > 2 ** bits:
                raise OverflowError(f"{name}={getattr(self, name)} exceeds 2**{bits}; "
                                    "longer schedules would reuse mini-batch streams")


@dataclass
class TraceRow:
    """One recorded step: counters, displacement norms, prox-center gap
    ||x+ - z|| (z as used in the x-update), cumulative sample draws, and
    optional iterate snapshots / residuals filled in by diagnostics."""

    k: int
    tau: int
    dx_norm: float
    dy_norm: float
    xz_gap: float
    samples_used: int
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    res_x: Optional[float] = None
    res_y: Optional[float] = None
    lyapunov: Optional[float] = None


@dataclass
class RunTrace:
    """Output of one run: recorded rows, the uniformly sampled output pair,
    its (k, tau) index, and the z iterate alongside it (auxiliary)."""

    rows: list = field(default_factory=list)
    output_pair: Optional[tuple] = None
    output_index: Optional[tuple] = None
    output_z: Optional[np.ndarray] = None
    total_samples: int = 0
    completed: bool = False


# ----------------------------------------------------------------------------
# initial points

def default_initial_point(cset: ConstraintSet) -> np.ndarray:
    """Center-like feasible default per set kind: box midpoint, ball center,
    simplex barycenter, origin for the full space."""
    if isinstance(cset, Box):
        return 0.5 * (cset.lo + cset.hi)
    if isinstance(cset, Ball):
        return cset.center.copy()
    if isinstance(cset, Simplex):
        return np.full(cset.dim, 1.0 / cset.dim)
    if isinstance(cset, FullSpace):
        return np.zeros(cset.dim)
    raise TypeError(f"unsupported set kind: {type(cset).__name__}")


def samples_drawn(regime: Regime, T: int, M: int, B: int, refreshes: int) -> int:
    """Sample draws of the first anchor plus `refreshes` estimator refreshes.

    Every T-th refresh is an anchor, the rest are M-draw recursions; an
    anchor draws N samples in the finite-sum regime and B online.  A run
    of K*T steps makes K*T - 1 refreshes (none after its last step).
    """
    cost = regime.n if isinstance(regime, FiniteSum) else B
    anchors = refreshes // T
    return cost * (1 + anchors) + M * (refreshes - anchors)


# ----------------------------------------------------------------------------
# single step

def _check_finite(*vecs: np.ndarray) -> None:
    for v in vecs:
        if not np.all(np.isfinite(v)):
            raise NonFiniteError("iterate became non-finite")


def step(problem: ProblemInstance, config: SolverConfig, x: np.ndarray,
         y: np.ndarray, z: np.ndarray, G: tuple
         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three update lines from (x, y, z) with estimates G = (Gx, Gy)
    formed at (x, y); returns (x+, y+, z+) as new arrays.

    Raises
    ------
    NonFiniteError
        If any updated iterate has a NaN/Inf entry.
    """
    # check the raw updates before projecting: clamping would silently mask
    # an overflow, and the set kinds reject non-finite input anyway
    raw_x = x - config.alpha_x * (G[0] + config.r * (x - z))
    raw_y = y + config.alpha_y * G[1]
    _check_finite(raw_x, raw_y)
    x_new = problem.set_x.project(raw_x)
    y_new = problem.set_y.project(raw_y)
    z_new = z + config.beta * (x_new - z)
    _check_finite(z_new)
    return x_new, y_new, z_new


# ----------------------------------------------------------------------------
# full run

def run(problem: ProblemInstance, config: SolverConfig,
        x0: Optional[np.ndarray] = None, y0: Optional[np.ndarray] = None,
        z0: Optional[np.ndarray] = None,
        sink: Optional[Callable[[TraceRow], None]] = None) -> RunTrace:
    """Execute the full K*T-step schedule and return the trace.

    The output pair is drawn uniformly over all post-update iterates via
    reservoir sampling on a dedicated random stream; everything (batch
    draws, reservoir, hence the whole trace) is determined by (problem,
    config), and per-step sample counts depend only on the configuration.

    Infeasible initial points are projected with a logged warning; the
    projection goes to a copy, never into the caller's array.  Trace
    rows are recorded every `trace_stride` steps (plus the final step) with
    iterate snapshots; `sink`, when given, receives each row as produced.

    Raises
    ------
    NonFiniteError
        On a non-finite iterate; the partial trace is attached to the error.
    """
    # copies, so projecting an infeasible start never writes to the caller
    x = default_initial_point(problem.set_x) if x0 is None else np.array(x0, dtype=np.float64)
    y = default_initial_point(problem.set_y) if y0 is None else np.array(y0, dtype=np.float64)
    z = x.copy() if z0 is None else np.array(z0, dtype=np.float64)
    for name, v, cset in (("x0", x, problem.set_x), ("y0", y, problem.set_y)):
        if not cset.contains(v):
            logger.warning("initial %s infeasible; projecting onto the set", name)
            v[:] = cset.project(v)

    T, total_steps = config.T, config.K * config.T
    drawn = partial(samples_drawn, problem.regime, T, config.M, config.B)
    G = anchor(problem, x, y, config.B, batch_rng(config.seed, 0, 0))
    trace = RunTrace()
    reservoir = batch_rng(config.seed, 0, 0, purpose=1)

    for count in range(1, total_steps + 1):
        k, tau = divmod(count - 1, T)
        try:
            x_new, y_new, z_new = step(problem, config, x, y, z, G)
        except NonFiniteError as err:
            raise NonFiniteError(str(err), trace) from None
        if tau + 1 < T:
            G = recurse(problem, G, (x, y), (x_new, y_new), config.M,
                        batch_rng(config.seed, k, tau + 1))
        elif count < total_steps:
            G = anchor(problem, x_new, y_new, config.B,
                       batch_rng(config.seed, k + 1, 0))

        # reservoir: keep the c-th candidate with probability 1/c
        if reservoir.random() < 1.0 / count:
            trace.output_pair = (x_new.copy(), y_new.copy())
            trace.output_index = (k, tau)
            trace.output_z = z_new.copy()

        if config.record_trace and (count % config.trace_stride == 0
                                    or count == total_steps):
            row = TraceRow(
                k=k,
                tau=tau,
                dx_norm=float(np.linalg.norm(x_new - x)),
                dy_norm=float(np.linalg.norm(y_new - y)),
                xz_gap=float(np.linalg.norm(x_new - z)),
                samples_used=drawn(min(count, total_steps - 1)),
                x=x_new.copy(), y=y_new.copy(), z=z_new.copy(),
            )
            trace.rows.append(row)
            if sink is not None:
                sink(row)
        x, y, z = x_new, y_new, z_new

    trace.total_samples = drawn(total_steps - 1)
    trace.completed = True
    return trace
