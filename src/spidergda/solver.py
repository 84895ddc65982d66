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

Random numbers come in windows: `run` takes the recursions' sample ids
from one `estimator.batch_ids` table per window of at most `_ID_BUDGET`
ids (the same ids a generator per step would draw), doubled once into the
(2, M) id arrays that `recurse` takes, and the reservoir's uniforms from one
draw per window of `_RESERVOIR_WINDOW` steps.  Inputs are checked at the
boundaries: the start points once, and per step only the finiteness of
the raw x and y updates (each on its own, before projecting) and of z+.

A step at the problem sizes this package targets (d <= 10, 2M = 32 rows)
costs Python call overhead more than arithmetic, so the per-step path
calls no Python-level numpy wrapper: the finiteness checks reduce with
`np.logical_and.reduce` (what `.all()` computes), a box projects with
`np.minimum`/`np.maximum` (what `np.clip` computes), and the id arrays
come from C iterators.  Python frames per step are `step`, the two
`_project`s, `recurse`, `batch_grads` and the oracle's hook.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Callable, Optional

import numpy as np

from .core import FiniteSum, ProblemInstance, Regime, as_vector
from .estimator import anchor, batch_ids, batch_rng, recurse
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

# ids per recursion-id table, and steps per draw of reservoir uniforms
_ID_BUDGET = 2 ** 12
_RESERVOIR_WINDOW = 2 ** 11


class NonFiniteError(Exception):
    """An iterate became NaN/Inf; carries the partial trace when raised by run."""

    def __init__(self, message: str, trace: Optional["RunTrace"] = None):
        super().__init__(message)
        self.trace = trace


# ----------------------------------------------------------------------------
# configuration and state

def _is_count(v) -> bool:
    """True for an integer >= 1: Python and numpy integers, not bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1


@dataclass
class SolverConfig:
    """Static schedule for one run.

    K epochs of T inner steps; M recursion batch size; B anchor batch size
    (ignored under the finite-sum regime, which anchors on all N
    components).  Counts and the seed are integers (numpy's too, stored as
    int; bool not); counts are positive, and the seed lies in [0, 2**64),
    the range of a Philox key word, so no two seeds share a run.  beta must
    lie in (0, 1]; step sizes and r are positive and finite.
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
    trace_stride: int = 1

    def __post_init__(self):
        for name in ("K", "T", "M", "B", "trace_stride"):
            if not _is_count(getattr(self, name)):
                raise ValueError(f"{name} must be a positive integer")
            # a numpy count would wrap in the id tables' arithmetic
            setattr(self, name, int(getattr(self, name)))
        if (not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool)
                or not 0 <= self.seed < 2 ** 64):
            raise ValueError("seed must be an integer in [0, 2**64)")
        self.seed = int(self.seed)
        for name in ("alpha_x", "alpha_y", "r"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        # batch_rng keys epochs 0..K-1 with 31 bits and steps 0..T-1 with 32
        for name, bits in (("K", 31), ("T", 32)):
            if getattr(self, name) > 2 ** bits:
                raise OverflowError(f"{name}={getattr(self, name)} exceeds 2**{bits}; "
                                    "longer schedules would reuse mini-batch streams")


@dataclass
class TraceRow:
    """One recorded step: counters, displacement norms, prox-center gap
    ||x+ - z|| (z as used in the x-update), cumulative sample draws, and
    snapshots of the iterates after the step."""

    k: int
    tau: int
    dx_norm: float
    dy_norm: float
    xz_gap: float
    samples_used: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray


@dataclass
class RunTrace:
    """Output of one run: recorded rows, the uniformly sampled output pair,
    its (k, tau) index, and the z iterate alongside it (auxiliary).

    A trace that `run` returns is complete; the one that a `NonFiniteError`
    carries holds only the rows recorded before the failure."""

    rows: list = field(default_factory=list)
    output_pair: Optional[tuple] = None
    output_index: Optional[tuple] = None
    output_z: Optional[np.ndarray] = None
    total_samples: int = 0


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

def _norm(v: np.ndarray) -> float:
    # what np.linalg.norm computes for a real vector, minus its dispatch
    return math.sqrt(v.dot(v))


def step(problem: ProblemInstance, config: SolverConfig, x: np.ndarray,
         y: np.ndarray, z: np.ndarray, G: tuple
         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three update lines from (x, y, z) with estimates G = (Gx, Gy)
    formed at (x, y); returns (x+, y+, z+) as new arrays.  The inputs are
    not checked (`run` checks its start points once).

    Raises
    ------
    NonFiniteError
        If the raw x/y update, or z+, has a NaN/Inf entry.
    """
    # check the raw updates before projecting: clamping would silently mask
    # an overflow, and the simplex projection cannot take non-finite input
    # (np.logical_and.reduce is what .all() computes, minus its Python-level
    # wrapper)
    raw_x = x - config.alpha_x * (G[0] + config.r * (x - z))
    raw_y = y + config.alpha_y * G[1]
    if not (np.logical_and.reduce(np.isfinite(raw_x))
            and np.logical_and.reduce(np.isfinite(raw_y))):
        raise NonFiniteError("iterate became non-finite")
    x_new = problem.set_x._project(raw_x)
    y_new = problem.set_y._project(raw_y)
    z_new = z + config.beta * (x_new - z)
    if not np.logical_and.reduce(np.isfinite(z_new)):
        raise NonFiniteError("iterate became non-finite")
    return x_new, y_new, z_new


# ----------------------------------------------------------------------------
# full run

def _recursion_ids(problem: ProblemInstance, config: SolverConfig):
    """An iterator over the ids of every recursion of the run, in step
    order, each the (2, M) array `recurse` takes (the M ids in both rows),
    taken from one `batch_ids` table per window of at most `_ID_BUDGET`
    ids.

    The recursions are the keys (k, tau) with tau in 1..T-1 of every epoch
    k, since the refresh after step (k, tau - 1) is keyed (k, tau).  Each
    table is doubled once, and its (2, M) slices are handed out by
    iterators that run in C, so a step enters no Python frame for its ids.
    """
    T, M = config.T, config.M
    total = config.K * (T - 1)
    window = max(1, _ID_BUDGET // M)

    def table(start: int) -> np.ndarray:
        k, tau = np.divmod(np.arange(start, min(start + window, total)), T - 1)
        ids = batch_ids(problem.oracle.id_high, config.seed, k, tau + 1, M)
        return np.tile(ids[:, None], (2, 1))

    return chain.from_iterable(map(table, range(0, total, window)))


def _reservoir_hits(rng: np.random.Generator, total_steps: int):
    """The steps at which the reservoir takes its candidate, in order: the
    c-th candidate is kept when the c-th uniform of `rng` is below 1/c.
    Uniforms are drawn `_RESERVOIR_WINDOW` at a time, the same stream as
    one `rng.random()` per step."""
    for start in range(1, total_steps + 1, _RESERVOIR_WINDOW):
        counts = np.arange(start, min(start + _RESERVOIR_WINDOW, total_steps + 1))
        yield from counts[rng.random(len(counts)) < 1.0 / counts].tolist()


def _start_point(cset: ConstraintSet, v) -> np.ndarray:
    """A checked copy of a start point, or the set's default if None."""
    return default_initial_point(cset) if v is None else np.array(as_vector(v, cset.dim))


def run(problem: ProblemInstance, config: SolverConfig,
        x0: Optional[np.ndarray] = None, y0: Optional[np.ndarray] = None,
        sink: Optional[Callable[[TraceRow], None]] = None) -> RunTrace:
    """Execute the full K*T-step schedule and return the trace.

    The output pair is drawn uniformly over all post-update iterates via
    reservoir sampling on a dedicated random stream; everything (batch
    draws, reservoir, hence the whole trace) is determined by (problem,
    config), and per-step sample counts depend only on the configuration.

    The start points are checked once (dimension and finiteness, DimError
    otherwise); infeasible x0/y0 are projected with a logged warning, into
    a copy, never into the caller's array.  The prox center z starts at
    the projected x0, so every z, a running average of iterates in X,
    stays in X.  Trace rows are recorded every `trace_stride` steps (plus
    the final step) with iterate snapshots; `sink`, when given, receives
    each row as produced.

    Raises
    ------
    NonFiniteError
        On a non-finite iterate; the partial trace is attached to the error.
    """
    x = _start_point(problem.set_x, x0)
    y = _start_point(problem.set_y, y0)
    for name, v, cset in (("x0", x, problem.set_x), ("y0", y, problem.set_y)):
        if not cset._contains(v):
            logger.warning("initial %s infeasible; projecting onto the set", name)
            v[:] = cset._project(v)
    z = x.copy()

    T, total_steps = config.T, config.K * config.T
    drawn = partial(samples_drawn, problem.regime, T, config.M, config.B)
    # a finite-sum anchor draws nothing, so it gets no generator to build
    online = not isinstance(problem.regime, FiniteSum)
    G = anchor(problem, x, y, config.B, batch_rng(config.seed, 0, 0) if online else None)
    trace = RunTrace()
    recursion_ids = _recursion_ids(problem, config)
    hits = _reservoir_hits(batch_rng(config.seed, 0, 0, purpose=1), total_steps)
    next_hit = next(hits)

    for count in range(1, total_steps + 1):
        k, tau = divmod(count - 1, T)
        try:
            x_new, y_new, z_new = step(problem, config, x, y, z, G)
        except NonFiniteError as err:
            raise NonFiniteError(str(err), trace) from None
        if tau + 1 < T:
            G = recurse(problem, G, (x, y), (x_new, y_new), next(recursion_ids))
        elif count < total_steps:
            G = anchor(problem, x_new, y_new, config.B,
                       batch_rng(config.seed, k + 1, 0) if online else None)

        if count == next_hit:
            trace.output_pair = (x_new.copy(), y_new.copy())
            trace.output_index = (k, tau)
            trace.output_z = z_new.copy()
            next_hit = next(hits, 0)

        if count % config.trace_stride == 0 or count == total_steps:
            row = TraceRow(
                k=k,
                tau=tau,
                dx_norm=_norm(x_new - x),
                dy_norm=_norm(y_new - y),
                xz_gap=_norm(x_new - z),
                samples_used=drawn(min(count, total_steps - 1)),
                x=x_new.copy(), y=y_new.copy(), z=z_new.copy(),
            )
            trace.rows.append(row)
            if sink is not None:
                sink(row)
        x, y, z = x_new, y_new, z_new

    trace.total_samples = drawn(total_steps - 1)
    return trace
