"""Main optimization loop: smoothed stochastic gradient descent-ascent with
variance-reduced estimates over K epochs of T inner steps.

Per inner step, with estimates G = (G_x, G_y) at the current (x, y):

    x+ = proj_X( x - alpha_x [G_x + r (x - z)] )
    y+ = proj_Y( y + alpha_y G_y )
    z+ = z + beta (x+ - z)

`step` is exactly these three lines.  `run` owns the loop state (x, y, z,
G) and, after each step but the last, refreshes G at the new point: a
recursion inside an epoch, a fresh anchor at epoch rollover (which carries
x, y, z unchanged).  Step `count` (1-based) has epoch and inner index
(k, tau) = divmod(count - 1, T).  The returned pair (x~, y~) is the
post-update iterate of one step drawn uniformly from 1..K*T before the
loop starts, so the full trajectory is never stored.  `samples_drawn` is
the one sample-accounting formula, shared with the tuner.

The loop runs many seeds at once, over a leading seed axis: x, y, z and G
are (S, d) arrays, row s belonging to seed s, and one run is the case
S = 1.  Each step makes one projection per side (a box and full space
elementwise over all rows, a ball and a simplex row by row), each refresh
one oracle call over all seeds' rows, and each seed's rows are bit for
bit those of its own run, because an oracle row does not depend on the
rows it is batched with.  A seed whose iterate goes non-finite leaves the
batch at that step, with its partial trace, and the others go on.

Random numbers come in windows: `run` takes the recursions' sample ids,
and online the anchors' ids, from one `estimator.batch_ids` table of all
seeds per window of at most `_ID_BUDGET` ids (the same ids a generator per
key would draw), the recursions' doubled once into the (S, 2, M) id
arrays that `recurse` takes.  Inputs are checked at the boundaries: the
start points once, and per step only the finiteness of the raw x and y
updates (one check over the buffer that both are written into, before
projecting) and of z+.

A step at the problem sizes this package targets (d <= 10, 2M = 32 rows)
costs Python call overhead more than arithmetic, so the per-step path
calls no Python-level numpy wrapper: the finiteness checks reduce with
`np.logical_and.reduce` (what `.all()` computes), a box projects with
`np.minimum`/`np.maximum` (what `np.clip` computes), the raw updates and
the recursion's oracle rows go into buffers allocated once per run, and
the id arrays come from C iterators.  Python frames per step are `step`,
the two `_project`s (one per row on a ball or a simplex), `recurse`,
`batch_grads` and the oracle's hook.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from typing import Callable, Optional, Sequence

import numpy as np

from .core import FiniteSum, ProblemInstance, Regime, as_vector
from .estimator import _recursion_rows, anchor, batch_ids, batch_rng, recurse
from .projections import _ELEMENTWISE, Ball, Box, ConstraintSet, FullSpace, Simplex

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

# ids per id table, over all seeds
_ID_BUDGET = 2 ** 12


class NonFiniteError(Exception):
    """An iterate became NaN/Inf; carries the partial trace of its seed when
    `run` raises or returns it."""

    def __init__(self, message: str, trace: Optional["RunTrace"] = None):
        super().__init__(message)
        self.trace = trace


# ----------------------------------------------------------------------------
# configuration and state

def _is_count(v) -> bool:
    """True for an integer >= 1: Python and numpy integers, not bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1


def _is_seed(v) -> bool:
    """True for an integer in [0, 2**64): Python and numpy integers, not bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and 0 <= v < 2 ** 64


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
        if not _is_seed(self.seed):
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
    its (k, tau) index, the z iterate alongside it (auxiliary), the samples
    drawn, and the run's seed.

    A trace that `run` returns is complete; the one that a `NonFiniteError`
    carries holds the rows recorded before the failure, no output (pair,
    index and z are None), the samples drawn before the failing step, and
    its seed."""

    rows: list
    output_pair: Optional[tuple]
    output_index: Optional[tuple]
    output_z: Optional[np.ndarray]
    total_samples: int
    seed: int


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

def step(problem: ProblemInstance, config: SolverConfig, x: np.ndarray,
         y: np.ndarray, z: np.ndarray, G: tuple, raw: Optional[np.ndarray] = None
         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three update lines from (x, y, z) with estimates G = (Gx, Gy)
    formed at (x, y); returns (x+, y+, z+) as new arrays.  The points are
    vectors, or (S, d) arrays that step S runs at once, one per row.  The
    raw x and y updates are written into `raw`, a flat buffer of the size
    of x and y together (allocated when None), and checked together.  The
    inputs are not checked (`run` checks its start points once).

    Raises
    ------
    NonFiniteError
        If a raw x/y update, or z+, has a NaN/Inf entry (in any row).
    """
    if raw is None:
        raw = np.empty(x.size + y.size)
    # contiguous views, which numpy's fast loops take
    raw_x, raw_y = raw[:x.size].reshape(x.shape), raw[x.size:].reshape(y.shape)
    # raw_x = x - alpha_x (Gx + r (x - z)) and raw_y = y + alpha_y Gy, each
    # operation the same IEEE one as in that order
    np.subtract(x, z, raw_x)
    raw_x *= config.r
    raw_x += G[0]
    raw_x *= config.alpha_x
    np.subtract(x, raw_x, raw_x)
    np.multiply(G[1], config.alpha_y, raw_y)
    raw_y += y
    # check the raw updates before projecting: clamping would silently mask
    # an overflow, and the simplex projection cannot take non-finite input
    # (np.logical_and.reduce is what .all() computes, minus its Python-level
    # wrapper)
    if not np.logical_and.reduce(np.isfinite(raw), None):
        raise NonFiniteError("iterate became non-finite")
    # a box and full space project all rows at once, a ball and a simplex
    # one point (or a stack of one) at a time
    set_x, set_y, one = problem.set_x, problem.set_y, x.ndim == 1 or len(x) == 1
    x_new = (set_x._project(raw_x) if one or isinstance(set_x, _ELEMENTWISE)
             else np.array(list(map(set_x._project, raw_x))))
    y_new = (set_y._project(raw_y) if one or isinstance(set_y, _ELEMENTWISE)
             else np.array(list(map(set_y._project, raw_y))))
    z_new = z + config.beta * (x_new - z)
    if not np.logical_and.reduce(np.isfinite(z_new), None):
        raise NonFiniteError("iterate became non-finite")
    return x_new, y_new, z_new


# ----------------------------------------------------------------------------
# full run

def _key_ids(problem: ProblemInstance, seeds: np.ndarray, keys: int, key_of: Callable,
             count: int, doubled: bool):
    """An iterator over the sample ids of keys 0..keys-1 in order, key j
    being (epoch, tau) = key_of(j) on arrays of key numbers: per key an
    (S, count) array of every seed's ids, or with `doubled` the (S, 2,
    count) array that `recurse` takes (the ids in both rows).

    The ids come from one `batch_ids` table of all seeds per window of at
    most `_ID_BUDGET` ids.  Each table is shaped once, and its per-key
    arrays are handed out by iterators that run in C, so a step enters no
    Python frame for its ids.
    """
    S = len(seeds)
    window = max(1, _ID_BUDGET // (S * count))

    def table(start: int) -> np.ndarray:
        epochs, taus = key_of(np.arange(start, min(start + window, keys))[:, None])
        ids = batch_ids(problem.oracle.id_high, seeds, epochs, taus,
                        count).reshape(-1, S, 1, count)
        return np.tile(ids, (1, 1, 2, 1)) if doubled else ids[:, :, 0]

    return chain.from_iterable(map(table, range(0, keys, window)))


def _start_point(cset: ConstraintSet, v) -> np.ndarray:
    """A checked copy of a start point, or the set's default if None."""
    return default_initial_point(cset) if v is None else np.array(as_vector(v, cset.dim))


def _failing_rows(problem: ProblemInstance, config: SolverConfig, x, y, z, G) -> list:
    """The rows of a batched step whose own one-row step raises
    `NonFiniteError`."""
    failing = []
    for s in range(len(x)):
        try:
            step(problem, config, x[s:s + 1], y[s:s + 1], z[s:s + 1],
                 (G[0][s:s + 1], G[1][s:s + 1]))
        except NonFiniteError:
            failing.append(s)
    return failing


def run(problem: ProblemInstance, config: SolverConfig,
        x0: Optional[np.ndarray] = None, y0: Optional[np.ndarray] = None,
        sink: Optional[Callable[[TraceRow], None]] = None,
        seeds: Optional[Sequence[int]] = None):
    """Execute the full K*T-step schedule and return the trace.

    The output step is drawn uniformly from 1..K*T before the loop, on a
    dedicated random stream, and its post-update iterates are the output
    pair; everything (batch draws, output step, hence the whole trace) is
    determined by (problem, config), and per-step sample counts depend
    only on the configuration.

    With `seeds`, a sequence of integers in [0, 2**64), the schedule runs
    once per seed (`config.seed` aside) in one loop over a leading seed
    axis, and `run` returns a list with one entry per seed: its `RunTrace`,
    bit for bit that of `run` with `config.seed` set to the seed, or the
    `NonFiniteError` that stopped it, carrying its partial trace.  A seed
    that fails leaves the batch at its failing step; the others go on.
    Every trace, complete or partial, records its seed.

    The start points are checked once (dimension and finiteness, DimError
    otherwise); infeasible x0/y0 are projected with a logged warning (one
    per run), into a copy, never into the caller's array.  The prox center
    z starts at the projected x0, so every z, a running average of
    iterates in X, stays in X.  Trace rows are recorded every
    `trace_stride` steps (plus the final step) with iterate snapshots;
    `sink`, when given, receives each row as produced (the rows of one
    step in the order of the seeds).

    Raises
    ------
    NonFiniteError
        Without `seeds`, on a non-finite iterate; the partial trace is
        attached to the error.
    ValueError
        If `seeds` is empty or holds anything but integers in [0, 2**64).
    """
    seeds_run = [config.seed] if seeds is None else list(seeds)
    if seeds is not None and not (seeds_run and all(map(_is_seed, seeds_run))):
        raise ValueError("seeds must be a nonempty sequence of integers in [0, 2**64)")
    S = len(seeds_run)
    x = _start_point(problem.set_x, x0)
    y = _start_point(problem.set_y, y0)
    for name, v, cset in (("x0", x, problem.set_x), ("y0", y, problem.set_y)):
        if not cset._contains(v):
            for _ in seeds_run:
                logger.warning("initial %s infeasible; projecting onto the set", name)
            v[:] = cset._project(v)
    # every seed's state is a row of these
    x, y = x[None].repeat(S, axis=0), y[None].repeat(S, axis=0)
    z = x.copy()

    K, T, M = config.K, config.T, config.M
    total_steps = K * T
    drawn = partial(samples_drawn, problem.regime, T, M, config.B)
    key_seeds = np.array(seeds_run, dtype=np.uint64)
    # a finite-sum anchor draws nothing, so it gets no ids
    anchor_ids = (repeat(None) if isinstance(problem.regime, FiniteSum)
                  else _key_ids(problem, key_seeds, K, lambda j: (j, 0), config.B, False))
    recursion_ids = _key_ids(problem, key_seeds, K * (T - 1),
                             lambda j: (j // (T - 1), j % (T - 1) + 1), M, True)
    G = anchor(problem, x, y, next(anchor_ids))
    # per seed: its output step, its rows and output, and its result once
    # it fails or the run ends (a failed seed's output is never read)
    due = {}
    for i, seed in enumerate(seeds_run):
        due.setdefault(int(batch_rng(seed, 0, 0, purpose=1).integers(total_steps)) + 1,
                       []).append(i)
    rows = [[] for _ in seeds_run]
    outputs, results = [None] * S, [None] * S
    raw = np.empty(x.size + y.size)
    point_rows = _recursion_rows((S, 2, M), x.shape[1], y.shape[1])

    for count in range(1, total_steps + 1):
        k, tau = divmod(count - 1, T)
        try:
            x_new, y_new, z_new = step(problem, config, x, y, z, G, raw)
        except NonFiniteError as err:
            # a failing seed leaves the run here with its partial trace.  Its
            # row stays in the arrays, at its last x and y with z = x and
            # G = 0, which step to finite values, and is not recorded again
            for i in _failing_rows(problem, config, x, y, z, G):
                if results[i] is None:
                    results[i] = NonFiniteError(str(err), RunTrace(
                        rows[i], None, None, None, drawn(count - 1), int(seeds_run[i])))
                z[i], G[0][i], G[1][i] = x[i], 0.0, 0.0
            if None not in results:
                break
            x_new, y_new, z_new = step(problem, config, x, y, z, G, raw)
        if tau + 1 < T:
            G = recurse(problem, G, (x, y), (x_new, y_new), next(recursion_ids), point_rows)
        elif count < total_steps:
            G = anchor(problem, x_new, y_new, next(anchor_ids))

        for i in due.get(count, ()):
            outputs[i] = (x_new[i].copy(), y_new[i].copy()), (k, tau), z_new[i].copy()

        if count % config.trace_stride == 0 or count == total_steps:
            used = drawn(min(count, total_steps - 1))
            dx, dy, gap = x_new - x, y_new - y, x_new - z
            for i in range(S):
                if results[i] is None:
                    # a norm is what np.linalg.norm computes for a real
                    # vector, minus its dispatch
                    a, b, c = dx[i], dy[i], gap[i]
                    row = TraceRow(k, tau, math.sqrt(a.dot(a)), math.sqrt(b.dot(b)),
                                   math.sqrt(c.dot(c)), used,
                                   x_new[i].copy(), y_new[i].copy(), z_new[i].copy())
                    rows[i].append(row)
                    if sink is not None:
                        sink(row)
        x, y, z = x_new, y_new, z_new

    samples = drawn(total_steps - 1)
    results = [RunTrace(rows[i], *outputs[i], samples, int(seeds_run[i]))
               if result is None else result for i, result in enumerate(results)]
    if seeds is not None:
        return results
    if isinstance(results[0], NonFiniteError):
        raise results[0]
    return results[0]
