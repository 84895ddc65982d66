"""Variance-reduced stochastic gradient estimators for the minimax solver.

Each epoch starts from an *anchor* estimate (exact full gradient in the
finite-sum regime, a size-B mini-batch mean online) and then applies the
recursive momentum update

    G <- mean_i[ grad f(new; xi_i) - grad f(prev; xi_i) ] + G_old

with M fresh i.i.d. draws per inner step, the same draws feeding both the
x- and y-estimates, and the new and the previous point evaluated in one
oracle call of 2M rows.  An estimate is the plain pair G = (Gx, Gy); the
estimator keeps no state of its own, so the caller passes the point G was
formed at (`prev`) and the step's sample ids, as both rows of a (2, M)
array (one id per oracle row), to `recurse`.

Mini-batch randomness comes from counter-based Philox streams keyed by
(seed, epoch, step), so any batch is reproducible in isolation
(`batch_rng`).  `batch_ids` computes the ids of many keys at once: it runs
Philox4x64-10 and numpy's bounded integer draw ``integers(0, high)``,
with `high` the oracle's `id_high`, as array code over all keys (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011), bit for
bit what each key's generator would return; the rare key whose draw numpy
would reject and redraw gets the key's own generator instead.  The solver
fills one such table per window of refresh steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FiniteSum, ProblemInstance, _exact_means, full_grads

__all__ = [
    "anchor",
    "recurse",
    "estimator_mse",
    "EstimatorMse",
    "batch_rng",
    "batch_ids",
]


def _tag(purpose, epoch, tau):
    """Second Philox key word, purpose<<63 | epoch<<32 | tau, with 31-bit
    epoch and 32-bit tau fields; takes Python ints or uint64 arrays."""
    return ((purpose & 1) << 63) | ((epoch & 0x7FFFFFFF) << 32) | (tau & 0xFFFFFFFF)


def batch_rng(seed: int, epoch: int, tau: int, purpose: int = 0) -> np.random.Generator:
    """Counter-based generator for the (epoch, tau) mini-batch.

    Philox keyed by (seed, purpose<<63 | epoch<<32 | tau), seed in
    [0, 2**64); draws within the batch advance the counter.  Any batch is
    reproducible independently of execution order, which the replay and
    enumeration tests rely on.
    """
    key = np.array([seed, _tag(purpose, epoch, tau)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ----------------------------------------------------------------------------
# bulk ids: numpy's Philox4x64-10 and bounded draw as array code
#
# numpy's Philox increments its counter before each block, so a key's
# first block is counter (1, 0, 0, 0); each 64-bit output word serves two
# 32-bit draws, low half first.  integers(0, n) for n <= 2**32 is Lemire's
# draw (u * n) >> 32 on 32-bit u, redrawn while (u * n) mod 2**32 falls
# below (2**32 - n) mod n; above 2**32 it is the same on 64-bit words.

_LO32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _split(a):
    """a with its low and high 32-bit halves, the form `_mulhilo` takes."""
    return a, a & _LO32, a >> _SHIFT32


def _mulhilo(a, b):
    """High and low 64-bit words of the 128-bit products a * b, for a from
    `_split` and a uint64 array b."""
    a, a_lo, a_hi = a
    b_lo, b_hi = b & _LO32, b >> _SHIFT32
    t = a_lo * b_lo
    m1 = a_hi * b_lo + (t >> _SHIFT32)
    m2 = a_lo * b_hi + (m1 & _LO32)
    return a_hi * b_hi + (m1 >> _SHIFT32) + (m2 >> _SHIFT32), a * b


_PHILOX_MUL = _split(np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157],
                              dtype=np.uint64)[:, None, None])
_PHILOX_BUMP = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10


def _philox_words(seed: int, tags: np.ndarray, blocks: int) -> np.ndarray:
    """First `blocks` output blocks of every key (seed, tags[j]), as uint64
    words of shape (len(tags), 4 * blocks) in stream order."""
    rounds = np.arange(_PHILOX_ROUNDS, dtype=np.uint64)
    keys = np.empty((_PHILOX_ROUNDS, 2, len(tags), 1), dtype=np.uint64)
    keys[:, 0] = (np.uint64(seed) + rounds * _PHILOX_BUMP[0])[:, None, None]
    keys[:, 1, :, 0] = tags + rounds[:, None] * _PHILOX_BUMP[1]
    # counter words 0 and 2 go through the multipliers, 1 and 3 are xored in
    even = np.zeros((2, len(tags), blocks), dtype=np.uint64)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)
    for key in keys:
        hi, lo = _mulhilo(_PHILOX_MUL, even)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    return np.stack((even[0], odd[0], even[1], odd[1]), axis=-1).reshape(len(tags), -1)


def _uniform_ids(high: int, seed: int, tags: np.ndarray, count: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """`count` draws of integers(0, high) for every key, and a mask of the
    keys on which numpy would have rejected a draw (their rows are wrong)."""
    if high <= 1 << 32:
        # little-endian 32-bit view: each word's low half, then its high half
        u = _philox_words(seed, tags, -(-count // 8)).astype("<u8").view("<u4")
        m = u[:, :count].astype(np.uint64) * np.uint64(high)
        hi, lo = m >> _SHIFT32, m & _LO32
        threshold = ((1 << 32) - high) % high
    else:
        hi, lo = _mulhilo(_split(np.uint64(high)),
                          _philox_words(seed, tags, -(-count // 4))[:, :count])
        threshold = ((1 << 64) - high) % high
    return hi.astype(np.int64), (lo < np.uint64(threshold)).any(axis=1)


def batch_ids(high: int, seed: int, epochs, taus, count: int):
    """Mini-batch ids of many (epoch, tau) keys, one row per key, each id
    uniform in [0, high) (an oracle's `id_high`).

    Row j equals ``batch_rng(seed, epochs[j], taus[j]).integers(0, high,
    size=count)`` bit for bit, which is the oracle's `draw` from that
    generator; `epochs` and `taus` broadcast against each other.  All rows
    come from one vectorized Philox pass; a key on which numpy's bounded
    draw would reject a value (odds below high / 2**32 per draw) gets its
    own generator.
    """
    epochs, taus = (a.ravel() for a in np.broadcast_arrays(
        np.asarray(epochs, dtype=np.int64), np.asarray(taus, dtype=np.int64)))
    tags = _tag(0, epochs.astype(np.uint64), taus.astype(np.uint64))
    ids, rejected = _uniform_ids(high, seed, tags, count)
    for j in np.flatnonzero(rejected).tolist():
        rng = batch_rng(seed, int(epochs[j]), int(taus[j]))
        ids[j] = rng.integers(0, high, size=count)
    return ids


# ----------------------------------------------------------------------------
# anchor / recurse

def anchor(problem: ProblemInstance, x: np.ndarray, y: np.ndarray,
           B: int, rng: np.random.Generator | None) -> tuple[np.ndarray, np.ndarray]:
    """Start-of-epoch gradient estimate G = (Gx, Gy) at (x, y).

    Finite-sum regime: B and `rng` are ignored (`run` passes None) and all
    N component gradients are averaged in one `full_grads` pass, so Gx/Gy
    equal the exact partial gradients bit for bit.  Online regime: Gx/Gy
    are means over B fresh i.i.d. draws from `rng`.  Neither `anchor` nor
    `recurse` checks its points; `run` checks its start points once.
    """
    if isinstance(problem.regime, FiniteSum):
        return full_grads(problem, x, y)
    if B < 1:
        raise ValueError("online anchor needs B >= 1")
    gx, gy = problem.oracle.grads_at(x, y, problem.oracle.draw(rng, B))
    return gx.mean(axis=0), gy.mean(axis=0)


def recurse(problem: ProblemInstance, G: tuple, prev: tuple, new: tuple,
            ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One recursive momentum update of G = (Gx, Gy), formed at the point
    `prev` = (x, y), onto the point `new` = (x, y), over M sample ids xi_i
    (i.i.d., with replacement; `batch_ids` computes them):

        G <- mean_i[grad f(new; xi_i) - grad f(prev; xi_i)] + G_old

    with the *same* ids for Gx and Gy, from one oracle call of 2M rows
    (M at the new point, then M at the previous one).  `ids` is a (2, M)
    array holding the M ids in both rows, one id per oracle row
    (``np.tile(m_ids, (2, 1))``; the solver tiles a whole id table at
    once); any other shape raises `ValueError`.  Zero displacement leaves
    the estimates unchanged bit-exactly.  No input is copied or written
    to.
    """
    if ids.ndim != 2 or len(ids) != 2 or ids.shape[1] < 1:
        raise ValueError(f"recursion ids form a (2, M) array, M >= 1, not {ids.shape}")
    M = ids.shape[1]
    # rows 0..M-1 at the new point, rows M..2M-1 at the previous one
    X, Y = np.empty((2 * M,) + new[0].shape), np.empty((2 * M,) + new[1].shape)
    (X[:M], Y[:M]), (X[M:], Y[M:]) = new, prev
    gx, gy = problem.oracle.batch_grads(X, Y, ids.ravel())
    # np.add.reduce(., axis=0) / M is what .mean(axis=0) computes, and
    # np.logical_or.reduce what .any() computes, minus the Python-level
    # wrappers
    dx = np.add.reduce(gx[:M] - gx[M:], axis=0) / M
    dy = np.add.reduce(gy[:M] - gy[M:], axis=0) / M
    # avoid 0.0 + -0.0 sign flips so a zero increment is a bit-exact no-op
    Gx, Gy = G
    return (Gx + dx if np.logical_or.reduce(dx) else Gx,
            Gy + dy if np.logical_or.reduce(dy) else Gy)


# ----------------------------------------------------------------------------
# Monte-Carlo error measurement

@dataclass
class EstimatorMse:
    """Per-step empirical estimator errors along a fixed trajectory.

    mse_x[t] is the Monte-Carlo mean of ||G_{x,t} - grad_x F(x_t, y_t)||^2
    over independent replays, se_x[t] its standard error; bound_x[t] is the
    matching theoretical value

        (2 L_x^2 / M) sum_{b<t} ||dx_b||^2 + (2 L_y^2 / M) sum_{b<t} ||dy_b||^2

    (and (L_y^2/M)(sum ||dx||^2 + sum ||dy||^2) for the y side).  The
    additive variance terms are zero here because the anchor is exact in the
    finite-sum regime.
    """

    mse_x: np.ndarray
    mse_y: np.ndarray
    se_x: np.ndarray
    se_y: np.ndarray
    bound_x: np.ndarray
    bound_y: np.ndarray


def estimator_mse(problem: ProblemInstance, trajectory, M: int,
                  trials: int, rng: np.random.Generator) -> EstimatorMse:
    """Monte-Carlo estimator MSE per step along a fixed (x, y) trajectory.

    Replays the anchor + recursion `trials` times over `trajectory` (a list
    of (x, y) pairs, the first being the anchor point) and compares against
    the exact gradients.  Finite-sum regime only: the anchor uses all N
    components.

    Raises
    ------
    RegimeError
        If the problem is in the online regime.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    steps = len(trajectory)
    if steps < 1:
        raise ValueError("trajectory must be nonempty")

    X = np.array([p[0] for p in trajectory], dtype=np.float64)
    Y = np.array([p[1] for p in trajectory], dtype=np.float64)
    # row t is full_grads at point t, bit for bit
    grads_x, grads_y = _exact_means(problem, X, Y, problem.oracle.batch_grads)

    # all trials share the exact anchor; each step draws the ids of every
    # trial at once and replays trial i's recursion on its M of them, so
    # the oracle sees 2M rows at a time, never trials * M
    points = list(zip(X, Y))
    G = [(grads_x[0], grads_y[0])] * trials
    sq = [np.zeros((2, trials))]
    for t in range(1, steps):
        ids = np.tile(problem.oracle.draw(rng, trials * M).reshape(trials, 1, M), (2, 1))
        G = [recurse(problem, g, points[t - 1], points[t], row) for g, row in zip(G, ids)]
        Gx, Gy = (np.array(g) for g in zip(*G))
        sq.append([np.sum((Gx - grads_x[t]) ** 2, axis=1),
                   np.sum((Gy - grads_y[t]) ** 2, axis=1)])

    # (steps, side, trial); each reduction runs over one contiguous row,
    # as over a 1-D array
    sq = np.array(sq)
    mse_x, mse_y = sq.mean(axis=2).T
    se_x, se_y = (sq.std(axis=2, ddof=1) / np.sqrt(trials) if trials > 1
                  else np.zeros((steps, 2))).T

    c = problem.constants
    cum_dx2, cum_dy2 = (np.cumsum(np.sum(np.diff(V, axis=0, prepend=V[:1]) ** 2, axis=1))
                        for V in (X, Y))
    bound_x = (2.0 * c.L_x ** 2 / M) * cum_dx2 + (2.0 * c.L_y ** 2 / M) * cum_dy2
    bound_y = (c.L_y ** 2 / M) * cum_dx2 + (c.L_y ** 2 / M) * cum_dy2

    return EstimatorMse(mse_x=mse_x, mse_y=mse_y, se_x=se_x, se_y=se_y,
                        bound_x=bound_x, bound_y=bound_y)
