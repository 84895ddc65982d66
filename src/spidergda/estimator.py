"""Variance-reduced stochastic gradient estimators for the minimax solver.

Each epoch starts from an *anchor* estimate (exact full gradient in the
finite-sum regime, a size-B mini-batch mean online) and then applies the
recursive momentum update

    G <- mean_i[ grad f(new; xi_i) - grad f(prev; xi_i) ] + G_old

with M fresh i.i.d. draws per inner step, the same draws feeding both the
x- and y-estimates.  An estimate is the plain pair G = (Gx, Gy); the
estimator keeps no state of its own, so the caller passes the point G was
formed at (`prev`) to `recurse`.  Mini-batch randomness comes from
counter-based streams keyed by (seed, epoch, step) so any batch is
reproducible in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FiniteSum,
    ProblemInstance,
    RegimeError,
    check_vector,
    full_grads,
)

__all__ = [
    "anchor",
    "recurse",
    "estimator_mse",
    "EstimatorMse",
    "batch_rng",
]

_MASK64 = (1 << 64) - 1


def batch_rng(seed: int, epoch: int, tau: int, purpose: int = 0) -> np.random.Generator:
    """Counter-based generator for the (epoch, tau) mini-batch.

    Philox keyed by (seed, purpose<<63 | epoch<<32 | tau); draws within the
    batch advance the counter.  Any batch is reproducible independently of
    execution order, which the replay and enumeration tests rely on.
    """
    tag = ((purpose & 1) << 63) | ((epoch & 0x7FFFFFFF) << 32) | (tau & 0xFFFFFFFF)
    key = np.array([seed & _MASK64, tag & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ----------------------------------------------------------------------------
# anchor / recurse

def anchor(problem: ProblemInstance, x: np.ndarray, y: np.ndarray,
           B: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Start-of-epoch gradient estimate G = (Gx, Gy) at (x, y).

    Finite-sum regime: B is ignored and all N component gradients are
    averaged in one `full_grads` pass, so Gx/Gy equal the exact partial
    gradients bit for bit.  Online regime: Gx/Gy are means over B fresh
    i.i.d. draws from `rng`.
    """
    check_vector(x, problem.dim_x, "x")
    check_vector(y, problem.dim_y, "y")
    if isinstance(problem.regime, FiniteSum):
        return full_grads(problem, x, y)
    if B < 1:
        raise ValueError("online anchor needs B >= 1")
    ids = problem.oracle.draw(rng, B)
    gx, gy = problem.oracle.batch_grads(x, y, ids)
    return gx.mean(axis=0), gy.mean(axis=0)


def recurse(problem: ProblemInstance, G: tuple, prev: tuple, new: tuple,
            M: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One recursive momentum update of G = (Gx, Gy), formed at the point
    `prev` = (x, y), onto the point `new` = (x, y).

    Draws M fresh i.i.d. sample ids (with replacement) and applies

        G <- mean_i[grad f(new; xi_i) - grad f(prev; xi_i)] + G_old

    with the *same* ids for Gx and Gy.  Zero displacement leaves the
    estimates unchanged bit-exactly.  No input is copied or written to.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    (x_prev, y_prev), (x_new, y_new) = prev, new
    check_vector(x_new, problem.dim_x, "x_new")
    check_vector(y_new, problem.dim_y, "y_new")
    ids = problem.oracle.draw(rng, M)
    gx_new, gy_new = problem.oracle.batch_grads(x_new, y_new, ids)
    gx_prev, gy_prev = problem.oracle.batch_grads(x_prev, y_prev, ids)
    dx = (gx_new - gx_prev).mean(axis=0)
    dy = (gy_new - gy_prev).mean(axis=0)
    # avoid 0.0 + -0.0 sign flips so a zero increment is a bit-exact no-op
    Gx, Gy = G
    return (Gx if not dx.any() else Gx + dx,
            Gy if not dy.any() else Gy + dy)


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


def estimator_mse(problem: ProblemInstance, trajectory, M: int, B: int,
                  trials: int, rng: np.random.Generator) -> EstimatorMse:
    """Monte-Carlo estimator MSE per step along a fixed (x, y) trajectory.

    Replays the anchor + recursion `trials` times over `trajectory` (a list
    of (x, y) pairs, the first being the anchor point) and compares against
    the exact gradients.  Finite-sum regime only; B is ignored there (the
    anchor uses all N components).

    Raises
    ------
    RegimeError
        If the problem is in the online regime.
    """
    if not isinstance(problem.regime, FiniteSum):
        raise RegimeError("estimator_mse requires the finite-sum regime")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    steps = len(trajectory)
    if steps < 1:
        raise ValueError("trajectory must be nonempty")

    xs = [np.asarray(p[0], dtype=np.float64) for p in trajectory]
    ys = [np.asarray(p[1], dtype=np.float64) for p in trajectory]
    grads_x, grads_y = zip(*(full_grads(problem, xs[t], ys[t])
                             for t in range(steps)))

    # all trials share the exact anchor, so the recursion is vectorized
    # across trials: one (trials, M) id draw per step
    Gx = np.tile(grads_x[0], (trials, 1))
    Gy = np.tile(grads_y[0], (trials, 1))
    sq_x = [np.zeros(trials)]
    sq_y = [np.zeros(trials)]
    for t in range(1, steps):
        ids = problem.oracle.draw(rng, trials * M)
        gx_new, gy_new = problem.oracle.batch_grads(xs[t], ys[t], ids)
        gx_prev, gy_prev = problem.oracle.batch_grads(xs[t - 1], ys[t - 1], ids)
        Gx = Gx + (gx_new - gx_prev).reshape(trials, M, -1).mean(axis=1)
        Gy = Gy + (gy_new - gy_prev).reshape(trials, M, -1).mean(axis=1)
        sq_x.append(np.sum((Gx - grads_x[t]) ** 2, axis=1))
        sq_y.append(np.sum((Gy - grads_y[t]) ** 2, axis=1))

    mse_x = np.array([s.mean() for s in sq_x])
    mse_y = np.array([s.mean() for s in sq_y])
    se_x = np.array([s.std(ddof=1) / np.sqrt(trials) if trials > 1 else 0.0
                     for s in sq_x])
    se_y = np.array([s.std(ddof=1) / np.sqrt(trials) if trials > 1 else 0.0
                     for s in sq_y])

    c = problem.constants
    dx2 = np.array([0.0] + [float(np.sum((xs[t + 1] - xs[t]) ** 2))
                            for t in range(steps - 1)])
    dy2 = np.array([0.0] + [float(np.sum((ys[t + 1] - ys[t]) ** 2))
                            for t in range(steps - 1)])
    cum_dx2 = np.cumsum(dx2)
    cum_dy2 = np.cumsum(dy2)
    bound_x = (2.0 * c.L_x ** 2 / M) * cum_dx2 + (2.0 * c.L_y ** 2 / M) * cum_dy2
    bound_y = (c.L_y ** 2 / M) * cum_dx2 + (c.L_y ** 2 / M) * cum_dy2

    return EstimatorMse(mse_x=mse_x, mse_y=mse_y, se_x=se_x, se_y=se_y,
                        bound_x=bound_x, bound_y=bound_y)
