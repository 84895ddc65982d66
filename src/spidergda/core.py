"""Domain types and oracle interfaces for constrained stochastic minimax problems.

A problem is  min_{x in X} max_{y in Y} F(x, y)  with F an expectation (online
regime) or an average of N component functions (finite-sum regime), accessed
only through row oracles: stacks of per-sample values and gradients, one
point and one sample id per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "FiniteSum",
    "Online",
    "Regime",
    "StochasticOracle",
    "SmoothnessMeta",
    "ProblemInstance",
    "RegimeError",
    "DimError",
    "as_vector",
    "full_grads",
    "full_grad_x",
    "full_grad_y",
    "full_value",
    "sequential_sum",
    "estimate_sigmas",
]


# ----------------------------------------------------------------------------
# errors

class RegimeError(Exception):
    """An operation was invoked under the wrong sampling regime."""


class DimError(Exception):
    """A vector dimension does not match its declared dimension."""


# ----------------------------------------------------------------------------
# vectors
#
# Vectors are plain 1-D float64 numpy arrays.  The helpers below enforce the
# invariants (finiteness, declared dim) at module boundaries so that inner
# loops can stay unchecked.

def as_vector(v, dim: Optional[int] = None) -> np.ndarray:
    """Coerce `v` to a finite 1-D float64 array, optionally checking its dim.

    Parameters
    ----------
    v : array_like
        Input data.
    dim : int, optional
        Required dimension.  A mismatch raises DimError.

    Returns
    -------
    numpy.ndarray
        1-D float64 array.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DimError(f"expected a 1-D vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimError(f"expected dim {dim}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise DimError("vector has non-finite entries")
    return arr


# ----------------------------------------------------------------------------
# sampling regimes

@dataclass(frozen=True)
class FiniteSum:
    """Finite-sum regime: F is the average of `n` component functions.

    Sample ids are integer indices in [0, n).
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"finite-sum size must be >= 1, got {self.n}")


@dataclass(frozen=True)
class Online:
    """Online regime: F is an expectation over an unknown distribution.

    Sample ids are seed-derived draw tokens (nonnegative 63-bit integers);
    the oracle maps each token deterministically to a sample.
    """


Regime = Union[FiniteSum, Online]


# ----------------------------------------------------------------------------
# oracle

@dataclass
class StochasticOracle:
    """Row access to the per-sample values and gradients of f(x, y; xi).

    Rows are the one way to query an oracle: each call takes a stack of
    points with one sample id per row, and row r of its result belongs to
    (X[r], Y[r], ids[r]).  Both functions must be pure: identical inputs
    give bit-identical outputs, and no shared mutable state is touched, so
    an oracle is safe to call concurrently.

    Parameters
    ----------
    regime : FiniteSum or Online
        Sampling regime.  Under FiniteSum(n), the mean of the gradient
        rows over all n sample ids *is* the exact partial gradient of F.
    grads_batch : callable(X, Y, sample_ids) -> (ndarray, ndarray)
        X has shape (len(ids), dim_x) and Y shape (len(ids), dim_y); row r
        of each returned side is the gradient of f(., .; ids[r]) at
        (X[r], Y[r]), so each side has the shape of its points.
        A recursion evaluates its new and its previous point in one call
        of 2M rows; a single-point caller broadcasts the point to every
        row (`grads_at`).
    values_batch : callable(X, Y, sample_ids) -> ndarray
        The values f(X[r], Y[r]; ids[r]), shape (len(ids),).

    Each row must not depend on the other rows of its call: the row of a
    many-row call equals the one-row call at (X[r], Y[r], ids[r]) bit for
    bit, because the exact finite-sum gradient, the estimator's anchor and
    the diagnostics reduce rows gathered in calls of different shapes.
    Three numpy habits break that silently:

    - Dot products: one matrix-vector product over stacked rows can
      differ in the last bit from the product of a single row.  The
      per-row kernel is a stacked matmul against a column per row: row r
      of ``(A[ids] @ X[:, :, None])[:, :, 0]`` is ``A[ids[r]] @ X[r]``,
      and row r of ``(Xs[:, None, :] @ V[:, :, None])[:, 0, 0]`` is the
      dot ``Xs[r] @ V[r]``; ``np.einsum`` is not.  Matmul also
      accumulates from +0.0, so an elementwise product in its place would
      keep a ``-0.0`` that ``@`` drops.
    - Squares: ``** 2`` on a numpy or Python scalar calls libm ``pow``, on
      an array it multiplies; ``np.float_power(a, 2)`` matches the scalar.
    - Sums: ``np.sum`` adds pairwise; reduce rows with `sequential_sum`,
      which equals the ascending loop.

    The sampling law is not a parameter: the regime fixes it as i.i.d.
    uniform ids in [0, `id_high`), with replacement, where `id_high` is N
    under FiniteSum(N) and 2**63 online (fresh 63-bit tokens); `draw`
    takes them from a generator.  The solver computes its ids in bulk
    (`estimator.batch_ids`), bit for bit what ``draw(rng, count)``
    returns.

    Under FiniteSum, `full_grads(problem, x, y)` reduces one `batch_grads`
    call over all N ids to both exact partial gradients, and `full_value`
    reduces one `batch_values` call over them to the exact value.

    An oracle declares no dimensions: those of x and y are the dims of the
    constraint sets of its `ProblemInstance`.
    """

    regime: Regime
    grads_batch: Callable[[np.ndarray, np.ndarray, np.ndarray],
                          tuple[np.ndarray, np.ndarray]]
    values_batch: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    id_high: int = field(init=False)

    def __post_init__(self):
        self.id_high = self.regime.n if isinstance(self.regime, FiniteSum) else 2 ** 63

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """`count` i.i.d. uniform sample ids in [0, id_high), with
        replacement."""
        return rng.integers(0, self.id_high, size=count)

    def batch_grads(self, X: np.ndarray, Y: np.ndarray,
                    ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stacked per-sample gradients from one `grads_batch` call, row r
        at (X[r], Y[r]) for sample ids[r]; each side has the shape of its
        point rows, X and Y being arrays of shape (len(ids), dim).

        The rows are converted to float64 arrays (a float64 ndarray is
        returned as it is), and their shapes are checked side by side only
        when the pair does not match.

        Raises
        ------
        DimError
            If either side's rows do not have the shape of its points; the
            message names the side and the shape.
        """
        ids = np.asarray(ids)
        gx, gy = self.grads_batch(X, Y, ids)
        gx, gy = np.asarray(gx, dtype=np.float64), np.asarray(gy, dtype=np.float64)
        if (gx.shape, gy.shape) != (X.shape, Y.shape):
            for side, g, P in zip("xy", (gx, gy), (X, Y)):
                if g.shape != P.shape:
                    raise DimError(f"grads_batch {side} rows: expected shape "
                                   f"{P.shape}, got {g.shape}")
        return gx, gy

    def batch_values(self, X: np.ndarray, Y: np.ndarray,
                     ids: np.ndarray) -> np.ndarray:
        """Per-sample values from one `values_batch` call, entry r at
        (X[r], Y[r]) for sample ids[r], as a float64 array.

        Raises
        ------
        DimError
            If the values do not have shape (len(ids),).
        """
        ids = np.asarray(ids)
        v = np.asarray(self.values_batch(X, Y, ids), dtype=np.float64)
        if v.shape != (len(ids),):
            raise DimError(f"values_batch: expected shape {(len(ids),)}, "
                           f"got {v.shape}")
        return v

    def grads_at(self, x: np.ndarray, y: np.ndarray,
                 ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`batch_grads` at the single point (x, y), given to every row (as
        contiguous copies, which the stacked matmul kernels take without a
        copy of their own)."""
        return self.batch_grads(x[None].repeat(len(ids), axis=0),
                                y[None].repeat(len(ids), axis=0), ids)


# ----------------------------------------------------------------------------
# metadata

def _check_constants(obj, names) -> None:
    """Reject a named constant of `obj` that is NaN or negative
    (ValueError) or infinite (OverflowError: the constant left the float64
    range, say from huge problem data)."""
    for name in names:
        v = getattr(obj, name)
        if not v >= 0:
            raise ValueError(f"{name} must be nonnegative")
        if v == np.inf:
            raise OverflowError(f"{name} is inf: it exceeds the float64 range")


@dataclass
class SmoothnessMeta:
    """Known regularity constants of the objective.

    These are user-supplied; the artifact never estimates L_x, L_y or rho
    automatically.  sigma_x/sigma_y may be pilot estimates (see
    `estimate_sigmas`).  The constants L_x through sigma_y must be
    nonnegative (ValueError) and finite (OverflowError, naming the
    constant).

    Parameters
    ----------
    L_x : float
        Lipschitz constant of grad_x F in x (uniformly over y).
    L_y : float
        Lipschitz constant of grad F in y / of grad_y F.
    rho : float
        Weak-convexity modulus of F(., y).
    ell : float
        Lipschitz constant of F itself.
    sigma_x, sigma_y : float
        Per-sample gradient variance bounds (online regime).
    mu : float
        Dual error-bound modulus; must be positive.
    theta : float
        Dual error-bound exponent, in [0, 1].
    D_Y : float, optional
        Diameter of the dual constraint set; filled in from the set when a
        ProblemInstance is built.
    """

    L_x: float
    L_y: float
    rho: float
    ell: float
    sigma_x: float = 0.0
    sigma_y: float = 0.0
    mu: float = 1.0
    theta: float = 1.0
    D_Y: Optional[float] = None

    def __post_init__(self):
        _check_constants(self, ("L_x", "L_y", "rho", "ell", "sigma_x", "sigma_y"))
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")


# ----------------------------------------------------------------------------
# problem instance

@dataclass
class ProblemInstance:
    """A constrained stochastic minimax problem.

    Bundles the sampling oracle, the primal/dual constraint sets and the
    regularity constants.  The sets fix the dimensions of x and y (each at
    least 1), and the dual set must be bounded.
    """

    oracle: StochasticOracle
    set_x: "ConstraintSet"
    set_y: "ConstraintSet"
    constants: SmoothnessMeta
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.set_x.dim < 1 or self.set_y.dim < 1:
            raise DimError(f"set dims must be >= 1, got {self.set_x.dim}, {self.set_y.dim}")
        if not np.isfinite(self.set_y.diameter):
            raise ValueError("set_y must be bounded (finite diameter)")
        if self.constants.D_Y is None:
            self.constants = replace(self.constants, D_Y=float(self.set_y.diameter))

    @property
    def regime(self) -> Regime:
        return self.oracle.regime


# ----------------------------------------------------------------------------
# exact finite-sum values and gradients
#
# The N component rows at a point come from one oracle call and are summed
# in ascending sample index starting from 0.0.  This pins the result
# bit-for-bit, which the variance-reduced estimator relies on (its
# finite-sum anchor must equal these gradients exactly).  Several points
# share one call: each point's N rows are its own, and each is reduced on
# its own.

# oracle rows per exact call: a call takes at most max(1, _ROW_BUDGET // N)
# points, so it never exceeds max(N, _ROW_BUDGET) rows (a y side may be
# dense (rows, N), as make_phi_div_dro's is).  It is the one bound on the
# memory of the exact diagnostics, which hand all their points to one
# call: gathers of 4,096 rows raised the peak RSS of the cli_diagnostics
# benchmark run (N = 16) from 40.6 MB to 41.7 MB.
_ROW_BUDGET = 2 ** 10


def sequential_sum(rows: np.ndarray) -> np.ndarray:
    """Sums of `rows` along its first axis, bit-identical to the ascending loop

        acc = np.zeros(rows.shape[1:])
        for g in rows: acc = acc + g

    numpy's `sum` adds pairwise and can differ from that loop in the last
    bit; `cumsum` accumulates strictly in row order, and the final `+ 0.0`
    stands in for the loop's 0.0 start (it turns an all-`-0.0` column into
    `+0.0`, as the loop does).  The method skips `np.cumsum`'s Python-level
    wrapper, which forwards to it.
    """
    if len(rows) == 0:
        return np.zeros(rows.shape[1:])
    return rows.cumsum(axis=0)[-1] + 0.0


def _row_norms(V: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of V, equal to `np.linalg.norm` of that
    row bit for bit (``np.linalg.norm(V, axis=1)`` is not: it squares and
    adds instead of taking the dot product)."""
    return np.sqrt((V[:, None, :] @ V[:, :, None])[:, 0, 0])


def _exact_means(problem: ProblemInstance, X: np.ndarray, Y: np.ndarray,
                 rows_of: Callable) -> list:
    """The finite-sum means at the points (X[s], Y[s]) of each array that
    ``rows_of(XR, YR, ids)`` returns, one row per point: with the oracle's
    `batch_grads`, the exact partial gradients [GX, GY].

    Each call covers up to max(1, _ROW_BUDGET // N) points, each repeated
    over the N ids; a point's rows are reduced by `sequential_sum` on their
    own, so its row equals the one-point result bit for bit.
    """
    oracle = problem.oracle
    if not isinstance(oracle.regime, FiniteSum):
        raise RegimeError("exact values and gradients need the finite-sum "
                          "regime; see mc_gs_residuals for Monte-Carlo residuals")
    if X.shape[1:] != (problem.set_x.dim,) or Y.shape[1:] != (problem.set_y.dim,):
        raise DimError(f"points: expected dims ({problem.set_x.dim}, {problem.set_y.dim})"
                       f" per row, got shapes {X.shape} and {Y.shape}")
    n = oracle.regime.n
    per_call = max(1, _ROW_BUDGET // n)
    chunks = []
    for lo in range(0, len(X), per_call):
        XR = X[lo:lo + per_call].repeat(n, axis=0)
        YR = Y[lo:lo + per_call].repeat(n, axis=0)
        # axis 0 of the view runs over a point's ids, axis 1 over points
        chunks.append([sequential_sum(g.reshape(-1, n, *g.shape[1:]).swapaxes(0, 1)) / n
                       for g in rows_of(XR, YR, np.arange(len(XR)) % n)])
    return chunks[0] if len(chunks) == 1 else [np.concatenate(c) for c in zip(*chunks)]


def _exact_values(problem: ProblemInstance, X: np.ndarray, Y: np.ndarray
                  ) -> np.ndarray:
    """Exact values of F at the points (X[s], Y[s]), one per point, from
    the `batch_values` calls of `_exact_means`."""
    return _exact_means(problem, X, Y,
                        lambda *rows: [problem.oracle.batch_values(*rows)])[0]


def full_grads(problem: ProblemInstance, x: np.ndarray, y: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Exact partial gradients (grad_x F, grad_y F) under the finite-sum regime.

    Each is the arithmetic mean over all N sample ids of its side's rows,
    both taken from one `batch_grads` call and accumulated sequentially in
    ascending index order (`sequential_sum`; bit-reproducible).

    Raises
    ------
    RegimeError
        If the problem is in the online regime.
    DimError
        On dimension mismatch.
    """
    gx, gy = _exact_means(problem, x[None], y[None], problem.oracle.batch_grads)
    return gx[0], gy[0]


def full_grad_x(problem: ProblemInstance, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The x side of `full_grads`."""
    return full_grads(problem, x, y)[0]


def full_grad_y(problem: ProblemInstance, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The y side of `full_grads`."""
    return full_grads(problem, x, y)[1]


def full_value(problem: ProblemInstance, x: np.ndarray, y: np.ndarray) -> float:
    """Exact value of F under the finite-sum regime: the mean of one
    `batch_values` call over all N ids, summed in ascending index order
    (`sequential_sum`, equal to the loop ``acc = acc + f_i``).

    Raises
    ------
    RegimeError
        If the problem is in the online regime.
    DimError
        On dimension mismatch.
    """
    return float(_exact_values(problem, x[None], y[None])[0])


# ----------------------------------------------------------------------------
# pilot variance estimation

_PILOT = 1024


def estimate_sigmas(problem: ProblemInstance, x: np.ndarray, y: np.ndarray,
                    rng: np.random.Generator) -> tuple[float, float]:
    """Monte-Carlo pilot estimate of the per-sample gradient deviations.

    Draws `_PILOT` samples from the caller's `rng` and returns sqrt of the
    mean squared deviation of the per-sample gradients from their sample
    mean, for x and y.  These are *estimates* from one pilot batch, not
    bounds.

    Raises
    ------
    DimError
        If x or y is not a finite vector of its set's dimension.
    """
    x = as_vector(x, problem.set_x.dim)
    y = as_vector(y, problem.set_y.dim)
    ids = problem.oracle.draw(rng, _PILOT)
    sx, sy = (float(np.sqrt(np.mean(np.sum((g - g.mean(axis=0)) ** 2, axis=1))))
              for g in problem.oracle.grads_at(x, y, ids))
    return sx, sy
