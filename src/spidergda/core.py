"""Domain types and oracle interfaces for constrained stochastic minimax problems.

A problem is  min_{x in X} max_{y in Y} F(x, y)  with F an expectation (online
regime) or an average of N component functions (finite-sum regime), accessed
only through per-sample value/gradient oracles.
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


def _check_vector(v: np.ndarray, dim: int, name: str = "vector") -> None:
    if v.shape != (dim,):
        raise DimError(f"{name}: expected dim {dim}, got shape {v.shape}")


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
    """Per-sample value and gradient access to f(x, y; xi).

    All callables must be pure: identical (x, y, sample_id) inputs give
    bit-identical outputs, and no shared mutable state is touched, so an
    oracle is safe to call concurrently.

    Parameters
    ----------
    regime : FiniteSum or Online
        Sampling regime.  Under FiniteSum(n), the average of grad_x (resp.
        grad_y) over all n sample ids *is* the exact partial gradient of F.
    dim_x, dim_y : int
        Dimensions of the primal and dual variables.
    eval_f : callable(x, y, sample_id) -> float
    grad_x : callable(x, y, sample_id) -> ndarray of shape (dim_x,)
    grad_y : callable(x, y, sample_id) -> ndarray of shape (dim_y,)
    grads_batch : callable(X, Y, sample_ids) -> (ndarray, ndarray), optional
        Vectorized fast path with one point per row: X has shape
        (len(ids), dim_x), Y shape (len(ids), dim_y), and row r of each
        returned side is the gradient at (X[r], Y[r]) for sample ids[r],
        of shapes (len(ids), dim_x) and (len(ids), dim_y).  A recursion
        evaluates its new and its previous point in one call of 2M rows;
        a single-point caller broadcasts the point to every row
        (`grads_at`), so one hook serves every consumer.  Each row must be
        bit-identical to the corresponding scalar-oracle call, because the
        exact finite-sum gradient and the estimator's anchor are both
        reduced from these rows.  Three numpy habits break that silently:

        - Dot products: one matrix-vector product over stacked rows can
          differ in the last bit from the per-row product.  The per-row
          kernel is a stacked matmul against a column per row:
          row r of ``(A[ids] @ X[:, :, None])[:, :, 0]`` equals
          ``A[ids[r]] @ X[r]``, and row r of
          ``(Xs[:, None, :] @ V[:, :, None])[:, 0, 0]`` equals the dot
          ``Xs[r] @ V[r]``; ``np.einsum`` does not.
          Matmul also accumulates from +0.0, so where the scalar code
          multiplies through ``@`` an elementwise product would keep a
          ``-0.0`` that ``@`` drops.
        - Squares: ``** 2`` on a numpy or Python scalar calls libm
          ``pow``, on an array it multiplies; ``np.float_power(a, 2)``
          matches the scalar.
        - Sums: ``np.sum`` adds pairwise; reduce rows with
          `sequential_sum`, which equals the ascending loop.

        Without the hook, `batch_grads` calls grad_x and grad_y once per
        row; that path is the reference the hook is tested against.

    The sampling law is not a parameter: the regime fixes it as i.i.d.
    uniform ids in [0, `id_high`), with replacement, where `id_high` is N
    under FiniteSum(N) and 2**63 online (fresh 63-bit tokens); `draw`
    takes them from a generator.  The solver computes its ids in bulk
    (`estimator.batch_ids`), bit for bit what ``draw(rng, count)``
    returns.

    Under FiniteSum, `full_grads(problem, x, y)` reduces one `batch_grads`
    call over all N ids to both exact partial gradients; `full_grad_x` and
    `full_grad_y` reduce only their own side of the same call.
    """

    regime: Regime
    dim_x: int
    dim_y: int
    eval_f: Callable[[np.ndarray, np.ndarray, int], float]
    grad_x: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    grad_y: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    grads_batch: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray],
                                   tuple[np.ndarray, np.ndarray]]] = None
    id_high: int = field(init=False)

    def __post_init__(self):
        if self.dim_x < 1 or self.dim_y < 1:
            raise DimError("oracle dims must be positive")
        self.id_high = self.regime.n if isinstance(self.regime, FiniteSum) else 2 ** 63

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """`count` i.i.d. uniform sample ids in [0, id_high), with
        replacement."""
        return rng.integers(0, self.id_high, size=count)

    def batch_grads(self, X: np.ndarray, Y: np.ndarray,
                    ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stacked per-sample gradients, row r at (X[r], Y[r]) for sample
        ids[r]; shapes (len(ids), dim).

        Both sides come from one `grads_batch` call when the oracle has
        the hook, else from one scalar grad_x and grad_y call per row; the
        per-row values are identical either way.  Hook results are
        converted to float64 arrays (a float64 ndarray is returned as it
        is), and their shapes are checked side by side only when the pair
        does not match.

        Raises
        ------
        DimError
            If either side's rows do not have shape (len(ids), dim); the
            message names the side and the shape.
        """
        ids = np.asarray(ids)
        if self.grads_batch is None:
            return (_stack_rows(self.grad_x, X, Y, ids, self.dim_x, "x"),
                    _stack_rows(self.grad_y, X, Y, ids, self.dim_y, "y"))
        gx, gy = self.grads_batch(X, Y, ids)
        gx, gy = np.asarray(gx, dtype=np.float64), np.asarray(gy, dtype=np.float64)
        shapes = (len(ids), self.dim_x), (len(ids), self.dim_y)
        if (gx.shape, gy.shape) != shapes:
            for side, g, shape in zip("xy", (gx, gy), shapes):
                if g.shape != shape:
                    raise DimError(f"grads_batch {side} rows: expected shape "
                                   f"{shape}, got {g.shape}")
        return gx, gy

    def grads_at(self, x: np.ndarray, y: np.ndarray,
                 ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`batch_grads` at the single point (x, y), given to every row (as
        contiguous copies, which the stacked matmul kernels take without a
        copy of their own)."""
        return self.batch_grads(x[None].repeat(len(ids), axis=0),
                                y[None].repeat(len(ids), axis=0), ids)


def _stack_rows(grad, X, Y, ids, dim: int, side: str) -> np.ndarray:
    """Per-sample fallback of batch_grads: one scalar call per row."""
    out = np.empty((len(ids), dim))
    for row, i in enumerate(ids):
        g = np.asarray(grad(X[row], Y[row], int(i)), dtype=np.float64)
        _check_vector(g, dim, f"grad_{side}(id={int(i)})")
        out[row] = g
    return out


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
    `estimate_sigmas`), in which case `sigma_is_estimate` is set.  The
    constants L_x through sigma_y must be nonnegative (ValueError) and
    finite (OverflowError, naming the constant).

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
    sigma_is_estimate: bool = False

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
    regularity constants.  The dual set must be bounded.
    """

    oracle: StochasticOracle
    set_x: "ConstraintSet"
    set_y: "ConstraintSet"
    constants: SmoothnessMeta
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.set_x.dim != self.oracle.dim_x:
            raise DimError(
                f"set_x dim {self.set_x.dim} != oracle dim_x {self.oracle.dim_x}")
        if self.set_y.dim != self.oracle.dim_y:
            raise DimError(
                f"set_y dim {self.set_y.dim} != oracle dim_y {self.oracle.dim_y}")
        if not np.isfinite(self.set_y.diameter):
            raise ValueError("set_y must be bounded (finite diameter)")
        if self.constants.D_Y is None:
            self.constants = replace(self.constants, D_Y=float(self.set_y.diameter))

    @property
    def regime(self) -> Regime:
        return self.oracle.regime

    @property
    def dim_x(self) -> int:
        return self.oracle.dim_x

    @property
    def dim_y(self) -> int:
        return self.oracle.dim_y


# ----------------------------------------------------------------------------
# exact finite-sum gradients
#
# The N component gradients at a point come from a batch_grads call and are
# summed in ascending sample index starting from 0.0.  This pins the result
# bit-for-bit, which the variance-reduced estimator relies on (its
# finite-sum anchor must equal these exactly).  Several points share one
# call: each point's N rows are its own, and each is reduced on its own.

# oracle rows per exact-gradient call: a call takes at most
# max(1, _ROW_BUDGET // N) points, so it never exceeds max(N, _ROW_BUDGET)
# rows (a y side may be dense (rows, N), as make_phi_div_dro's is)
_ROW_BUDGET = 2 ** 12


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


def _exact_grads(problem: ProblemInstance, X: np.ndarray, Y: np.ndarray,
                 side: Optional[str] = None):
    """Exact partial gradients at the points (X[s], Y[s]), one row per
    point: both sides, or only `side` ("x" or "y"), for which an oracle
    without `grads_batch` is asked for that side's scalar gradient alone.

    Each `batch_grads` call covers up to max(1, _ROW_BUDGET // N) points,
    each repeated over the N ids; a point's rows are reduced by
    `sequential_sum` on their own, so its row equals `full_grads` at that
    point bit for bit.
    """
    oracle = problem.oracle
    if not isinstance(oracle.regime, FiniteSum):
        raise RegimeError("full gradient requires the finite-sum regime")
    if X.shape[1:] != (oracle.dim_x,) or Y.shape[1:] != (oracle.dim_y,):
        raise DimError(f"points: expected dims ({oracle.dim_x}, {oracle.dim_y})"
                       f" per row, got shapes {X.shape} and {Y.shape}")
    n = oracle.regime.n
    per_call = max(1, _ROW_BUDGET // n)
    chunks = []
    for lo in range(0, len(X), per_call):
        XR = X[lo:lo + per_call].repeat(n, axis=0)
        YR = Y[lo:lo + per_call].repeat(n, axis=0)
        ids = np.arange(len(XR)) % n
        if side is None or oracle.grads_batch is not None:
            rows = oracle.batch_grads(XR, YR, ids)
            rows = rows if side is None else [rows["xy".index(side)]]
        else:
            rows = [_stack_rows(getattr(oracle, f"grad_{side}"), XR, YR, ids,
                                getattr(oracle, f"dim_{side}"), side)]
        # axis 0 of the view runs over a point's ids, axis 1 over points
        chunks.append([sequential_sum(g.reshape(-1, n, g.shape[1]).swapaxes(0, 1)) / n
                       for g in rows])
    means = chunks[0] if len(chunks) == 1 else [np.concatenate(c) for c in zip(*chunks)]
    return means if side is None else means[0]


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
    gx, gy = _exact_grads(problem, x[None], y[None])
    return gx[0], gy[0]


def full_grad_x(problem: ProblemInstance, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The x side of `full_grads`; only that side is reduced, and an oracle
    without `grads_batch` is asked for grad_x alone."""
    return _exact_grads(problem, x[None], y[None], "x")[0]


def full_grad_y(problem: ProblemInstance, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The y side of `full_grads`; only that side is reduced, and an oracle
    without `grads_batch` is asked for grad_y alone."""
    return _exact_grads(problem, x[None], y[None], "y")[0]


def full_value(problem: ProblemInstance, x: np.ndarray, y: np.ndarray) -> float:
    """Exact value of F under the finite-sum regime (sequential mean).

    Raises
    ------
    RegimeError
        If the problem is in the online regime.
    """
    if not isinstance(problem.regime, FiniteSum):
        raise RegimeError("full value requires the finite-sum regime")
    _check_vector(x, problem.dim_x, "x")
    _check_vector(y, problem.dim_y, "y")
    acc = 0.0
    for i in range(problem.regime.n):
        acc = acc + float(problem.oracle.eval_f(x, y, i))
    return acc / problem.regime.n


# ----------------------------------------------------------------------------
# pilot variance estimation

_PILOT = 1024


def estimate_sigmas(problem: ProblemInstance, x: np.ndarray, y: np.ndarray,
                    rng: Optional[np.random.Generator] = None
                    ) -> tuple[float, float]:
    """Monte-Carlo pilot estimate of the per-sample gradient deviations.

    Draws `_PILOT` samples and returns sqrt of the mean squared deviation of
    the per-sample gradients from their sample mean, for x and y.  These are
    *estimates*; callers storing them in SmoothnessMeta should set
    `sigma_is_estimate=True`.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    ids = problem.oracle.draw(rng, _PILOT)
    sx, sy = (float(np.sqrt(np.mean(np.sum((g - g.mean(axis=0)) ** 2, axis=1))))
              for g in problem.oracle.grads_at(x, y, ids))
    return sx, sy
