"""Built-in problem zoo: group-DRO and phi-divergence-DRO over the simplex,
a fixed 1-D dual-error-bound example, and synthetic quadratic saddle
instances with closed-form solutions for testing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import FiniteSum, ProblemInstance, SmoothnessMeta, StochasticOracle
from .projections import Box, Simplex
from .smoothing import CompositeConstants, Hinge, MoreauComposite, ScaledIdentity

__all__ = [
    "EmptyGroupError",
    "DomainError",
    "SingularityError",
    "GroupDroSpec",
    "PhiDivDroSpec",
    "make_group_dro",
    "make_two_group_regression",
    "make_phi_div_dro",
    "PSI_BUILTINS",
    "kl_example_value",
    "kl_example_grad",
    "make_kl_example",
    "make_quadratic_saddle",
    "load_dataset_csv",
    "spec_from_csv",
]


class EmptyGroupError(Exception):
    """A group dataset has no samples."""


class DomainError(Exception):
    """Evaluation outside the function's domain."""


class SingularityError(Exception):
    """The saddle-defining linear system is singular."""


# ----------------------------------------------------------------------------
# group DRO
#
# min_theta max_{q in Simplex(M)}  sum_g q_g * (mean loss of group g)
# realized as a finite sum over all N samples with per-sample weight
# N * q_{g_i} / |G_{g_i}|.

@dataclass
class GroupDroSpec:
    """Synthetic/loaded group-DRO instance over a linear predictor.

    groups is a list of (features, targets) pairs; the dual variable lives
    on Simplex(M_groups).  loss is "squared" or "hinge" (the latter smoothed
    via the envelope machinery downstream).  `make_group_dro` fixes the
    sets: the primal box [-5, 5]^d and the dual simplex.  A problem on other
    sets is a `MoreauComposite` of one's own, with constants for those sets.
    """

    groups: Sequence[tuple]
    loss: str = "squared"

    def __post_init__(self):
        if len(self.groups) < 1:
            raise EmptyGroupError("need at least one group")
        dims = set()
        for gi, (X, t) in enumerate(self.groups):
            X = np.asarray(X, dtype=np.float64)
            t = np.asarray(t, dtype=np.float64)
            if X.shape[0] == 0:
                raise EmptyGroupError(f"group {gi} is empty")
            if X.shape[0] != t.shape[0]:
                raise ValueError(f"group {gi}: features/targets length mismatch")
            dims.add(X.shape[1])
        if len(dims) != 1:
            raise ValueError("all groups must share the feature dimension")
        if self.loss not in ("squared", "hinge"):
            raise ValueError(f"unknown loss {self.loss!r}")


def _flatten_groups(spec: GroupDroSpec):
    X = np.concatenate([np.asarray(g[0], dtype=np.float64) for g in spec.groups])
    t = np.concatenate([np.asarray(g[1], dtype=np.float64) for g in spec.groups])
    g = np.concatenate([np.full(len(gt[1]), gi, dtype=np.int64)
                        for gi, gt in enumerate(spec.groups)])
    return X, t, g


def _dro_box(d: int) -> Box:
    # the primal set of both DRO kinds
    return Box(-5.0 * np.ones(d), 5.0 * np.ones(d))


def _box_radius(box: Box) -> float:
    # sup_{v in box} ||v||, used for honest Lipschitz bounds
    return float(np.linalg.norm(np.maximum(np.abs(box.lo), np.abs(box.hi))))


def _row_dots(Xi: np.ndarray, Theta: np.ndarray) -> np.ndarray:
    # one dot product per row, bit-identical to Xi[r] @ Theta[r] (a single
    # matrix-vector product over the rows is not)
    return (Xi[:, None, :] @ Theta[:, :, None])[:, 0, 0]


def make_group_dro(spec: GroupDroSpec) -> MoreauComposite:
    """Composite realization of the group-DRO objective.

    Samples are the N pooled data points, drawn uniformly; the inner map c
    produces the scalar the loss acts on (squared residual for "squared",
    margin 1 - t * prediction for "hinge"), h applies the loss
    (identity / hinge), and phi weights it by N q_{g_i} / |G_{g_i}| so the
    finite-sum mean is exactly  sum_g q_g * (group-g mean loss).
    """
    X, t, g = _flatten_groups(spec)
    n, d = X.shape
    counts = np.bincount(g, minlength=len(spec.groups)).astype(np.float64)
    w = n / counts[g]  # per-sample weight N / |G_{g_i}|
    set_x = _dro_box(d)
    set_y = Simplex(len(spec.groups))
    R_x = _box_radius(set_x)
    row_norms = np.linalg.norm(X, axis=1)

    if spec.loss == "squared":
        res_bound = row_norms * R_x + np.abs(t)

        def c_batch(Theta, ids):
            # rows gather faster by .take than by indexing, a 1-D array
            # the other way round
            Xi = X.take(ids, axis=0)
            res = _row_dots(Xi, Theta) - t[ids]
            return (np.float_power(res, 2)[:, None],
                    ((2.0 * res)[:, None] * Xi)[:, :, None])

        h = [ScaledIdentity(1.0)]
        ell_c = float(np.max(2.0 * res_bound * row_norms))
        L_c = float(np.max(2.0 * row_norms ** 2))
        u_max = float(np.max(res_bound ** 2))
    else:  # hinge
        def c_batch(Theta, ids):
            Xi, ti = X.take(ids, axis=0), t[ids]
            return ((1.0 - ti * _row_dots(Xi, Theta))[:, None],
                    ((-ti)[:, None] * Xi)[:, :, None])

        h = [Hinge()]
        ell_c = float(np.max(np.abs(t) * row_norms))
        L_c = 0.0
        u_max = float(1.0 + np.max(np.abs(t) * row_norms) * R_x)

    w_max = float(np.max(w))

    def phi_batch(u, Q, ids):
        return w[ids] * Q[np.arange(len(ids)), g[ids]] * u[:, 0]

    def phi_grads_batch(u, Q, ids):
        rows, gi, wi = np.arange(len(ids)), g[ids], w[ids]
        out_y = np.zeros((len(ids), set_y.dim))
        out_y[rows, gi] = wi * u[:, 0]
        return (wi * Q[rows, gi])[:, None], out_y

    constants = CompositeConstants(
        ell_c=ell_c, ell_h=1.0,
        ell_phi=w_max * math.sqrt(1.0 + u_max ** 2),
        L_c=L_c, L_phi=w_max)
    return MoreauComposite(
        c_batch=c_batch, h=h, phi_batch=phi_batch,
        phi_grads_batch=phi_grads_batch, constants=constants,
        regime=FiniteSum(n), set_x=set_x, set_y=set_y)


def make_two_group_regression(n: int = 200, d: int = 3,
                              minority_frac: float = 0.1,
                              noise: float = 0.1, noise_ratio: float = 10.0,
                              seed: int = 0) -> GroupDroSpec:
    """Two-group linear regression where the minority group (minority_frac
    of the data, noise_ratio x the noise) follows a different ground-truth
    slope, so pooled least squares sacrifices it."""
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    rng = np.random.default_rng(seed)
    n_min = max(1, int(round(minority_frac * n)))
    n_maj = n - n_min
    w_maj = np.zeros(d)
    w_maj[0] = 1.0
    w_min = np.zeros(d)
    w_min[0] = -1.0
    X1 = rng.normal(size=(n_maj, d))
    t1 = X1 @ w_maj + noise * rng.normal(size=n_maj)
    X2 = rng.normal(size=(n_min, d))
    t2 = X2 @ w_min + noise_ratio * noise * rng.normal(size=n_min)
    return GroupDroSpec(groups=[(X1, t1), (X2, t2)], loss="squared")


# ----------------------------------------------------------------------------
# phi-divergence DRO (penalty form)

# psi and psi' as elementwise array functions; "chi2" squares with
# float_power, the libm pow of a scalar `** 2`
PSI_BUILTINS: dict = {
    "chi2": (lambda tv: 0.5 * np.float_power(tv - 1.0, 2), lambda tv: tv - 1.0),
}


@dataclass
class PhiDivDroSpec:
    """Penalized distributionally-robust regression over Simplex(N):

        min_theta max_{q in Simplex(N)} (1/N) sum_i [ N q_i loss_i(theta)
                                                      - lambda_pen psi(N q_i) ]

    psi names one of `PSI_BUILTINS`, that is "chi2".  "kl" is refused: its
    psi''(t) = 1/t is unbounded as q_i -> 0 on Simplex(N), so no dual
    Lipschitz constant L_y holds there.  `make_phi_div_dro`
    fixes the sets: theta in the box [-5, 5]^d and q in Simplex(N).  A
    problem on other sets is a `ProblemInstance` of one's own, with
    constants for those sets.
    """

    features: np.ndarray
    targets: np.ndarray
    psi: str = "chi2"
    lambda_pen: float = 1.0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.features.shape[0] != self.targets.shape[0]:
            raise ValueError("features/targets length mismatch")
        if self.lambda_pen < 0:
            raise ValueError("lambda_pen must be nonnegative")
        if self.psi == "kl":
            raise ValueError("psi 'kl' is not supported: its psi''(t) = 1/t is "
                             "unbounded on Simplex(N), so no L_y holds")
        if self.psi not in PSI_BUILTINS:
            raise ValueError(f"unknown psi {self.psi!r}")


def make_phi_div_dro(spec: PhiDivDroSpec) -> ProblemInstance:
    """Smooth finite-sum instance of the penalized DRO objective (squared
    loss, smooth psi); per-sample functions average to the objective.  F is
    linear in q minus the convex psi term, so F(x, .) is concave."""
    X, t = spec.features, spec.targets
    n, d = X.shape
    psi, psi_prime = PSI_BUILTINS[spec.psi]
    lam_pen = spec.lambda_pen
    set_x = _dro_box(d)
    set_y = Simplex(n)

    def values_batch(Theta, Q, ids):
        qi = Q[np.arange(len(ids)), ids]
        loss = np.float_power(_row_dots(X[ids], Theta) - t[ids], 2)
        return n * qi * loss - lam_pen * psi(n * qi)

    def grads_batch(Theta, Q, ids):
        Xi, rows = X[ids], np.arange(len(ids))
        resid = _row_dots(Xi, Theta) - t[ids]
        qi = Q[rows, ids]
        gy = np.zeros((len(ids), n))
        gy[rows, ids] = n * (np.float_power(resid, 2) - lam_pen * psi_prime(n * qi))
        return (n * qi * 2.0 * resid)[:, None] * Xi, gy

    row_norms = np.linalg.norm(X, axis=1)
    res_bound = row_norms * _box_radius(set_x) + np.abs(t)
    L_x = float(2.0 * n * np.max(row_norms ** 2))
    cross = float(n * np.max(2.0 * res_bound * row_norms))
    # psi'' = 1 for chi2
    L_y = max(cross, float(lam_pen * n ** 2))
    ell = float(np.max(n * res_bound ** 2) + lam_pen * n * 10.0)
    meta = SmoothnessMeta(L_x=L_x, L_y=L_y, rho=0.0, ell=ell, mu=1.0, theta=1.0)
    oracle = StochasticOracle(regime=FiniteSum(n), grads_batch=grads_batch,
                              values_batch=values_batch)
    return ProblemInstance(oracle=oracle, set_x=set_x, set_y=set_y, constants=meta)


# ----------------------------------------------------------------------------
# 1-D dual-error-bound example
#
# g(y) on [-2, 2]: 2 e^{y+1} - 1 on [-2,-1];  -y^2 + 2 on (-1,1];
# 2 e^{-y+1} - 1 on (1,2].  Continuously differentiable, unique max g(0)=2,
# and dist(0, -g'(y) + N_{[-2,2]}(y)) >= (1/10) (2 - g(y))^{1/2} everywhere.

def kl_example_value(y: float) -> float:
    """Piecewise value of the 1-D example; DomainError outside [-2, 2]."""
    if y < -2.0 or y > 2.0:
        raise DomainError(f"y={y} outside [-2, 2]")
    if y <= -1.0:
        return 2.0 * math.exp(y + 1.0) - 1.0
    if y <= 1.0:
        return -y * y + 2.0
    return 2.0 * math.exp(-y + 1.0) - 1.0


def kl_example_grad(y: float) -> float:
    """Derivative of the example: {2 e^{y+1}, -2y, -2 e^{-y+1}}."""
    if y < -2.0 or y > 2.0:
        raise DomainError(f"y={y} outside [-2, 2]")
    if y <= -1.0:
        return 2.0 * math.exp(y + 1.0)
    if y <= 1.0:
        return -2.0 * y
    return -2.0 * math.exp(-y + 1.0)


def make_kl_example() -> ProblemInstance:
    """The example as a ProblemInstance: maximize g(y) over [-2, 2] (the
    primal side is a frozen scalar), with the example's dual error-bound
    constants mu = 1/10, theta = 1/2."""
    set_x = Box(np.zeros(1), np.zeros(1))
    set_y = Box(-2.0 * np.ones(1), 2.0 * np.ones(1))
    # the rows call the scalar functions once each: their math.exp may
    # differ from np.exp in the last bit
    oracle = StochasticOracle(
        regime=FiniteSum(1),
        grads_batch=lambda X, Y, ids: (
            np.zeros((len(ids), 1)),
            np.array([[kl_example_grad(float(v))] for v in Y[:, 0]])),
        values_batch=lambda X, Y, ids: np.array(
            [kl_example_value(float(v)) for v in Y[:, 0]]),
    )
    meta = SmoothnessMeta(L_x=0.0, L_y=2.0, rho=0.0, ell=2.0, mu=0.1, theta=0.5)
    return ProblemInstance(oracle=oracle, set_x=set_x, set_y=set_y,
                           constants=meta)


# ----------------------------------------------------------------------------
# quadratic saddle fixture

def make_quadratic_saddle(d_x: int, d_y: int, *, n_samples: int = 16,
                          a_range: tuple = (0.5, 2.0),
                          c_range: tuple = (1.0, 3.0),
                          coupling: float = 1.0, linear_scale: float = 1.0,
                          noise: float = 0.3, seed: int = 0
                          ) -> ProblemInstance:
    """Finite-sum quadratic minimax fixture with a closed-form saddle.

        F(x, y) = 1/2 x'Ax + x'By - 1/2 y'Cy + a'x - b'y

    A has spectrum in a_range (negative lower end gives weak convexity
    rho = -min eig), C has spectrum in c_range (c_range[0] > 0, so F(x, .)
    is strongly concave and the dual error bound holds with theta = 1/2,
    mu = sqrt(2 min eig C)).
    Per-sample quadratics are mean-centered perturbations of (A, B, C, a,
    b), so their average recovers F.  The saddle solves the first-order
    system and is stored in metadata.  The
    sets are fixed: the boxes [x* - 1, x* + 3] and [y* - 1, y* + 3], which
    contain the saddle strictly in their interior but are not centered on
    it.  A problem on other sets is a `ProblemInstance` of one's own, with
    constants for those sets.

    Raises
    ------
    ValueError
        If d_x, d_y or n_samples is below 1.
    SingularityError
        If the saddle system is singular.
    """
    if min(d_x, d_y, n_samples) < 1:
        raise ValueError(f"d_x, d_y and n_samples must be at least 1, got "
                         f"{d_x}, {d_y}, {n_samples}")
    if not c_range[0] > 0:
        raise ValueError("c_range[0] must be positive (strong concavity in y)")
    rng = np.random.default_rng(seed)

    def _sym_with_spectrum(dim, lo, hi):
        Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        eig = np.linspace(lo, hi, dim) if dim > 1 else np.array([hi])
        return (Q * eig) @ Q.T

    A = _sym_with_spectrum(d_x, a_range[0], a_range[1])
    C = _sym_with_spectrum(d_y, c_range[0], c_range[1])
    B = coupling * rng.normal(size=(d_x, d_y)) / math.sqrt(max(d_x, d_y))
    a_vec = linear_scale * rng.normal(size=d_x)
    b_vec = linear_scale * rng.normal(size=d_y)

    kkt = np.block([[A, B], [B.T, -C]])
    rhs = np.concatenate([-a_vec, b_vec])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as err:
        raise SingularityError(f"saddle system is singular: {err}") from None
    x_star, y_star = sol[:d_x], sol[d_x:]

    n = n_samples

    def _centered(shape, symmetric=False):
        S = noise * rng.normal(size=(n,) + shape)
        if symmetric:
            S = 0.5 * (S + np.swapaxes(S, 1, 2))
        return S - S.mean(axis=0)

    As = A + _centered((d_x, d_x), symmetric=True)
    Bs = B + _centered((d_x, d_y))
    Cs = C + _centered((d_y, d_y), symmetric=True)
    a_s = a_vec + _centered((d_x,))
    b_s = b_vec + _centered((d_y,))

    # a stacked matmul against one column per row runs the one-row
    # matrix-vector kernel per row, so a row does not depend on its batch
    # (einsum does not); `take` gathers the same rows as fancy indexing, at
    # half its overhead on small batches
    def grads_batch(X, Y, ids):
        Xc, Yc, Bi = X[:, :, None], Y[:, :, None], Bs.take(ids, axis=0)
        by, bx = Bi @ Yc, Bi.swapaxes(1, 2) @ Xc
        # one gathered (len(ids), d, d) stack alive at a time: the largest
        # batch, a full gradient's N ids, would otherwise hold three
        del Bi
        gx = (As.take(ids, axis=0) @ Xc + by)[:, :, 0] + a_s.take(ids, axis=0)
        return gx, (bx - Cs.take(ids, axis=0) @ Yc)[:, :, 0] - b_s.take(ids, axis=0)

    # row r is 1/2 x'A_i x + x'B_i y - 1/2 y'C_i y + a_i'x - b_i'y, each
    # form a (1, d) @ (d, d) @ (d, 1) product per row
    def values_batch(X, Y, ids):
        Xr, Yr, Xc, Yc = X[:, None, :], Y[:, None, :], X[:, :, None], Y[:, :, None]
        quad = ((0.5 * Xr) @ As.take(ids, axis=0) @ Xc
                + Xr @ Bs.take(ids, axis=0) @ Yc
                - (0.5 * Yr) @ Cs.take(ids, axis=0) @ Yc
                + a_s.take(ids, axis=0)[:, None, :] @ Xc
                - b_s.take(ids, axis=0)[:, None, :] @ Yc)
        return quad[:, 0, 0]

    set_x = Box(x_star - 1.0, x_star + 3.0)
    set_y = Box(y_star - 1.0, y_star + 3.0)

    # stacked calls run the per-matrix LAPACK routine on each sample
    spec_norms_A = np.linalg.norm(As, 2, axis=(1, 2))
    spec_norms_B = np.linalg.norm(Bs, 2, axis=(1, 2))
    spec_norms_C = np.linalg.norm(Cs, 2, axis=(1, 2))
    min_eig_A = float(np.linalg.eigvalsh(As)[:, 0].min())
    min_eig_C = float(np.linalg.eigvalsh(C)[0])
    L_x = float(np.max(spec_norms_A))
    L_y = float(max(np.max(spec_norms_B), np.max(spec_norms_C)))
    rho = max(0.0, -min_eig_A)
    ell = float((np.max(spec_norms_A) + np.max(spec_norms_B)) * _box_radius(set_x)
                + (np.max(spec_norms_B) + np.max(spec_norms_C)) * _box_radius(set_y)
                + np.max(np.linalg.norm(a_s, axis=1))
                + np.max(np.linalg.norm(b_s, axis=1)))
    meta = SmoothnessMeta(L_x=L_x, L_y=L_y, rho=rho, ell=ell,
                          mu=math.sqrt(2.0 * min_eig_C), theta=0.5)
    oracle = StochasticOracle(regime=FiniteSum(n), grads_batch=grads_batch,
                              values_batch=values_batch)
    return ProblemInstance(
        oracle=oracle, set_x=set_x, set_y=set_y, constants=meta,
        metadata={"A": A, "B": B, "C": C, "a": a_vec, "b": b_vec,
                  "saddle_x": x_star, "saddle_y": y_star})


# ----------------------------------------------------------------------------
# dataset CSV
#
# header:  feature_0,...,feature_{d-1},target,group  (UTF-8, LF, '.' decimal)

def load_dataset_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a dataset CSV with the header above; returns
    (features, targets, groups).

    Raises
    ------
    ValueError
        Naming the path, on a missing or unexpected header, a header with
        no feature column or no data rows, and naming the line too, on a
        row whose field count differs from the header's or whose value
        does not parse or is not finite (nan, inf).  Any integer group id
        is accepted; `spec_from_csv` rejects negative ones.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        d = len(header) - 2
        if header != [f"feature_{j}" for j in range(d)] + ["target", "group"]:
            raise ValueError(f"{path}: unexpected CSV header: {header}")
        if d == 0:
            raise ValueError(f"{path}: the header has no feature_* column")
        feats, targs, grps = [], [], []
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, the header has {len(header)}")
                vals = [float(v) for v in row[:d + 1]]
                bad = [v for v, x in zip(row, vals) if not math.isfinite(x)]
                if bad:
                    raise ValueError(f"value {bad[0]!r} is not finite")
                feats.append(vals[:d])
                targs.append(vals[d])
                grps.append(int(row[d + 1]))
            except ValueError as err:
                raise ValueError(f"{path} line {reader.line_num}: {err}") from None
    if not grps:
        raise ValueError(f"{path}: no data rows")
    return (np.asarray(feats, dtype=np.float64),
            np.asarray(targs, dtype=np.float64),
            np.asarray(grps, dtype=np.int64))


def spec_from_csv(path, loss: str = "squared") -> GroupDroSpec:
    """Load a dataset CSV into a GroupDroSpec (groups by the group column).

    Raises
    ------
    ValueError
        As `load_dataset_csv` does, and naming the path and the line of the
        first row whose group id is negative (that row would join no group).
    EmptyGroupError
        When a group id in 0..max is missing (`GroupDroSpec` checks it).
    """
    X, t, g = load_dataset_csv(path)
    negative = np.flatnonzero(g < 0)
    if len(negative):
        # data row i sits on line i + 2, below the header
        i = int(negative[0])
        raise ValueError(f"{path} line {i + 2}: group id {g[i]} is negative")
    # the first missing id is at most the number of distinct ids, so a
    # huge id costs one pair per distinct id, not one per id below it
    groups = [(X[g == gi], t[g == gi])
              for gi in range(min(int(g.max()), len(np.unique(g))) + 1)]
    return GroupDroSpec(groups=groups, loss=loss)
