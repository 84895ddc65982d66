"""Componentwise Moreau-envelope smoothing for composite objectives
f(x, y; xi) = phi(h(c(x; xi)), y; xi) with h a stack of scalar convex pieces.

Each h_j is replaced by its envelope

    h_j^lam(w) = min_q { h_j(q) + (w - q)^2 / (2 lam) },

whose value and 1/lam-Lipschitz derivative come from the proximal point
p = prox_{lam h_j}(w):  value = h_j(p) + (w - p)^2/(2 lam),  derivative
= (w - p)/lam.  The smoothed objective is smooth in x with constants
computable from the composite's (ell_c, ell_h, ell_phi, L_c, L_phi), so the
solver and tuner can run unchanged on the wrapped problem.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (ProblemInstance, Regime, SmoothnessMeta, StochasticOracle,
                   _check_constants)
from .projections import ConstraintSet

__all__ = [
    "CompositeConstants",
    "ScalarConvex",
    "AbsValue",
    "Hinge",
    "ScaledIdentity",
    "MoreauComposite",
    "envelope",
    "smooth_value",
    "smooth_grad_x",
    "smooth_grad_y",
    "smoothed_constants",
    "as_problem",
    "near_stationarity_certificate",
    "spot_check_composite",
]


# ----------------------------------------------------------------------------
# scalar convex components

class ScalarConvex:
    """A scalar convex function with a value oracle and a prox oracle.

    Subclasses implement value(w) and prox(lam, w) = argmin_q h(q) +
    (q - w)^2/(2 lam).  `envelopes` evaluates the Moreau envelope over an
    array of w; the built-in closed forms override it with numpy
    expressions that reproduce `envelope` bit for bit.
    """

    def value(self, w: float) -> float:
        raise NotImplementedError

    def prox(self, lam: float, w: float) -> float:
        raise NotImplementedError

    def envelopes(self, lam: float, w: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Envelope values and derivatives at every entry of the 1-D `w`.

        The default loops the scalar `envelope`, so any component with a
        prox oracle works on the batch path.
        """
        vals = np.empty(len(w))
        ders = np.empty(len(w))
        for k, wk in enumerate(w):
            vals[k], ders[k] = envelope(self, lam, float(wk))
        return vals, ders


def _envelope_from_prox(lam: float, w: np.ndarray, p: np.ndarray,
                        hp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Array form of `envelope` given the prox points p and h(p)."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    # the scalar `envelope` squares a scalar with `** 2` (libm pow);
    # float_power calls the same pow, array `** 2` would multiply instead
    return hp + np.float_power(w - p, 2) / (2.0 * lam), (w - p) / lam


class AbsValue(ScalarConvex):
    """h(q) = |q|; prox is soft thresholding."""

    def value(self, w: float) -> float:
        return abs(w)

    def prox(self, lam: float, w: float) -> float:
        return math.copysign(max(abs(w) - lam, 0.0), w)

    def envelopes(self, lam: float, w: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        shrunk = np.abs(w) - lam
        # max(s, 0.0) keeps s unless 0.0 > s
        p = np.copysign(np.where(0.0 > shrunk, 0.0, shrunk), w)
        return _envelope_from_prox(lam, w, p, np.abs(p))


class Hinge(ScalarConvex):
    """h(q) = max(0, q)."""

    def value(self, w: float) -> float:
        return max(0.0, w)

    def prox(self, lam: float, w: float) -> float:
        if w <= 0.0:
            return w
        if w >= lam:
            return w - lam
        return 0.0

    def envelopes(self, lam: float, w: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        p = np.where(w <= 0.0, w, np.where(w >= lam, w - lam, 0.0))
        # max(0.0, p) returns p only if p > 0.0
        return _envelope_from_prox(lam, w, p, np.where(p > 0.0, p, 0.0))


class ScaledIdentity(ScalarConvex):
    """h(q) = a q (linear); prox shifts by lam*a."""

    def __init__(self, a: float = 1.0):
        self.a = float(a)

    def value(self, w: float) -> float:
        return self.a * w

    def prox(self, lam: float, w: float) -> float:
        return w - lam * self.a

    def envelopes(self, lam: float, w: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        p = w - lam * self.a
        return _envelope_from_prox(lam, w, p, self.a * p)


# ----------------------------------------------------------------------------
# composite container

@dataclass
class CompositeConstants:
    """Regularity constants of a composite objective phi(h(c(x)), y) needed
    to derive the smoothed problem's constants.  The five Lipschitz
    constants are checked as `SmoothnessMeta`'s are: NaN or negative raises
    ValueError, infinite raises OverflowError naming the constant."""

    ell_c: float
    ell_h: float
    ell_phi: float
    L_c: float
    L_phi: float
    d_h: int
    delta_tilde: float = 1.0

    def __post_init__(self):
        _check_constants(self, ("ell_c", "ell_h", "ell_phi", "L_c", "L_phi"))


@dataclass
class MoreauComposite:
    """A composite objective phi(h(c(x; xi)), y; xi) and its constants.

    Parameters
    ----------
    c : callable(x, sample_id) -> ndarray of shape (d_h,)
        Inner smooth map (one scalar output per h component).
    c_jac : callable(x, sample_id) -> ndarray of shape (dim_x, d_h)
        Analytic Jacobian of c.
    h : sequence of ScalarConvex
        The d_h scalar convex components (convex, ell_h-Lipschitz by
        contract; see spot_check_composite).
    phi : callable(u, y, sample_id) -> float
        Outer function, nondecreasing in each entry of u (contract).
    phi_grad1 : callable(u, y, sample_id) -> ndarray of shape (d_h,)
    phi_grad_y : callable(u, y, sample_id) -> ndarray of shape (dim_y,)
    constants : CompositeConstants
        (ell_c, ell_h, ell_phi, L_c, L_phi, d_h, delta_tilde).
    regime, set_x, set_y : sampling regime and constraint sets, passed
        through unchanged by as_problem.  The constants must hold on these
        sets; each built-in builder fixes its own.
    mu, theta : dual error-bound data for the wrapped problem's
        SmoothnessMeta.  Its sigma_x and sigma_y stay 0.0, exact for a
        finite sum.  For an online composite, set them on the constants of
        `as_problem`'s result and tune that with `tune_smooth`;
        `tune_nonsmooth` refuses one.
    c_batch : callable(X, sample_ids) -> (ndarray, ndarray), optional
        Inner map and Jacobian over a batch with one point per row, X of
        shape (len(ids), dim_x): shapes (len(ids), d_h) and
        (len(ids), dim_x, d_h), row r equal to c(X[r], ids[r]) and
        c_jac(X[r], ids[r]).  Each Jacobian row must also have the memory
        layout of c_jac's result (``np.swapaxes(A[ids], 1, 2)`` for
        ``A[i].T``), because the matmul kernel, and with it the last bit
        of the gradient, depends on the layout.
    phi_grads_batch : callable(u, Y, sample_ids) -> (ndarray, ndarray), optional
        Outer gradients over a batch, with u of shape (len(ids), d_h) and
        one dual point per row, Y of shape (len(ids), dim_y): the stacked
        phi_grad1 rows (len(ids), d_h) and phi_grad_y rows
        (len(ids), dim_y), row r at (u[r], Y[r], ids[r]).

    When both hooks are given, `as_problem` installs one vectorized
    `grads_batch(X, Y, ids)` on the wrapped oracle, which runs `c_batch`,
    the envelopes and `phi_grads_batch` once per batch and returns both
    gradient sides; otherwise it keeps the per-sample path.  A caller at
    a single point broadcasts it to every row.  Every row the hooks
    return must equal the per-sample callables bit for bit, so the batch
    path reproduces `smooth_grad_x`/`smooth_grad_y` exactly.
    `StochasticOracle` lists the numpy habits that break this silently: a
    single matrix-vector product over the rows instead of the per-row
    kernel ``(A[ids] @ X[:, :, None])[:, :, 0]``, array ``** 2`` instead
    of ``np.float_power(a, 2)``, and ``np.sum`` instead of
    `sequential_sum`.
    """

    c: Callable[[np.ndarray, int], np.ndarray]
    c_jac: Callable[[np.ndarray, int], np.ndarray]
    h: Sequence[ScalarConvex]
    phi: Callable[[np.ndarray, np.ndarray, int], float]
    phi_grad1: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    phi_grad_y: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    constants: CompositeConstants
    regime: Regime
    set_x: ConstraintSet
    set_y: ConstraintSet
    mu: float = 1.0
    theta: float = 1.0
    c_batch: Optional[Callable[[np.ndarray, np.ndarray],
                               tuple[np.ndarray, np.ndarray]]] = None
    phi_grads_batch: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray],
                                       tuple[np.ndarray, np.ndarray]]] = None

    def __post_init__(self):
        if len(self.h) != self.constants.d_h:
            raise ValueError(
                f"got {len(self.h)} h components, constants say d_h={self.constants.d_h}")

    @property
    def d_h(self) -> int:
        return len(self.h)

    @property
    def dim_x(self) -> int:
        return self.set_x.dim

    @property
    def dim_y(self) -> int:
        return self.set_y.dim


# ----------------------------------------------------------------------------
# envelope and smoothed oracles

def envelope(h_j: ScalarConvex, lam: float, w: float) -> tuple[float, float]:
    """Value and derivative of the Moreau envelope of h_j at w.

    value = h_j(p) + (w - p)^2/(2 lam),  derivative = (w - p)/lam,  where
    p = prox_{lam h_j}(w).  The derivative is 1/lam-Lipschitz in w.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    p = h_j.prox(lam, w)
    value = h_j.value(p) + (w - p) ** 2 / (2.0 * lam)
    return value, (w - p) / lam


def _envelopes(comp: MoreauComposite, lam: float, v: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    vals = np.empty(comp.d_h)
    ders = np.empty(comp.d_h)
    for j, hj in enumerate(comp.h):
        vals[j], ders[j] = envelope(hj, lam, float(v[j]))
    return vals, ders


def smooth_value(comp: MoreauComposite, lam: float, x: np.ndarray,
                 y: np.ndarray, sample_id: int) -> float:
    """phi(h^lam(c(x; xi)), y; xi) with the envelope applied per component."""
    v = np.asarray(comp.c(x, sample_id), dtype=np.float64)
    u, _ = _envelopes(comp, lam, v)
    return float(comp.phi(u, y, sample_id))


def smooth_grad_x(comp: MoreauComposite, lam: float, x: np.ndarray,
                  y: np.ndarray, sample_id: int) -> np.ndarray:
    """Chain-rule gradient:  jac_c(x) @ (envelope derivs * grad_1 phi).

    The middle factor is the diagonal Jacobian of the componentwise
    envelope, so the product collapses to a weighted column combination.
    """
    v = np.asarray(comp.c(x, sample_id), dtype=np.float64)
    u, e = _envelopes(comp, lam, v)
    g1 = np.asarray(comp.phi_grad1(u, y, sample_id), dtype=np.float64)
    jac = np.asarray(comp.c_jac(x, sample_id), dtype=np.float64)
    return jac @ (e * g1)


def smooth_grad_y(comp: MoreauComposite, lam: float, x: np.ndarray,
                  y: np.ndarray, sample_id: int) -> np.ndarray:
    """grad_y phi(h^lam(c(x; xi)), y; xi)."""
    v = np.asarray(comp.c(x, sample_id), dtype=np.float64)
    u, _ = _envelopes(comp, lam, v)
    return np.asarray(comp.phi_grad_y(u, y, sample_id), dtype=np.float64)


def _smooth_grads_batch(comp: MoreauComposite, lam: float, X: np.ndarray,
                        Y: np.ndarray, ids: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Both smoothed gradient sides over ids, row r at (X[r], Y[r]), from
    one pass of c_batch, the envelopes and phi_grads_batch."""
    v, jac = comp.c_batch(X, ids)
    u, e = np.empty(v.shape), np.empty(v.shape)
    for j, hj in enumerate(comp.h):
        u[:, j], e[:, j] = hj.envelopes(lam, v[:, j])
    g1, gy = comp.phi_grads_batch(u, Y, ids)
    # a stacked (dim_x, d_h) @ (d_h, 1) product per row, as in
    # smooth_grad_x; an elementwise product would keep -0.0 terms
    return (jac @ (e * g1)[:, :, None])[:, :, 0], gy


# ----------------------------------------------------------------------------
# problem wrapper

def smoothed_constants(comp: CompositeConstants, lam: float) -> dict:
    """Regularity constants of the lambda-smoothed composite objective."""
    lc, lh, lphi = comp.ell_c, comp.ell_h, comp.ell_phi
    Lc, Lphi, dh = comp.L_c, comp.L_phi, float(comp.d_h)
    L_x = math.sqrt(3.0 * lc ** 4 * lphi ** 2 * dh / lam ** 2
                    + 3.0 * dh * lh ** 2 * lphi ** 2 * Lc ** 2
                    + 3.0 * lc ** 4 * dh ** 2 * lh ** 4 * Lphi ** 2)
    L_y = max(math.sqrt(dh) * Lphi * lh * lc, Lphi)
    rho = dh * Lphi * lh ** 2 * lc ** 2 + Lc * lphi * lh * math.sqrt(dh)
    ell = max(lphi * lh * lc * math.sqrt(dh), lphi)
    return {"L_x": L_x, "L_y": L_y, "rho": rho, "ell": ell}


def as_problem(comp: MoreauComposite, lam: float) -> ProblemInstance:
    """Wrap the smoothed oracles into a ProblemInstance.

    This is the one place that maps (composite, lambda) to the smoothed
    problem: its SmoothnessMeta carries the smoothed constants (L_x, L_y,
    rho, ell from `smoothed_constants` at this lambda) and the composite's
    mu and theta; D_Y comes from set_y, and regime and constraint sets
    pass through unchanged; its metadata holds lambda.  A composite with
    both batched hooks (`c_batch`, `phi_grads_batch`) also gets the
    oracle's one vectorized `grads_batch`, which returns both gradient
    sides from a single pass; otherwise the oracle keeps the per-sample
    path.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    sc = smoothed_constants(comp.constants, lam)
    meta = SmoothnessMeta(
        L_x=sc["L_x"], L_y=sc["L_y"], rho=sc["rho"], ell=sc["ell"],
        mu=comp.mu, theta=comp.theta)
    oracle = StochasticOracle(
        regime=comp.regime,
        dim_x=comp.dim_x,
        dim_y=comp.dim_y,
        eval_f=lambda x, y, i: smooth_value(comp, lam, x, y, i),
        grad_x=lambda x, y, i: smooth_grad_x(comp, lam, x, y, i),
        grad_y=lambda x, y, i: smooth_grad_y(comp, lam, x, y, i),
    )
    if comp.c_batch is not None and comp.phi_grads_batch is not None:
        oracle.grads_batch = functools.partial(_smooth_grads_batch, comp, lam)
    return ProblemInstance(oracle=oracle, set_x=comp.set_x, set_y=comp.set_y,
                           constants=meta, metadata={"lambda": lam})


# ----------------------------------------------------------------------------
# stationarity translation

def near_stationarity_certificate(comp: MoreauComposite, lam: float, r: float,
                                  grad_z_norm: float, D_X: float,
                                  res_y_smoothed: float = 0.0
                                  ) -> tuple[float, float, float]:
    """Translate smoothed-problem residuals into a certificate for the
    original nonsmooth problem.

    The inputs are measurements on the smoothed proximal problem: the
    prox-center weight r, the norm g = ||grad_z d_r^lam(y, x)|| from the
    inner solve (`grad_z_norm`), the primal set diameter D_X, and the
    smoothed problem's y-residual.  Returns (delta, residual_x, residual_y):

        delta = (rho_lam D_X / r) g + (ell_phi ell_h ell_c sqrt(d_h) / r) g
                + (rho_lam/(2 r^2) + 1/r) g^2 + lam ell_phi ell_h^2 sqrt(d_h)

    so that dist(0, delta-subdifferential of F + indicator of X at x)
    <= g = residual_x, and

        residual_y = sqrt( 2 res_y_smoothed^2 + lam^2 d_h L_phi^2 ell_h^4 / 2 ).
    """
    cc = comp.constants
    rho_lam = smoothed_constants(cc, lam)["rho"]
    g = grad_z_norm
    sqrt_dh = math.sqrt(cc.d_h)
    delta = ((rho_lam * D_X / r) * g
             + (cc.ell_phi * cc.ell_h * cc.ell_c * sqrt_dh / r) * g
             + (rho_lam / (2.0 * r ** 2) + 1.0 / r) * g ** 2
             + lam * cc.ell_phi * cc.ell_h ** 2 * sqrt_dh)
    res_y = math.sqrt(2.0 * res_y_smoothed ** 2
                      + lam ** 2 * cc.d_h * cc.L_phi ** 2 * cc.ell_h ** 4 / 2.0)
    return delta, g, res_y


# ----------------------------------------------------------------------------
# contract spot checks

# trials per contract, half-width of the sampled interval, and slack
_SPOT_TRIALS, _SPOT_SPAN, _SPOT_TOL = 64, 3.0, 1e-9


def spot_check_composite(comp: MoreauComposite, rng: np.random.Generator) -> None:
    """Randomized checks of the composite's declared contracts.

    Secant tests of each h_j for convexity (midpoint inequality) and
    ell_h-Lipschitzness, and monotonicity of phi in its first argument on
    random ordered pairs.  Raises ValueError on a violation.
    """
    lh = comp.constants.ell_h
    for j, hj in enumerate(comp.h):
        for _ in range(_SPOT_TRIALS):
            a, b = sorted(rng.uniform(-_SPOT_SPAN, _SPOT_SPAN, size=2))
            va, vb = hj.value(a), hj.value(b)
            mid = hj.value(0.5 * (a + b))
            if mid > 0.5 * (va + vb) + _SPOT_TOL:
                raise ValueError(f"h[{j}] fails the midpoint convexity test")
            if abs(va - vb) > lh * abs(a - b) + _SPOT_TOL:
                raise ValueError(f"h[{j}] is not ell_h={lh}-Lipschitz")
    y0 = comp.set_y.project(rng.uniform(-1.0, 1.0, size=comp.dim_y))
    for _ in range(_SPOT_TRIALS):
        u = rng.uniform(-_SPOT_SPAN, _SPOT_SPAN, size=comp.d_h)
        bump = rng.uniform(0.0, _SPOT_SPAN, size=comp.d_h)
        if comp.phi(u + bump, y0, 0) < comp.phi(u, y0, 0) - _SPOT_TOL:
            raise ValueError("phi is not nondecreasing in its first argument")
