"""Componentwise Moreau-envelope smoothing for composite objectives
f(x, y; xi) = phi(h(c(x; xi)), y; xi) with h a stack of scalar convex pieces.

Each h_j is replaced by its envelope

    h_j^lam(w) = min_q { h_j(q) + (w - q)^2 / (2 lam) },

whose value and 1/lam-Lipschitz derivative come from the proximal point
p = prox_{lam h_j}(w):  value = h_j(p) + (w - p)^2/(2 lam),  derivative
= (w - p)/lam.  A component gives both over an array of w in one call,
`envelopes(lam, w)`.  The smoothed objective is smooth in x with constants
computable from the composite's (ell_c, ell_h, ell_phi, L_c, L_phi), so the
solver and tuner can run unchanged on the wrapped problem.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (ProblemInstance, Regime, SmoothnessMeta, StochasticOracle,
                   _check_constants)
from .projections import ConstraintSet

__all__ = [
    "CompositeConstants",
    "ScalarConvex",
    "Hinge",
    "ScaledIdentity",
    "MoreauComposite",
    "smoothed_constants",
    "as_problem",
    "near_stationarity_certificate",
]


# ----------------------------------------------------------------------------
# scalar convex components

class ScalarConvex:
    """A scalar convex function h, given by its Moreau envelope over arrays.

    Subclasses implement `envelopes`.  Entry k of its result must not
    depend on the other entries of `w`: the same bits however `w` is
    batched, as for an oracle's rows.
    """

    def envelopes(self, lam: float, w: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Envelope values h^lam(w_k) and derivatives (w_k - p_k)/lam at
        every entry of the 1-D `w`; ValueError unless lam > 0."""
        raise NotImplementedError


def _envelope_from_prox(lam: float, w: np.ndarray, p: np.ndarray,
                        hp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Envelope values and derivatives given the prox points p and h(p)."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    # float_power squares with libm pow, as a scalar `** 2` does; array
    # `** 2` would multiply instead, and the pinned digests hold pow's bits
    return hp + np.float_power(w - p, 2) / (2.0 * lam), (w - p) / lam


class Hinge(ScalarConvex):
    """h(q) = max(0, q)."""

    def envelopes(self, lam: float, w: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        p = np.where(w <= 0.0, w, np.where(w >= lam, w - lam, 0.0))
        # +0.0 for a p of -0.0, where np.maximum(0.0, p) would give -0.0
        return _envelope_from_prox(lam, w, p, np.where(p > 0.0, p, 0.0))


class ScaledIdentity(ScalarConvex):
    """h(q) = a q (linear); prox shifts by lam*a."""

    def __init__(self, a: float = 1.0):
        self.a = float(a)

    def envelopes(self, lam: float, w: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        p = w - lam * self.a
        return _envelope_from_prox(lam, w, p, self.a * p)


# ----------------------------------------------------------------------------
# composite container

@dataclass
class CompositeConstants:
    """Regularity constants of a composite objective phi(h(c(x)), y) needed
    to derive the smoothed problem's constants.  The number d_h of h
    components is not one of them: it is the length of the composite's h
    list.  The five Lipschitz constants are checked as `SmoothnessMeta`'s
    are: NaN or negative raises ValueError, infinite raises OverflowError
    naming the constant."""

    ell_c: float
    ell_h: float
    ell_phi: float
    L_c: float
    L_phi: float
    delta_tilde: float = 1.0

    def __post_init__(self):
        _check_constants(self, ("ell_c", "ell_h", "ell_phi", "L_c", "L_phi"))


@dataclass
class MoreauComposite:
    """A composite objective phi(h(c(x; xi)), y; xi) and its constants,
    given by row functions (one point and one sample id per row, as a
    `StochasticOracle`'s are).

    Parameters
    ----------
    c_batch : callable(X, sample_ids) -> (ndarray, ndarray)
        Inner smooth map and its analytic Jacobian, X of shape
        (len(ids), dim_x): shapes (len(ids), d_h) (one scalar output per
        h component) and (len(ids), dim_x, d_h), row r at (X[r], ids[r]).
        The Jacobian rows enter a stacked (dim_x, d_h) @ (d_h, 1) product
        whose last bit depends on their memory layout, so a row must not
        change with the batch it is gathered in
        (``np.swapaxes(A[ids], 1, 2)`` for the rows ``A[i].T``).
    h : sequence of ScalarConvex
        The scalar convex components, each given by its `envelopes`
        (convex and ell_h-Lipschitz by contract; nothing checks it).  Their
        number, len(h), is d_h.
    phi_batch : callable(u, Y, sample_ids) -> ndarray
        Outer function over a batch, u of shape (len(ids), d_h) and one
        dual point per row, Y of shape (len(ids), dim_y): the values
        (len(ids),), row r at (u[r], Y[r], ids[r]).  Nondecreasing in each
        entry of u (contract).
    phi_grads_batch : callable(u, Y, sample_ids) -> (ndarray, ndarray)
        Its gradients in u and in y over the same rows: shapes
        (len(ids), d_h) and (len(ids), dim_y).
    constants : CompositeConstants
        (ell_c, ell_h, ell_phi, L_c, L_phi, delta_tilde).
    regime, set_x, set_y : sampling regime and constraint sets, passed
        through unchanged by as_problem.  The sets fix dim_x and dim_y,
        and set_x's diameter is the certificate's D_X.  The constants must
        hold on these sets; each built-in builder fixes its own.
    mu, theta : dual error-bound data for the wrapped problem's
        SmoothnessMeta.  Its sigma_x and sigma_y stay 0.0, exact for a
        finite sum.  For an online composite, set them on the constants of
        `as_problem`'s result and tune that with `tune_smooth`;
        `tune_nonsmooth` refuses one.

    `as_problem` builds the smoothed oracle's `grads_batch` and
    `values_batch` from these: each runs `c_batch`, the envelopes and one
    outer function once per batch.  Every row must equal the one-row call
    at the same point and id bit for bit; `StochasticOracle` lists the
    numpy habits that break this silently.
    """

    c_batch: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    h: Sequence[ScalarConvex]
    phi_batch: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    phi_grads_batch: Callable[[np.ndarray, np.ndarray, np.ndarray],
                              tuple[np.ndarray, np.ndarray]]
    constants: CompositeConstants
    regime: Regime
    set_x: ConstraintSet
    set_y: ConstraintSet
    mu: float = 1.0
    theta: float = 1.0


# ----------------------------------------------------------------------------
# smoothed oracles

def _smooth_grads_batch(comp: MoreauComposite, lam: float, X: np.ndarray,
                        Y: np.ndarray, ids: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Both smoothed gradient sides over ids, row r at (X[r], Y[r]), by the
    chain rule jac_c(x) @ (envelope derivatives * grad_1 phi); the middle
    factor is the diagonal Jacobian of the componentwise envelope."""
    v, jac = comp.c_batch(X, ids)
    u, e = np.empty(v.shape), np.empty(v.shape)
    for j, hj in enumerate(comp.h):
        u[:, j], e[:, j] = hj.envelopes(lam, v[:, j])
    g1, gy = comp.phi_grads_batch(u, Y, ids)
    # a stacked (dim_x, d_h) @ (d_h, 1) product per row; an elementwise
    # product would keep -0.0 terms
    return (jac @ (e * g1)[:, :, None])[:, :, 0], gy


def _smooth_values_batch(comp: MoreauComposite, lam: float, X: np.ndarray,
                         Y: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """phi(h^lam(c(X[r]; ids[r])), Y[r]; ids[r]) for each row, with the
    envelope applied per component (the loop is repeated here, not shared,
    so that `_smooth_grads_batch`, which every step runs, stays one
    package call)."""
    v, _ = comp.c_batch(X, ids)
    u = np.empty(v.shape)
    for j, hj in enumerate(comp.h):
        u[:, j] = hj.envelopes(lam, v[:, j])[0]
    return comp.phi_batch(u, Y, ids)


# ----------------------------------------------------------------------------
# problem wrapper

def smoothed_constants(comp: MoreauComposite, lam: float) -> SmoothnessMeta:
    """The lambda-smoothed problem's `SmoothnessMeta`: L_x, L_y, rho and ell
    from the composite's constants and d_h = len(comp.h), with its mu and
    theta."""
    cc = comp.constants
    lc, lh, lphi = cc.ell_c, cc.ell_h, cc.ell_phi
    Lc, Lphi, dh = cc.L_c, cc.L_phi, float(len(comp.h))
    L_x = math.sqrt(3.0 * lc ** 4 * lphi ** 2 * dh / lam ** 2
                    + 3.0 * dh * lh ** 2 * lphi ** 2 * Lc ** 2
                    + 3.0 * lc ** 4 * dh ** 2 * lh ** 4 * Lphi ** 2)
    L_y = max(math.sqrt(dh) * Lphi * lh * lc, Lphi)
    rho = dh * Lphi * lh ** 2 * lc ** 2 + Lc * lphi * lh * math.sqrt(dh)
    ell = max(lphi * lh * lc * math.sqrt(dh), lphi)
    return SmoothnessMeta(L_x=L_x, L_y=L_y, rho=rho, ell=ell, mu=comp.mu,
                          theta=comp.theta)


def as_problem(comp: MoreauComposite, lam: float) -> ProblemInstance:
    """Wrap the smoothed oracles into a ProblemInstance.

    This is the one place that maps (composite, lambda) to the smoothed
    problem: its SmoothnessMeta is `smoothed_constants` at this lambda,
    with D_Y from set_y; regime and constraint sets pass through
    unchanged; its metadata holds lambda.  The oracle's
    `grads_batch` returns both smoothed gradient sides from one pass of
    the composite's row functions, and its `values_batch` the smoothed
    values.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    oracle = StochasticOracle(
        regime=comp.regime,
        grads_batch=functools.partial(_smooth_grads_batch, comp, lam),
        values_batch=functools.partial(_smooth_values_batch, comp, lam))
    return ProblemInstance(oracle=oracle, set_x=comp.set_x, set_y=comp.set_y,
                           constants=smoothed_constants(comp, lam),
                           metadata={"lambda": lam})


# ----------------------------------------------------------------------------
# stationarity translation

def near_stationarity_certificate(comp: MoreauComposite, lam: float, r: float,
                                  grad_z_norm: float, res_y_smoothed: float
                                  ) -> tuple[float, float, float]:
    """Translate smoothed-problem residuals into a certificate for the
    original nonsmooth problem.

    The inputs are measurements on the smoothed proximal problem: the
    prox-center weight r, the norm g = ||grad_z d_r^lam(y, x)|| from the
    inner solve (`grad_z_norm`) and the smoothed problem's y-residual.  D_X
    is the diameter of the composite's set_x, and d_h = len(comp.h).
    Returns (delta, residual_x, residual_y):

        delta = (rho_lam D_X / r) g + (ell_phi ell_h ell_c sqrt(d_h) / r) g
                + (rho_lam/(2 r^2) + 1/r) g^2 + lam ell_phi ell_h^2 sqrt(d_h)

    so that dist(0, delta-subdifferential of F + indicator of X at x)
    <= g = residual_x, and

        residual_y = sqrt( 2 res_y_smoothed^2 + lam^2 d_h L_phi^2 ell_h^4 / 2 ).

    Raises
    ------
    ValueError
        If set_x is unbounded (D_X = inf): no finite delta bounds the gap.
    """
    if comp.set_x.diameter == math.inf:
        raise ValueError("the certificate needs a bounded set_x: its diameter D_X is inf")
    cc, d_h = comp.constants, len(comp.h)
    rho_lam = smoothed_constants(comp, lam).rho
    g = grad_z_norm
    sqrt_dh = math.sqrt(d_h)
    delta = ((rho_lam * comp.set_x.diameter / r) * g
             + (cc.ell_phi * cc.ell_h * cc.ell_c * sqrt_dh / r) * g
             + (rho_lam / (2.0 * r ** 2) + 1.0 / r) * g ** 2
             + lam * cc.ell_phi * cc.ell_h ** 2 * sqrt_dh)
    res_y = math.sqrt(2.0 * res_y_smoothed ** 2
                      + lam ** 2 * d_h * cc.L_phi ** 2 * cc.ell_h ** 4 / 2.0)
    return delta, g, res_y
