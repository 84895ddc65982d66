"""Self-check suites behind `spidergda verify SUITE`.

Each suite checks a contract that the analysis rests on and returns one
`Check` per property:

- `kl-example`: the dual error bound with theta = 1/2 of the 1-D example
  on a 4001-point grid, and the example's closed-form values;
- `projections`: idempotence, nonexpansiveness, the variational
  inequality and landing on the boundary of the projections onto boxes,
  balls and simplexes;
- `tuner`: the closed-form step schedule at unit constants, compared with
  exact rationals;
- `estimator`: the finite-sum anchor equals the exact gradient and a
  zero-displacement recursion leaves the estimates unchanged, bit for bit.

`SUITES` maps each name to its suite; this is the only implementation of
these checks, and the tier-1 tests assert the same suites.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .core import SmoothnessMeta, full_grad_x, full_grad_y
from .estimator import anchor, batch_rng, recurse
from .problems import (kl_example_grad, kl_example_value, make_kl_example,
                       make_quadratic_saddle)
from .projections import Ball, Box, Simplex, _normal_cone_rows
from .tuner import alpha_x_interval, compute_alpha_y, compute_r

__all__ = ["Check", "SUITES"]


class Check(NamedTuple):
    """One checked property: its name, whether it holds, and what was
    measured ("" when there is nothing to add)."""

    name: str
    ok: bool
    detail: str = ""


def _kl_example() -> list[Check]:
    """dist(0, -g'(y) + N_[-2,2](y)) >= 0.1 sqrt(2 - g(y)) on the grid, and
    the peak and the piece boundaries of g."""
    grid = np.linspace(-2.0, 2.0, 4001)
    values = [kl_example_value(y) for y in grid]
    G = np.array([[-kl_example_grad(y)] for y in grid])
    margins = (_normal_cone_rows(make_kl_example().set_y, grid[:, None], G)
               - [0.1 * math.sqrt(max(2.0 - g, 0.0)) for g in values])
    worst = int(np.argmin(margins))
    return [
        Check("error-bound margin >= 0 on the 4001-point grid",
              margins[worst] >= 0.0,
              f"min margin {margins[worst]:.2e} at y={grid[worst]:.3f}"),
        Check("peak value max g = g(0) = 2",
              max(values) == kl_example_value(0.0) == 2.0, f"max g = {max(values)}"),
        Check("continuity at the piece boundaries",
              abs(kl_example_value(-1.0) - 1.0) < 1e-12
              and abs(kl_example_value(1.0) - 1.0) < 1e-12, "g(+-1) = 1"),
    ]


def _projections() -> list[Check]:
    """Projection contracts on random boxes, balls and simplexes of
    dimension 1-6: one idempotence, nonexpansiveness, variational
    inequality and boundary trial per set.  The boundary trial steps 1e-6
    from Pu towards an outside u, which must leave the set; a projection
    that stops short of the boundary passes the other three."""
    rng = np.random.default_rng(7)
    idempotent, expansion, violation = True, 0.0, 0.0
    outside, inside_after_step = 0, 0
    for _ in range(3400):  # a box, a ball and a simplex each
        dim = int(rng.integers(1, 7))
        lo = rng.normal(size=dim)
        for cset in (Box(lo, lo + np.abs(rng.normal(size=dim)) + 0.1),
                     Ball(rng.normal(size=dim), float(np.abs(rng.normal()) + 0.1)),
                     Simplex(dim)):
            u, v, w = 3.0 * rng.normal(size=(3, dim))
            pu, pv, pw = cset.project(u), cset.project(v), cset.project(w)
            idempotent &= bool(np.array_equal(cset.project(pu), pu))
            expansion = max(expansion, float(np.linalg.norm(pu - pv)
                                             - np.linalg.norm(u - v)))
            violation = max(violation, float((u - pu) @ (pw - pu)))
            gap = float(np.linalg.norm(u - pu))
            if gap >= 1e-6:
                outside += 1
                inside_after_step += cset.contains(pu + 1e-6 * (u - pu) / gap)
    trials = f"{3 * 3400} trials"
    return [
        Check("projection idempotent (exact)", idempotent, trials),
        Check("projection nonexpansive", expansion <= 1e-12,
              f"max expansion {expansion:.2e} over {trials}"),
        Check("variational inequality (u - Pu)'(w - Pu) <= 0", violation <= 1e-10,
              f"max violation {violation:.2e} over {trials}"),
        Check("outside points project onto the boundary", inside_after_step == 0,
              f"{inside_after_step} of {outside} points 1e-6 beyond Pu in the set"),
    ]


def _tuner() -> list[Check]:
    """The schedule at L_x = L_y = rho = 1: r = 2 + 650 + 24 = 676, and
    alpha_x is the first branch 1/(12 (676 + 1 + 2)) = 1/8148 of the
    interval whose lower end is 24 * 2 / 675^2 = 48/455625."""
    meta = SmoothnessMeta(L_x=1.0, L_y=1.0, rho=1.0, ell=1.0)
    r = compute_r(meta)
    lower, ax = alpha_x_interval(meta, r)
    ay = compute_alpha_y(meta, ax)
    return [
        Check("prox weight r = 676 at unit constants", r == 676.0, f"r={r}"),
        Check("primal step alpha_x = 1/8148 at unit constants",
              ax == 1.0 / 8148.0, f"alpha_x={ax}"),
        Check("primal step lower bound = 48/455625 at unit constants",
              lower == 48.0 / 455625.0, f"lower={lower}"),
        Check("dual step alpha_y = min(alpha_x, 1/40, 1/12)",
              ay == 1.0 / 8148.0, f"alpha_y={ay}"),
    ]


def _estimator() -> list[Check]:
    """Anchor exactness and zero-displacement invariance on an 8x8
    quadratic saddle with 64 samples, at a random point."""
    problem = make_quadratic_saddle(8, 8, n_samples=64, seed=2)
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=8), rng.normal(size=8)
    G = anchor(problem, x, y, B=64, rng=batch_rng(0, 0, 0))
    exact = (np.array_equal(G[0], full_grad_x(problem, x, y))
             and np.array_equal(G[1], full_grad_y(problem, x, y)))
    G2 = recurse(problem, G, (x, y), (x.copy(), y.copy()),
                 np.tile(problem.oracle.draw(batch_rng(0, 0, 1), 16), (2, 1)))
    frozen = np.array_equal(G2[0], G[0]) and np.array_equal(G2[1], G[1])
    return [
        Check("finite-sum anchor equals the exact gradient (bitwise)", exact),
        Check("zero-displacement recursion leaves estimates unchanged (bitwise)",
              frozen),
    ]


SUITES: dict[str, Callable[[], list[Check]]] = {
    "kl-example": _kl_example,
    "projections": _projections,
    "tuner": _tuner,
    "estimator": _estimator,
}
