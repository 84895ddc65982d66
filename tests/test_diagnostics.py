"""Diagnostics tests.

Oracles: the inner proximal solve is compared against the KKT closed form
(Q + rI) x = r z - c on interior quadratics and against hand-clipped 1-D
solutions on the box boundary; the merit value is compared against a fully
closed-form nested evaluation for quadratic saddles (d_r and p_r both admit
explicit formulas when the solutions stay interior).  The rows kernels (the
lockstep inner solve and ascent, the windowed residuals) are compared bit
for bit against one-point-at-a-time references kept in this file, and the
accelerated merit against plain projected gradient within tolerance.
"""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from spidergda import (Ball, Box, DimError, FiniteSum, InfeasibleError,
                       MaxItersError, NonFiniteError, Online, ProblemInstance,
                       RegimeError, Simplex, SmoothnessMeta, SolverConfig,
                       StochasticOracle, as_problem, core, diagnose,
                       diagnostics, dz_norm, estimate_sigmas, full_grad_x,
                       full_grad_y, full_value, gs_residuals, lyapunov,
                       make_group_dro,
                       make_quadratic_saddle, make_two_group_regression,
                       mc_gs_residuals, run, solve_x_r)
from spidergda.cli import _build_problem, _load_config, _tune
from spidergda.projections import FEAS_TOL


def _zero_oracle(regime):
    """A 1-D oracle whose values and gradients are all zero."""
    return StochasticOracle(
        regime=regime,
        grads_batch=lambda X, Y, ids: (np.zeros((len(ids), 1)),
                                       np.zeros((len(ids), 1))),
        values_batch=lambda X, Y, ids: np.zeros(len(ids)))


def _bilinear_problem():
    oracle = StochasticOracle(
        regime=FiniteSum(1),
        grads_batch=lambda X, Y, ids: (Y.copy(), X.copy()),
        values_batch=lambda X, Y, ids: (X * Y)[:, 0])
    return ProblemInstance(
        oracle=oracle, set_x=Box([-1.0], [1.0]), set_y=Box([-2.0], [2.0]),
        constants=SmoothnessMeta(L_x=0.0, L_y=1.0, rho=0.0, ell=2.0))


def _scalar_saddle(a=2.0, b=1.0, c=1.0, lim=10.0, y_lim=None):
    """F(x, y) = a x^2/2 + b x y - c y^2/2 on the boxes [-lim, lim] and
    [-y_lim, y_lim] (1-D each side; y_lim defaults to lim)."""
    oracle = StochasticOracle(
        regime=FiniteSum(1),
        grads_batch=lambda X, Y, ids: (a * X + b * Y, b * X - c * Y),
        values_batch=lambda X, Y, ids: (0.5 * a * X ** 2 + b * X * Y
                                        - 0.5 * c * Y ** 2)[:, 0])
    return ProblemInstance(
        oracle=oracle, set_x=Box([-lim], [lim]),
        set_y=Box([-(y_lim or lim)], [y_lim or lim]),
        constants=SmoothnessMeta(L_x=a, L_y=max(b, c), rho=0.0, ell=10.0,
                                 mu=math.sqrt(2 * c), theta=0.5))


def _quadratic_x_problem(seed=0, d=3):
    """y-independent strongly convex F(x) = x'Qx/2 + c'x (for inner solves)."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(d, d))
    Q = M @ M.T + np.eye(d)
    c = rng.normal(size=d)
    # stacked matmuls against a column per row, so that a row does not
    # depend on the rows it is batched with
    oracle = StochasticOracle(
        regime=FiniteSum(1),
        grads_batch=lambda X, Y, ids: ((Q @ X[:, :, None])[:, :, 0] + c,
                                       np.zeros((len(ids), 1))),
        values_batch=lambda X, Y, ids: (
            (0.5 * X[:, None, :]) @ Q @ X[:, :, None]
            + X[:, None, :] @ c[:, None])[:, 0, 0])
    p = ProblemInstance(
        oracle=oracle, set_x=Box(-50 * np.ones(d), 50 * np.ones(d)),
        set_y=Box([-1.0], [1.0]),
        constants=SmoothnessMeta(L_x=float(np.linalg.norm(Q, 2)), L_y=0.0,
                                 rho=0.0, ell=1.0))
    return p, Q, c


# ----------------------------------------------------------------------------
# first-order residuals

def test_gs_residuals_hand_example():
    # F = x y at the corner (1, 1): gradient (1, 1) points out of the box on
    # the x side and into it on the y (ascent) side -> residuals (1, 1)
    p = _bilinear_problem()
    assert gs_residuals(p, np.array([1.0]), np.array([1.0])) == (1.0, 1.0)
    # the origin is an interior stationary point
    assert gs_residuals(p, np.zeros(1), np.zeros(1)) == (0.0, 0.0)


def test_gs_residuals_online_rejected():
    p = ProblemInstance(oracle=_zero_oracle(Online()), set_x=Box([-1], [1]),
                        set_y=Box([-1], [1]),
                        constants=SmoothnessMeta(L_x=0, L_y=0, rho=0, ell=1))
    with pytest.raises(RegimeError):
        gs_residuals(p, np.zeros(1), np.zeros(1))


def test_mc_residuals_track_exact_on_finite_sum():
    from spidergda import make_quadratic_saddle
    p = make_quadratic_saddle(3, 2, seed=1)
    rng = np.random.default_rng(2)
    x = p.set_x.project(rng.normal(size=3))
    y = p.set_y.project(rng.normal(size=2))
    ex_x, ex_y = gs_residuals(p, x, y)
    mc_x, mc_y, se_x, se_y = mc_gs_residuals(p, x, y,
                                             rng=np.random.default_rng(3))
    assert se_x > 0 and se_y > 0
    assert abs(mc_x - ex_x) <= 5 * se_x + 1e-9
    assert abs(mc_y - ex_y) <= 5 * se_y + 1e-9


def test_mc_residuals_online():
    # token-keyed noise around a deterministic gradient field
    def noise(ids, k):
        return 0.1 * np.sin(np.asarray(ids, dtype=np.float64) * k)[:, None]

    oracle = StochasticOracle(
        regime=Online(),
        grads_batch=lambda X, Y, ids: (X + noise(ids, 1.0), -Y + noise(ids, 3.0)),
        values_batch=lambda X, Y, ids: np.zeros(len(ids)))
    p = ProblemInstance(oracle=oracle, set_x=Box([-5], [5]),
                        set_y=Box([-5], [5]),
                        constants=SmoothnessMeta(L_x=1, L_y=1, rho=0, ell=1,
                                                 sigma_x=0.1, sigma_y=0.1))
    res_x, res_y, se_x, se_y = mc_gs_residuals(
        p, np.array([2.0]), np.array([0.5]), rng=np.random.default_rng(4))
    assert res_x == pytest.approx(2.0, abs=5 * se_x + 1e-9)
    assert res_y == pytest.approx(0.5, abs=5 * se_y + 1e-9)


def test_monte_carlo_diagnostics_draw_from_the_callers_stream():
    # no hidden seed-0 generator: a call without one is refused, and two
    # calls are the same draws only on the same stream
    p = make_quadratic_saddle(3, 2, seed=1)
    x, y = np.zeros(3), np.zeros(2)
    for f in (mc_gs_residuals, estimate_sigmas):
        with pytest.raises(TypeError, match="rng"):
            f(p, x, y)
        assert f(p, x, y, np.random.default_rng(7)) == f(p, x, y, np.random.default_rng(7))
        assert f(p, x, y, np.random.default_rng(7)) != f(p, x, y, np.random.default_rng(8))


# ----------------------------------------------------------------------------
# inner proximal solve

def test_solve_x_r_clips_to_boundary():
    # min_x x + (1/2)(x + 2)^2 over [-1, 1] has unconstrained solution -3
    p = _bilinear_problem()
    x_r = solve_x_r(p, 1.0, np.array([1.0]), np.array([-2.0]))
    assert x_r[0] == -1.0


def test_solve_x_r_matches_kkt_closed_form():
    p, Q, c = _quadratic_x_problem(seed=5)
    rng = np.random.default_rng(6)
    for r in (0.5, 2.0):
        z = rng.normal(size=3)
        want = np.linalg.solve(Q + r * np.eye(3), r * z - c)
        got = solve_x_r(p, r, np.zeros(1), z)
        assert np.linalg.norm(got - want) <= 1e-7


def test_solve_x_r_large_r_pins_to_center():
    p, _, _ = _quadratic_x_problem(seed=7)
    z = np.array([0.3, -1.2, 2.5])
    got = solve_x_r(p, 1e6, np.zeros(1), z)
    assert np.linalg.norm(got - z) <= 1e-5


def test_solve_x_r_requires_strong_convexity():
    p = _scalar_saddle()
    p = ProblemInstance(oracle=p.oracle, set_x=p.set_x, set_y=p.set_y,
                        constants=replace(p.constants, rho=1.0))
    with pytest.raises(ValueError):
        solve_x_r(p, 1.0, np.zeros(1), np.zeros(1))


def test_inner_solve_refuses_an_infinite_r():
    # the step 1/(r + L_x) would be 0 and r (x - z) non-finite
    p = make_quadratic_saddle(2, 2, n_samples=4, seed=1)
    x, y = p.set_x.project(np.zeros(2)), p.set_y.project(np.zeros(2))
    for call in (lambda: solve_x_r(p, math.inf, y, x), lambda: dz_norm(p, math.inf, y, x),
                 lambda: lyapunov(p, math.inf, x, y, x)):
        with pytest.raises(ValueError, match=r"need rho < r < inf .*r=inf"):
            call()


def test_solve_x_r_max_iters_carries_best(monkeypatch):
    p, Q, c = _quadratic_x_problem(seed=8)
    monkeypatch.setattr(diagnostics, "_INNER_MAX_ITERS", 2)
    monkeypatch.setattr(diagnostics, "_INNER_TOL", 1e-16)
    with pytest.raises(MaxItersError) as exc:
        solve_x_r(p, 1.0, np.zeros(1), 40 * np.ones(3))
    assert exc.value.best is not None
    assert exc.value.best.shape == (3,)
    assert exc.value.residual > 0


# ----------------------------------------------------------------------------
# proximal tracking norm

def test_dz_norm_zero_at_fixed_point():
    # z = -1: the prox map also returns -1 (clip), so the gap vanishes
    p = _bilinear_problem()
    assert dz_norm(p, 1.0, np.array([1.0]), np.array([-1.0])) == 0.0


def test_dz_norm_worked_example():
    # z = 0: x_r = argmin x + x^2/2 = -1 -> 1 * ||0 - (-1)|| = 1
    p = _bilinear_problem()
    assert dz_norm(p, 1.0, np.array([1.0]), np.array([0.0])) == 1.0


def test_dz_norm_scales_with_r_when_pinned():
    # x_r stays clipped at -1 for every r here, so the norm is r * 1
    p = _bilinear_problem()
    z = np.array([-2.0])
    for r in (1.0, 2.0, 4.0):
        assert dz_norm(p, r, np.array([1.0]), z) == pytest.approx(r, rel=1e-12)


# ----------------------------------------------------------------------------
# merit function

def _nested_closed_form(a, b, c, r, x, y, z):
    """Interior closed forms: d_r(y, z), p_r(z), and F_r(x, y, z)."""
    s = a + r
    f_r = 0.5 * a * x ** 2 + b * x * y - 0.5 * c * y ** 2 + 0.5 * r * (x - z) ** 2

    def d_r(yv):
        xs = (r * z - b * yv) / s
        return (0.5 * a * xs ** 2 + b * xs * yv - 0.5 * c * yv ** 2
                + 0.5 * r * (xs - z) ** 2)

    y_star = b * r * z / (c * s + b ** 2)
    return f_r, d_r(y), d_r(y_star)


def test_lyapunov_matches_closed_form_1d():
    a, b, c, r = 2.0, 1.0, 1.0, 1.0
    p = _scalar_saddle(a, b, c)
    x, y, z = 0.6, -0.8, 2.0
    f_r, d_r, p_r = _nested_closed_form(a, b, c, r, x, y, z)
    lv = lyapunov(p, r, np.array([x]), np.array([y]), np.array([z]))
    assert lv.certified
    assert lv.f_r == pytest.approx(f_r, abs=1e-8)
    assert lv.d_r == pytest.approx(d_r, abs=1e-6)
    assert lv.p_r == pytest.approx(p_r, abs=1e-6)
    want = (f_r - d_r) + (p_r - d_r) + p_r
    assert lv.value == pytest.approx(want, abs=1e-5)
    # p_r(z) = 3 z^2 / 8 for these constants
    assert p_r == pytest.approx(3.0 * z * z / 8.0, rel=1e-12)


def test_lyapunov_collapse_identity():
    # at x = x_r(y, z) and y = argmax, both gaps vanish and Phi = p_r;
    # for F = x y, r = 1, z = 0: p_r(0) = max_y min_x (xy + x^2/2) = 0 at
    # y = 0, d_r(1, 0) = -1/2, F_r(0, 1, 0) = 0 -> Phi = 1
    p = _bilinear_problem()
    lv = lyapunov(p, 1.0, np.zeros(1), np.array([1.0]), np.zeros(1))
    assert lv.certified
    assert lv.f_r == pytest.approx(0.0, abs=1e-10)
    assert lv.d_r == pytest.approx(-0.5, abs=1e-8)
    assert lv.p_r == pytest.approx(0.0, abs=1e-8)
    assert lv.value == pytest.approx(1.0, abs=1e-7)


def test_lyapunov_uncertified_2d_matches_the_closed_form():
    # 1-D x, 2-D y: the dual maximization is one ascent from y (flagged
    # heuristic), and on this concave quadratic it matches the closed form
    a, r = 2.0, 1.0
    bvec = np.array([1.0, 0.5])
    C = np.diag([1.0, 2.0])
    oracle = StochasticOracle(
        regime=FiniteSum(1),
        grads_batch=lambda X, Y, ids: (a * X + (Y @ bvec)[:, None],
                                       X * bvec - Y @ C),
        values_batch=lambda X, Y, ids: (0.5 * a * X[:, 0] ** 2
                                        + X[:, 0] * (Y @ bvec)
                                        - 0.5 * np.sum((Y @ C) * Y, axis=1)))
    p = ProblemInstance(
        oracle=oracle, set_x=Box([-10.0], [10.0]),
        set_y=Box([-10.0, -10.0], [10.0, 10.0]),
        constants=SmoothnessMeta(L_x=a, L_y=2.0, rho=0.0, ell=10.0))
    x, z = 0.5, 1.5
    y = np.array([0.3, -0.4])
    s = a + r
    y_star = np.linalg.solve(C + np.outer(bvec, bvec) / s,
                             (r * z / s) * bvec)

    def d_r(yv):
        xs = (r * z - bvec @ yv) / s
        return (0.5 * a * xs ** 2 + xs * (bvec @ yv) - 0.5 * yv @ C @ yv
                + 0.5 * r * (xs - z) ** 2)

    lv = lyapunov(p, r, np.array([x]), y, np.array([z]))
    assert not lv.certified
    assert lv.d_r == pytest.approx(d_r(y), abs=1e-6)
    assert lv.p_r == pytest.approx(d_r(y_star), abs=1e-5)
    assert lv.value >= lv.p_r - 1e-9


def test_lyapunov_rejects_an_infeasible_x_or_y():
    # criterion 12's saddle on a wide primal box: outside Y, d_r(5, z) = 150
    # lies above the max over Y of d_r(., z), 144 at y = 2, so a merit at
    # y = 5 would certify a p_r that no point of Y attains; z is a prox
    # centre and may lie anywhere
    p, r, x, z = _scalar_saddle(lim=40.0, y_lim=2.0), 1.0, np.zeros(1), np.array([20.0])
    with pytest.raises(InfeasibleError, match=r"^y is not in its set"):
        lyapunov(p, r, x, np.array([5.0]), z)
    with pytest.raises(InfeasibleError, match=r"^x is not in its set"):
        lyapunov(p, r, np.array([41.0]), np.array([2.0]), z)
    lv = lyapunov(p, r, x, np.array([2.0]), z)
    assert lv.certified and lv.p_r == pytest.approx(144.0, rel=1e-12)
    assert lyapunov(p, r, x, np.array([2.0]), np.array([60.0])).certified


def test_lyapunov_online_rejected():
    p = ProblemInstance(oracle=_zero_oracle(Online()), set_x=Box([-1], [1]),
                        set_y=Box([-1], [1]),
                        constants=SmoothnessMeta(L_x=0, L_y=0, rho=0, ell=1))
    with pytest.raises(RegimeError):
        lyapunov(p, 1.0, np.zeros(1), np.zeros(1), np.zeros(1))


# ----------------------------------------------------------------------------
# rows kernels against the one-point reference
#
# The reference below is the merit evaluation one inner solve and one ascent
# at a time, written as the one-row form of the accelerated descent: each
# point goes through the public one-point gradients, projections and
# np.linalg.norm, so the lockstep rows must equal it bit for bit.

def _ref_descend(cset, p0, step, tol, max_iters, grad, momentum=None):
    """One row of `diagnostics._descend_rows`: the extrapolated point w at
    which the row stops, from the start p0 as given."""
    w = x = p0
    t = 1.0
    for _ in range(max_iters):
        x_new = cset.project(w - step * grad(w))
        dist = float(np.linalg.norm(x_new - w))
        if (dist / step <= tol
                or dist <= diagnostics._FLOAT_RES * (1.0 + float(np.linalg.norm(w)))):
            return w
        if float((x_new - w) @ (x_new - x)) < 0.0:  # gradient restart
            beta, t_new = 0.0, 1.0
        else:
            t_new = 0.5 + math.sqrt(0.25 + t * t)
            beta = (t - 1.0) / t_new if momentum is None else momentum
        w, x, t = x_new + beta * (x_new - x), x_new, t_new
    raise AssertionError("reference descent did not stop")


def _ref_solve(p, r, y, z, x0=None):
    # from the projection of its start, since z may lie anywhere
    c = p.constants
    momentum = 1.0 - 2.0 / (1.0 + math.sqrt((r + c.L_x) / (r - c.rho)))
    return _ref_descend(p.set_x, p.set_x.project(z if x0 is None else x0), 1.0 / (r + c.L_x),
                        diagnostics._INNER_TOL, diagnostics._INNER_MAX_ITERS,
                        lambda x: full_grad_x(p, x, y) + r * (x - z), momentum)


def _f_r(p, r, x, y, z):
    return full_value(p, x, y) + 0.5 * r * float(np.sum((x - z) ** 2))


def _ref_d_r(p, r, y, z, x0=None):
    x = _ref_solve(p, r, y, z, x0)
    return _f_r(p, r, x, y, z), x


def _ascent_step(p, r):
    c = p.constants
    denom = c.L_y + c.L_y ** 2 / max(r - c.rho, 1e-12)
    return 1.0 / denom if denom > 0 else 1.0


def _ref_ascent(p, r, y0, z):
    x = z  # each inner solve warm-starts from the last x_r

    def grad(y):
        nonlocal x
        x = _ref_solve(p, r, y, z, x)
        return -full_grad_y(p, x, y)

    y = _ref_descend(p.set_y, y0, _ascent_step(p, r), 10 * diagnostics._INNER_TOL,
                     diagnostics._MAX_ASCENT, grad)
    return _f_r(p, r, x, y, z)


def _seeded_starts(p, y):
    """y and 7 seeded perturbations of it, the same `default_rng(0)` draws
    for every y, scaled by the diameter of set_y and projected onto it."""
    rng = np.random.default_rng(0)
    span = p.set_y.diameter or 1.0
    return [y] + [p.set_y.project(y + span * rng.normal(size=p.set_y.dim))
                  for _ in range(7)]


def _ref_lyapunov(p, r, x, y, z, d_r=_ref_d_r, ascent=_ref_ascent):
    """(value, f_r, d_r, p_r) of the uncertified merit, one solve at a time."""
    f_r, (d_here, _) = _f_r(p, r, x, y, z), d_r(p, r, y, z)
    p_r = max(d_here, ascent(p, r, y, z))
    return (f_r - d_here) + (p_r - d_here) + p_r, f_r, d_here, p_r


def _ref_certified_p_r(p, r, y, z, d_r=_ref_d_r, ascent=_ref_ascent):
    """p_r of the certified 1-D box dual: each grid point's d_r from a cold
    solve from z, then one ascent from the first strict maximum."""
    best_val, best_y = -math.inf, y
    for gy in np.linspace(p.set_y.lo[0], p.set_y.hi[0], 513):
        val = d_r(p, r, np.array([gy]), z)[0]
        if val > best_val:
            best_val, best_y = val, np.array([gy])
    return max(best_val, ascent(p, r, best_y, z), d_r(p, r, y, z)[0])


def _dual_set_problem(kind):
    """A 4x3 quadratic saddle whose dual set is a box, a ball or a simplex,
    with a feasible point (x, y, z) away from its solution."""
    p = make_quadratic_saddle(4, 3, n_samples=4, seed=4)
    if kind != "box":
        # D_Y is refilled from the new set; L_x, L_y and rho do not depend
        # on the sets, and ell stays the box's, which these tests do not read
        p = replace(p, set_y={"ball": Ball(np.zeros(3), 0.5),
                              "simplex": Simplex(3)}[kind],
                    constants=replace(p.constants, D_Y=None))
    rng = np.random.default_rng(1)
    x = p.set_x.project(rng.normal(size=4))
    return p, x, p.set_y.project(rng.normal(size=3)), p.set_x.project(x + 0.3)


@pytest.mark.parametrize("kind", ["box", "ball", "simplex"])
def test_lockstep_ascent_rows_equal_one_start_at_a_time(kind):
    # y and 7 seeded starts, projected onto the dual set; with no cold solve
    # given, each start's first inner solve is a solve from z
    p, x, y, z = _dual_set_problem(kind)
    starts = _seeded_starts(p, y)
    got = diagnostics._ascend_d_r(p, 4.0, np.array(starts), z)
    assert got == [_ref_ascent(p, 4.0, s, z) for s in starts]


@pytest.mark.parametrize("kind", ["box", "ball", "simplex"])
def test_lockstep_lyapunov_equals_sequential_reference(kind):
    # the reference solves the start's first point on its own, where the
    # merit takes that start's row of its cold solve; y is the one start
    p, x, y, z = _dual_set_problem(kind)
    lv = lyapunov(p, 4.0, x, y, z)
    assert not lv.certified
    assert (lv.value, lv.f_r, lv.d_r, lv.p_r) == _ref_lyapunov(p, 4.0, x, y, z)


def test_a_y_outside_its_set_within_tolerance_ascends_from_itself(monkeypatch):
    # y lies outside the box by half of FEAS_TOL, so the merit accepts it,
    # and the ascent starts at y as given: the cold solve of d_r(y, z) is
    # its first inner solve, and no later solve is at y
    p, x, _, z = _dual_set_problem("box")
    y = p.set_y.hi + [0.5 * FEAS_TOL, 0.0, 0.0]
    assert p.set_y.contains(y) and p.set_y.project(y).tobytes() != y.tobytes()
    solves, solve = [], diagnostics._solve_rows
    monkeypatch.setattr(diagnostics, "_solve_rows",
                        lambda *a: solves.append(a[2].copy()) or solve(*a))
    lv = lyapunov(p, 4.0, x, y, z)
    assert [w.tobytes() for w in solves[0]] == [y.tobytes()]
    assert not any(w.tobytes() == y.tobytes() for W in solves[1:] for w in W)
    assert (lv.value, lv.f_r, lv.d_r, lv.p_r) == _ref_lyapunov(p, 4.0, x, y, z)


def test_certified_grid_rows_equal_one_point_reference():
    p, r = _scalar_saddle(), 1.0
    x, y, z = np.array([0.6]), np.array([-0.8]), np.array([2.0])
    assert lyapunov(p, r, x, y, z).p_r == _ref_certified_p_r(p, r, y, z)


def test_certified_merit_solves_d_r_and_its_grid_as_rows_of_one_solve(monkeypatch):
    p, r = _scalar_saddle(), 1.0
    y, z = np.array([-0.8]), np.array([2.0])
    calls = []
    for name in ("_solve_rows", "_f_r", "_ascend_d_r"):
        fn = getattr(diagnostics, name)
        monkeypatch.setattr(diagnostics, name,
                            lambda *a, fn=fn, name=name: calls.append((name, a)) or fn(*a))
    lyapunov(p, r, np.array([0.6]), y, z)
    # the ascent's own solves and its d_r come after it starts
    assert [name for name, _ in calls[:3]] == ["_solve_rows", "_f_r", "_ascend_d_r"]
    _, Y, _, X0, labels = calls[0][1][1:]
    assert Y[:, 0].tolist() == [-0.8, *np.linspace(-10.0, 10.0, 513).tolist()]
    assert X0.shape == Y.shape and (X0 == z).all()
    # every solve row is row 0's, the one merit row
    assert labels.tolist() == [0] * 514


# ----------------------------------------------------------------------------
# the merit rows of a trace
#
# The CLI evaluates the merit rows of a trace in one `_lyapunov_rows` call;
# each row must equal its one-row `lyapunov` call bit for bit.

def _merit_trace_rows(kind):
    """The problem, r and the rows (X, Y, Z) of a CLI-tuned trace: the 3-D
    box dual of the benchmark's quadratic at rows 0, 8, 16 and 23; the
    certified 1-D example at every 10th of its 90 rows; the smoothed
    two-group regression of CI's merit run at rows 0, 10 and 19."""
    problem, solver, pick = {
        "box": ({"kind": "quadratic_saddle", "dim_x": 4, "dim_y": 3, "n_samples": 16,
                 "seed": 11}, {}, [0, 8, 16, 23]),
        "certified": ({"kind": "kl_example"}, {"y0": [1.8]}, list(range(0, 90, 10))),
        "composite": ({"kind": "two_group_regression", "n": 60, "seed": 2}, {}, [0, 10, 19]),
    }[kind]
    tuner = {"box": {"epsilon": 1e-3, "overrides": {"alpha_y": 4.0, "beta": 0.016, "K": 3,
                                                     "T": 8, "M": 16}},
             "certified": {"epsilon": 0.1, "overrides": {"alpha_y": 0.2, "K": 30, "T": 3,
                                                         "M": 2, "B": 1}},
             "composite": {"epsilon": 0.05, "overrides": {"K": 5, "T": 4}}}[kind]
    cfg = _load_config({"problem": problem, "tuner": tuner, "solver": solver})
    p, config, _ = _tune(cfg, _build_problem(cfg))
    config.seed, config.trace_stride = 22, 1
    y0 = np.array(solver["y0"]) if "y0" in solver else None
    rows = [run(p, config, y0=y0).rows[i] for i in pick]
    return p, config.r, *(np.array([getattr(row, v) for row in rows]) for v in "xyz")


@pytest.mark.parametrize("kind, block", [("box", None), ("certified", None),
                                         ("certified", 4), ("composite", None)])
def test_merit_rows_equal_one_row_lyapunov_calls(kind, block, monkeypatch):
    p, r, X, Y, Z = _merit_trace_rows(kind)
    if block:
        # the 9 certified rows go through lockstep solves of 4, 4 and 1 rows
        monkeypatch.setattr(diagnostics, "_MERIT_ROWS", block)
    got = diagnostics._lyapunov_rows(p, r, X, Y, Z)
    want = [lyapunov(p, r, x, y, z) for x, y, z in zip(X, Y, Z)]
    assert [astuple(lv) for lv in got] == [astuple(lv) for lv in want]
    assert {lv.certified for lv in got} == {kind == "certified"}


def test_merit_rows_share_one_solve_and_one_ascent(monkeypatch):
    p, r, X, Y, Z = _merit_trace_rows("box")
    calls = []

    def record(name, fn):
        def recorded(*a):
            call = [name, a]
            calls.append(call)  # before the calls that fn makes
            call.append(fn(*a))
            return call[2]
        return recorded

    for name in ("_solve_rows", "_ascend_d_r"):
        monkeypatch.setattr(diagnostics, name, record(name, getattr(diagnostics, name)))
    diagnostics._lyapunov_rows(p, r, X, Y, Z)
    # one cold solve from z at the 4 rows' y, then one ascent from them,
    # which makes the other inner solves
    assert [name for name, _, _ in calls[:2]] == ["_solve_rows", "_ascend_d_r"]
    assert [name for name, _, _ in calls].count("_ascend_d_r") == 1
    (_, _, Ys, Zs, X0, solve_labels), cold = calls[0][1], calls[0][2]
    (_, _, Ya, Za, ascent_labels, first) = calls[1][1]
    assert Ys.tobytes() == Y.tobytes()
    assert Zs.tolist() == X0.tolist() == Z.tolist()
    # each solve and ascent row carries the label of the merit row it serves
    assert solve_labels.tolist() == [0, 1, 2, 3]
    # the ascent starts at the solve's rows and takes that solve as the
    # first inner solve of each start, so no later solve of merit row j is
    # at its y
    assert Ya.tobytes() == Ys.tobytes() and Za.tobytes() == Zs.tobytes()
    assert ascent_labels.tolist() == solve_labels.tolist()
    assert [V.tobytes() for V in first] == [V.tobytes() for V in cold]
    assert not any(w.tobytes() == Y[j].tobytes() for name, a, _ in calls[2:]
                   if name == "_solve_rows" for w, j in zip(a[2], a[5]))


def _merit_rows(kind):
    """The problem, r and merit rows (X, Y, Z) of `_merit_trace_rows` for
    "box" and "composite", or the one point of `_dual_set_problem` for
    "ball" and "simplex" at r = 4."""
    if kind in ("box", "composite"):
        return _merit_trace_rows(kind)
    p, x, y, z = _dual_set_problem(kind)
    return p, 4.0, x[None], y[None], z[None]


@pytest.mark.parametrize("kind", ["box", "composite", "ball", "simplex"])
def test_one_start_loses_nothing_against_eight_seeded_starts(kind):
    # the uncertified merit ascends from y alone, since under the dual's KL
    # property every stationary point of d_r(., z) is a global maximum; a
    # reference that also ascends from 7 seeded perturbations of each y,
    # the 8 starts of every row in one ascent, finds no larger p_r
    p, r, X, Y, Z = _merit_rows(kind)
    got = diagnostics._lyapunov_rows(p, r, X, Y, Z)
    f_r = diagnostics._f_r(p, r, X, Y, Z)
    d_r = diagnostics._f_r(p, r, diagnostics._solve_rows(p, r, Y, Z, Z)[0], Y, Z)
    starts = np.array([s for y in Y for s in _seeded_starts(p, y)])
    ascents = np.reshape(diagnostics._ascend_d_r(p, r, starts, Z.repeat(8, axis=0)), (-1, 8))
    for lv, f, d, asc in zip(got, f_r, d_r, ascents):
        p_r = max(d, *asc)
        assert not lv.certified and lv.p_r >= lv.d_r
        assert (lv.f_r, lv.d_r) == (f, d)
        assert lv.p_r == pytest.approx(p_r, rel=1e-12, abs=0.0)
        assert lv.value == pytest.approx((f - d) + (p_r - d) + p_r, rel=1e-12, abs=0.0)


def test_merit_rows_name_an_infeasible_row():
    p, r = _scalar_saddle(lim=40.0, y_lim=2.0), 1.0
    X, Z = np.zeros((3, 1)), np.full((3, 1), 20.0)
    with pytest.raises(InfeasibleError, match=r"^y is not in its set at row 2 "):
        diagnostics._lyapunov_rows(p, r, X, np.array([[2.0], [1.0], [5.0]]), Z)
    with pytest.raises(InfeasibleError, match=r"^x is not in its set at row 1 "):
        diagnostics._lyapunov_rows(p, r, np.array([[0.0], [41.0], [0.0]]), np.ones((3, 1)), Z)
    # a labelled row is named by its label
    with pytest.raises(InfeasibleError, match=r"^y is not in its set at row 30 "):
        diagnostics._lyapunov_rows(p, r, X, np.array([[2.0], [1.0], [5.0]]), Z,
                                   np.array([10, 20, 30]))


def test_merit_rows_stall_names_the_stalled_row(monkeypatch):
    # F(x) = x'Qx/2 + c'x does not depend on y, so at z = argmin F every
    # inner solve of row 0 (its d_r, its 513 grid points and its ascent)
    # stops at once, while row 1's cold solves from far away stall
    p, Q, c = _quadratic_x_problem(seed=8)
    x_min = np.linalg.solve(Q, -c)
    X, Y, Z = np.zeros((2, 3)), np.zeros((2, 1)), np.array([x_min, 40.0 * np.ones(3)])
    assert diagnostics._lyapunov_rows(p, 1.0, X, Y, Z)[0].certified
    monkeypatch.setattr(diagnostics, "_INNER_MAX_ITERS", 2)
    monkeypatch.setattr(diagnostics, "_INNER_TOL", 1e-6)
    lyapunov(p, 1.0, X[0], Y[0], Z[0])
    with pytest.raises(MaxItersError) as err:
        diagnostics._lyapunov_rows(p, 1.0, X, Y, Z)
    assert err.value.row == 1
    # also when each row is a block of its own
    monkeypatch.setattr(diagnostics, "_MERIT_ROWS", 1)
    with pytest.raises(MaxItersError) as blocks:
        diagnostics._lyapunov_rows(p, 1.0, X, Y, Z)
    assert blocks.value.row == 1
    with pytest.raises(MaxItersError) as one:
        lyapunov(p, 1.0, X[1], Y[1], Z[1])
    assert one.value.row == 0
    assert err.value.best.tobytes() == one.value.best.tobytes()


def test_merit_rows_stall_past_a_block_names_its_label(monkeypatch):
    # 65 merit rows make a block of 64 and a block of one; only the last
    # row's cold solves stall, and it is named by its label, not by its
    # index in its block or among the rows
    p, Q, c = _quadratic_x_problem(seed=8)
    Z = np.vstack([np.tile(np.linalg.solve(Q, -c), (64, 1)), 40.0 * np.ones(3)])
    assert len(Z) == diagnostics._MERIT_ROWS + 1
    monkeypatch.setattr(diagnostics, "_INNER_MAX_ITERS", 2)
    monkeypatch.setattr(diagnostics, "_INNER_TOL", 1e-6)
    with pytest.raises(MaxItersError) as err:
        diagnostics._lyapunov_rows(p, 1.0, np.zeros((65, 3)), np.zeros((65, 1)), Z,
                                   np.arange(65) * 3)
    assert err.value.row == 192


def test_ascent_stall_names_the_label_of_a_live_row(monkeypatch):
    # F = x^2 + x y - y^2/2 at z = 2, r = 1: d_r(., z) peaks at y = 0.5, so
    # the ascent row that starts there leaves at its first step, and the
    # row from -8 goes on alone; its next inner solve stalls
    p = _scalar_saddle()
    solve, calls = diagnostics._solve_rows, []

    def stall_second(problem, r, Y, z, X0, labels):
        calls.append(len(Y))
        if len(calls) == 2:
            monkeypatch.setattr(diagnostics, "_INNER_MAX_ITERS", 0)
        return solve(problem, r, Y, z, X0, labels)

    monkeypatch.setattr(diagnostics, "_solve_rows", stall_second)
    with pytest.raises(MaxItersError) as err:
        diagnostics._ascend_d_r(p, 1.0, np.array([[0.5], [-8.0]]), np.array([2.0]),
                                np.array([5, 12]))
    assert calls == [2, 1]
    assert err.value.row == 12


# ----------------------------------------------------------------------------
# the accelerated merit against plain projected gradient
#
# The plain references are the inner solve and the ascent as they ran
# before acceleration: projected gradient from the same starts with the
# same steps, stopping at the first iterate whose residual (its step over
# the step size) is within the same tolerance.

def _plain_solve(p, r, y, z, x0=None):
    step = 1.0 / (r + p.constants.L_x)
    x = p.set_x.project(z if x0 is None else x0)
    for _ in range(diagnostics._INNER_MAX_ITERS):
        x_next = p.set_x.project(x - step * (full_grad_x(p, x, y) + r * (x - z)))
        if float(np.linalg.norm(x_next - x)) / step <= diagnostics._INNER_TOL:
            return x
        x = x_next
    raise AssertionError("plain inner solve stalled")


def _plain_d_r(p, r, y, z, x0=None):
    x = _plain_solve(p, r, y, z, x0)
    return _f_r(p, r, x, y, z), x


def _plain_ascent(p, r, y0, z):
    step = _ascent_step(p, r)
    y, x = p.set_y.project(y0), None
    for _ in range(diagnostics._MAX_ASCENT):
        x = _plain_solve(p, r, y, z, x)
        y, y_prev = p.set_y.project(y + step * full_grad_y(p, x, y)), y
        if float(np.linalg.norm(y - y_prev)) / step <= 10 * diagnostics._INNER_TOL:
            break
    return _plain_d_r(p, r, y, z, x)[0]


def _agreement_cases():
    cases = {kind: _dual_set_problem(kind) + (4.0,)
             for kind in ("box", "ball", "simplex")}
    cases["certified"] = (_scalar_saddle(), np.array([0.6]), np.array([-0.8]),
                          np.array([2.0]), 1.0)
    return cases


@pytest.mark.parametrize("kind", ["box", "ball", "simplex", "certified"])
def test_accelerated_merit_agrees_with_plain_projected_gradient(kind, monkeypatch):
    p, x, y, z, r = _agreement_cases()[kind]
    lv = lyapunov(p, r, x, y, z)
    assert lv.certified == (kind == "certified")
    if lv.certified:
        d_here = _plain_d_r(p, r, y, z)[0]
        p_r = _ref_certified_p_r(p, r, y, z, _plain_d_r, _plain_ascent)
        value = (_f_r(p, r, x, y, z) - d_here) + (p_r - d_here) + p_r
    else:
        value, _, d_here, p_r = _ref_lyapunov(p, r, x, y, z, _plain_d_r, _plain_ascent)
    for got, want in ((lv.value, value), (lv.d_r, d_here), (lv.p_r, p_r)):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    # both solves stop within _INNER_TOL / (r - rho) of x_r, on opposite
    # sides of it at times (their distance reaches 1.2 times that), so each
    # is held to x_r from a plain solve at a tolerance near float resolution
    x_r, tol = solve_x_r(p, r, y, z), diagnostics._INNER_TOL / (r - p.constants.rho)
    monkeypatch.setattr(diagnostics, "_INNER_TOL", 1e-14)
    assert float(np.linalg.norm(x_r - _plain_solve(p, r, y, z))) <= tol


def test_lockstep_solve_rows_equal_one_row_solves():
    p, Q, c = _quadratic_x_problem(seed=10)
    rng = np.random.default_rng(11)
    z = rng.normal(size=3)
    # row 1 starts at its solution, so it leaves at once and the rest go on
    X0 = np.array([rng.normal(size=3), solve_x_r(p, 1.0, np.zeros(1), z),
                   40.0 * np.ones(3)])
    got, gy = diagnostics._solve_rows(p, 1.0, np.zeros((3, 1)), z, X0)
    assert gy.tolist() == [[0.0]] * 3  # F does not depend on y
    for row, x0 in zip(got, X0):
        assert row.tobytes() == _ref_solve(p, 1.0, np.zeros(1), z, x0).tobytes()
    # each row also brings grad_y F at (x_r, y) from its last oracle call;
    # the rows leave at different iterations
    q = make_quadratic_saddle(4, 3, n_samples=16, seed=11)
    r = q.constants.rho + 1.0
    Y = q.set_y.project(np.zeros(3)) + 0.3 * rng.normal(size=(5, 3))
    Y = np.array([q.set_y.project(y) for y in Y])
    z = 0.5 * rng.normal(size=4)
    X0 = np.vstack([z, rng.normal(size=(4, 4))])
    got, gy = diagnostics._solve_rows(q, r, Y, z, X0)
    for x, g, y, x0 in zip(got, gy, Y, X0):
        assert x.tobytes() == _ref_solve(q, r, y, z, x0).tobytes()
        assert g.tobytes() == full_grad_y(q, x, y).tobytes()


def test_lockstep_solve_stall_carries_the_stalled_rows_best(monkeypatch):
    p, Q, c = _quadratic_x_problem(seed=8)
    z = 40 * np.ones(3)
    x_sol = solve_x_r(p, 1.0, np.zeros(1), z)
    monkeypatch.setattr(diagnostics, "_INNER_MAX_ITERS", 2)
    monkeypatch.setattr(diagnostics, "_INNER_TOL", 1e-6)
    with pytest.raises(MaxItersError) as one:
        solve_x_r(p, 1.0, np.zeros(1), z)
    # row 0 converges at once; row 1 stalls as the one-row solve does
    with pytest.raises(MaxItersError) as rows:
        diagnostics._solve_rows(p, 1.0, np.zeros((2, 1)), z,
                                np.array([x_sol, z]))
    assert rows.value.row == 1
    assert rows.value.best.tobytes() == one.value.best.tobytes()
    assert rows.value.residual == one.value.residual
    # with labels, the stalled row is named by its label
    with pytest.raises(MaxItersError) as labelled:
        diagnostics._solve_rows(p, 1.0, np.zeros((2, 1)), z,
                                np.array([x_sol, z]), np.array([7, 9]))
    assert labelled.value.row == 9


def test_lockstep_rows_reject_non_finite_like_project():
    p, Q, c = _quadratic_x_problem(seed=8)
    with pytest.raises(DimError, match="non-finite"):
        diagnostics._solve_rows(p, 1.0, np.zeros((2, 1)), np.zeros(3),
                                np.array([np.zeros(3), [np.nan, 0.0, 0.0]]))


def _residual_cases():
    quad = make_quadratic_saddle(4, 3, n_samples=16, seed=11)
    ball = make_quadratic_saddle(3, 2, n_samples=8, seed=2)
    # D_Y is refilled from the new set; L_x, L_y and rho do not depend on
    # the sets, and ell stays the boxes', which these tests do not read
    ball = replace(ball, set_x=Ball(np.zeros(3), 1.0),
                   set_y=Ball(np.zeros(2), 0.5),
                   constants=replace(ball.constants, D_Y=None))
    base = make_two_group_regression(n=40, d=2, minority_frac=0.25, seed=3)
    dro = as_problem(make_group_dro(base), 0.05)
    return {"box": (quad, 0.05, 1.0), "ball": (ball, 0.05, 1.0),
            "simplex": (dro, 1e-3, 0.01)}


@pytest.mark.parametrize("kind", ["box", "ball", "simplex"])
@pytest.mark.parametrize("stride", [1, 3])
def test_windowed_residuals_equal_per_row_gs_residuals(kind, stride):
    p, alpha_x, alpha_y = _residual_cases()[kind]
    # more points than one exact-gradient call takes at stride 1, so rows
    # sit on both sides of a call boundary
    cfg = SolverConfig(K=33, T=4, M=4, B=1, alpha_x=alpha_x, alpha_y=alpha_y,
                       beta=0.5, r=1.0, seed=5)
    trace = run(p, cfg)
    rows = trace.rows
    assert len(rows) > core._ROW_BUDGET // p.regime.n
    res, lya = diagnose(p, trace, cfg, stride, None)
    assert lya == {}
    want = [i for i in range(len(rows)) if i % stride == 0 or i == len(rows) - 1]
    assert list(res) == want + [-1]
    for i in want:
        assert res[i] == gs_residuals(p, rows[i].x, rows[i].y) + (None, None)
    # the output pair rides in the last call
    assert res[-1] == gs_residuals(p, *trace.output_pair) + (None, None)


# ----------------------------------------------------------------------------
# a command's diagnostics over the seed axis
#
# `diagnose` over the list of a command's runs measures the complete traces
# of all seeds in one residual rows call and one `_lyapunov_rows` call; each
# seed's entry must equal its one-trace call bit for bit, and the list ends
# at the first seed that fails.

def _seed_axis_case(kind):
    """(problem, config, y0, residual_stride, lyapunov_stride) of a
    two-seed run: the benchmark's quadratic (3-D box dual) at 24 rows; the
    certified 1-D example with a merit stride, so the 513-point grids of
    both seeds are rows of one solve; the quadratic at N = 4 with 40 merit
    rows per seed, so one `_MERIT_ROWS` block holds rows of both seeds; the
    online problem of the CLI tests, residuals only."""
    if kind == "online":
        from test_cli import _online_problem
        return (_online_problem(), SolverConfig(K=2, T=2, M=2, B=4, alpha_x=0.1, alpha_y=0.1,
                                                beta=0.5, r=1.0), None, 1, None)
    quad = {"kind": "quadratic_saddle", "dim_x": 4, "dim_y": 3, "n_samples": 16, "seed": 11}
    steps = {"alpha_y": 4.0, "beta": 0.016, "T": 8}
    problem, tuner, y0, strides = {
        "box": (quad, {"epsilon": 1e-3, "overrides": dict(steps, K=3, M=16)}, None, (1, 8)),
        "certified": ({"kind": "kl_example"}, {"epsilon": 0.1, "overrides": {
            "alpha_y": 0.2, "K": 30, "T": 3, "M": 2, "B": 1}}, [1.8], (10, 45)),
        "blocks": (dict(quad, n_samples=4), {"epsilon": 1e-3, "overrides": dict(
            steps, K=5, M=4)}, None, (None, 1)),
    }[kind]
    cfg = _load_config({"problem": problem, "tuner": tuner})
    p, config, _ = _tune(cfg, _build_problem(cfg))
    config.trace_stride = 1
    return p, config, None if y0 is None else np.array(y0), *strides


def _diagnostics_bits(found):
    """A (residuals, merit) pair of `diagnose` with every float as hex."""
    res, lya = found
    return ({i: [None if v is None else v.hex() for v in out] for i, out in res.items()},
            {i: v.hex() for i, v in lya.items()})


@pytest.mark.parametrize("kind", ["box", "certified", "blocks", "online"])
def test_diagnose_over_seeds_equals_single_seed_calls(kind, monkeypatch):
    p, config, y0, res_stride, lya_stride = _seed_axis_case(kind)
    traces = run(p, config, y0=y0, seeds=[22, 5])
    failed = NonFiniteError("iterate became non-finite")
    merit_rows = []
    lyapunov_rows = diagnostics._lyapunov_rows
    monkeypatch.setattr(diagnostics, "_lyapunov_rows",
                        lambda *a: merit_rows.append(len(a[2])) or lyapunov_rows(*a))
    # a seed that went non-finite is the last entry, as it was given
    got = diagnose(p, [*traces, failed], config, res_stride, lya_stride)
    assert len(got) == 3 and got[2] is failed
    n = len(traces[0].rows)
    per_seed = 0 if lya_stride is None else len(range(0, n - 1, lya_stride)) + 1
    # one call over both seeds' merit rows (a call of more than
    # `_MERIT_ROWS` rows makes one call per block of them)
    assert merit_rows[:1] == ([2 * per_seed] if per_seed else [])
    assert (2 * per_seed > diagnostics._MERIT_ROWS) == (kind == "blocks")
    for found, trace in zip(got, traces):
        # the one-trace call with the run's own config, whatever its seed
        want = diagnose(p, trace, config, res_stride, lya_stride)
        assert _diagnostics_bits(found) == _diagnostics_bits(want)
        assert len(found[1]) == per_seed


def test_diagnose_over_seeds_ends_at_a_non_finite_seed(monkeypatch):
    # the library form of the CLI's stop at a run that went non-finite: the
    # list ends at that run's error, and the trace after it is not measured
    p, config, y0, res_stride, lya_stride = _seed_axis_case("box")
    traces = run(p, config, y0=y0, seeds=[22, 5])
    failed = NonFiniteError("iterate became non-finite")
    diagnose_traces, measured = diagnostics._diagnose_traces, []

    def recorded(*args):
        measured.append([t.seed for t in args[-1]])
        return diagnose_traces(*args)

    monkeypatch.setattr(diagnostics, "_diagnose_traces", recorded)
    got = diagnose(p, [traces[0], failed, traces[1]], config, res_stride, lya_stride)
    assert len(got) == 2 and got[1] is failed
    assert measured == [[22]]
    want = diagnose_traces(p, config.r, res_stride, lya_stride, traces[:1])[0]
    assert _diagnostics_bits(got[0]) == _diagnostics_bits(want)
    # a first seed that failed is the whole list
    assert diagnose(p, [failed, *traces], config, res_stride, lya_stride) == [failed]
    assert measured == [[22]]


def test_one_trace_streams_are_keyed_by_the_trace_seed():
    # the online streams follow from the trace: the one-trace call of a
    # seed-axis run, with the run's own config (`config.seed` 0), is that
    # seed's entry of the seed-axis call
    p, config = _seed_axis_case("online")[:2]
    assert config.seed == 0
    traces = run(p, config, seeds=[1, 2])
    assert [t.seed for t in traces] == [1, 2]
    got = diagnose(p, traces, config, 1, None)
    want = diagnose(p, traces[1], config, 1, None)
    assert _diagnostics_bits(want) == _diagnostics_bits(got[1])
    assert _diagnostics_bits(want) != _diagnostics_bits(got[0])


def test_diagnose_over_seeds_stops_at_the_first_seed_that_stalls_alone(monkeypatch):
    # seed 5's last merit row stalls: the shared pass raises, then the
    # seeds run alone in order, seed 22 measured, seed 5 its own error,
    # and seed 9 not measured again, nor reported
    p, config, y0, res_stride, lya_stride = _seed_axis_case("box")
    seeds = [22, 5, 9]
    traces = run(p, config, y0=y0, seeds=seeds)
    last = len(traces[1].rows) - 1
    stall = traces[1].rows[last].z.tobytes()
    assert [t.rows[last].z.tobytes() == stall for t in traces] == [False, True, False]
    lyapunov_rows, calls = diagnostics._lyapunov_rows, []

    def stalling(problem, r, X, Y, Z, labels):
        calls.append(len(X))
        for z, label in zip(Z, labels):
            if z.tobytes() == stall:
                raise MaxItersError("inner solve stalled", best=None, residual=1.0,
                                    row=int(label))
        return lyapunov_rows(problem, r, X, Y, Z, labels)

    monkeypatch.setattr(diagnostics, "_lyapunov_rows", stalling)
    got = diagnose(p, traces, config, res_stride, lya_stride)
    per_seed = len(range(0, last, lya_stride)) + 1
    assert calls == [3 * per_seed, per_seed, per_seed]
    want = diagnose(p, traces[0], config, res_stride, lya_stride)
    assert _diagnostics_bits(got[0]) == _diagnostics_bits(want)
    assert isinstance(got[1], MaxItersError) and got[1].row == last
    # the list ends at the seed that stalled
    assert len(got) == 2


# ----------------------------------------------------------------------------
# finite-difference harness (the `fd_check` fixture other tests rely on)

def test_fd_check_tiers(fd_check):
    c = np.array([1.5, -2.0, 0.25])
    lin = fd_check(lambda v: float(c @ v), lambda v: c,
                   np.array([0.3, 0.7, -1.1]))
    assert lin <= 1e-10
    quad = fd_check(lambda v: float(0.5 * v @ v), lambda v: v,
                    np.array([0.5, -0.25, 2.0]))
    assert quad <= 1e-9


def test_fd_check_flags_wrong_gradient(fd_check):
    err = fd_check(lambda v: float(0.5 * v @ v), lambda v: 2.0 * v,
                   np.array([1.0, 2.0]))
    assert err > 1e-2
