"""Solver loop tests: hand-checked single steps, determinism, sampling
accounting, and output selection.

The single-step example uses dyadic step sizes so every update is exact in
binary floating point and can be asserted with equality.
"""

import dataclasses
import logging
import math

import numpy as np
import pytest

from spidergda import (Ball, Box, DimError, FiniteSum, FullSpace,
                       NonFiniteError, Online, ProblemInstance, Simplex,
                       SmoothnessMeta, SolverConfig, StochasticOracle,
                       anchor, batch_rng, default_initial_point,
                       make_quadratic_saddle, run, samples_drawn, step)


def _bilinear_problem(set_x=None, set_y=None):
    """F(x, y) = x*y as a single-component finite sum."""
    oracle = StochasticOracle(
        regime=FiniteSum(1),
        grads_batch=lambda X, Y, ids: (Y.copy(), X.copy()),
        values_batch=lambda X, Y, ids: (X * Y)[:, 0])
    return ProblemInstance(
        oracle=oracle,
        set_x=set_x if set_x is not None else Box([-1.0], [1.0]),
        set_y=set_y if set_y is not None else Box([-2.0], [2.0]),
        constants=SmoothnessMeta(L_x=0.0, L_y=1.0, rho=0.0, ell=2.0))


def _quadratic_problem(n=8, d=2, seed=0):
    rng = np.random.default_rng(seed)
    Q = rng.normal(size=(n, d, d))
    Q = 0.5 * (Q + np.swapaxes(Q, 1, 2)) + 3.0 * np.eye(d)
    C = np.eye(d)
    # non-centred linear terms keep the saddle away from the box midpoint,
    # so the default start is not a stationary point
    a = rng.normal(size=(n, d)) + 0.5
    b = rng.normal(size=(n, d)) - 0.5
    # stacked matmuls against a column per row: a row does not depend on
    # the rows it is batched with
    oracle = StochasticOracle(
        regime=FiniteSum(n),
        grads_batch=lambda X, Y, ids: (
            (Q[ids] @ X[:, :, None])[:, :, 0] + Y + a[ids],
            X - (C @ Y[:, :, None])[:, :, 0] + b[ids]),
        values_batch=lambda X, Y, ids: (
            (0.5 * X[:, None, :]) @ Q[ids] @ X[:, :, None]
            + X[:, None, :] @ Y[:, :, None]
            - (0.5 * Y[:, None, :]) @ C @ Y[:, :, None]
            + a[ids][:, None, :] @ X[:, :, None]
            + b[ids][:, None, :] @ Y[:, :, None])[:, 0, 0])
    L = float(max(np.linalg.norm(Q[i], 2) for i in range(n)))
    return ProblemInstance(
        oracle=oracle, set_x=Box(-2 * np.ones(d), 2 * np.ones(d)),
        set_y=Box(-2 * np.ones(d), 2 * np.ones(d)),
        constants=SmoothnessMeta(L_x=L, L_y=1.0, rho=0.0, ell=20.0))


# ----------------------------------------------------------------------------
# single step

def test_step_hand_example_exact():
    # x=1, y=1, z=0; exact estimates Gx=y=1, Gy=x=1; dyadic steps:
    #   x+ = proj(1 - 0.125 (1 + 1)) = 0.75
    #   y+ = proj(1 + 0.25)          = 1.25
    #   z+ = 0 + 0.5 * 0.75          = 0.375
    p = _bilinear_problem()
    cfg = SolverConfig(K=1, T=2, M=1, B=1, alpha_x=0.125, alpha_y=0.25,
                       beta=0.5, r=1.0, seed=0)
    x, y, z = np.array([1.0]), np.array([1.0]), np.array([0.0])
    G = anchor(p, x, y, None)
    x1, y1, z1 = step(p, cfg, x, y, z, G)
    assert x1[0] == 0.75
    assert y1[0] == 1.25
    assert z1[0] == 0.375


def test_step_beta_one_snaps_center():
    p = _bilinear_problem()
    cfg = SolverConfig(K=1, T=2, M=1, B=1, alpha_x=0.125, alpha_y=0.25,
                       beta=1.0, r=1.0, seed=0)
    x, y, z = np.array([1.0]), np.array([1.0]), np.array([0.25])
    G = anchor(p, x, y, None)
    x1, _, z1 = step(p, cfg, x, y, z, G)
    assert z1[0] == x1[0]


def test_step_projects_onto_sets():
    p = _bilinear_problem()
    cfg = SolverConfig(K=1, T=2, M=1, B=1, alpha_x=4.0, alpha_y=8.0,
                       beta=0.5, r=1.0, seed=0)
    x, y, z = np.array([1.0]), np.array([1.0]), np.array([0.0])
    G = anchor(p, x, y, None)
    x1, y1, _ = step(p, cfg, x, y, z, G)
    assert x1[0] == -1.0  # clipped at the lower box bound
    assert y1[0] == 2.0   # clipped at the upper box bound


def _reference_step(problem, config, x, y, z, G):
    """The three update lines with np.clip for a box and .all() for the
    finiteness checks: what `step` must equal bit for bit."""
    raw_x = x - config.alpha_x * (G[0] + config.r * (x - z))
    raw_y = y + config.alpha_y * G[1]
    if not (np.isfinite(raw_x).all() and np.isfinite(raw_y).all()):
        raise NonFiniteError("iterate became non-finite")
    x_new, y_new = (np.clip(v, s.lo, s.hi) if isinstance(s, Box) else s._project(v)
                    for s, v in ((problem.set_x, raw_x), (problem.set_y, raw_y)))
    z_new = z + config.beta * (x_new - z)
    if not np.isfinite(z_new).all():
        raise NonFiniteError("iterate became non-finite")
    return x_new, y_new, z_new


# signed zeros, subnormals, the smallest normal and small values (the set
# bounds and centres come from these eight), then values that overflow
_STEP_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                         2.2250738585072014e-308, 0.5, -1.0, 2.0, 1e308, -1e308])


def test_step_equals_the_reference_update_bit_for_bit():
    # Boxes of lengths 1-17 reach every SIMD tail length; their bounds and
    # the raw updates take signed zeros and subnormals, so ties of -0.0
    # against +0.0 at a bound occur.  Half the trials pass v through
    # unchanged (z = x, Gx = +0.0, Gy = -0.0, alpha = 1) so that v is drawn
    # from the values directly.  Non-finite raw updates must raise in both.
    rng = np.random.default_rng(14)
    outcomes = {"equal": 0, "raised": 0, "zero ties": 0}
    for d in range(1, 18):
        def box():
            # a stable sort keeps a -0.0/+0.0 pair in drawn order, so
            # degenerate coordinates [-0.0, +0.0] and [+0.0, -0.0] occur
            lo_hi = rng.choice(_STEP_VALUES[:8], (2, d))
            return Box(*np.sort(lo_hi, axis=0, kind="stable"))

        center = rng.choice(_STEP_VALUES[:8], d)
        for set_x, set_y in ((box(), box()), (box(), Ball(center, 0.5)),
                             (Ball(center, 1.0), Simplex(d)),
                             (FullSpace(d), box())):
            oracle = StochasticOracle(
                regime=FiniteSum(1),
                grads_batch=lambda X, Y, ids: (X.copy(), Y.copy()),
                values_batch=lambda X, Y, ids: np.zeros(len(ids)))
            p = ProblemInstance(oracle=oracle, set_x=set_x, set_y=set_y,
                                constants=SmoothnessMeta(L_x=1, L_y=1, rho=0, ell=1))
            bounds = [b for s in (set_x, set_y) if isinstance(s, Box)
                      for b in (s.lo, s.hi)]
            pool = np.concatenate([_STEP_VALUES, center, -center] + bounds)
            if isinstance(set_y, Simplex):
                # the simplex sort cannot take sums that overflow
                pool = pool[np.abs(pool) < 1e300]
            for trial in range(12):
                x, y = rng.choice(pool, (2, d))
                if trial % 2:
                    cfg = SolverConfig(K=1, T=2, M=1, B=1, alpha_x=1.0, alpha_y=1.0,
                                       beta=0.5, r=1.0)
                    z, G = x.copy(), (np.zeros(d), np.full(d, -0.0))
                else:
                    cfg = SolverConfig(K=1, T=2, M=1, B=1, alpha_x=rng.uniform(0.1, 2),
                                       alpha_y=rng.uniform(0.1, 2),
                                       beta=rng.uniform(0.1, 1), r=rng.uniform(0.1, 2))
                    z, gx, gy = rng.choice(pool, (3, d))
                    G = (gx, gy)
                with np.errstate(all="ignore"):
                    try:
                        want = _reference_step(p, cfg, x, y, z, G)
                    except NonFiniteError:
                        with pytest.raises(NonFiniteError):
                            step(p, cfg, x, y, z, G)
                        outcomes["raised"] += 1
                        continue
                    got = step(p, cfg, x, y, z, G)
                assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
                outcomes["equal"] += 1
                if isinstance(set_x, Box) and trial % 2:
                    # v = x equals a bound in value, not in sign bit
                    outcomes["zero ties"] += any(
                        np.any((x == b) & (np.signbit(x) != np.signbit(b)))
                        for b in (set_x.lo, set_x.hi))
    assert min(outcomes.values()) >= 50, outcomes


# ----------------------------------------------------------------------------
# full runs

def test_run_bit_deterministic():
    p = _quadratic_problem()
    cfg = SolverConfig(K=3, T=5, M=2, B=8, alpha_x=0.05, alpha_y=0.1,
                       beta=0.25, r=4.0, seed=123)
    t1 = run(p, cfg)
    t2 = run(p, cfg)
    assert t1.output_index == t2.output_index
    assert np.array_equal(t1.output_pair[0], t2.output_pair[0])
    assert np.array_equal(t1.output_pair[1], t2.output_pair[1])
    for r1, r2 in zip(t1.rows, t2.rows):
        assert np.array_equal(r1.x, r2.x)
        assert np.array_equal(r1.y, r2.y)
        assert r1.samples_used == r2.samples_used


def test_run_seed_changes_trajectory():
    p = _quadratic_problem()
    base = dict(K=2, T=6, M=2, B=8, alpha_x=0.05, alpha_y=0.1, beta=0.25,
                r=4.0)
    t1 = run(p, SolverConfig(seed=0, **base))
    t2 = run(p, SolverConfig(seed=1, **base))
    assert any(not np.array_equal(a.x, b.x) for a, b in zip(t1.rows, t2.rows))


def test_center_recursion_identity():
    p = _quadratic_problem()
    beta = 0.25
    cfg = SolverConfig(K=2, T=4, M=2, B=8, alpha_x=0.05, alpha_y=0.1,
                       beta=beta, r=4.0, seed=7)
    x0 = default_initial_point(p.set_x)
    trace = run(p, cfg)
    z = x0.copy()
    for row in trace.rows:  # stride 1: every step recorded
        z = z + beta * (row.x - z)
        np.testing.assert_allclose(row.z, z, rtol=0, atol=1e-15)


def test_xz_gap_uses_pre_update_center():
    p = _quadratic_problem()
    cfg = SolverConfig(K=1, T=4, M=2, B=8, alpha_x=0.05, alpha_y=0.1,
                       beta=0.25, r=4.0, seed=7)
    trace = run(p, cfg)
    x0 = default_initial_point(p.set_x)
    z_prev = x0.copy()
    for row in trace.rows:
        assert row.xz_gap == pytest.approx(
            float(np.linalg.norm(row.x - z_prev)), abs=1e-15)
        z_prev = row.z


def test_single_step_schedule_outputs_its_iterate():
    p = _quadratic_problem()
    cfg = SolverConfig(K=1, T=1, M=1, B=8, alpha_x=0.05, alpha_y=0.1,
                       beta=0.25, r=4.0, seed=3)
    trace = run(p, cfg)
    assert trace.output_index == (0, 0)
    assert np.array_equal(trace.output_pair[0], trace.rows[-1].x)
    assert np.array_equal(trace.output_pair[1], trace.rows[-1].y)


def test_output_pair_is_a_recorded_iterate():
    p = _quadratic_problem()
    cfg = SolverConfig(K=3, T=4, M=2, B=8, alpha_x=0.05, alpha_y=0.1,
                       beta=0.25, r=4.0, seed=11)
    trace = run(p, cfg)
    k, tau = trace.output_index
    row = trace.rows[k * cfg.T + tau]
    assert (row.k, row.tau) == (k, tau)
    assert np.array_equal(trace.output_pair[0], row.x)
    assert np.array_equal(trace.output_pair[1], row.y)
    assert np.array_equal(trace.output_z, row.z)


def test_iterates_stay_feasible():
    p = _quadratic_problem()
    cfg = SolverConfig(K=2, T=10, M=2, B=8, alpha_x=0.5, alpha_y=0.9,
                       beta=0.9, r=4.0, seed=5)
    trace = run(p, cfg)
    for row in trace.rows:
        assert p.set_x.contains(row.x)
        assert p.set_y.contains(row.y)


def test_sample_count_depends_only_on_schedule():
    # K anchors on all N components plus K(T-1) recursions of M draws,
    # minus nothing: the final step skips its estimator refresh but the
    # anchor for epoch k+1 is charged when the schedule continues
    for seed in (0, 1, 2):
        p = _quadratic_problem(seed=seed)
        cfg = SolverConfig(K=2, T=3, M=4, B=99, alpha_x=0.05, alpha_y=0.1,
                           beta=0.25, r=4.0, seed=seed)
        trace = run(p, cfg)
        n = p.regime.n
        assert trace.total_samples == 2 * n + 2 * (3 - 1) * 4


def test_trace_stride_keeps_final_row():
    p = _quadratic_problem()
    cfg = SolverConfig(K=2, T=5, M=2, B=8, alpha_x=0.05, alpha_y=0.1,
                       beta=0.25, r=4.0, seed=1, trace_stride=4)
    trace = run(p, cfg)
    recorded = [(r.k, r.tau) for r in trace.rows]
    assert recorded == [(0, 3), (1, 2), (1, 4)]  # steps 4, 8 and the final 10


def test_infeasible_start_projected_with_warning(caplog):
    p = _quadratic_problem()
    cfg = SolverConfig(K=1, T=2, M=2, B=8, alpha_x=0.05, alpha_y=0.1,
                       beta=0.25, r=4.0, seed=1)
    with caplog.at_level(logging.WARNING, logger="spidergda.solver"):
        run(p, cfg, x0=np.array([50.0, 50.0]))
    assert any("infeasible" in rec.message for rec in caplog.records)


def test_run_leaves_callers_start_arrays_unchanged():
    p = _quadratic_problem()
    cfg = SolverConfig(K=1, T=2, M=2, B=8, alpha_x=0.05, alpha_y=0.1,
                       beta=0.25, r=4.0, seed=1)
    x0 = np.array([1e6, -1e6])
    y0 = np.array([-1e6, 1e6])
    run(p, cfg, x0=x0, y0=y0)
    assert x0.tolist() == [1e6, -1e6]
    assert y0.tolist() == [-1e6, 1e6]


def test_infeasible_start_runs_as_its_projection():
    # z starts at the projected x0, so the run equals the run from the
    # projection bit for bit and every recorded z stays in the box
    p = make_quadratic_saddle(2, 2, n_samples=8, seed=1)
    cfg = SolverConfig(K=3, T=4, M=2, B=8, alpha_x=0.05, alpha_y=0.1,
                       beta=0.25, r=4.0, seed=1)
    x0 = np.array([1e6, -1e6])
    far = run(p, cfg, x0=x0)
    near = run(p, cfg, x0=p.set_x.project(x0))
    assert len(far.rows) == len(near.rows) == cfg.K * cfg.T
    for a, b in zip(far.rows, near.rows):
        for side in ("x", "y", "z"):
            assert getattr(a, side).tobytes() == getattr(b, side).tobytes()
        assert p.set_x.contains(a.z)
    for a, b in zip(far.output_pair + (far.output_z,),
                    near.output_pair + (near.output_z,)):
        assert a.tobytes() == b.tobytes()


def test_run_checks_start_points():
    p = _quadratic_problem()
    cfg = SolverConfig(K=1, T=2, M=2, B=8, alpha_x=0.05, alpha_y=0.1,
                       beta=0.25, r=4.0, seed=1)
    with pytest.raises(DimError):
        run(p, cfg, x0=np.zeros(3))
    with pytest.raises(DimError):
        run(p, cfg, y0=np.array([0.0, np.nan]))


# ----------------------------------------------------------------------------
# one oracle call per refresh, ids from tables

_GUARD_SCHEDULE = dict(K=5, T=4, M=6, B=1, alpha_x=0.01, alpha_y=0.01,
                       beta=0.1, r=2.0, seed=3)


def test_run_makes_one_oracle_call_per_refresh(monkeypatch):
    p = make_quadratic_saddle(3, 2, n_samples=12, seed=4)
    rows = []
    inner = p.oracle.grads_batch

    def grads_batch(X, Y, ids):
        rows.append(len(ids))
        return inner(X, Y, ids)

    p.oracle.grads_batch = grads_batch
    generators = []
    real = np.random.Generator

    def counting_generator(bit_generator):
        generators.append(bit_generator)
        return real(bit_generator)

    monkeypatch.setattr(np.random, "Generator", counting_generator)
    cfg = SolverConfig(**_GUARD_SCHEDULE)
    run(p, cfg)
    N, K, T, M = 12, cfg.K, cfg.T, cfg.M
    # an anchor is N rows; a recursion is 2M rows, its new and previous point
    epoch = [2 * M] * (T - 1)
    assert rows == [N] + (epoch + [N]) * (K - 1) + epoch
    # the output step's generator only: a finite-sum anchor draws nothing,
    # and a recursion takes its ids from the bulk tables
    assert len(generators) == 1


def _online_problem():
    """f(x, y; xi) = (1 + token mod 7) * x * y, sampled online; the token
    scales the gradient, so a recursion's increment depends on its ids.
    `p.calls` records the ids of every `grads_batch` call."""
    calls = []

    def grads_batch(X, Y, ids):
        calls.append(ids.copy())
        scale = (1 + ids % 7)[:, None]
        return scale * Y, scale * X

    oracle = StochasticOracle(
        regime=Online(), grads_batch=grads_batch,
        values_batch=lambda X, Y, ids: (1 + ids % 7) * X[:, 0] * Y[:, 0])
    # boxes off the origin, which is stationary
    p = ProblemInstance(oracle=oracle, set_x=Box([0.5], [2.0]),
                        set_y=Box([0.5], [2.0]),
                        constants=SmoothnessMeta(L_x=0, L_y=7, rho=0, ell=28))
    p.calls = calls
    return p


def _finite_sum_problem():
    """`make_quadratic_saddle` with N = 12 whose `p.calls` records the ids
    of every `grads_batch` call."""
    p = make_quadratic_saddle(3, 2, n_samples=12, seed=4)
    p.calls, inner = [], p.oracle.grads_batch

    def grads_batch(X, Y, ids):
        p.calls.append(ids.copy())
        return inner(X, Y, ids)

    p.oracle.grads_batch = grads_batch
    return p


def test_recursion_ids_equal_a_keyed_generator_per_step():
    # the bulk id tables give recursion (k, tau) the ids its own keyed
    # generator draws; online, the ids are 63-bit tokens (the tables'
    # 64-bit branch) and epoch k's anchor draws its B ids on key (k, 0)
    cfg = SolverConfig(**_GUARD_SCHEDULE)
    for p, high in ((_finite_sum_problem(), 12), (_online_problem(), 2 ** 63)):
        run(p, cfg)
        assert len(p.calls) == cfg.K * cfg.T  # first anchor + K*T - 1 refreshes
        for j, ids in enumerate(p.calls):
            k, tau = divmod(j, cfg.T)
            if tau:  # a recursion: its M ids at the new, then the old point
                want = batch_rng(cfg.seed, k, tau).integers(0, high, size=cfg.M)
                assert ids.tolist() == want.tolist() * 2
            elif isinstance(p.regime, Online):
                want = batch_rng(cfg.seed, k, 0).integers(0, high, size=cfg.B)
                assert ids.tolist() == want.tolist()
            else:
                assert ids.tolist() == list(range(high))


def test_online_anchor_per_epoch_end_to_end():
    # epoch k's anchor draws B tokens on key (k, 0), the first step ascends
    # along the mean of all B rows, and the run counts B draws per anchor
    cfg = SolverConfig(**dict(_GUARD_SCHEDULE, B=3))
    p = _online_problem()
    trace = run(p, cfg)
    anchors = [ids for j, ids in enumerate(p.calls) if j % cfg.T == 0]
    assert len(anchors) == cfg.K
    for k, ids in enumerate(anchors):
        want = batch_rng(cfg.seed, k, 0).integers(0, 2 ** 63, size=cfg.B)
        assert ids.tolist() == want.tolist()
    x0, y0 = default_initial_point(p.set_x), default_initial_point(p.set_y)
    gy = (1 + anchors[0] % 7)[:, None] * x0
    assert len(set((anchors[0] % 7).tolist())) > 1  # the rows differ
    want_y = p.set_y.project(y0 + cfg.alpha_y * gy.mean(axis=0))
    assert trace.rows[0].y.tobytes() == want_y.tobytes()
    assert trace.total_samples == (cfg.K * cfg.B
                                   + cfg.K * (cfg.T - 1) * cfg.M)


def test_step_rejects_non_finite_update_before_projecting():
    # projecting inf onto the simplex would fail inside the sort-based
    # threshold search; the check comes first
    p = _bilinear_problem(set_y=Simplex(1))
    cfg = SolverConfig(K=1, T=2, M=1, B=1, alpha_x=0.125, alpha_y=0.25,
                       beta=0.5, r=1.0, seed=0)
    G = (np.zeros(1), np.array([np.inf]))
    with pytest.raises(NonFiniteError):
        step(p, cfg, np.zeros(1), np.ones(1), np.zeros(1), G)


def test_step_rejects_a_non_finite_center():
    # the raw x update 0 - (-1.79e308 + 0.5 * 1e308) = 1.29e308 is finite,
    # but z+ = z + (x+ - z) overflows in x+ - z = 2.29e308
    p = _bilinear_problem(set_x=FullSpace(1))
    cfg = SolverConfig(K=1, T=2, M=1, B=1, alpha_x=1.0, alpha_y=0.25,
                       beta=1.0, r=0.5, seed=0)
    x, z, G = np.zeros(1), np.array([-1e308]), (np.array([-1.79e308]), np.zeros(1))
    assert np.isfinite(x - cfg.alpha_x * (G[0] + cfg.r * (x - z))).all()
    with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
        step(p, cfg, x, np.zeros(1), z, G)


def _exploding_run(sink=None):
    """A run on unconstrained x with an exploding gradient: the estimator
    feedback doubles the iterate until it overflows to inf."""
    oracle = StochasticOracle(
        regime=FiniteSum(1),
        grads_batch=lambda X, Y, ids: (-X * 1e200, np.zeros((len(ids), 1))),
        values_batch=lambda X, Y, ids: np.zeros(len(ids)))
    p = ProblemInstance(oracle=oracle, set_x=FullSpace(1),
                        set_y=Box([-1.0], [1.0]),
                        constants=SmoothnessMeta(L_x=0, L_y=0, rho=0, ell=1))
    cfg = SolverConfig(K=1, T=50, M=1, B=1, alpha_x=1.0, alpha_y=0.1,
                       beta=0.5, r=1.0, seed=0)
    with pytest.raises(NonFiniteError) as exc, np.errstate(over="ignore"):
        run(p, cfg, x0=np.array([1.0]), sink=sink)
    return exc.value.trace


def test_non_finite_iterate_raises_with_partial_trace():
    trace = _exploding_run()
    assert trace is not None
    assert len(trace.rows) >= 1
    assert (trace.output_pair, trace.output_index, trace.output_z) == (None, None, None)
    # every step before the failing one is a row of the stride-1 run, and
    # each made one refresh: count - 1 refreshes for failing step `count`
    count = len(trace.rows) + 1
    assert trace.total_samples == samples_drawn(FiniteSum(1), 50, 1, 1, count - 1)


def test_sink_receives_each_recorded_row_in_order():
    p = _quadratic_problem()
    cfg = SolverConfig(K=3, T=4, M=2, B=8, alpha_x=0.05, alpha_y=0.1,
                       beta=0.25, r=4.0, seed=1, trace_stride=3)
    got = []
    trace = run(p, cfg, sink=got.append)
    assert len(got) == len(trace.rows) == 4
    assert all(a is b for a, b in zip(got, trace.rows))
    # a failed run's sink has seen exactly the partial trace's rows
    got.clear()
    trace = _exploding_run(sink=got.append)
    assert len(got) == len(trace.rows) >= 1
    assert all(a is b for a, b in zip(got, trace.rows))


# ----------------------------------------------------------------------------
# seeds on a leading axis

# a primal and a dual set per set kind (full space is primal only)
_SET_PAIRS = {
    "box": (Box(-2 * np.ones(3), 2 * np.ones(3)), Box(-np.ones(2), np.ones(2))),
    "ball": (Ball([0.3, -0.2, 0.1], 0.5), Ball(np.zeros(2), 0.3)),
    "simplex": (Simplex(3), Simplex(4)),
    "fullspace": (FullSpace(3), Box(-np.ones(2), np.ones(2))),
}
_REGIMES = {"finite_sum": FiniteSum(1000), "online": Online()}
_SEEDS_SCHEDULE = dict(K=4, T=5, M=3, B=6, alpha_x=0.05, alpha_y=0.1, beta=0.25,
                       r=4.0, trace_stride=2)


def _seeded_problem(set_x, set_y, regime):
    """A strongly convex-concave quadratic on the given sets whose sample
    (an id, or a token mod 1000 online) picks its linear terms; rows are
    stacked matmuls, so a row does not depend on the rows it is batched
    with."""
    rng = np.random.default_rng(8)
    dx, dy = set_x.dim, set_y.dim
    Q = rng.normal(size=(dx, dx))
    Q = Q @ Q.T + 3.0 * np.eye(dx)
    C = 0.3 * rng.normal(size=(dx, dy))
    a, b = rng.normal(size=(1000, dx)) + 0.5, rng.normal(size=(1000, dy)) - 0.5

    def grads_batch(X, Y, ids):
        i = ids % 1000
        return ((Q @ X[:, :, None])[:, :, 0] + (C @ Y[:, :, None])[:, :, 0] + a[i],
                (C.T @ X[:, :, None])[:, :, 0] - Y + b[i])

    oracle = StochasticOracle(regime=regime, grads_batch=grads_batch,
                              values_batch=lambda X, Y, ids: np.zeros(len(ids)))
    return ProblemInstance(oracle=oracle, set_x=set_x, set_y=set_y,
                           constants=SmoothnessMeta(L_x=9, L_y=1, rho=0, ell=20))


@pytest.mark.parametrize("regime", sorted(_REGIMES))
@pytest.mark.parametrize("kind", sorted(_SET_PAIRS))
def test_seeds_in_one_loop_equal_their_own_runs(kind, regime, trace_bits):
    p = _seeded_problem(*_SET_PAIRS[kind], _REGIMES[regime])
    cfg = SolverConfig(**_SEEDS_SCHEDULE)
    seeds = [0, 5, 2 ** 64 - 1]
    got = run(p, cfg, seeds=seeds)
    want = [run(p, dataclasses.replace(cfg, seed=s)) for s in seeds]
    assert [trace_bits(t) for t in got] == [trace_bits(t) for t in want]
    assert [trace_bits(t) for t in run(p, cfg, seeds=[5])] == [trace_bits(want[1])]
    # every trace records its seed, as a Python int
    assert [(t.seed, type(t.seed)) for t in got + want] == [(s, int) for s in seeds * 2]
    assert [(t.seed, type(t.seed)) for t in run(p, cfg, seeds=[np.uint64(5)])] == [(5, int)]


@pytest.mark.parametrize("regime", sorted(_REGIMES))
@pytest.mark.parametrize("kind", sorted(_SET_PAIRS))
def test_a_failing_seed_leaves_the_batch_with_its_partial_trace(kind, regime,
                                                                trace_bits):
    # seed 5's recursion (1, 1) draws a sample whose gradient rows are NaN
    # (outside the finite-sum anchors, which take every id), so its estimate
    # goes NaN after step 5 and its step 6 fails; seeds 0 and 9 never draw
    # that sample
    p = _seeded_problem(*_SET_PAIRS[kind], _REGIMES[regime])
    cfg = SolverConfig(**dict(_SEEDS_SCHEDULE, trace_stride=1))
    high = p.oracle.id_high
    poison = batch_rng(5, 1, 1).integers(0, high, size=cfg.M)[0]
    for seed in (0, 9):
        assert not any(poison in batch_rng(seed, k, tau).integers(0, high, size=cfg.M)
                       for k in range(cfg.K) for tau in range(1, cfg.T))
    inner = p.oracle.grads_batch

    def grads_batch(X, Y, ids):
        gx, gy = inner(X, Y, ids)
        if len(ids) % 1000:
            gx[ids == poison] = np.nan
        return gx, gy

    p.oracle.grads_batch = grads_batch
    with np.errstate(invalid="ignore"):
        got = run(p, cfg, seeds=[0, 5, 9])
        with pytest.raises(NonFiniteError) as exc:
            run(p, dataclasses.replace(cfg, seed=5))
        want = [run(p, dataclasses.replace(cfg, seed=s)) for s in (0, 9)]
    assert isinstance(got[1], NonFiniteError) and str(got[1]) == str(exc.value)
    assert len(exc.value.trace.rows) == cfg.T + 1
    assert trace_bits(got[1].trace) == trace_bits(exc.value.trace)
    assert [trace_bits(got[i]) for i in (0, 2)] == [trace_bits(t) for t in want]
    # complete and partial traces record their seeds
    assert [got[0].seed, got[1].trace.seed, got[2].seed, exc.value.trace.seed] == [0, 5, 9, 5]


@pytest.mark.parametrize("seeds", [[0, -1], [0, 2 ** 64], [0, 2.0], [0, True], [0, "3"], []])
def test_run_seeds_must_be_a_nonempty_list_of_seeds(seeds):
    p = _quadratic_problem()
    with pytest.raises(ValueError, match="seeds must be a nonempty sequence of integers"):
        run(p, SolverConfig(**_VALID), seeds=seeds)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(K=0, T=1, M=1, B=1, alpha_x=0.1, alpha_y=0.1, beta=0.5,
                     r=1.0)
    with pytest.raises(ValueError):
        SolverConfig(K=1, T=1, M=1, B=1, alpha_x=0.1, alpha_y=0.1, beta=0.0,
                     r=1.0)
    with pytest.raises(ValueError):
        SolverConfig(K=1, T=1, M=1, B=1, alpha_x=0.1, alpha_y=0.1, beta=1.5,
                     r=1.0)
    with pytest.raises(ValueError):
        SolverConfig(K=1, T=1, M=1, B=1, alpha_x=-0.1, alpha_y=0.1, beta=0.5,
                     r=1.0)


_VALID = dict(K=2, T=3, M=1, B=1, alpha_x=0.1, alpha_y=0.1, beta=0.5, r=1.0)


@pytest.mark.parametrize("name", ["K", "T", "M", "B", "trace_stride"])
@pytest.mark.parametrize("bad", [2.5, 3.0, True, 0, np.int64(-1)])
def test_config_counts_must_be_positive_integers(name, bad):
    # K = 2.5 used to pass here and fail inside run with a TypeError
    with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
        SolverConfig(**dict(_VALID, **{name: bad}))


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", None, -1, 2 ** 64])
def test_config_seed_must_be_an_integer(bad):
    # seed = 2.5 used to pass here and fail inside run's batch_rng with a
    # TypeError; True passed as the seed 1
    with pytest.raises(ValueError, match="seed must be an integer"):
        SolverConfig(**dict(_VALID, seed=bad))


@pytest.mark.parametrize("name", ["alpha_x", "alpha_y", "r"])
@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
def test_config_steps_and_r_must_be_positive_and_finite(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        SolverConfig(**dict(_VALID, **{name: bad}))


@pytest.mark.parametrize("kind", [np.int32, np.uint64])
def test_config_stores_numpy_counts_as_int(kind):
    # a uint64 M used to wrap in the id tables' block count; the seed, here
    # np.uint64(3) among others, is stored as int like the counts
    p = _quadratic_problem()
    counts = dict(K=3, T=3, M=2, trace_stride=2, seed=3)
    cfg = SolverConfig(**dict(_VALID, **{k: kind(v) for k, v in counts.items()}))
    assert all(type(getattr(cfg, k)) is int for k in counts)
    want = run(p, SolverConfig(**dict(_VALID, **counts)))
    got = run(p, cfg)
    assert [r.x.tobytes() for r in got.rows] == [r.x.tobytes() for r in want.rows]


def test_config_rejects_schedules_that_alias_batch_streams():
    # batch_rng keys the epoch with 31 bits and the inner step with 32, so
    # K = 2**31 epochs and T = 2**32 steps are the longest distinct streams
    base = dict(K=1, T=1, M=1, B=1, alpha_x=0.1, alpha_y=0.1, beta=0.5, r=1.0)
    SolverConfig(**dict(base, K=2 ** 31))
    SolverConfig(**dict(base, T=2 ** 32))
    with pytest.raises(OverflowError, match=r"K=2147483649.*2\*\*31"):
        SolverConfig(**dict(base, K=2 ** 31 + 1))
    with pytest.raises(OverflowError, match=r"T=4294967297.*2\*\*32"):
        SolverConfig(**dict(base, T=2 ** 32 + 1))
