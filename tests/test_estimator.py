"""Variance-reduced estimator tests.

Oracle strategy: exact full gradients (core) serve as the reference; the
conditional-unbiasedness check enumerates every possible single draw instead
of sampling, making the expectation identity exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spidergda.estimator as estimator_mod
from spidergda import (Box, FiniteSum, Online,
                       ProblemInstance, RegimeError, SmoothnessMeta,
                       StochasticOracle, anchor, batch_ids,
                       batch_rng, estimator_mse, full_grad_x, full_grad_y,
                       recurse)


def _quadratic_problem(n=6, d=3, seed=0):
    """Per-sample f_i = 0.5 x'Q_i x + x'B_i y with random symmetric Q_i."""
    rng = np.random.default_rng(seed)
    Q = rng.normal(size=(n, d, d))
    Q = 0.5 * (Q + np.swapaxes(Q, 1, 2))
    Bm = rng.normal(size=(n, d, d))
    # stacked matmuls against a column per row: a row does not depend on
    # the rows it is batched with
    oracle = StochasticOracle(
        regime=FiniteSum(n), dim_x=d, dim_y=d,
        grads_batch=lambda X, Y, ids: (
            (Q[ids] @ X[:, :, None] + Bm[ids] @ Y[:, :, None])[:, :, 0],
            (np.swapaxes(Bm[ids], 1, 2) @ X[:, :, None])[:, :, 0]),
        values_batch=lambda X, Y, ids: (
            (0.5 * X[:, None, :]) @ Q[ids] @ X[:, :, None]
            + X[:, None, :] @ Bm[ids] @ Y[:, :, None])[:, 0, 0])
    L = float(max(np.linalg.norm(Q[i], 2) for i in range(n)))
    Lb = float(max(np.linalg.norm(Bm[i], 2) for i in range(n)))
    return ProblemInstance(
        oracle=oracle, set_x=Box(-9 * np.ones(d), 9 * np.ones(d)),
        set_y=Box(-9 * np.ones(d), 9 * np.ones(d)),
        constants=SmoothnessMeta(L_x=L, L_y=Lb, rho=L, ell=100.0))


# ----------------------------------------------------------------------------
# batch_rng

def test_batch_rng_reproducible_and_keyed():
    a = batch_rng(42, 3, 7).integers(0, 1 << 30, size=8)
    b = batch_rng(42, 3, 7).integers(0, 1 << 30, size=8)
    assert np.array_equal(a, b)
    for other in (batch_rng(42, 3, 8), batch_rng(42, 4, 7),
                  batch_rng(43, 3, 7), batch_rng(42, 3, 7, purpose=1)):
        assert not np.array_equal(a, other.integers(0, 1 << 30, size=8))


# ----------------------------------------------------------------------------
# batch_ids

# n = 1 draws nothing; powers of two and other n take numpy's 32-bit
# bounded draw; 3 * 2**30 + 1 rejects a quarter of its draws and 2**32 - 1
# almost none; 2**32 takes raw 32-bit words; 2**40 and the online range
# 2**63 take 64-bit words (2**63 never rejects)
_HIGHS = [1, 2, 16, 2 ** 31, 3, 200, 400, 10 ** 9, 3 * 2 ** 30 + 1,
          2 ** 32 - 1, 2 ** 32, 2 ** 40, 2 ** 63]


@settings(deadline=None, max_examples=150)
@given(st.one_of(st.sampled_from(_HIGHS), st.integers(1, 2 ** 32)),
       st.integers(0, 2 ** 64 - 1),
       st.lists(st.tuples(st.integers(0, 2 ** 31 - 1),
                          st.integers(0, 2 ** 32 - 1)), min_size=1, max_size=12),
       st.integers(1, 40))
def test_batch_ids_match_numpy_generator(high, seed, keys, count):
    epochs, taus = (np.array(v) for v in zip(*keys))
    ids = batch_ids(high, seed, epochs, taus, count)
    assert ids.dtype == np.int64 and ids.shape == (len(keys), count)
    for row, (k, tau) in zip(ids, keys):
        want = np.random.Generator(np.random.Philox(key=np.array(
            [seed, (k << 32) | tau], dtype=np.uint64)))
        assert row.tobytes() == want.integers(0, high, size=count).tobytes()


def test_batch_ids_fall_back_on_rejected_draws(monkeypatch):
    # with n = 3 * 2**30 + 1 numpy redraws a quarter of its 32-bit draws, so
    # most keys of 4 draws hit a rejection and take their own generator
    calls = []

    def counting_rng(*args):
        calls.append(args)
        return batch_rng(*args)

    monkeypatch.setattr(estimator_mod, "batch_rng", counting_rng)
    high = 3 * 2 ** 30 + 1
    ids = batch_ids(high, 7, 2, np.arange(64), 4)
    assert 0 < len(calls) < 64
    for tau, row in enumerate(ids):
        assert np.array_equal(row, batch_rng(7, 2, tau).integers(0, high, size=4))
    # the online range never rejects
    calls.clear()
    batch_ids(2 ** 63, 7, 2, np.arange(64), 4)
    assert calls == []
    # the bulk pass serves any count per key
    ids = batch_ids(16, 7, 2, np.arange(3), 1000)
    assert calls == []
    for tau, row in enumerate(ids):
        assert np.array_equal(row, batch_rng(7, 2, tau).integers(0, 16, size=1000))


# ----------------------------------------------------------------------------
# anchor

def test_finite_sum_anchor_is_exact_bitwise(suite_checks):
    assert suite_checks("estimator")[
        "finite-sum anchor equals the exact gradient (bitwise)"].ok


def test_online_anchor_uses_b_fresh_draws():
    seen = []

    def grads_batch(X, Y, ids):
        seen.extend(ids.tolist())
        return grads[ids % 4], np.zeros((len(ids), 1))

    grads = np.eye(4)
    oracle = StochasticOracle(
        regime=Online(), dim_x=4, dim_y=1, grads_batch=grads_batch,
        values_batch=lambda X, Y, ids: np.zeros(len(ids)))
    p = ProblemInstance(oracle=oracle,
                        set_x=Box(-np.ones(4), np.ones(4)),
                        set_y=Box([-1.0], [1.0]),
                        constants=SmoothnessMeta(L_x=0, L_y=0, rho=0, ell=1))
    G1 = anchor(p, np.zeros(4), np.zeros(1), B=64, rng=batch_rng(5, 2, 0))
    G2 = anchor(p, np.zeros(4), np.zeros(1), B=64, rng=batch_rng(5, 2, 0))
    # one oracle row per draw: B fresh 63-bit tokens from the keyed stream
    want = batch_rng(5, 2, 0).integers(0, 2 ** 63, size=64).tolist()
    assert seen == want + want
    assert np.array_equal(G1[0], G2[0])  # same keyed stream, same batch
    assert abs(float(G1[0].sum()) - 1.0) < 1e-12  # rows are unit vectors


# ----------------------------------------------------------------------------
# recursion

def test_zero_displacement_is_bit_exact_noop(suite_checks):
    assert suite_checks("estimator")[
        "zero-displacement recursion leaves estimates unchanged (bitwise)"].ok


def test_full_batch_recursion_telescopes_to_exact_gradient():
    # with draw = all component ids, the correction term is the exact
    # gradient difference, so the estimate tracks the exact gradient
    n, d = 5, 3
    p = _quadratic_problem(n=n, d=d, seed=2)
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=d), rng.normal(size=d)
    G = anchor(p, x, y, B=n, rng=batch_rng(0, 0, 0))
    for t in range(1, 11):
        x1 = x + 0.1 * rng.normal(size=d)
        y1 = y + 0.1 * rng.normal(size=d)
        G = recurse(p, G, (x, y), (x1, y1), np.tile(np.arange(n), (2, 1)))
        x, y = x1, y1
        np.testing.assert_allclose(G[0], full_grad_x(p, x, y),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(G[1], full_grad_y(p, x, y),
                                   rtol=0, atol=1e-12)


def test_single_draw_recursion_conditionally_unbiased():
    # enumerate all N possible M=1 draws: their average must equal
    # grad F(new) - grad F(prev) + G_old exactly
    n, d = 4, 2
    p = _quadratic_problem(n=n, d=d, seed=4)
    rng = np.random.default_rng(5)
    x0, y0 = rng.normal(size=d), rng.normal(size=d)
    G = anchor(p, x0, y0, B=n, rng=batch_rng(0, 0, 0))
    x1, y1 = x0 + 0.2 * rng.normal(size=d), y0 + 0.2 * rng.normal(size=d)

    outs_x, outs_y = [], []
    for forced in range(n):
        nxt = recurse(p, G, (x0, y0), (x1, y1), np.full((2, 1), forced))
        outs_x.append(nxt[0])
        outs_y.append(nxt[1])
    expect_x = full_grad_x(p, x1, y1) - full_grad_x(p, x0, y0) + G[0]
    expect_y = full_grad_y(p, x1, y1) - full_grad_y(p, x0, y0) + G[1]
    np.testing.assert_allclose(np.mean(outs_x, axis=0), expect_x,
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(np.mean(outs_y, axis=0), expect_y,
                               rtol=0, atol=1e-13)


def test_same_ids_feed_both_sides():
    # make grad_x and grad_y reveal the drawn id; a shared draw keeps them
    # consistent in every recursion
    n = 8
    oracle = StochasticOracle(
        regime=FiniteSum(n), dim_x=1, dim_y=1,
        grads_batch=lambda X, Y, ids: (ids[:, None] * X, ids[:, None] * Y),
        values_batch=lambda X, Y, ids: np.zeros(len(ids)))
    p = ProblemInstance(oracle=oracle, set_x=Box([-9.0], [9.0]),
                        set_y=Box([-9.0], [9.0]),
                        constants=SmoothnessMeta(L_x=8, L_y=8, rho=8, ell=99))
    one = (np.array([1.0]), np.array([1.0]))
    G = anchor(p, *one, B=n, rng=batch_rng(0, 0, 0))
    nxt = recurse(p, G, one, (np.array([2.0]), np.array([2.0])),
                  np.tile(p.oracle.draw(batch_rng(0, 0, 1), 5), (2, 1)))
    # grad difference per sample i is (i*1, i*1): increments must match
    assert float(nxt[0][0] - G[0][0]) == pytest.approx(float(nxt[1][0] - G[1][0]))


def test_recurse_rejects_bad_m():
    # the ids must be the 2 rows of a (2, M) array with M >= 1: no ids, the
    # M ids as a flat list (M even or odd, the old call shape), 2M ids flat,
    # and a third row are all refused
    p = _quadratic_problem()
    zero = (np.zeros(3), np.zeros(3))
    G = anchor(p, *zero, B=6, rng=batch_rng(0, 0, 0))
    for ids in (np.zeros((2, 0), dtype=np.int64), np.arange(4), np.arange(3),
                np.tile(np.arange(2), 2), np.zeros((3, 2), dtype=np.int64)):
        with pytest.raises(ValueError, match=r"\(2, M\) array"):
            recurse(p, G, zero, zero, ids)


# ----------------------------------------------------------------------------
# estimator_mse

def test_estimator_mse_zero_on_frozen_trajectory():
    p = _quadratic_problem()
    pt = (np.ones(3), np.ones(3))
    out = estimator_mse(p, [pt, pt, pt], M=2, trials=8,
                        rng=batch_rng(0, 0, 0, purpose=1))
    assert np.all(out.mse_x == 0.0)
    assert np.all(out.mse_y == 0.0)
    assert np.all(out.bound_x == 0.0)
    assert np.all(out.bound_y == 0.0)


def test_estimator_mse_online_rejected():
    oracle = StochasticOracle(
        regime=Online(), dim_x=1, dim_y=1,
        grads_batch=lambda X, Y, ids: (np.zeros((len(ids), 1)),
                                       np.zeros((len(ids), 1))),
        values_batch=lambda X, Y, ids: np.zeros(len(ids)))
    p = ProblemInstance(oracle=oracle, set_x=Box([-1.0], [1.0]),
                        set_y=Box([-1.0], [1.0]),
                        constants=SmoothnessMeta(L_x=0, L_y=0, rho=0, ell=1))
    with pytest.raises(RegimeError):
        estimator_mse(p, [(np.zeros(1), np.zeros(1))], M=1, trials=1,
                      rng=batch_rng(0, 0, 0))


def test_estimator_mse_bounds_hold_on_small_steps():
    p = _quadratic_problem(n=8, d=3, seed=6)
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=3), rng.normal(size=3)
    traj = [(x.copy(), y.copy())]
    for _ in range(6):
        x = x + 0.02 * rng.normal(size=3)
        y = y + 0.02 * rng.normal(size=3)
        traj.append((x.copy(), y.copy()))
    out = estimator_mse(p, traj, M=4, trials=400,
                        rng=batch_rng(1, 0, 0, purpose=1))
    assert np.all(out.mse_x <= out.bound_x + 3.0 * out.se_x + 1e-15)
    assert np.all(out.mse_y <= out.bound_y + 3.0 * out.se_y + 1e-15)
