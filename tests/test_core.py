"""Oracle-interface and exact-gradient tests for the core domain types."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spidergda import (Box, DimError, FiniteSum, Online, ProblemInstance,
                       RegimeError, SmoothnessMeta, StochasticOracle, anchor,
                       estimate_sigmas, full_grad_x, full_grad_y, full_grads,
                       full_value, gs_residuals, make_quadratic_saddle,
                       sequential_sum)
from spidergda import core


def _const_grad_problem():
    """Two components with grad_x (1,0) and (3,0): mean must be (2,0)."""
    grads = [np.array([1.0, 0.0]), np.array([3.0, 0.0])]
    oracle = StochasticOracle(
        regime=FiniteSum(2), dim_x=2, dim_y=1,
        eval_f=lambda x, y, i: float(grads[i] @ x),
        grad_x=lambda x, y, i: grads[i].copy(),
        grad_y=lambda x, y, i: np.zeros(1))
    return ProblemInstance(oracle=oracle, set_x=Box([-5.0, -5.0], [5.0, 5.0]),
                           set_y=Box([-1.0], [1.0]),
                           constants=SmoothnessMeta(L_x=0, L_y=0, rho=0, ell=4))


def test_full_grad_x_two_component_mean():
    p = _const_grad_problem()
    g = full_grad_x(p, np.zeros(2), np.zeros(1))
    assert np.array_equal(g, np.array([2.0, 0.0]))


def test_full_grad_quadratic_centers_cancel():
    # f_i = 0.5||x - a_i||^2 with a = (0), (2): exact gradient at x=1 is 0
    a = [np.array([0.0]), np.array([2.0])]
    oracle = StochasticOracle(
        regime=FiniteSum(2), dim_x=1, dim_y=1,
        eval_f=lambda x, y, i: 0.5 * float(np.sum((x - a[i]) ** 2)),
        grad_x=lambda x, y, i: x - a[i],
        grad_y=lambda x, y, i: np.zeros(1))
    p = ProblemInstance(oracle=oracle, set_x=Box([-5.0], [5.0]),
                        set_y=Box([-1.0], [1.0]),
                        constants=SmoothnessMeta(L_x=1, L_y=0, rho=0, ell=10))
    assert np.array_equal(full_grad_x(p, np.array([1.0]), np.zeros(1)),
                          np.array([0.0]))
    assert full_value(p, np.array([1.0]), np.zeros(1)) == pytest.approx(0.5)


def test_full_grad_y_bilinear_mean():
    # f_i(x, y) = c_i * x * y with c = (1, 3): grad_y F at x=1 is mean(c)=2
    c = [1.0, 3.0]
    oracle = StochasticOracle(
        regime=FiniteSum(2), dim_x=1, dim_y=1,
        eval_f=lambda x, y, i: c[i] * float(x[0] * y[0]),
        grad_x=lambda x, y, i: np.array([c[i] * y[0]]),
        grad_y=lambda x, y, i: np.array([c[i] * x[0]]))
    p = ProblemInstance(oracle=oracle, set_x=Box([-2.0], [2.0]),
                        set_y=Box([-2.0], [2.0]),
                        constants=SmoothnessMeta(L_x=0, L_y=3, rho=0, ell=12))
    g = full_grad_y(p, np.array([1.0]), np.array([0.0]))
    assert np.array_equal(g, np.array([2.0]))


def test_full_grad_bit_reproducible():
    rng = np.random.default_rng(0)
    n, d = 17, 4
    A = rng.normal(size=(n, d))
    oracle = StochasticOracle(
        regime=FiniteSum(n), dim_x=d, dim_y=1,
        eval_f=lambda x, y, i: float(A[i] @ x),
        grad_x=lambda x, y, i: A[i].copy(),
        grad_y=lambda x, y, i: np.zeros(1))
    p = ProblemInstance(oracle=oracle,
                        set_x=Box(-5 * np.ones(d), 5 * np.ones(d)),
                        set_y=Box([-1.0], [1.0]),
                        constants=SmoothnessMeta(L_x=0, L_y=0, rho=0, ell=50))
    x, y = rng.normal(size=d), np.zeros(1)
    g1 = full_grad_x(p, x, y)
    g2 = full_grad_x(p, x, y)
    assert np.array_equal(g1, g2)  # bit-identical, not just close


def test_full_grad_online_regime_rejected():
    oracle = StochasticOracle(
        regime=Online(), dim_x=1, dim_y=1,
        eval_f=lambda x, y, i: 0.0,
        grad_x=lambda x, y, i: np.zeros(1),
        grad_y=lambda x, y, i: np.zeros(1))
    p = ProblemInstance(oracle=oracle, set_x=Box([-1.0], [1.0]),
                        set_y=Box([-1.0], [1.0]),
                        constants=SmoothnessMeta(L_x=1, L_y=1, rho=0, ell=1))
    with pytest.raises(RegimeError):
        full_grad_x(p, np.zeros(1), np.zeros(1))
    with pytest.raises(RegimeError):
        full_value(p, np.zeros(1), np.zeros(1))


def test_default_draw_ranges():
    fs = StochasticOracle(
        regime=FiniteSum(7), dim_x=1, dim_y=1,
        eval_f=lambda x, y, i: 0.0,
        grad_x=lambda x, y, i: np.zeros(1),
        grad_y=lambda x, y, i: np.zeros(1))
    ids = fs.draw(np.random.default_rng(0), 500)
    assert ids.min() >= 0 and ids.max() < 7
    onl = StochasticOracle(
        regime=Online(), dim_x=1, dim_y=1,
        eval_f=lambda x, y, i: 0.0,
        grad_x=lambda x, y, i: np.zeros(1),
        grad_y=lambda x, y, i: np.zeros(1))
    tokens = onl.draw(np.random.default_rng(0), 100)
    assert tokens.min() >= 0
    assert len(np.unique(tokens)) == 100  # fresh draws, collisions unlikely


def test_batch_grads_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    n = 6
    A = rng.normal(size=(n, 3))
    oracle = StochasticOracle(
        regime=FiniteSum(n), dim_x=3, dim_y=2,
        eval_f=lambda x, y, i: 0.0,
        grad_x=lambda x, y, i: A[i] * y[0],
        grad_y=lambda x, y, i: np.array([A[i, 0] * x[0], 1.0]),
        grads_batch=lambda X, Y, ids: (A[ids] * Y[:, :1], np.stack(
            [A[ids, 0] * X[:, 0], np.ones(len(ids))], axis=1)))
    # one point per row
    X, Y = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
    ids = np.array([0, 3, 3, 5])
    gx, gy = oracle.batch_grads(X, Y, ids)
    for row, i in enumerate(ids):
        assert np.array_equal(gx[row], oracle.grad_x(X[row], Y[row], int(i)))
        assert np.array_equal(gy[row], oracle.grad_y(X[row], Y[row], int(i)))


def _loop_sum(rows, dim):
    acc = np.zeros(dim)
    for g in rows:
        acc = acc + g
    return acc


@settings(deadline=None)
@given(st.integers(1, 40), st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_sequential_sum_matches_loop_bitwise(n, dim, seed, with_zeros):
    rng = np.random.default_rng(seed)
    # mixed magnitudes make the summation order visible in the last bit
    rows = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-8, 9, size=(n, dim))
    if with_zeros:
        rows[rng.random(size=(n, dim)) < 0.3] = -0.0
        rows[:, 0] = -0.0  # an all -0.0 column: the loop gives +0.0
    got = sequential_sum(rows)
    assert got.tobytes() == _loop_sum(rows, dim).tobytes()


def test_sequential_sum_edge_columns():
    rows = np.array([[-0.0, -0.0, 1e16], [-0.0, 0.0, 1.0], [-0.0, -0.0, -1e16]])
    got = sequential_sum(rows)
    assert got.tobytes() == _loop_sum(rows, 3).tobytes()
    assert np.signbit(got).tolist() == [False, False, False]
    assert sequential_sum(np.zeros((0, 2))).tolist() == [0.0, 0.0]


def test_full_grad_equals_sequential_loop_bitwise():
    rng = np.random.default_rng(3)
    n, d = 33, 3
    A = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-6, 7, size=(n, d))
    oracle = StochasticOracle(
        regime=FiniteSum(n), dim_x=d, dim_y=1,
        eval_f=lambda x, y, i: 0.0,
        grad_x=lambda x, y, i: A[i] * y[0],
        grad_y=lambda x, y, i: np.array([A[i] @ x]))
    p = ProblemInstance(oracle=oracle,
                        set_x=Box(-5 * np.ones(d), 5 * np.ones(d)),
                        set_y=Box([-2.0], [2.0]),
                        constants=SmoothnessMeta(L_x=0, L_y=0, rho=0, ell=50))
    x, y = rng.normal(size=d), np.array([1.5])
    want_x = _loop_sum([oracle.grad_x(x, y, i) for i in range(n)], d) / n
    want_y = _loop_sum([oracle.grad_y(x, y, i) for i in range(n)], 1) / n
    assert full_grad_x(p, x, y).tobytes() == want_x.tobytes()
    assert full_grad_y(p, x, y).tobytes() == want_y.tobytes()


def _wrong_dim_problem(**oracle_kw):
    kw = dict(regime=FiniteSum(3), dim_x=2, dim_y=1,
              eval_f=lambda x, y, i: 0.0,
              grad_x=lambda x, y, i: np.zeros(2),
              grad_y=lambda x, y, i: np.zeros(1))
    kw.update(oracle_kw)
    return ProblemInstance(oracle=StochasticOracle(**kw),
                           set_x=Box([-1.0, -1.0], [1.0, 1.0]),
                           set_y=Box([-1.0], [1.0]),
                           constants=SmoothnessMeta(L_x=0, L_y=0, rho=0, ell=0))


def test_full_grad_rejects_wrong_batch_shape():
    p = _wrong_dim_problem(grads_batch=lambda x, y, ids: (
        np.zeros((len(ids), 3)), np.zeros((len(ids), 1))))
    with pytest.raises(DimError,
                       match=r"grads_batch x rows.*\(3, 2\).*\(3, 3\)"):
        full_grad_x(p, np.zeros(2), np.zeros(1))
    p = _wrong_dim_problem(grads_batch=lambda x, y, ids: (
        np.zeros((len(ids), 2)), np.zeros(len(ids))))
    with pytest.raises(DimError, match=r"grads_batch y rows.*\(3, 1\).*\(3,\)"):
        full_grad_y(p, np.zeros(2), np.zeros(1))


def test_full_grad_rejects_wrong_scalar_row():
    # a length-1 row would broadcast silently into a 2-wide batch row
    p = _wrong_dim_problem(
        grad_x=lambda x, y, i: np.zeros(1 if i == 2 else 2))
    with pytest.raises(DimError, match=r"grad_x\(id=2\).*\(1,\)"):
        full_grad_x(p, np.zeros(2), np.zeros(1))


# ----------------------------------------------------------------------------
# one fused pass per exact gradient

def _counting(problem):
    """Wrap the oracle's grads_batch so that every call logs its ids."""
    calls = []
    inner = problem.oracle.grads_batch

    def grads_batch(x, y, ids):
        calls.append(np.array(ids))
        return inner(x, y, ids)

    problem.oracle.grads_batch = grads_batch
    return calls


def test_full_grads_is_both_sides_bitwise():
    p = make_quadratic_saddle(4, 3, n_samples=16, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(20):
        x, y = rng.normal(size=4), rng.normal(size=3)
        gx, gy = full_grads(p, x, y)
        assert gx.tobytes() == full_grad_x(p, x, y).tobytes()
        assert gy.tobytes() == full_grad_y(p, x, y).tobytes()
    with pytest.raises(DimError):
        full_grads(p, np.zeros(3), np.zeros(3))


def test_exact_gradient_consumers_make_one_batch_call():
    p = make_quadratic_saddle(4, 3, n_samples=16, seed=5)
    calls = _counting(p)
    x, y = p.set_x.project(np.zeros(4)), p.set_y.project(np.zeros(3))
    G = anchor(p, x, y, B=16, rng=np.random.default_rng(0))
    assert len(calls) == 1 and calls[0].tolist() == list(range(16))
    assert np.array_equal(G[0], full_grads(p, x, y)[0])
    calls.clear()
    gs_residuals(p, x, y)
    assert len(calls) == 1
    calls.clear()
    full_grad_x(p, x, y)
    assert len(calls) == 1


def test_one_side_full_grad_calls_only_that_scalar_side():
    # without grads_batch, full_grad_x must not pay for grad_y (and back)
    calls = {"x": 0, "y": 0}
    w = np.arange(1.0, 6.0)

    def grad(side, value):
        def g(x, y, i):
            calls[side] += 1
            return np.array([value(x, y, i)])
        return g

    oracle = StochasticOracle(
        regime=FiniteSum(5), dim_x=1, dim_y=1,
        eval_f=lambda x, y, i: float(w[i] * x[0] * y[0]),
        grad_x=grad("x", lambda x, y, i: w[i] * y[0]),
        grad_y=grad("y", lambda x, y, i: w[i] * x[0]))
    p = ProblemInstance(oracle=oracle, set_x=Box([-1.0], [1.0]),
                        set_y=Box([-1.0], [1.0]),
                        constants=SmoothnessMeta(L_x=0, L_y=5, rho=0, ell=5))
    x, y = np.array([0.5]), np.array([-0.25])
    gx = full_grad_x(p, x, y)
    assert calls == {"x": 5, "y": 0}
    gy = full_grad_y(p, x, y)
    assert calls == {"x": 5, "y": 5}
    both = full_grads(p, x, y)
    assert gx.tobytes() == both[0].tobytes()
    assert gy.tobytes() == both[1].tobytes()


@pytest.mark.parametrize("budget", [core._ROW_BUDGET, 40, 1])
def test_rows_of_exact_gradients_equal_full_grads_per_point(monkeypatch, budget):
    # at budget 40 a call takes 2 of the 16-sample points, at budget 1 one
    monkeypatch.setattr(core, "_ROW_BUDGET", budget)
    p = make_quadratic_saddle(4, 3, n_samples=16, seed=5)
    rng = np.random.default_rng(7)
    X, Y = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
    calls = _counting(p)
    GX, GY = core._exact_grads(p, X, Y)
    assert len(calls) == -(-5 // max(1, budget // 16))
    assert max(map(len, calls)) <= max(16, budget)
    # each call repeats its points over the ids 0..15 in order
    assert all(c.tolist() == list(range(16)) * (len(c) // 16) for c in calls)
    for s in range(5):
        gx, gy = full_grads(p, X[s], Y[s])
        assert GX[s].tobytes() == gx.tobytes()
        assert GY[s].tobytes() == gy.tobytes()
        assert core._exact_grads(p, X, Y, "y")[s].tobytes() == gy.tobytes()


def test_rows_of_one_side_without_the_hook_call_that_side_alone():
    p = make_quadratic_saddle(2, 2, n_samples=6, seed=1)
    rng = np.random.default_rng(2)
    X, Y = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    want = [full_grad_x(p, x, y) for x, y in zip(X, Y)]
    grad_y = p.oracle.grad_y
    p.oracle.grads_batch = None
    p.oracle.grad_y = None  # calling it would raise
    GX = core._exact_grads(p, X, Y, "x")
    assert [g.tobytes() for g in GX] == [g.tobytes() for g in want]
    p.oracle.grad_y = grad_y
    with pytest.raises(RegimeError):
        core._exact_grads(replace(p, oracle=replace(p.oracle, regime=Online())),
                          X, Y)


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 16, 33, 200])
def test_row_norms_equal_linalg_norm_per_row(dim):
    rng = np.random.default_rng(dim)
    V = rng.normal(size=(300, dim)) * rng.choice([1e-150, 1e-3, 1.0, 1e5, 1e150],
                                                 size=(300, 1))
    V[0] = 0.0
    want = np.array([np.linalg.norm(v) for v in V])
    assert core._row_norms(V).tobytes() == want.tobytes()


def test_meta_validation():
    with pytest.raises(ValueError):
        SmoothnessMeta(L_x=-1, L_y=0, rho=0, ell=0)
    with pytest.raises(ValueError):
        SmoothnessMeta(L_x=0, L_y=0, rho=0, ell=0, mu=0.0)
    with pytest.raises(ValueError):
        SmoothnessMeta(L_x=0, L_y=0, rho=0, ell=0, theta=1.5)
    m = SmoothnessMeta(L_x=1, L_y=2, rho=0, ell=3, theta=0.5)
    m2 = replace(m, L_x=9.0)
    assert m2.L_x == 9.0 and m.L_x == 1.0


@pytest.mark.parametrize("name", ["L_x", "L_y", "rho", "ell", "sigma_x",
                                  "sigma_y"])
def test_meta_rejects_nan_constants(name):
    # NaN < 0 is false, so the check is written as "not v >= 0"
    base = dict(L_x=1.0, L_y=1.0, rho=0.0, ell=1.0)
    with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
        SmoothnessMeta(**dict(base, **{name: float("nan")}))


@pytest.mark.parametrize("name", ["L_x", "L_y", "rho", "ell", "sigma_x",
                                  "sigma_y"])
def test_meta_rejects_infinite_constants(name):
    # a constant that left the float64 range (say, from huge data) is named,
    # not passed on to fail as a division by zero in the tuner
    base = dict(L_x=1.0, L_y=1.0, rho=0.0, ell=1.0)
    with pytest.raises(OverflowError, match=f"{name} is inf"):
        SmoothnessMeta(**dict(base, **{name: float("inf")}))


def test_problem_fills_dual_diameter():
    p = _const_grad_problem()
    assert p.constants.D_Y == pytest.approx(2.0)  # Box [-1, 1]


def test_problem_rejects_unbounded_dual_set():
    from spidergda import FullSpace
    oracle = StochasticOracle(
        regime=FiniteSum(1), dim_x=1, dim_y=1,
        eval_f=lambda x, y, i: 0.0,
        grad_x=lambda x, y, i: np.zeros(1),
        grad_y=lambda x, y, i: np.zeros(1))
    with pytest.raises(ValueError):
        ProblemInstance(oracle=oracle, set_x=Box([-1.0], [1.0]),
                        set_y=FullSpace(1),
                        constants=SmoothnessMeta(L_x=0, L_y=0, rho=0, ell=0))


def test_problem_dim_mismatch():
    oracle = StochasticOracle(
        regime=FiniteSum(1), dim_x=2, dim_y=1,
        eval_f=lambda x, y, i: 0.0,
        grad_x=lambda x, y, i: np.zeros(2),
        grad_y=lambda x, y, i: np.zeros(1))
    with pytest.raises(DimError):
        ProblemInstance(oracle=oracle, set_x=Box([-1.0], [1.0]),
                        set_y=Box([-1.0], [1.0]),
                        constants=SmoothnessMeta(L_x=0, L_y=0, rho=0, ell=0))


def test_estimate_sigmas_zero_for_constant_components():
    p = _const_grad_problem()
    # per-sample grads sit 1 away from the population mean in the first
    # coordinate; the pilot uses the *sample* mean, so allow MC slack
    sx, sy = estimate_sigmas(p, np.zeros(2), np.zeros(1))
    assert sx == pytest.approx(1.0, abs=0.05)
    assert sy == 0.0
