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


def _zero_rows(regime, **rows):
    """An oracle whose values and gradients are all zero, but for the row
    functions that `rows` replaces."""
    rows = {"grads_batch": lambda X, Y, ids: (np.zeros(X.shape), np.zeros(Y.shape)),
            "values_batch": lambda X, Y, ids: np.zeros(len(ids)), **rows}
    return StochasticOracle(regime=regime, **rows)


def _const_grad_problem():
    """Two components with grad_x (1,0) and (3,0): mean must be (2,0)."""
    grads = np.array([[1.0, 0.0], [3.0, 0.0]])
    oracle = StochasticOracle(
        regime=FiniteSum(2),
        grads_batch=lambda X, Y, ids: (grads[ids], np.zeros((len(ids), 1))),
        values_batch=lambda X, Y, ids: np.sum(grads[ids] * X, axis=1))
    return ProblemInstance(oracle=oracle, set_x=Box([-5.0, -5.0], [5.0, 5.0]),
                           set_y=Box([-1.0], [1.0]),
                           constants=SmoothnessMeta(L_x=0, L_y=0, rho=0, ell=4))


def test_full_grad_x_two_component_mean():
    p = _const_grad_problem()
    g = full_grad_x(p, np.zeros(2), np.zeros(1))
    assert np.array_equal(g, np.array([2.0, 0.0]))


def test_full_grad_quadratic_centers_cancel():
    # f_i = 0.5||x - a_i||^2 with a = (0), (2): exact gradient at x=1 is 0
    a = np.array([[0.0], [2.0]])
    oracle = StochasticOracle(
        regime=FiniteSum(2),
        grads_batch=lambda X, Y, ids: (X - a[ids], np.zeros((len(ids), 1))),
        values_batch=lambda X, Y, ids: 0.5 * (X - a[ids])[:, 0] ** 2)
    p = ProblemInstance(oracle=oracle, set_x=Box([-5.0], [5.0]),
                        set_y=Box([-1.0], [1.0]),
                        constants=SmoothnessMeta(L_x=1, L_y=0, rho=0, ell=10))
    assert np.array_equal(full_grad_x(p, np.array([1.0]), np.zeros(1)),
                          np.array([0.0]))
    assert full_value(p, np.array([1.0]), np.zeros(1)) == pytest.approx(0.5)


def test_full_grad_y_bilinear_mean():
    # f_i(x, y) = c_i * x * y with c = (1, 3): grad_y F at x=1 is mean(c)=2
    c = np.array([[1.0], [3.0]])
    oracle = StochasticOracle(
        regime=FiniteSum(2),
        grads_batch=lambda X, Y, ids: (c[ids] * Y, c[ids] * X),
        values_batch=lambda X, Y, ids: (c[ids] * X * Y)[:, 0])
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
        regime=FiniteSum(n),
        grads_batch=lambda X, Y, ids: (A[ids], np.zeros((len(ids), 1))),
        values_batch=lambda X, Y, ids: np.sum(A[ids] * X, axis=1))
    p = ProblemInstance(oracle=oracle,
                        set_x=Box(-5 * np.ones(d), 5 * np.ones(d)),
                        set_y=Box([-1.0], [1.0]),
                        constants=SmoothnessMeta(L_x=0, L_y=0, rho=0, ell=50))
    x, y = rng.normal(size=d), np.zeros(1)
    g1 = full_grad_x(p, x, y)
    g2 = full_grad_x(p, x, y)
    assert np.array_equal(g1, g2)  # bit-identical, not just close


def test_full_grad_online_regime_rejected():
    p = ProblemInstance(oracle=_zero_rows(Online()), set_x=Box([-1.0], [1.0]),
                        set_y=Box([-1.0], [1.0]),
                        constants=SmoothnessMeta(L_x=1, L_y=1, rho=0, ell=1))
    with pytest.raises(RegimeError):
        full_grad_x(p, np.zeros(1), np.zeros(1))
    with pytest.raises(RegimeError):
        full_value(p, np.zeros(1), np.zeros(1))


def test_default_draw_ranges():
    ids = _zero_rows(FiniteSum(7)).draw(np.random.default_rng(0), 500)
    assert ids.min() >= 0 and ids.max() < 7
    onl = _zero_rows(Online())
    tokens = onl.draw(np.random.default_rng(0), 100)
    assert tokens.min() >= 0
    assert len(np.unique(tokens)) == 100  # fresh draws, collisions unlikely


def test_batch_grads_matches_scalar_oracle():
    # the scalar form of a rows oracle is its one-row call; each row of a
    # many-row call equals it, and the values come through `batch_values`
    rng = np.random.default_rng(1)
    n = 6
    A = rng.normal(size=(n, 3))
    oracle = StochasticOracle(
        regime=FiniteSum(n),
        grads_batch=lambda X, Y, ids: (A[ids] * Y[:, :1], np.stack(
            [A[ids, 0] * X[:, 0], np.ones(len(ids))], axis=1)),
        values_batch=lambda X, Y, ids: A[ids, 0] * X[:, 0] * Y[:, 0] + Y[:, 1])
    # one point per row
    X, Y = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
    ids = np.array([0, 3, 3, 5])
    gx, gy = oracle.batch_grads(X, Y, ids)
    values = oracle.batch_values(X, Y, ids)
    for row, i in enumerate(ids):
        one = X[row:row + 1], Y[row:row + 1], ids[row:row + 1]
        gx1, gy1 = oracle.batch_grads(*one)
        assert gx[row].tobytes() == gx1[0].tobytes()
        assert gy[row].tobytes() == gy1[0].tobytes()
        assert values[row] == oracle.batch_values(*one)[0]
    assert gy[:, 1].tolist() == [1.0] * 4
    assert values.dtype == np.float64


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
        regime=FiniteSum(n),
        grads_batch=lambda X, Y, ids: (
            A[ids] * Y, (A[ids][:, None, :] @ X[:, :, None])[:, 0]),
        values_batch=lambda X, Y, ids: (A[ids][:, None, :] @ X[:, :, None])[:, 0, 0])
    p = ProblemInstance(oracle=oracle,
                        set_x=Box(-5 * np.ones(d), 5 * np.ones(d)),
                        set_y=Box([-2.0], [2.0]),
                        constants=SmoothnessMeta(L_x=0, L_y=0, rho=0, ell=50))
    x, y = rng.normal(size=d), np.array([1.5])
    want_x = _loop_sum([A[i] * y for i in range(n)], d) / n
    want_y = _loop_sum([np.array([A[i] @ x]) for i in range(n)], 1) / n
    assert full_grad_x(p, x, y).tobytes() == want_x.tobytes()
    assert full_grad_y(p, x, y).tobytes() == want_y.tobytes()


def test_full_value_equals_ascending_loop_bitwise():
    # mixed magnitudes make the summation order visible in the last bit;
    # the loop adds the one-row values from 0.0 in ascending id order
    rng = np.random.default_rng(4)
    p = make_quadratic_saddle(4, 3, n_samples=16, seed=5, linear_scale=1e6)
    n = p.regime.n
    for _ in range(20):
        x, y = rng.normal(size=4) * 1e3, rng.normal(size=3) * 1e-3
        acc = 0.0
        for i in range(n):
            acc = acc + float(p.oracle.batch_values(x[None], y[None], [i])[0])
        assert full_value(p, x, y) == acc / n
        assert type(full_value(p, x, y)) is float


def _wrong_dim_problem(**oracle_kw):
    return ProblemInstance(oracle=_zero_rows(FiniteSum(3), **oracle_kw),
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


def test_full_value_rejects_wrong_values_shape():
    # a (rows, 1) column or a scalar would broadcast silently in a sum
    for bad in (lambda x, y, ids: np.zeros((len(ids), 1)), lambda x, y, ids: 0.0):
        p = _wrong_dim_problem(values_batch=bad)
        with pytest.raises(DimError, match=r"values_batch: expected shape \(3,\)"):
            full_value(p, np.zeros(2), np.zeros(1))
    with pytest.raises(DimError):
        full_value(_wrong_dim_problem(), np.zeros(3), np.zeros(1))


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


@pytest.mark.parametrize("budget", [2 ** 12, core._ROW_BUDGET, 40, 1])
def test_rows_of_exact_gradients_equal_full_grads_per_point(monkeypatch, budget):
    # at the default budget and a larger one a call takes all 5 points, at
    # budget 40 2 of the 16-sample points, at budget 1 one
    monkeypatch.setattr(core, "_ROW_BUDGET", budget)
    p = make_quadratic_saddle(4, 3, n_samples=16, seed=5)
    rng = np.random.default_rng(7)
    X, Y = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
    calls = _counting(p)
    GX, GY = core._exact_means(p, X, Y, p.oracle.batch_grads)
    assert len(calls) == -(-5 // max(1, budget // 16))
    assert max(map(len, calls)) <= max(16, budget)
    # each call repeats its points over the ids 0..15 in order
    assert all(c.tolist() == list(range(16)) * (len(c) // 16) for c in calls)
    for s in range(5):
        gx, gy = full_grads(p, X[s], Y[s])
        assert GX[s].tobytes() == gx.tobytes()
        assert GY[s].tobytes() == gy.tobytes()


@pytest.mark.parametrize("budget", [core._ROW_BUDGET, 40, 1])
def test_rows_of_exact_values_equal_full_value_per_point(monkeypatch, budget):
    monkeypatch.setattr(core, "_ROW_BUDGET", budget)
    p = make_quadratic_saddle(4, 3, n_samples=16, seed=5)
    rng = np.random.default_rng(8)
    X, Y = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
    values = core._exact_values(p, X, Y)
    assert values.tolist() == [full_value(p, x, y) for x, y in zip(X, Y)]


def test_rows_of_exact_gradients_reject_online_regime():
    p = make_quadratic_saddle(2, 2, n_samples=6, seed=1)
    online = replace(p, oracle=replace(p.oracle, regime=Online()))
    X, Y = np.zeros((3, 2)), np.zeros((3, 2))
    for rows_of in (online.oracle.batch_grads, online.oracle.batch_values):
        with pytest.raises(RegimeError, match="see mc_gs_residuals"):
            core._exact_means(online, X, Y, rows_of)


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
    with pytest.raises(ValueError):
        ProblemInstance(oracle=_zero_rows(FiniteSum(1)), set_x=Box([-1.0], [1.0]),
                        set_y=FullSpace(1),
                        constants=SmoothnessMeta(L_x=0, L_y=0, rho=0, ell=0))


def test_problem_rejects_zero_dim_set():
    # the sets declare the dimensions, and a box of no coordinates builds
    unit, empty = Box([-1.0], [1.0]), Box([], [])
    assert empty.dim == 0
    for set_x, set_y in ((empty, unit), (unit, empty)):
        with pytest.raises(DimError, match="set dims must be >= 1"):
            ProblemInstance(oracle=_zero_rows(FiniteSum(1)), set_x=set_x, set_y=set_y,
                            constants=SmoothnessMeta(L_x=0, L_y=0, rho=0, ell=0))


def test_estimate_sigmas_zero_for_constant_components():
    p = _const_grad_problem()
    # per-sample grads sit 1 away from the population mean in the first
    # coordinate; the pilot uses the *sample* mean, so allow MC slack
    sx, sy = estimate_sigmas(p, np.zeros(2), np.zeros(1), np.random.default_rng(0))
    assert sx == pytest.approx(1.0, abs=0.05)
    assert sy == 0.0


def test_estimate_sigmas_checks_its_point():
    p = make_quadratic_saddle(3, 2, n_samples=8, seed=1)
    x, y = np.zeros(3), np.zeros(2)
    # a list of the right dim is coerced like an array
    assert (estimate_sigmas(p, [0.0] * 3, [0.0] * 2, np.random.default_rng(5))
            == estimate_sigmas(p, x, y, np.random.default_rng(5)))
    for bad_x, bad_y in (([0.0] * 2, y), ([[0.0] * 3], y), (np.zeros(4), y),
                         (x, np.array([0.0, np.nan]))):
        with pytest.raises(DimError):
            estimate_sigmas(p, bad_x, bad_y, np.random.default_rng(5))
