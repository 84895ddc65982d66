"""Problem-builder tests.

Oracles: hand-computed values on tiny instances (one or two samples, d = 1,
dyadic numbers where possible), closed-form first-order conditions for the
quadratic saddle, least-squares fits per group for the two-group fixture,
and finite differences for every analytic gradient.
"""

import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spidergda import (DomainError, EmptyGroupError, GroupDroSpec,
                       PhiDivDroSpec, Simplex, SingularityError,
                       full_grad_x, full_grad_y, full_value,
                       kl_example_grad, kl_example_value,
                       load_dataset_csv, make_group_dro, make_kl_example,
                       make_phi_div_dro, make_quadratic_saddle,
                       make_two_group_regression, spec_from_csv, as_problem)
from spidergda.problems import _box_radius


def _assert_rows_are_one_row_calls(oracle, X, Y, ids):
    """Row r of a many-row `batch_grads` and `batch_values` call equals the
    one-row call at (X[r], Y[r], ids[r]) in its raw bytes, so a -0.0 /
    +0.0 mismatch fails too: the batch invariance that lets the exact
    gradient and the anchor be reduced from rows of calls of any shape."""
    gx, gy = oracle.batch_grads(X, Y, ids)
    values = oracle.batch_values(X, Y, ids)
    for row in range(len(ids)):
        one = X[row:row + 1], Y[row:row + 1], ids[row:row + 1]
        gx1, gy1 = oracle.batch_grads(*one)
        assert gx[row].tobytes() == gx1[0].tobytes()
        assert gy[row].tobytes() == gy1[0].tobytes()
        assert values[row].tobytes() == oracle.batch_values(*one)[0].tobytes()


# ----------------------------------------------------------------------------
# 1-D error-bound example

def test_kl_example_values():
    assert kl_example_value(0.0) == 2.0
    assert kl_example_value(1.0) == 1.0
    assert kl_example_value(-1.0) == 1.0
    assert kl_example_value(-2.0) == 2.0 * math.exp(-1.0) - 1.0
    assert kl_example_value(2.0) == 2.0 * math.exp(-1.0) - 1.0
    assert kl_example_grad(-2.0) == 0.7357588823428847  # 2 e^{-1}
    assert kl_example_grad(0.5) == -1.0


def test_kl_example_continuously_differentiable():
    for joint in (-1.0, 1.0):
        lo, hi = joint - 1e-9, joint + 1e-9
        assert kl_example_value(hi) == pytest.approx(kl_example_value(lo),
                                                     abs=1e-8)
        assert kl_example_grad(hi) == pytest.approx(kl_example_grad(lo),
                                                    abs=1e-8)


def test_kl_example_gradient_fd():
    for y in np.linspace(-1.9, 1.9, 37):  # grid avoids the +-1 kinks
        if min(abs(y - 1.0), abs(y + 1.0)) < 1e-3:
            continue
        fd = (kl_example_value(y + 1e-6) - kl_example_value(y - 1e-6)) / 2e-6
        assert fd == pytest.approx(kl_example_grad(y), abs=1e-8)


def test_kl_example_domain():
    with pytest.raises(DomainError):
        kl_example_value(2.0001)
    with pytest.raises(DomainError):
        kl_example_grad(-2.0001)


def test_kl_example_error_bound_on_grid(suite_checks):
    # dist(0, -g'(y) + N_{[-2,2]}(y)) >= (1/10) sqrt(2 - g(y)) everywhere
    assert suite_checks("kl-example")["error-bound margin >= 0 on the 4001-point grid"].ok


def test_make_kl_example_problem():
    p = make_kl_example()
    assert full_value(p, np.zeros(1), np.array([0.5])) == kl_example_value(0.5)
    assert full_grad_y(p, np.zeros(1), np.array([0.5]))[0] == -1.0
    # each row calls the scalar functions (their math.exp may differ from
    # np.exp in the last bit)
    Y = np.linspace(-2.0, 2.0, 41)[:, None]
    values = p.oracle.batch_values(np.zeros((41, 1)), Y, np.zeros(41, dtype=int))
    gx, gy = p.oracle.batch_grads(np.zeros((41, 1)), Y, np.zeros(41, dtype=int))
    assert values.tolist() == [kl_example_value(v) for v in Y[:, 0].tolist()]
    assert gy[:, 0].tolist() == [kl_example_grad(v) for v in Y[:, 0].tolist()]
    assert gx.tolist() == [[0.0]] * 41
    _assert_rows_are_one_row_calls(p.oracle, np.zeros((41, 1)), Y[::-1],
                                   np.zeros(41, dtype=int))
    assert p.constants.mu == 0.1
    assert p.constants.theta == 0.5
    assert p.constants.D_Y == 4.0


# ----------------------------------------------------------------------------
# group-DRO composite

def _tiny_spec():
    # two singleton groups in d = 1: losses at theta are (theta)^2 and
    # (2 theta - 2)^2
    return GroupDroSpec(groups=[(np.array([[1.0]]), np.array([0.0])),
                                (np.array([[2.0]]), np.array([2.0]))],
                        loss="squared")


def test_group_losses_by_hand(group_losses):
    losses = group_losses(_tiny_spec(), np.array([1.0]))
    assert losses.tolist() == [1.0, 0.0]
    losses = group_losses(_tiny_spec(), np.array([3.0]))
    assert losses.tolist() == [9.0, 16.0]


def test_group_dro_mean_is_weighted_group_loss(group_losses):
    # phi weights by N q_g / |G_g|, so the finite-sum mean of the *unsmoothed*
    # composite is exactly sum_g q_g loss_g; with the identity piece the
    # envelope is a rigid shift by lam/2, uniformly in (theta, q)
    spec = _tiny_spec()
    comp = make_group_dro(spec)
    lam = 0.25
    p = as_problem(comp, lam)
    rng = np.random.default_rng(0)
    for _ in range(10):
        theta = rng.uniform(-3, 3, size=1)
        q = comp.set_y.project(rng.uniform(0, 1, size=2))
        want = float(q @ group_losses(spec, theta)) - lam / 2.0
        assert full_value(p, theta, q) == pytest.approx(want, rel=1e-12)


def test_group_dro_inner_map_by_hand():
    comp = make_group_dro(_tiny_spec())
    v, jac = comp.c_batch(np.array([[3.0], [3.0]]), np.array([0, 1]))
    assert v.tolist() == [[9.0], [16.0]]       # (3 - 0)^2, (6 - 2)^2
    assert jac.tolist() == [[[6.0]], [[16.0]]]  # 2 * 3 * 1, 2 * 4 * 2
    # phi routes sample i to its group's dual coordinate, weight N/|G_g| = 2
    Q = np.array([[0.75, 0.25], [0.75, 0.25]])
    u = np.array([[9.0], [9.0]])
    ids = np.array([0, 1])
    assert comp.phi_batch(u, Q, ids).tolist() == [2.0 * 0.75 * 9.0, 2.0 * 0.25 * 9.0]
    g1, gy = comp.phi_grads_batch(u, Q, ids)
    assert g1.tolist() == [[2.0 * 0.75], [2.0 * 0.25]]
    assert gy.tolist() == [[2.0 * 9.0, 0.0], [0.0, 2.0 * 9.0]]


def test_group_dro_hinge_loss(group_losses):
    spec = GroupDroSpec(groups=[(np.array([[2.0]]), np.array([1.0]))],
                        loss="hinge")
    comp = make_group_dro(spec)
    theta = np.array([0.25])
    v, jac = comp.c_batch(theta[None], np.array([0]))
    assert v.tolist() == [[0.5]]  # 1 - 1 * (2 * 0.25)
    assert jac.tolist() == [[[-2.0]]]
    # hinge envelope at 0.5 with lam = 1/4: 0.5 - 0.125 = 0.375, weight 1
    p = as_problem(comp, 0.25)
    assert full_value(p, theta, np.array([1.0])) == 0.375
    assert group_losses(spec, theta)[0] == 0.5


def test_group_dro_contracts_hold():
    # phi does not decrease in u: each row at a simplex point, u against
    # u plus a nonnegative bump
    rng = np.random.default_rng(1)
    for loss in ("squared", "hinge"):
        comp = make_group_dro(GroupDroSpec(groups=_tiny_spec().groups, loss=loss))
        Q = np.array([comp.set_y.project(q) for q in rng.uniform(0, 1, (64, 2))])
        Q[:2] = [[1.0, 0.0], [0.0, 1.0]]  # the vertices, where one weight is 0
        u = rng.uniform(-3.0, 3.0, size=(64, 1))
        bump = rng.uniform(0.0, 3.0, size=(64, 1))
        ids = rng.integers(0, 2, size=64)
        assert np.all(comp.phi_batch(u + bump, Q, ids) >= comp.phi_batch(u, Q, ids))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["squared", "hinge"]), st.integers(0, 2 ** 16),
       st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
       st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]), min_size=2,
                max_size=2).filter(any),
       st.lists(st.integers(0, 29), min_size=1, max_size=40))
def test_group_dro_batch_rows_match_scalar_bitwise(loss, seed, theta, q, ids):
    base = make_two_group_regression(n=30, d=3, seed=seed)
    spec = GroupDroSpec(groups=base.groups, loss=loss)
    p = as_problem(make_group_dro(spec), lam=1e-3)
    theta = np.array(theta)
    q = np.array(q) / sum(q)  # on the simplex, with exact zeros allowed
    ids = np.array(ids)
    # one point per row: odd rows at the mirrored pair (-theta, q reversed)
    odd = np.arange(len(ids)) % 2 == 1
    Theta = np.where(odd[:, None], -theta, theta)
    Q = np.where(odd[:, None], q[::-1], q)
    _assert_rows_are_one_row_calls(p.oracle, Theta, Q, ids)


def test_group_dro_validation():
    with pytest.raises(EmptyGroupError):
        GroupDroSpec(groups=[])
    with pytest.raises(EmptyGroupError):
        GroupDroSpec(groups=[(np.zeros((0, 2)), np.zeros(0))])
    with pytest.raises(ValueError):
        GroupDroSpec(groups=[(np.zeros((2, 2)), np.zeros(3))])
    with pytest.raises(ValueError):
        GroupDroSpec(groups=[(np.zeros((2, 2)), np.zeros(2)),
                             (np.zeros((2, 3)), np.zeros(2))])
    with pytest.raises(ValueError):
        GroupDroSpec(groups=_tiny_spec().groups, loss="huber")


def test_two_group_regression_conflicting_slopes():
    spec = make_two_group_regression(n=200, d=3, minority_frac=0.1, seed=0)
    (X1, t1), (X2, t2) = spec.groups
    assert X1.shape == (180, 3)
    assert X2.shape == (20, 3)
    w1 = np.linalg.lstsq(X1, t1, rcond=None)[0]
    w2 = np.linalg.lstsq(X2, t2, rcond=None)[0]
    assert w1[0] > 0.5  # majority slope ~ +1
    assert w2[0] < -0.3  # minority slope ~ -1 (10x noisier)


# ----------------------------------------------------------------------------
# phi-divergence DRO

def test_phi_div_value_by_hand():
    # N = 3, losses (0.49, 0.36, 1.21) at theta = 0.3; Nq = (0.6, 1.5, 0.9);
    # chi2 penalties (0.08, 0.125, 0.005); mean of the three terms = 0.571
    spec = PhiDivDroSpec(features=np.array([[1.0], [2.0], [3.0]]),
                         targets=np.array([1.0, 0.0, 2.0]),
                         psi="chi2", lambda_pen=1.0)
    p = make_phi_div_dro(spec)
    theta = np.array([0.3])
    q = np.array([0.2, 0.5, 0.3])
    assert full_value(p, theta, q) == pytest.approx(0.571, rel=1e-12)
    assert isinstance(p.set_y, Simplex)


def test_phi_div_gradients_fd(fd_check):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(4, 2))
    t = rng.normal(size=4)
    p = make_phi_div_dro(PhiDivDroSpec(features=X, targets=t, psi="chi2",
                                       lambda_pen=0.7))
    theta = np.array([0.4, -0.2])
    q = np.array([0.3, 0.2, 0.25, 0.25])
    ex = fd_check(lambda v: full_value(p, v, q),
                  lambda v: full_grad_x(p, v, q), theta)
    ey = fd_check(lambda v: full_value(p, theta, v),
                  lambda v: full_grad_y(p, theta, v), q)
    assert ex <= 1e-7
    assert ey <= 1e-7


@pytest.mark.parametrize("psi", ["chi2"])
def test_phi_div_batch_rows_match_scalar_bitwise(psi):
    rng = np.random.default_rng(9)
    n = 40
    p = make_phi_div_dro(PhiDivDroSpec(features=rng.normal(size=(n, 3)),
                                       targets=rng.normal(size=n), psi=psi,
                                       lambda_pen=0.7))
    for _ in range(30):
        # one point per row
        Theta = rng.normal(size=(25, 3)) * 2.0
        Q = rng.dirichlet(np.ones(n), size=25) * (rng.random(size=(25, n)) < 0.7)
        Q[~Q.any(axis=1)] = 1.0
        Q = Q / Q.sum(axis=1, keepdims=True)  # exact zeros
        ids = rng.integers(0, n, size=25)
        _assert_rows_are_one_row_calls(p.oracle, Theta, Q, ids)


def test_phi_div_two_sample_stationarity():
    # closed form: interior maximizer has equal dual gradient coordinates,
    # q0 = 1/2 + (l0 - l1)/(4 lam)
    X = np.array([[1.0], [1.0]])
    t = np.array([0.0, 1.0])
    lam = 2.0
    p = make_phi_div_dro(PhiDivDroSpec(features=X, targets=t, psi="chi2",
                                       lambda_pen=lam))
    theta = np.array([0.25])
    l0, l1 = (0.25 - 0.0) ** 2, (0.25 - 1.0) ** 2
    s = 0.5 + (l0 - l1) / (4.0 * lam)
    g = full_grad_y(p, theta, np.array([s, 1.0 - s]))
    assert g[0] == pytest.approx(g[1], abs=1e-12)


def test_phi_div_no_penalty_points_at_worst_sample():
    X = np.array([[1.0], [2.0], [3.0]])
    t = np.array([0.0, 0.0, 0.0])
    p = make_phi_div_dro(PhiDivDroSpec(features=X, targets=t, psi="chi2",
                                       lambda_pen=0.0))
    theta = np.array([1.0])  # losses 1, 4, 9
    g = full_grad_y(p, theta, np.full(3, 1 / 3))
    assert np.argmax(g) == 2
    assert g.tolist() == [1.0, 4.0, 9.0]


def test_phi_div_psi_validation():
    X, t = np.ones((2, 1)), np.zeros(2)
    with pytest.raises(ValueError, match="unknown psi 'hellinger'"):
        PhiDivDroSpec(features=X, targets=t, psi="hellinger")
    with pytest.raises(ValueError):
        PhiDivDroSpec(features=X, targets=t, lambda_pen=-1.0)
    with pytest.raises(ValueError):
        PhiDivDroSpec(features=np.ones((3, 1)), targets=np.zeros(2))


def test_phi_div_refuses_kl_psi():
    # psi'' = 1/t of kl is unbounded on the simplex: no L_y would hold
    with pytest.raises(ValueError, match=r"psi 'kl' is not supported.*no L_y"):
        PhiDivDroSpec(features=np.ones((2, 1)), targets=np.zeros(2), psi="kl")


# ----------------------------------------------------------------------------
# quadratic saddle fixture

def test_saddle_solves_first_order_system():
    p = make_quadratic_saddle(3, 2, seed=4)
    md = p.metadata
    A, B, C = md["A"], md["B"], md["C"]
    xs, ys = md["saddle_x"], md["saddle_y"]
    assert np.linalg.norm(A @ xs + B @ ys + md["a"]) <= 1e-10
    assert np.linalg.norm(B.T @ xs - C @ ys - md["b"]) <= 1e-10
    assert np.all(xs > p.set_x.lo) and np.all(xs < p.set_x.hi)


def test_saddle_per_sample_means_recover_population():
    p = make_quadratic_saddle(3, 2, seed=5, noise=0.4)
    md = p.metadata
    rng = np.random.default_rng(6)
    x = rng.normal(size=3)
    y = rng.normal(size=2)
    gx = full_grad_x(p, x, y)
    gy = full_grad_y(p, x, y)
    assert gx == pytest.approx(md["A"] @ x + md["B"] @ y + md["a"], abs=1e-12)
    assert gy == pytest.approx(md["B"].T @ x - md["C"] @ y - md["b"], abs=1e-12)


def test_saddle_batch_path_matches_loop():
    # the oracle contract: every row is bit-identical to the one-row call,
    # which keeps full_grad (reduced from N rows) exact
    p = make_quadratic_saddle(2, 2, seed=7)
    rng = np.random.default_rng(8)
    for _ in range(200):
        ids = rng.integers(0, 16, size=int(rng.integers(1, 17)))
        # one point per row, and one point broadcast to every row
        X, Y = rng.normal(size=(len(ids), 2)), rng.normal(size=(len(ids), 2))
        _assert_rows_are_one_row_calls(p.oracle, X, Y, ids)
        gx, gy = p.oracle.grads_at(X[0], Y[0], ids)
        for row, i in enumerate(ids):
            gx1, gy1 = p.oracle.batch_grads(X[:1], Y[:1], ids[row:row + 1])
            assert gx[row].tobytes() == gx1[0].tobytes()
            assert gy[row].tobytes() == gy1[0].tobytes()


def test_saddle_values_by_closed_form():
    # the per-sample quadratics average to F = 1/2 x'Ax + x'By - 1/2 y'Cy
    # + a'x - b'y of the metadata
    p = make_quadratic_saddle(3, 2, seed=5, noise=0.4)
    md = p.metadata
    rng = np.random.default_rng(9)
    for _ in range(10):
        x, y = rng.normal(size=3), rng.normal(size=2)
        want = (0.5 * x @ md["A"] @ x + x @ md["B"] @ y - 0.5 * y @ md["C"] @ y
                + md["a"] @ x - md["b"] @ y)
        assert full_value(p, x, y) == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n, d_x, d_y", [(16, 4, 3), (64, 3, 3), (200, 1, 2),
                                         (1024, 16, 16)])
def test_saddle_constants_match_per_matrix_loop(n, d_x, d_y):
    # the constants come from stacked LAPACK calls; a loop over the samples,
    # one matrix at a time, gives the same bits
    p = make_quadratic_saddle(d_x, d_y, n_samples=n, seed=n)
    hook = p.oracle.grads_batch
    per_sample = dict(zip(hook.__code__.co_freevars,
                          (cell.cell_contents for cell in hook.__closure__)))
    A, B, C = ([float(np.linalg.norm(M[i], 2)) for i in range(n)]
               for M in (per_sample["As"], per_sample["Bs"], per_sample["Cs"]))
    min_eig = min(float(np.linalg.eigvalsh(per_sample["As"][i])[0]) for i in range(n))
    ell = ((max(A) + max(B)) * _box_radius(p.set_x)
           + (max(B) + max(C)) * _box_radius(p.set_y)
           + np.max(np.linalg.norm(per_sample["a_s"], axis=1))
           + np.max(np.linalg.norm(per_sample["b_s"], axis=1)))
    c = p.constants
    assert (c.L_x, c.L_y, c.rho, c.ell) == (max(A), max(max(B), max(C)),
                                            max(0.0, -min_eig), ell)


def test_saddle_one_dimensional_spectra():
    p = make_quadratic_saddle(1, 1, a_range=(2.0, 2.0), c_range=(3.0, 3.0),
                              seed=9)
    assert p.metadata["A"].tolist() == [[2.0]]
    assert p.metadata["C"].tolist() == [[3.0]]
    assert p.constants.mu == math.sqrt(6.0)


def test_saddle_zero_noise_constants():
    p = make_quadratic_saddle(3, 2, seed=10, noise=0.0)
    A, C = p.metadata["A"], p.metadata["C"]
    assert p.constants.L_x == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)
    assert p.constants.rho == 0.0  # spectrum (0.5, 2) is positive
    assert p.constants.mu == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert p.constants.theta == 0.5


def test_saddle_weakly_convex_spectrum_sets_rho():
    p = make_quadratic_saddle(2, 2, a_range=(-1.0, 2.0), seed=11, noise=0.0)
    assert p.constants.rho == pytest.approx(1.0, rel=1e-12)


def test_saddle_singular_system_raises():
    with pytest.raises(SingularityError):
        make_quadratic_saddle(2, 2, a_range=(0.0, 0.0), coupling=0.0, seed=12)
    with pytest.raises(ValueError):
        make_quadratic_saddle(2, 2, c_range=(0.0, 1.0))


# ----------------------------------------------------------------------------
# dataset CSV round trip

def test_csv_round_trip_exact(tmp_path, save_dataset_csv):
    rng = np.random.default_rng(13)
    X = np.concatenate([rng.normal(size=(5, 2)) * 1e-8,
                        rng.normal(size=(5, 2)) * 1e8])
    t = rng.normal(size=10)
    g = np.array([0] * 6 + [1] * 4)
    path = tmp_path / "data.csv"
    save_dataset_csv(path, X, t, g)
    raw = path.read_bytes()
    assert raw.startswith(b"feature_0,feature_1,target,group\n")
    assert b"\r" not in raw
    X2, t2, g2 = load_dataset_csv(path)
    assert np.array_equal(X, X2)
    assert np.array_equal(t, t2)
    assert np.array_equal(g, g2)


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1,label,grp\n0,0,0,0\n")
    with pytest.raises(ValueError):
        load_dataset_csv(path)


def test_spec_from_csv(tmp_path, save_dataset_csv):
    X = np.array([[1.0], [2.0], [3.0]])
    t = np.array([1.0, 0.0, 2.0])
    g = np.array([0, 1, 0])
    path = tmp_path / "groups.csv"
    save_dataset_csv(path, X, t, g)
    spec = spec_from_csv(path, loss="squared")
    assert len(spec.groups) == 2
    assert spec.groups[0][0].shape == (2, 1)
    assert spec.groups[1][1].tolist() == [0.0]


def test_spec_from_csv_rejects_a_negative_group_id(tmp_path, save_dataset_csv):
    # groups 0, -1, 1: the row of group -1 would belong to no group
    path = tmp_path / "negative.csv"
    save_dataset_csv(path, np.ones((3, 1)), np.zeros(3), np.array([0, -1, 1]))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 3: "
                                         "group id -1 is negative$"):
        spec_from_csv(path)


def test_spec_from_csv_huge_group_id(tmp_path, save_dataset_csv):
    # ids 0 and 10**9: group 1 is the first missing one, found without a
    # masked pair per id below 10**9 (about 400 GB of them)
    path = tmp_path / "huge_id.csv"
    save_dataset_csv(path, np.ones((2, 1)), np.zeros(2), np.array([0, 10 ** 9]))
    start = time.perf_counter()
    with pytest.raises(EmptyGroupError, match="^group 1 is empty$"):
        spec_from_csv(path)
    assert time.perf_counter() - start < 1.0


def test_spec_from_csv_missing_group(tmp_path, save_dataset_csv):
    X = np.ones((2, 1))
    t = np.zeros(2)
    g = np.array([0, 2])  # group 1 has no rows
    path = tmp_path / "gap.csv"
    save_dataset_csv(path, X, t, g)
    with pytest.raises(EmptyGroupError):
        spec_from_csv(path)
