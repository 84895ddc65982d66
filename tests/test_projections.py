"""Projection and normal-cone-distance tests.

Oracles (independent of the library implementation):
  * `_simplex_project_oracle` enumerates every candidate support set of the
    simplex QP and solves each KKT system in closed form -- exact brute force
    for small dims.
  * `_qp_oracle` solves min ||u - v||^2 over the set with scipy's SLSQP.
  * `_tangent_dist_fd` recovers ||proj_T(-g)|| from the projection operator
    itself via (P(x - t g) - x) / t at small t (exact for polyhedral sets
    once the active set stabilizes).
  * `_simplex_ncd_oracle` (shared with acceptance criterion 07) minimizes
    ||g + u|| over the simplex normal cone as a 1-d piecewise quadratic.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from spidergda import (Ball, Box, DimError, FullSpace, InfeasibleError,
                       Simplex, kl_example_grad, kl_example_value,
                       normal_cone_dist, verify)
from spidergda.projections import (ACTIVE_TOL, FEAS_TOL, _normal_cone_rows,
                                   _project_rows)
from spidergda.verify import SUITES
from test_acceptance import _simplex_ncd_oracle


# ----------------------------------------------------------------------------
# oracles

def _simplex_project_oracle(v: np.ndarray) -> np.ndarray:
    """Exact simplex projection by enumerating support sets: on support S the
    minimizer is v_i + (1 - sum_S v)/|S|, feasible iff all entries >= 0."""
    d = v.shape[0]
    best, best_dist = None, np.inf
    for size in range(1, d + 1):
        for S in itertools.combinations(range(d), size):
            S = list(S)
            shift = (1.0 - float(np.sum(v[S]))) / len(S)
            u = np.zeros(d)
            u[S] = v[S] + shift
            if np.any(u[S] < -1e-12):
                continue
            dist = float(np.linalg.norm(u - v))
            if dist < best_dist:
                best, best_dist = u, dist
    return best


def _qp_oracle(cset, v: np.ndarray) -> np.ndarray:
    """Generic projection via SLSQP on the QP  min ||u - v||^2  s.t. u in set."""
    d = v.shape[0]
    if isinstance(cset, Box):
        bounds = list(zip(cset.lo, cset.hi))
        constraints = ()
        x0 = 0.5 * (cset.lo + cset.hi)
    elif isinstance(cset, Ball):
        bounds = None
        constraints = ({"type": "ineq",
                        "fun": lambda u: cset.radius ** 2
                        - np.sum((u - cset.center) ** 2)},)
        x0 = cset.center.copy()
    elif isinstance(cset, Simplex):
        bounds = [(0.0, 1.0)] * d
        constraints = ({"type": "eq", "fun": lambda u: np.sum(u) - 1.0},)
        x0 = np.full(d, 1.0 / d)
    else:
        raise TypeError(type(cset))
    res = optimize.minimize(lambda u: np.sum((u - v) ** 2), x0,
                            jac=lambda u: 2.0 * (u - v), method="SLSQP",
                            bounds=bounds, constraints=constraints,
                            options={"ftol": 1e-16, "maxiter": 500})
    return res.x


def _tangent_dist_fd(cset, x: np.ndarray, g: np.ndarray,
                     t: float = 1e-6) -> float:
    """||proj_{T(x)}(-g)|| recovered from the projection operator."""
    return float(np.linalg.norm(cset.project(x - t * g) - x)) / t


def _random_set(rng, dim):
    lo = rng.normal(size=dim)
    kind = rng.integers(3)
    if kind == 0:
        return Box(lo, lo + np.abs(rng.normal(size=dim)) + 0.1)
    if kind == 1:
        return Ball(rng.normal(size=dim), float(np.abs(rng.normal()) + 0.1))
    return Simplex(dim)


# ----------------------------------------------------------------------------
# frozen examples

def test_box_clamp_example():
    box = Box([0.0, 0.0], [1.0, 1.0])
    assert np.array_equal(box.project(np.array([1.5, -0.2])),
                          np.array([1.0, 0.0]))


def test_ball_radial_example():
    ball = Ball([0.0, 0.0], 1.0)
    np.testing.assert_allclose(ball.project(np.array([3.0, 4.0])),
                               [0.6, 0.8], rtol=0, atol=1e-15)


def test_simplex_vertex_example():
    # also confirmed by the exact support-enumeration oracle
    v = np.array([2.0, 0.0])
    p = Simplex(2).project(v)
    np.testing.assert_allclose(p, [1.0, 0.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(_simplex_project_oracle(v), [1.0, 0.0],
                               rtol=0, atol=1e-15)


def test_diameters():
    assert Box([0.0, 0.0], [3.0, 4.0]).diameter == 5.0
    assert Ball([1.0], 2.0).diameter == 4.0
    assert Simplex(3).diameter == pytest.approx(np.sqrt(2.0))
    assert Simplex(1).diameter == 0.0
    assert FullSpace(2).diameter == np.inf


def test_box_requires_ordered_bounds():
    with pytest.raises(ValueError):
        Box([1.0], [0.0])
    with pytest.raises(ValueError):
        Ball([0.0], 0.0)
    with pytest.raises(ValueError):
        Simplex(0)


def test_dim_mismatch_raises():
    with pytest.raises(DimError):
        Box([0.0], [1.0]).project(np.array([0.5, 0.5]))
    with pytest.raises(DimError):
        normal_cone_dist(Simplex(3), np.array([1.0, 0.0]), np.array([0.0, 0.0]))


# ----------------------------------------------------------------------------
# oracle equivalence

def test_simplex_matches_support_enumeration_oracle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        d = int(rng.integers(1, 6))
        v = 3.0 * rng.normal(size=d)
        np.testing.assert_allclose(Simplex(d).project(v),
                                   _simplex_project_oracle(v),
                                   rtol=0, atol=1e-12)


def test_projection_matches_qp_oracle():
    rng = np.random.default_rng(12)
    for _ in range(60):
        d = int(rng.integers(1, 6))
        cset = _random_set(rng, d)
        v = 2.0 * rng.normal(size=d)
        np.testing.assert_allclose(cset.project(v), _qp_oracle(cset, v),
                                   rtol=0, atol=1e-6)


# ----------------------------------------------------------------------------
# invariants (property tests)

# the `projections` verify suite runs each invariant on 10,200 random sets

def test_idempotence_exact(suite_checks):
    assert suite_checks("projections")["projection idempotent (exact)"].ok


def test_nonexpansiveness_10k_trials(suite_checks):
    assert suite_checks("projections")["projection nonexpansive"].ok


def test_variational_inequality(suite_checks):
    assert suite_checks("projections")["variational inequality (u - Pu)'(w - Pu) <= 0"].ok


def test_outside_points_project_onto_the_boundary(suite_checks):
    assert suite_checks("projections")["outside points project onto the boundary"].ok


def test_boundary_check_catches_a_short_ball_projection(monkeypatch):
    # a ball projection that stops at 0.999 of the radius keeps idempotence,
    # nonexpansiveness and the VI; only the boundary check sees it
    def short(self, v):
        if self._contains(v):
            return v.copy()
        d = v - self.center
        return self.center + d * (0.999 * self.radius / np.linalg.norm(d))

    monkeypatch.setattr(Ball, "_project", short)
    failed = [c.name for c in SUITES["projections"]() if not c.ok]
    assert failed == ["outside points project onto the boundary"]


@settings(deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
       st.lists(st.floats(-50, 50), min_size=1, max_size=6))
def test_simplex_nonexpansive_hypothesis(a, b):
    d = min(len(a), len(b))
    u, v = np.array(a[:d]), np.array(b[:d])
    s = Simplex(d)
    assert np.linalg.norm(s.project(u) - s.project(v)) \
        <= np.linalg.norm(u - v) + 1e-12


@settings(deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=6))
def test_simplex_output_feasible_hypothesis(a):
    p = Simplex(len(a)).project(np.array(a))
    assert np.all(p >= 0.0)
    assert abs(float(np.sum(p)) - 1.0) <= 1e-9


# ----------------------------------------------------------------------------
# the simplex rule over Python floats against the array rule, bit for bit

def _simplex_contains_ref(x: np.ndarray) -> bool:
    return bool(np.all(x >= -FEAS_TOL) and abs(float(np.sum(x)) - 1.0) <= FEAS_TOL)


def _simplex_project_ref(v: np.ndarray) -> np.ndarray:
    """The reference: `Simplex._project`'s short-circuit, then the
    sort-based threshold rule over arrays (argsort, cumsum, comparisons)."""
    if _simplex_contains_ref(v):
        return v.copy()
    order = np.argsort(-v, kind="stable")
    u = v[order]
    css = np.cumsum(u) - 1.0
    j = np.arange(1, v.shape[0] + 1)
    cond = u - css / j > 0.0
    rho = int(np.nonzero(cond)[0][-1]) + 1
    lam = css[rho - 1] / rho
    return np.maximum(v - lam, 0.0)


def _simplex_point(kind: str, dim: int, rng) -> np.ndarray:
    """A point of one of the kinds the rule must agree on."""
    if kind == "normal":
        return rng.normal(size=dim) * 10.0 ** rng.integers(-3, 3)
    if kind == "ties":
        return np.round(rng.normal(size=dim), 1)
    if kind == "signed zeros":
        v = np.round(rng.normal(size=dim), 0)
        v[v == 0.0] = rng.choice([0.0, -0.0], size=int(np.sum(v == 0.0)))
        return v
    # a point of the simplex moved within (x 0.5) or just past (x 2) the
    # feasibility band: its sum, or one coordinate below zero
    v = rng.dirichlet(np.ones(dim))
    i = rng.integers(dim)
    if kind == "band":
        v[i] += rng.choice([-2.0, -0.5, 0.5, 2.0]) * FEAS_TOL
    else:
        v[i - 1] += v[i]
        v[i] = rng.choice([-2.0, -0.5]) * FEAS_TOL
    return v


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2, 3, 5, 32, 80, 400]),
       st.sampled_from(["normal", "ties", "signed zeros", "band", "band, a zero"]),
       st.integers(0, 2 ** 32 - 1))
def test_simplex_project_equals_the_array_rule_bit_for_bit(dim, kind, seed):
    v = _simplex_point(kind, dim, np.random.default_rng(seed))
    s = Simplex(dim)
    assert s._contains(v) == _simplex_contains_ref(v)
    p = s._project(v)
    assert p.tobytes() == _simplex_project_ref(v).tobytes()
    assert s._contains(p) == _simplex_contains_ref(p)
    assert s._project(p).tobytes() == p.tobytes()



@pytest.mark.parametrize("v", [
    [0.6, -0.4, -0.4], [1.7, -0.0, -0.9, 0.7, 0.7],
    [-0.3, -0.2, -0.2, -0.3, -0.0, -0.1, -0.1, -0.2]])
def test_simplex_project_keeps_the_last_j_that_passes(v):
    # at a tie the rounded threshold test fails at one j and passes at the
    # next; stopping at the first failure would give other bits
    v = np.array(v)
    assert Simplex(v.size)._project(v).tobytes() == _simplex_project_ref(v).tobytes()

@pytest.mark.parametrize("v, want", [
    ([1e17, 0.0], [1.0, 0.0]), ([1e17, 1e17], [0.5, 0.5]),
    ([-1e17, -3e17, -1e17], [0.5, 0.0, 0.5]),
    ([-2.0 ** 53, -2.0 ** 53 - 2.0], [1.0, 0.0])])
def test_simplex_project_huge_coordinates(v, want):
    # u_1 - 1 rounds to u_1, so no j passes the threshold test (the array
    # rule raised IndexError); the exact projection shares the mass equally
    # among the coordinates equal to the largest
    assert Simplex(len(v)).project(np.array(v)).tolist() == want


# ----------------------------------------------------------------------------
# normal-cone distances

def test_normal_cone_box_examples():
    box = Box([0.0], [1.0])
    assert normal_cone_dist(box, np.array([0.5]), np.array([0.3])) \
        == pytest.approx(0.3)
    assert normal_cone_dist(box, np.array([0.0]), np.array([1.0])) == 0.0
    assert normal_cone_dist(box, np.array([0.0]), np.array([-1.0])) == 1.0


def test_normal_cone_simplex_vertex_against_discretized_oracle():
    # N at the vertex e1 is {n : n_1 = lam, n_2 <= lam, n_3 <= lam}; brute
    # force over a fine lam grid with the inner (separately monotone)
    # coordinates clamped at their best values.
    x = np.array([1.0, 0.0, 0.0])
    g = np.array([0.0, -1.0, -2.0])
    lam = np.linspace(-4.0, 4.0, 80_001)
    n2 = np.minimum(lam, 1.0)
    n3 = np.minimum(lam, 2.0)
    dist_grid = np.sqrt((g[0] + lam) ** 2 + (g[1] + n2) ** 2
                        + (g[2] + n3) ** 2)
    oracle = float(dist_grid.min())
    val = normal_cone_dist(Simplex(3), x, g)
    assert val == pytest.approx(oracle, abs=1e-4)
    assert val == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_normal_cone_infeasible_point_raises():
    with pytest.raises(InfeasibleError):
        normal_cone_dist(Box([0.0], [1.0]), np.array([2.0]), np.array([0.0]))


def test_normal_cone_interior_is_gradient_norm():
    rng = np.random.default_rng(16)
    g = rng.normal(size=4)
    ball = Ball(np.zeros(4), 2.0)
    assert normal_cone_dist(ball, 0.1 * rng.normal(size=4), g) \
        == pytest.approx(np.linalg.norm(g))
    assert normal_cone_dist(FullSpace(4), rng.normal(size=4), g) \
        == pytest.approx(np.linalg.norm(g))


@pytest.mark.parametrize("radius", [1e-10, ACTIVE_TOL, 1.0])
def test_ball_center_is_interior_at_any_radius(radius):
    # a radius within ACTIVE_TOL puts the center in the boundary band, where
    # the outward direction d / ||d|| would be 0 / 0
    with np.errstate(all="raise"):
        got = normal_cone_dist(Ball([0.0, 0.0], radius), np.zeros(2),
                               np.array([1.0, 2.0]))
    assert got == np.linalg.norm([1.0, 2.0])


def test_tangent_dist_matches_projection_finite_difference():
    rng = np.random.default_rng(17)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        cset = _random_set(rng, d)
        x = cset.project(2.0 * rng.normal(size=d))
        g = rng.normal(size=d)
        fd = _tangent_dist_fd(cset, x, g)
        tol = 1e-4 if isinstance(cset, Ball) else 1e-7
        assert normal_cone_dist(cset, x, g) == pytest.approx(fd, abs=tol)


def _simplex_tangent_dist_loop(x: np.ndarray, g: np.ndarray) -> float:
    """Reference: the piecewise-linear solve with a fresh sum of the j
    largest active entries per candidate (O(m^2) in active coordinates)."""
    w = -g
    active = x <= ACTIVE_TOL
    k = int(np.sum(~active))
    s_not = float(np.sum(w[~active]))
    a = np.sort(w[active])[::-1]
    m = a.shape[0]
    lam = None
    for j in range(m + 1):
        if k + j == 0:
            continue
        cand = (s_not + float(np.sum(a[:j]))) / (k + j)
        hi = a[j - 1] if j >= 1 else np.inf
        lo = a[j] if j < m else -np.inf
        if lo <= cand <= hi:
            lam = cand
            break
    if lam is None:
        lam = float(a[0]) if m else 0.0
    return float(np.linalg.norm(np.where(active, np.maximum(w - lam, 0.0),
                                         w - lam)))


@pytest.mark.parametrize("dim", [1, 2, 3, 9, 130, 1024, 4096])
def test_simplex_tangent_dist_matches_reference_loop(dim):
    rng = np.random.default_rng(dim)
    for trial in range(6):
        x = np.zeros(dim)
        support = rng.choice(dim, size=min(dim, 1 + trial % 3), replace=False)
        x[support] = rng.dirichlet(np.ones(len(support)))
        x = Simplex(dim).project(x)
        # odd trials draw g from five values, so many entries tie
        g = (rng.integers(-2, 3, size=dim).astype(np.float64) if trial % 2
             else rng.normal(size=dim))
        got = Simplex(dim).tangent_dist(x, g)
        ref = _simplex_tangent_dist_loop(x, g)
        if np.sum(x <= ACTIVE_TOL) <= 2:  # two-term sums: same bits
            assert got == ref
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dim", [2, 16, 1024, 4096])
def test_simplex_tangent_dist_tied_closed_form(dim):
    # x = e_0, g = -1 off the support: lam = (d - 1)/d, so the projected
    # direction is (-(d - 1)/d, 1/d, ..., 1/d), of norm sqrt(1 - 1/d)
    x = np.zeros(dim)
    x[0] = 1.0
    g = -np.ones(dim)
    g[0] = 0.0
    assert Simplex(dim).tangent_dist(x, g) == pytest.approx(
        np.sqrt(1.0 - 1.0 / dim), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dim", [1024, 4096])
@pytest.mark.parametrize("tied", [False, True])
def test_simplex_normal_cone_dist_matches_oracle_at_large_dims(dim, tied):
    rng = np.random.default_rng(dim + tied)
    x = Simplex(dim).project(rng.normal(size=dim))
    # tied: g from five values, so many entries tie
    g = (rng.integers(-2, 3, size=dim).astype(np.float64) if tied
         else rng.normal(size=dim))
    assert normal_cone_dist(Simplex(dim), x, g) == pytest.approx(
        _simplex_ncd_oracle(x, g), rel=1e-12, abs=0.0)


def test_normal_cone_zero_iff_linear_stationary():
    # at the box minimizer of a linear model the distance vanishes; at any
    # point where a descent direction stays feasible it does not
    box = Box([0.0, 0.0], [1.0, 1.0])
    g = np.array([1.0, -2.0])
    minimizer = np.array([0.0, 1.0])
    assert normal_cone_dist(box, minimizer, g) == 0.0
    assert normal_cone_dist(box, np.array([0.5, 0.5]), g) > 1.0


def test_degenerate_box_interval():
    # a frozen coordinate absorbs every gradient component
    box = Box([0.0, -1.0], [0.0, 1.0])
    assert normal_cone_dist(box, np.array([0.0, 0.0]), np.array([9.0, 0.5])) \
        == pytest.approx(0.5)


# ----------------------------------------------------------------------------
# rows

@pytest.mark.parametrize("cset", [
    Box([-1.0, 0.0, 2.0], [1.0, 0.5, 2.0]), Ball([0.5, -1.0, 0.0], 0.7),
    Simplex(3), FullSpace(3)], ids=lambda c: type(c).__name__)
def test_project_rows_equals_project_per_row(cset):
    rng = np.random.default_rng(3)
    V = 2.0 * rng.normal(size=(40, 3))
    V[1] = cset.project(V[0])  # already in the set: the short-circuit
    got = _project_rows(cset, V)
    assert got.shape == V.shape
    for v, row in zip(V, got):
        assert row.tobytes() == cset.project(v).tobytes()
    V[7, 2] = np.inf
    with pytest.raises(DimError, match="non-finite"):
        _project_rows(cset, V)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_project_rows_signed_zero_ties_equal_project(d):
    # a coordinate at +0.0 against a -0.0 bound (or the reverse) is a tie,
    # which the bound wins; rows against broadcast bounds must resolve it
    # as one vector does, also at d = 1, where numpy runs all rows as one
    # loop against a stride-0 bound
    box = Box(np.full(d, -0.0), np.full(d, 0.0))
    V = np.array([[0.0] * d, [-0.0] * d, [1.0] * d, [-1.0] * d])
    for row, v in zip(_project_rows(box, V), V):
        assert row.tobytes() == box.project(v).tobytes()


def _ncd_rows_cases():
    """(set, X, G) per set kind: random feasible rows plus the edge rows of
    the normal-cone formulas, with g drawn so that coordinates point both
    into and out of the set, and signed zeros."""
    rng = np.random.default_rng(23)
    box = Box([-1.0, 0.0, 2.0], [1.0, 0.5, 2.0])  # coordinate 2: lo == hi
    band = 0.5 * ACTIVE_TOL
    box_edges = [box.lo, box.hi, box.lo + band, box.hi - band,
                 [-1.0 + 3 * ACTIVE_TOL, 3 * ACTIVE_TOL, 2.0],
                 box.lo - 0.5 * FEAS_TOL,
                 [-1.0 + band, 0.5 - band, 2.0]]
    ball = Ball([0.5, -1.0, 0.0], 0.7)
    u = np.array([0.6, 0.0, 0.8])
    ball_edges = [ball.center, ball.center + 0.7 * u,
                  ball.center + (0.7 - band) * u, ball.center + 0.5 * u]
    simplex_edges = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0],
                     [band, 1.0 - band, 0.0], np.full(3, 1.0 / 3.0)]
    cases = []
    for cset, edges in ((box, box_edges), (ball, ball_edges),
                        (Simplex(3), simplex_edges), (FullSpace(3), [np.zeros(3)])):
        X = np.vstack([np.asarray(edges, dtype=np.float64),
                       [cset.project(2.0 * rng.normal(size=3)) for _ in range(100)]])
        X = np.repeat(X, 4, axis=0)
        G = rng.normal(size=X.shape)
        G[0::4] = 0.0
        G[1::4] = -0.0
        G[2::4, 0] = -0.0
        cases.append((cset, X, G))
    return cases


def _box_tangent_dist_ref(box, x, g) -> float:
    """The box distance as one nested np.where per coordinate case and
    np.linalg.norm of the one vector."""
    w = -g
    at_lo = x <= box.lo + ACTIVE_TOL
    at_hi = x >= box.hi - ACTIVE_TOL
    return float(np.linalg.norm(np.where(
        at_lo & at_hi, 0.0, np.where(at_lo, np.maximum(w, 0.0),
                                     np.where(at_hi, np.minimum(w, 0.0), w)))))


@pytest.mark.parametrize("case", _ncd_rows_cases(),
                         ids=lambda c: type(c[0]).__name__)
def test_normal_cone_rows_equal_normal_cone_dist_per_row(case):
    cset, X, G = case
    got = _normal_cone_rows(cset, X, G)
    assert got.shape == (len(X),)
    for x, g, d in zip(X, G, got):
        assert float(d).hex() == normal_cone_dist(cset, x, g).hex()
        assert float(d).hex() == cset.tangent_dist(x, g).hex()
        if isinstance(cset, Box):
            assert float(d).hex() == _box_tangent_dist_ref(cset, x, g).hex()
        elif isinstance(cset, FullSpace):
            assert float(d).hex() == float(np.linalg.norm(g)).hex()


def test_kl_example_suite_margins_equal_the_per_point_values(monkeypatch):
    # the suite takes its 4001 normal-cone distances from one rows call;
    # each must equal the per-point normal_cone_dist bit for bit, and the
    # worst margin must be the one the per-point margins give
    seen = []

    def rows(cset, X, G):
        seen.append((cset, X, G, _normal_cone_rows(cset, X, G)))
        return seen[-1][-1]

    monkeypatch.setattr(verify, "_normal_cone_rows", rows)
    check = SUITES["kl-example"]()[0]
    (box, X, G, dists), = seen
    grid = np.linspace(-2.0, 2.0, 4001)
    assert np.array_equal(X, grid[:, None])
    margins = []
    for y, g, d in zip(grid, G, dists):
        want = normal_cone_dist(box, np.array([y]), np.array([-kl_example_grad(y)]))
        assert g[0] == -kl_example_grad(y) and float(d).hex() == want.hex()
        margins.append(want - 0.1 * math.sqrt(max(2.0 - kl_example_value(y), 0.0)))
    worst = int(np.argmin(margins))
    assert check.ok == (margins[worst] >= 0.0)
    assert check.detail == f"min margin {margins[worst]:.2e} at y={grid[worst]:.3f}"


@pytest.mark.parametrize("case", _ncd_rows_cases()[:3],
                         ids=lambda c: type(c[0]).__name__)
def test_normal_cone_rows_name_the_first_infeasible_row(case):
    cset, X, G = case
    X = X.copy()
    X[5] = X[9] = 10.0
    with pytest.raises(InfeasibleError, match=r"^row 5 is not in the set"):
        _normal_cone_rows(cset, X, G)
    with pytest.raises(InfeasibleError, match=r"^row 0 is not in the set"):
        normal_cone_dist(cset, X[5], G[5])
