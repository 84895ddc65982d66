"""Acceptance battery: one test per release criterion.

Each test prints a single ``[pass]``/``[FAIL]`` line with the measured
quantities before asserting, so ``pytest tests/test_acceptance.py -v -s``
doubles as a human-readable report.  Oracles are computed inside this file
(closed forms, exhaustive enumerations, dense grids) so every check is
independent of the library code it validates.  Criteria 01 and 11 and the
anchor exactness of criterion 02 instead report the checks of the
`spidergda verify` suites (`spidergda.verify.SUITES`), the one place those
checks are written.  Their references are a dense grid bound, exact
rationals, and the library's exact gradients `full_grad_x`/`full_grad_y`,
which `tests/test_core.py` checks against a sequential loop.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from spidergda import (Ball, Box, CompositeConstants, FiniteSum,
                       FullSpace, Hinge, MoreauComposite, ProblemInstance,
                       ScaledIdentity, Simplex, SmoothnessMeta, SolverConfig,
                       StochasticOracle, TunerInput, anchor, as_problem,
                       batch_rng, dz_norm, estimator_mse,
                       full_grad_x, full_grad_y, gs_residuals,
                       lyapunov, make_group_dro, make_quadratic_saddle,
                       make_two_group_regression, normal_cone_dist, recurse,
                       run, tune_smooth)


# the one sample id of a one-row call
_ID0 = np.zeros(1, dtype=np.int64)


def _one_row(oracle, x, y):
    """(value, grad_x, grad_y) of sample 0 at (x, y), from one-row calls."""
    gx, gy = oracle.batch_grads(x[None], y[None], _ID0)
    return oracle.batch_values(x[None], y[None], _ID0)[0], gx[0], gy[0]


def _report(num: int, slug: str, ok: bool, detail: str) -> None:
    line = f"[{'pass' if ok else 'FAIL'}] criterion {num:02d} {slug}: {detail}"
    print(line)
    assert ok, line


def _report_suite(num: int, slug: str, checks: dict) -> None:
    """Report every check of a `spidergda.verify` suite as one criterion."""
    _report(num, slug, all(c.ok for c in checks.values()),
            "; ".join(f"{c.name} ({c.detail})" for c in checks.values()))


# ----------------------------------------------------------------------------
# shared fixtures

def _random_composite(seed, abs_value):
    """Random affine-inner composite with verifiable constants.

    c is affine (column norms capped at 3), h mixes |q| (the `abs_value`
    fixture), hinge and scaled-identity components, and the outer function
    s'u + y'Eu - ||y||^2/2 is kept nondecreasing in u by giving s a margin
    over the column sums of |E|.  Returns the composite plus the
    per-component envelope-kink locations used for exclusion zones.
    """
    rng = np.random.default_rng(seed)
    d_x = int(rng.integers(1, 11))
    d_h = int(rng.integers(1, 5))
    d_y = int(rng.integers(1, 4))
    W = rng.normal(size=(d_x, d_h))
    W = W / np.maximum(1.0, np.linalg.norm(W, axis=0) / 3.0)
    v = rng.normal(size=d_h)
    kinds, kinks, ell_hs = [], [], []
    for _ in range(d_h):
        pick = rng.integers(0, 3)
        if pick == 0:
            kinds.append(abs_value())
            ell_hs.append(1.0)
            kinks.append("abs")
        elif pick == 1:
            kinds.append(Hinge())
            ell_hs.append(1.0)
            kinks.append("hinge")
        else:
            a = float(rng.uniform(-2.0, 2.0))
            kinds.append(ScaledIdentity(a))
            ell_hs.append(abs(a))
            kinks.append("none")
    E = 0.1 * rng.normal(size=(d_y, d_h))
    s = np.abs(E).sum(axis=0) + rng.uniform(0.05, 1.0, size=d_h)
    ell_phi = float(np.linalg.norm(s) + np.linalg.norm(E, 2) * math.sqrt(d_y))
    constants = CompositeConstants(
        ell_c=float(np.linalg.norm(W, 2)), ell_h=max(ell_hs),
        ell_phi=ell_phi, L_c=0.0,
        L_phi=max(1.0 + float(np.linalg.norm(E, 2)), ell_phi),
        delta_tilde=1.0)
    # one sample: every row shares c(x) = W^T x + v and
    # phi(u, y) = s.u + y'E u - y.y/2
    comp = MoreauComposite(
        c_batch=lambda X, ids: ((W.T @ X[:, :, None])[:, :, 0] + v,
                                np.repeat(W[None], len(ids), axis=0)),
        h=kinds,
        phi_batch=lambda u, Y, ids: (u @ s + np.sum((Y @ E) * u, axis=1)
                                     - 0.5 * np.sum(Y * Y, axis=1)),
        phi_grads_batch=lambda u, Y, ids: (s + Y @ E, u @ E.T - Y),
        constants=constants, regime=FiniteSum(1),
        set_x=Box(-3.0 * np.ones(d_x), 3.0 * np.ones(d_x)),
        set_y=Box(-np.ones(d_y), np.ones(d_y)))
    return comp, kinks, rng


def _well_conditioned_saddle():
    # small dual smoothness keeps the prox weight r (hence 1/alpha_x) near
    # its floor, and the stiff primal spectrum speeds the prox-center
    # relaxation, so the admissible step sizes converge at desk scale
    return make_quadratic_saddle(4, 3, n_samples=16, a_range=(4.0, 6.0),
                                 c_range=(0.05, 0.08), coupling=0.05,
                                 linear_scale=0.1, noise=0.01, seed=11)


@pytest.fixture(scope="module")
def quad_run():
    """One tuned long run on the well-conditioned saddle, shared by the
    convergence and complexity-trend criteria."""
    prob = _well_conditioned_saddle()
    tin = TunerInput(meta=prob.constants, epsilon=1e-3, regime=prob.regime,
                     overrides={"alpha_y": 4.0, "beta": 0.016,
                                "K": 9000, "T": 8, "M": 16})
    config, audit = tune_smooth(tin)
    config.seed = 3
    config.trace_stride = 256
    trace = run(prob, config)
    return prob, config, audit, trace


# ----------------------------------------------------------------------------
# criteria

def test_criterion_01_kl_grid_bound(suite_checks):
    _report_suite(1, "kl-grid-error-bound", suite_checks("kl-example"))


def test_criterion_02_estimator_exactness(suite_checks):
    # the estimator suite checks this anchor bit for bit
    anchor_exact = suite_checks("estimator")[
        "finite-sum anchor equals the exact gradient (bitwise)"].ok
    prob = make_quadratic_saddle(8, 8, n_samples=64, seed=2)
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=8), rng.normal(size=8)
    G = anchor(prob, x, y, None)
    dev = 0.0
    for t in range(1, 11):
        x1 = x + 0.1 * rng.normal(size=8)
        y1 = y + 0.1 * rng.normal(size=8)
        # a full-batch sweep: all 64 ids, in both rows (one per oracle row)
        G = recurse(prob, G, (x, y), (x1, y1), np.tile(np.arange(64), (2, 1)))
        x, y = x1, y1
        dev = max(dev,
                  float(np.max(np.abs(G[0] - full_grad_x(prob, x, y)))),
                  float(np.max(np.abs(G[1] - full_grad_y(prob, x, y)))))
    ok = anchor_exact and dev <= 1e-12
    _report(2, "estimator-exactness", ok,
            f"anchor bit-exact = {anchor_exact}, "
            f"full-batch recursion max dev = {dev:.2e} over 10 steps")


def test_criterion_03_estimator_mse_bounds():
    prob = make_quadratic_saddle(16, 16, n_samples=1024, seed=5)
    rng = np.random.default_rng(42)
    x = prob.set_x.project(prob.metadata["saddle_x"] + rng.normal(size=16))
    y = prob.set_y.project(prob.metadata["saddle_y"] + rng.normal(size=16))
    traj = [(x.copy(), y.copy())]
    for _ in range(7):  # T = 8 points, small displacements
        x = x + 1.25e-3 * rng.normal(size=16)
        y = y + 1.25e-3 * rng.normal(size=16)
        traj.append((x.copy(), y.copy()))
    res = estimator_mse(prob, traj, M=8, trials=10_000,
                        rng=np.random.default_rng(7))
    ok_bounds = (bool(np.all(res.mse_x <= res.bound_x + 5 * res.se_x))
                 and bool(np.all(res.mse_y <= res.bound_y + 5 * res.se_y)))

    ids = np.arange(1024)
    gxs, gys = prob.oracle.grads_at(traj[-1][0], traj[-1][1], ids)
    mini_x = float(np.mean(np.sum((gxs - full_grad_x(prob, *traj[-1])) ** 2,
                                  axis=1))) / 8.0
    mini_y = float(np.mean(np.sum((gys - full_grad_y(prob, *traj[-1])) ** 2,
                                  axis=1))) / 8.0
    ok_half = (res.mse_x[-1] <= 0.5 * mini_x and res.mse_y[-1] <= 0.5 * mini_y)
    _report(3, "estimator-mse-bounds", ok_bounds and ok_half,
            f"all per-step MSE within bound+5se = {ok_bounds}; recursive "
            f"final MSE ({res.mse_x[-1]:.2e}, {res.mse_y[-1]:.2e}) vs "
            f"half-minibatch ({0.5 * mini_x:.2e}, {0.5 * mini_y:.2e})")


def test_criterion_04_quadratic_saddle_convergence(quad_run):
    prob, config, _audit, trace = quad_run
    last = trace.rows[-1]
    res_x, res_y = gs_residuals(prob, last.x, last.y)
    saddle = np.concatenate([prob.metadata["saddle_x"],
                             prob.metadata["saddle_y"]])
    err = float(np.linalg.norm(np.concatenate([last.x, last.y]) - saddle))
    dz = dz_norm(prob, config.r, trace.output_pair[1], trace.output_z)
    ok = max(res_x, res_y) <= 1e-3 and err <= 1e-2 and dz <= 1e-2
    _report(4, "quadratic-saddle-convergence", ok,
            f"residuals = ({res_x:.2e}, {res_y:.2e}) <= 1e-3, "
            f"saddle error = {err:.2e} <= 1e-2, "
            f"output dz_norm = {dz:.2e} <= 1e-2 (seed 3)")


def _h_value(hj, w):
    """h_j(w) by its closed form: a w, max(0, w) or |w|."""
    if isinstance(hj, ScaledIdentity):
        return hj.a * w
    return max(0.0, w) if isinstance(hj, Hinge) else abs(w)


def test_criterion_05_smoothing_bias_bound(abs_value):
    violations, closest = 0, math.inf
    for seed in range(100):
        comp, _kinks, rng = _random_composite(seed, abs_value)
        cc = comp.constants
        lam = float(rng.uniform(1e-3, 0.5))
        bound = lam * cc.L_phi * cc.ell_h ** 2 * math.sqrt(len(comp.h)) / 2.0
        oracle = as_problem(comp, lam).oracle
        for _ in range(100):
            x = rng.uniform(-3.0, 3.0, size=comp.set_x.dim)
            y = rng.uniform(-1.0, 1.0, size=comp.set_y.dim)
            w = comp.c_batch(x[None], _ID0)[0][0]
            u = np.array([_h_value(hj, float(w[j]))
                          for j, hj in enumerate(comp.h)])
            gap = abs(comp.phi_batch(u[None], y[None], _ID0)[0]
                      - _one_row(oracle, x, y)[0])
            closest = min(closest, bound - gap)
            violations += gap > bound
    _report(5, "smoothing-bias-bound", violations == 0,
            f"{violations} violations over 100 instances x 100 points, "
            f"smallest slack = {closest:.2e}")


def _kink_distance(w, kinks, lam):
    dmin = math.inf
    for j, kind in enumerate(kinks):
        if kind == "abs":
            pts = (-lam, lam)
        elif kind == "hinge":
            pts = (0.0, lam)
        else:
            continue
        for p in pts:
            dmin = min(dmin, abs(float(w[j]) - p))
    return dmin


def test_criterion_06_smoothed_gradient_fd(abs_value, fd_check):
    worst = 0.0
    for seed in range(100):
        comp, kinks, rng = _random_composite(seed, abs_value)
        lam = float(rng.uniform(0.05, 0.5))
        for _ in range(200):
            x = rng.uniform(-3.0, 3.0, size=comp.set_x.dim)
            if _kink_distance(comp.c_batch(x[None], _ID0)[0][0], kinks, lam) > 1e-4:
                break
        else:
            raise RuntimeError("could not sample a kink-free point")
        y = rng.uniform(-1.0, 1.0, size=comp.set_y.dim)
        oracle = as_problem(comp, lam).oracle
        worst = max(
            worst,
            fd_check(lambda xx: _one_row(oracle, xx, y)[0],
                     lambda xx: _one_row(oracle, xx, y)[1], x),
            fd_check(lambda yy: _one_row(oracle, x, yy)[0],
                     lambda yy: _one_row(oracle, x, yy)[2], y))
    _report(6, "smoothed-gradient-fd", worst <= 1e-5,
            f"max relative error {worst:.2e} <= 1e-5 over 100 instances")


# --- brute-force projection oracles (independent of the library closed forms)

def _box_project_oracle(cset, v):
    out = np.empty_like(v)
    for i in range(v.size):
        cands = [cset.lo[i], cset.hi[i]]
        if cset.lo[i] <= v[i] <= cset.hi[i]:
            cands.append(v[i])
        out[i] = min(cands, key=lambda c: (c - v[i]) ** 2)
    return out


def _box_ncd_oracle(cset, x, g):
    total = 0.0
    for i in range(x.size):
        at_lo = x[i] <= cset.lo[i] + 1e-9
        at_hi = x[i] >= cset.hi[i] - 1e-9
        if at_lo and at_hi:
            continue
        if at_lo:
            total += min(g[i], 0.0) ** 2
        elif at_hi:
            total += max(g[i], 0.0) ** 2
        else:
            total += g[i] ** 2
    return math.sqrt(total)


def _ball_project_oracle(cset, v):
    d = v - cset.center
    nrm = np.linalg.norm(d)
    if nrm <= cset.radius:
        return v.copy()
    ts = np.linspace(0.0, cset.radius / nrm, 100_001)
    t = float(ts[np.argmin((ts - 1.0) ** 2)])
    return cset.center + t * d


def _ball_ncd_oracle(cset, x, g):
    d = x - cset.center
    nrm = np.linalg.norm(d)
    if nrm < cset.radius - 1e-9:
        return float(np.linalg.norm(g))
    u = d / nrm
    gpar = float(g @ u)
    if gpar <= 0.0:
        return math.sqrt(max(0.0, float(g @ g) - gpar ** 2))
    return float(np.linalg.norm(g))


def _simplex_project_oracle(v):
    d = v.size
    best, best_val = None, math.inf
    for k in range(1, d + 1):
        for support in itertools.combinations(range(d), k):
            support = list(support)
            x = np.zeros(d)
            x[support] = v[support] - (np.sum(v[support]) - 1.0) / len(support)
            if np.min(x[support]) < -1e-12:
                continue
            val = float(np.sum((x - v) ** 2))
            if val < best_val:
                best, best_val = x, val
    return best


def _simplex_ncd_oracle(x, g):
    # members of the normal cone are c on the support and <= c elsewhere;
    # minimizing ||g + u|| over them is a 1-d convex piecewise quadratic in c
    # (tied breakpoints would only add empty pieces, so each is taken once)
    supp = x > 1e-9
    off = ~supp
    breakpoints = sorted(set(-g[off]))
    cands = list(breakpoints)
    for lo, hi in zip([-math.inf] + breakpoints, breakpoints + [math.inf]):
        mid = (max(lo, -1e6) + min(hi, 1e6)) / 2.0
        active = off & (g + mid < 0.0)
        terms = g[supp | active]
        if terms.size:
            cands.append(min(max(-float(np.mean(terms)), lo), hi))
    best = math.inf
    for c in cands or [0.0]:
        best = min(best, float(np.sum((g[supp] + c) ** 2)
                               + np.sum(np.minimum(g[off] + c, 0.0) ** 2)))
    return math.sqrt(best)


def test_criterion_07_projection_oracles():
    rng = np.random.default_rng(123)
    worst_proj, worst_ncd = 0.0, 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        lo = rng.normal(size=d) - rng.uniform(0.1, 2.0, size=d)
        box = Box(lo, lo + rng.uniform(0.05, 3.0, size=d))
        ball = Ball(rng.normal(size=d), float(rng.uniform(0.2, 2.0)))
        simplex = Simplex(d)
        full = FullSpace(d)
        scale = 10.0 ** rng.uniform(-1, 1)
        v = scale * rng.normal(size=d)
        g = scale * rng.normal(size=d)
        worst_proj = max(
            worst_proj,
            float(np.max(np.abs(box.project(v) - _box_project_oracle(box, v)))),
            float(np.max(np.abs(ball.project(v) - _ball_project_oracle(ball, v)))),
            float(np.max(np.abs(simplex.project(v) - _simplex_project_oracle(v)))),
            float(np.max(np.abs(full.project(v) - v))))
        for cset, oracle in ((box, _box_ncd_oracle), (ball, _ball_ncd_oracle)):
            x = cset.project(v)
            worst_ncd = max(worst_ncd, abs(normal_cone_dist(cset, x, g)
                                           - oracle(cset, x, g)))
        xs = simplex.project(v)
        worst_ncd = max(worst_ncd, abs(normal_cone_dist(simplex, xs, g)
                                       - _simplex_ncd_oracle(xs, g)))
        worst_ncd = max(worst_ncd, abs(normal_cone_dist(full, v, g)
                                       - float(np.linalg.norm(g))))
    ok = worst_proj <= 1e-8 and worst_ncd <= 1e-8
    _report(7, "projection-oracles", ok,
            f"max |project - oracle| = {worst_proj:.2e}, "
            f"max |residual - oracle| = {worst_ncd:.2e} "
            f"(4 set kinds x 1000 cases)")


def test_criterion_08_group_dro_beats_erm(group_losses):
    worst_ratio = 0.0
    for seed in range(5):
        spec = make_two_group_regression(n=200, d=3, minority_frac=0.1,
                                         noise=0.1, noise_ratio=10.0,
                                         seed=seed)
        X = np.concatenate([np.asarray(g[0]) for g in spec.groups])
        t = np.concatenate([np.asarray(g[1]) for g in spec.groups])
        theta_erm, *_ = np.linalg.lstsq(X, t, rcond=None)
        worst_erm = float(np.max(group_losses(spec, theta_erm)))

        prob = as_problem(make_group_dro(spec), lam=1e-3)
        config = SolverConfig(K=40, T=25, M=32, B=200, alpha_x=5e-3,
                              alpha_y=0.05, beta=0.05, r=0.5, seed=seed)
        trace = run(prob, config)
        worst_dro = float(np.max(group_losses(spec, trace.output_pair[0])))
        worst_ratio = max(worst_ratio, worst_dro / worst_erm)
    _report(8, "group-dro-beats-erm", worst_ratio <= 0.95,
            f"max worst-group ratio (solver/erm) = {worst_ratio:.3f} "
            f"<= 0.95 across 5 seeds")


def test_criterion_09_uniform_output_sampling(trace_bits):
    prob = make_quadratic_saddle(1, 1, n_samples=2, noise=0.05, seed=0)
    config = SolverConfig(K=2, T=4, M=1, B=2, alpha_x=1e-3, alpha_y=1e-3,
                          beta=0.1, r=1.0, seed=0, trace_stride=8)
    # the 10,000 seeds run in one loop over a leading seed axis
    traces = run(prob, config, seeds=range(10_000))
    counts = np.zeros(8, dtype=np.int64)
    for trace in traces:
        k, tau = trace.output_index
        counts[k * 4 + tau] += 1
    # and each seed's trace is its own run's, bit for bit (50 seeds checked)
    same = 0
    for seed in range(0, 10_000, 200):
        config.seed = seed
        same += trace_bits(run(prob, config)) == trace_bits(traces[seed])
    pvalue = float(stats.chisquare(counts).pvalue)
    _report(9, "uniform-output-sampling", pvalue > 0.001 and same == 50,
            f"chi-square p = {pvalue:.3f} > 0.001, counts {counts.tolist()}; "
            f"{same} of 50 seeds equal their own runs bit for bit")


def test_criterion_10_complexity_trend(quad_run):
    prob, config, _audit, trace = quad_run
    epsilons = [1e-1, 3e-2, 1e-2]
    targets = []
    for eps in epsilons:
        tin = TunerInput(meta=prob.constants, epsilon=eps, regime=prob.regime,
                         overrides={"alpha_y": 4.0, "beta": 0.016,
                                    "T": 8, "M": 16}, sample_cap=1e12)
        _cfg, audit = tune_smooth(tin)
        targets.append(audit.outputs["KT_target"])
    slope = float(np.polyfit(np.log(1.0 / np.asarray(epsilons)),
                             np.log(targets), 1)[0])

    # the shared run confirms every target accuracy is actually attained,
    # in increasing numbers of iterations
    hits = []
    for eps in epsilons:
        for row in trace.rows:
            res_x, res_y = gs_residuals(prob, row.x, row.y)
            if max(res_x, res_y) <= eps:
                hits.append(row.k * config.T + row.tau)
                break
        else:
            hits.append(None)
    ok = (1.2 <= slope <= 2.8 and None not in hits
          and hits[0] < hits[1] < hits[2])
    _report(10, "complexity-trend", ok,
            f"log-log slope of planned iterations = {slope:.3f} in "
            f"[1.2, 2.8]; measured hitting steps {hits} for eps {epsilons}")


def test_criterion_11_tuner_fidelity(suite_checks):
    _report_suite(11, "tuner-fidelity", suite_checks("tuner"))


def test_criterion_12_merit_lower_bound():
    a, b, c, r = 2.0, 1.0, 1.0, 1.0
    oracle = StochasticOracle(
        regime=FiniteSum(1),
        grads_batch=lambda X, Y, ids: (a * X + b * Y, b * X - c * Y),
        values_batch=lambda X, Y, ids: (0.5 * a * X ** 2 + b * X * Y
                                        - 0.5 * c * Y ** 2)[:, 0])
    meta = SmoothnessMeta(L_x=a, L_y=max(b, c), rho=0.0, ell=10.0,
                          mu=math.sqrt(2.0 * c), theta=0.5)
    prob = ProblemInstance(oracle=oracle, set_x=Box([-4.0], [4.0]),
                           set_y=Box([-2.0], [2.0]), constants=meta)

    s = a + r

    def p_r_closed(z):
        # argmax of the inner minimum: quadratic in y with interior optimum
        y_star = b * r * z / (c * s + b ** 2)
        return (-(c / 2.0 + b ** 2 / (2.0 * s)) * y_star ** 2
                + (b * r * z / s) * y_star + a * r * z ** 2 / (2.0 * s))

    config = SolverConfig(K=50, T=1, M=1, B=1, alpha_x=0.05, alpha_y=0.2,
                          beta=0.1, r=r, seed=0)
    trace = run(prob, config, x0=np.array([1.5]), y0=np.array([1.0]))
    values, min_gap = [], math.inf
    for row in trace.rows:
        lv = lyapunov(prob, r, row.x, row.y, row.z)
        assert lv.certified
        values.append(lv.value)
        min_gap = min(min_gap, lv.value - p_r_closed(float(row.z[0])))
    ok = min_gap >= -1e-6 and values[-1] <= values[0]
    _report(12, "merit-lower-bound", ok,
            f"min(value - closed-form floor) = {min_gap:.2e} >= -1e-6 over "
            f"50 steps; value fell {values[0]:.4f} -> {values[-1]:.4f}")
