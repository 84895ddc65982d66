"""Schedule tests: every closed-form formula is recomputed independently in
the test (or frozen from a hand calculation) and compared bit-for-bit where
the arithmetic permits.

The "unit" fixture (all constants 1, theta = 1/2) makes each branch easy to
check by hand: r = 2 + 325*2 + 12*sqrt(4) = 676, alpha_x = 1/(12*679)
= 1/8148, lower bound 48/675^2 = 48/455625.  The `tuner` verify suite
checks these three values; the unit-constant tests assert its checks.
"""

import logging
import math
from dataclasses import replace

import pytest

import numpy as np

from spidergda import (Box, CompositeConstants, FiniteSum,
                       InfeasibleScheduleError, MoreauComposite, Online,
                       ProblemInstance, SmoothnessMeta, StochasticOracle,
                       TunerInput, alpha_x_interval, compute_alpha_y,
                       compute_beta, compute_r, compute_varpi,
                       compute_budget, make_quadratic_saddle, run,
                       samples_drawn, smoothed_constants, tune_nonsmooth,
                       tune_smooth)
from spidergda.tuner import _kt_branches


def _unit_meta(**kw):
    base = dict(L_x=1.0, L_y=1.0, rho=1.0, ell=1.0, mu=1.0, theta=0.5)
    base.update(kw)
    return SmoothnessMeta(**base)


# ----------------------------------------------------------------------------
# individual schedules against hand values

def test_r_unit_constants(suite_checks):
    # branch 1: 2*1 + 325*(1+1) + 12*sqrt(1)*sqrt(2*(1+1)) = 2 + 650 + 24
    assert suite_checks("tuner")["prox weight r = 676 at unit constants"].ok


def test_r_picks_larger_branch():
    # L_y large makes the quadratic branch dominate:
    # b2 = 2*0 + 54*10*11 + 4*sqrt(0) = 5940 > b1 = 325*11 = 3575
    m = SmoothnessMeta(L_x=0.0, L_y=10.0, rho=0.0, ell=1.0)
    assert compute_r(m) == 5940.0


def test_alpha_x_unit_constants(suite_checks):
    # branches: 1/(12*(676+1+2)) = 1/8148; (675^2)/(24*677^2*2) ~ 2.07e-2;
    # (676-3)/(2*677) ~ 0.497 -> min is the first
    checks = suite_checks("tuner")
    assert checks["primal step alpha_x = 1/8148 at unit constants"].ok
    assert checks["primal step lower bound = 48/455625 at unit constants"].ok


def test_alpha_x_infeasible_when_r_too_small():
    # r = 10: lower = 48/81 ~ 0.59 exceeds the 1/(12*13) branch
    with pytest.raises(InfeasibleScheduleError, match="no valid alpha_x"):
        tune_smooth(TunerInput(meta=_unit_meta(), epsilon=0.1,
                               regime=FiniteSum(4), overrides={"r": 10.0}))


def test_alpha_x_requires_r_above_rho():
    with pytest.raises(InfeasibleScheduleError):
        alpha_x_interval(_unit_meta(), 0.5)


def test_alpha_y_caps():
    assert compute_alpha_y(_unit_meta(), 0.5) == 1.0 / 40.0
    m = SmoothnessMeta(L_x=1.0, L_y=100.0, rho=0.0, ell=1.0)
    assert compute_alpha_y(m, 0.5) == 1.0 / 4000.0
    m0 = SmoothnessMeta(L_x=1.0, L_y=0.0, rho=0.0, ell=1.0)
    assert compute_alpha_y(m0, 0.5) == 0.25  # 1/(40 L_y) branch inactive


def test_varpi_matches_hand_expression():
    m = _unit_meta(D_Y=1.0)
    alpha_y = 1.0 / 8148.0
    s2 = 2.0 + 1.0 / 675.0
    want = (2.0 / 675.0) * (2.0 / alpha_y ** 2 + 2.0 * s2 ** 2 + 2.0)
    assert compute_varpi(m, 676.0, alpha_y) == want


def test_beta_low_theta_unit_constants():
    # the error-bound branch dominates: L_y/(20 r varpi) ~ 1.9e-10
    m = _unit_meta()
    alpha_x = alpha_x_interval(m, 676.0)[1]
    alpha_y = compute_alpha_y(m, alpha_x)
    beta = compute_beta(m, 676.0, alpha_x, 0.1, alpha_y)
    varpi = compute_varpi(m, 676.0, alpha_y)
    assert beta == 1.0 / (20.0 * 676.0 * varpi)
    assert beta == 1.8800310261948302e-10


def test_beta_high_theta_worked_example():
    # theta=1, mu=1, L_y=1, r=10, alpha_x=0.01, eps=0.1:
    # branches 0.1, 0.01, 0.001, 0.01 -> 0.001
    m = _unit_meta(theta=1.0)
    beta = compute_beta(m, 10.0, 0.01, 0.1, compute_alpha_y(m, 0.01))
    assert beta == pytest.approx(1e-3, rel=1e-12)


def test_beta_never_exceeds_cap():
    import random
    rnd = random.Random(7)
    for _ in range(200):
        theta = rnd.choice([0.0, 0.25, 0.5, 0.6, 0.75, 1.0])
        m = SmoothnessMeta(L_x=rnd.uniform(0, 50), L_y=rnd.uniform(0, 50),
                           rho=rnd.uniform(0, 5), ell=rnd.uniform(0.1, 10),
                           mu=rnd.uniform(0.01, 10), theta=theta)
        r = compute_r(m) * rnd.uniform(1.0, 3.0)
        alpha_x = alpha_x_interval(m, r)[1]
        beta = compute_beta(m, r, alpha_x, rnd.uniform(1e-3, 1.0),
                            compute_alpha_y(m, alpha_x),
                            asymptotic_constant=rnd.uniform(0.1, 100.0))
        assert 0.0 < beta <= 1.0 / 30.0


def test_beta_theta_below_half_ignores_epsilon():
    m0 = _unit_meta(theta=0.0)
    m1 = _unit_meta(theta=0.25)
    ax = alpha_x_interval(m0, 676.0)[1]
    # ell*D_Y = 1 makes the (ell D_Y)^(1-2 theta) factor 1 at every theta
    b0 = compute_beta(replace(m0, D_Y=1.0), 676.0, ax, 0.1,
                      compute_alpha_y(m0, ax))
    b1 = compute_beta(replace(m1, D_Y=1.0), 676.0, ax, 0.01,
                      compute_alpha_y(m1, ax))
    assert b0 == b1


# ----------------------------------------------------------------------------
# budgets

def test_budget_finite_sum_worked_example():
    # N=128 -> B=128, T=M=ceil(sqrt(64))=8; KT = max(2, 2)/eps^2 ~ 200,
    # K = ceil(200/8) = 25; planned 25*128 + 25*7*8 = 4600
    cfg, audit = tune_smooth(TunerInput(meta=_unit_meta(), epsilon=0.1,
                                        regime=FiniteSum(128)))
    out = audit.outputs
    assert (out["K"], out["T"], out["M"], out["B"]) == (25, 8, 8, 128)
    assert out["KT_target"] == 199.99999999999997
    assert out["planned_samples"] == 4600
    assert (cfg.K, cfg.T, cfg.M, cfg.B) == (25, 8, 8, 128)


def test_budget_online_low_theta():
    # B = sig^2 L_y^2 / ((L_y^2 + L_x) eps^2) * max-branch
    #   = (2 / (2 * 0.01)) * 2 = 200; T = M = ceil(sqrt(100)) = 10; K = 20
    m = _unit_meta(sigma_x=1.0, sigma_y=1.0)
    cfg, audit = tune_smooth(TunerInput(meta=m, epsilon=0.1, regime=Online()))
    out = audit.outputs
    assert (out["K"], out["T"], out["M"], out["B"]) == (20, 10, 10, 200)


def test_budget_inner_loop_scaling():
    for B, want in [(50, 5), (2, 1), (1, 1), (128, 8)]:
        cfg, _ = tune_smooth(TunerInput(
            meta=_unit_meta(), epsilon=0.1, regime=FiniteSum(B)))
        assert cfg.T == cfg.M == want
        assert cfg.T == max(1, math.ceil(math.sqrt(B / 2.0)))


def test_budget_sample_cap_overflow():
    with pytest.raises(OverflowError):
        tune_smooth(TunerInput(meta=_unit_meta(), epsilon=0.1,
                               regime=FiniteSum(128), sample_cap=100))


def _online_toy_problem():
    """f(x, y; xi) = x*y for every online sample xi."""
    oracle = StochasticOracle(
        regime=Online(),
        grads_batch=lambda X, Y, ids: (Y.copy(), X.copy()),
        values_batch=lambda X, Y, ids: (X * Y)[:, 0])
    return ProblemInstance(oracle=oracle, set_x=Box([-1.0], [1.0]),
                           set_y=Box([-1.0], [1.0]),
                           constants=SmoothnessMeta(L_x=0, L_y=1, rho=0, ell=8))


def _tune(problem, overrides, **kw):
    return tune_smooth(TunerInput(meta=problem.constants, epsilon=0.1,
                                  regime=problem.regime, overrides=overrides,
                                  **kw))


@pytest.mark.parametrize("case", ["finite_sum", "finite_sum_B", "online"])
def test_planned_samples_equal_the_runs_draws(case):
    # a finite-sum anchor draws all N samples whatever B says, so a B
    # override must not shrink the plan below what run() draws
    overrides = dict(K=6, T=4, M=8)
    if case == "online":
        problem = _online_toy_problem()
        overrides["B"] = 5
    else:
        problem = make_quadratic_saddle(4, 3, n_samples=16, seed=11)
        if case == "finite_sum_B":
            overrides["B"] = 2
    cfg, audit = _tune(problem, overrides)
    planned = audit.outputs["planned_samples"]
    assert planned == run(problem, cfg).total_samples
    assert planned == (6 * 5 if case == "online" else 6 * 16) + 6 * 3 * 8


def test_sample_cap_counts_the_full_finite_sum_anchor():
    # the plan counts 16-sample anchors, not B=2 ones: 6*16 + 6*3*8 = 240
    problem = make_quadratic_saddle(4, 3, n_samples=16, seed=11)
    overrides = dict(K=6, T=4, M=8, B=2)
    with pytest.raises(OverflowError):
        _tune(problem, overrides, sample_cap=200)
    _tune(problem, overrides, sample_cap=240)


def test_iteration_count_grows_as_epsilon_shrinks():
    targets = []
    for eps in [0.5, 0.2, 0.1, 0.05, 0.02]:
        _, audit = tune_smooth(TunerInput(meta=_unit_meta(), epsilon=eps,
                                          regime=FiniteSum(4)))
        targets.append(audit.outputs["KT_target"])
    assert all(a < b for a, b in zip(targets, targets[1:]))


def _planned_samples(meta, epsilon, regime):
    # compute_budget builds no SolverConfig, so K may pass 2**31 here
    K, T, M, B, _ = compute_budget(TunerInput(meta=meta, epsilon=epsilon,
                                              regime=regime, sample_cap=math.inf))
    return samples_drawn(regime, T, M, B, K * T - 1)


def _log_slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(np.asarray(ys, dtype=float)), 1)[0])


@pytest.mark.parametrize("theta", [0.25, 0.5, 2 / 3, 0.75, 0.9, 1.0])
def test_planned_samples_follow_the_abstracts_exponents(abs_value, theta):
    # samples ~ eps^-p: smooth problems use the unit constants, nonsmooth
    # ones the lambda = eps smoothed constants of a unit composite; the fit
    # runs over eps in [1e-6, 1e-5], where the leading branch dominates
    comp = _unit_moreau(abs_value)
    eps = np.geomspace(1e-6, 1e-5, 5)
    expected = {
        ("smooth", "finite-sum"): max(4 * theta, 2),
        ("smooth", "online"): max(6 * theta, 3),
        ("nonsmooth", "finite-sum"): max(3, 5 * theta, (11 * theta - 3) / (2 * theta)),
        ("nonsmooth", "online"): max(4, (15 * theta - 1) / 2, (31 * theta - 9) / (4 * theta)),
    }
    for (kind, regime_name), p in expected.items():
        regime = FiniteSum(1000) if regime_name == "finite-sum" else Online()
        samples = []
        for e in eps:
            base = (SmoothnessMeta(L_x=1.0, L_y=1.0, rho=1.0, ell=1.0)
                    if kind == "smooth" else smoothed_constants(comp, e))
            meta = replace(base, sigma_x=1.0, sigma_y=1.0, mu=1.0, theta=theta)
            samples.append(_planned_samples(meta, e, regime))
        # to two decimals
        assert abs(_log_slope(1.0 / eps, samples) - p) < 0.005, (kind, regime_name)


def test_planned_samples_grow_as_sqrt_n():
    Ns = np.array([10 ** 4, 10 ** 5, 10 ** 6])
    samples = [_planned_samples(_unit_meta(), 1e-3, FiniteSum(int(n))) for n in Ns]
    assert abs(_log_slope(Ns, samples) - 0.5) < 0.005


def test_iteration_schedule_continuous_at_theta_half():
    # at unit constants every theta > 1/2 branch limits to the theta <= 1/2
    # value 200, so an infinitesimal exponent bump barely moves the count
    lo = _kt_branches(_unit_meta(theta=0.5), 0.1)
    hi = _kt_branches(_unit_meta(theta=0.5 + 1e-9), 0.1)
    assert hi == pytest.approx(lo, rel=1e-6)


# ----------------------------------------------------------------------------
# overrides and validation

def test_override_r_too_small_is_rejected():
    with pytest.raises(InfeasibleScheduleError):
        tune_smooth(TunerInput(meta=_unit_meta(), epsilon=0.1,
                               regime=FiniteSum(8), overrides={"r": 10.0}))


def test_override_alpha_x_validated_against_interval():
    with pytest.raises(InfeasibleScheduleError):
        tune_smooth(TunerInput(meta=_unit_meta(), epsilon=0.1,
                               regime=FiniteSum(8),
                               overrides={"alpha_x": 0.5}))


def test_overrides_flow_downstream():
    cfg, audit = tune_smooth(TunerInput(
        meta=_unit_meta(), epsilon=0.1, regime=FiniteSum(8),
        overrides={"beta": 0.01, "K": 3, "T": 2, "M": 1}))
    assert cfg.beta == 0.01
    assert (cfg.K, cfg.T, cfg.M, cfg.B) == (3, 2, 1, 8)
    assert audit.inputs["overrides"] == {"beta": 0.01, "K": 3, "T": 2, "M": 1}


def test_tuner_input_validation():
    with pytest.raises(ValueError):
        TunerInput(meta=_unit_meta(), epsilon=0.0, regime=FiniteSum(4))
    with pytest.raises(ValueError):
        TunerInput(meta=_unit_meta(), epsilon=0.1, regime=FiniteSum(4),
                   overrides={"gamma": 1.0})
    with pytest.raises(ValueError):
        TunerInput(meta=_unit_meta(), epsilon=0.1, regime=FiniteSum(4),
                   asymptotic_constant=0.0)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
def test_sample_cap_must_be_positive(bad):
    # a NaN cap never compares above a plan, so it would switch the cap
    # off; a cap <= 0 would fail later as an overflow of the plan
    with pytest.raises(ValueError, match="sample_cap must be positive"):
        TunerInput(meta=_unit_meta(), epsilon=1e-4, regime=FiniteSum(4),
                   sample_cap=bad)


@pytest.mark.parametrize("name", ["K", "T", "M", "B"])
@pytest.mark.parametrize("bad", [2.5, 3.0, True, 0, -1, "4"])
def test_count_overrides_must_be_positive_integers(name, bad):
    # a float count used to be truncated by the tuner while the audit kept
    # the float
    with pytest.raises(ValueError, match=f"override {name} must be a positive integer"):
        TunerInput(meta=_unit_meta(), epsilon=0.1, regime=FiniteSum(8),
                   overrides={name: bad})


def test_numpy_integer_overrides_pass():
    cfg, _ = tune_smooth(TunerInput(
        meta=_unit_meta(), epsilon=0.1, regime=FiniteSum(8),
        overrides={"K": np.int64(3), "T": np.int32(2), "M": np.uint8(1)}))
    assert (cfg.K, cfg.T, cfg.M) == (3, 2, 1)


def test_audit_replay_is_bit_exact():
    tin = TunerInput(meta=_unit_meta(sigma_x=0.3, sigma_y=0.7), epsilon=0.07,
                     regime=FiniteSum(33), delta_phi_estimate=2.5,
                     asymptotic_constant=1.5)
    _, audit1 = tune_smooth(tin)
    # rebuild the input purely from the recorded audit and re-run
    rec = audit1.inputs
    meta = SmoothnessMeta(**rec["meta"])
    regime = (FiniteSum(rec["regime"]["n"])
              if rec["regime"]["kind"] == "finite_sum" else Online())
    tin2 = TunerInput(meta=meta, epsilon=rec["epsilon"], regime=regime,
                      delta_phi_estimate=rec["delta_phi_estimate"],
                      overrides=rec["overrides"],
                      asymptotic_constant=rec["asymptotic_constant"],
                      sample_cap=rec["sample_cap"])
    _, audit2 = tune_smooth(tin2)
    assert audit1.outputs == audit2.outputs
    assert audit1.inputs == audit2.inputs


# ----------------------------------------------------------------------------
# smoothing level and smoothed constants

def _unit_composite(**kw):
    base = dict(ell_c=1.0, ell_h=1.0, ell_phi=1.0, L_c=1.0, L_phi=1.0,
                delta_tilde=1.0)
    base.update(kw)
    return CompositeConstants(**base)


def _unit_moreau(abs_value, **kw):
    """f(x, y; i) = y |x| on [-1, 1]^2 with 8 samples, declaring the unit
    composite constants (the tuner reads only those and d_h = 1)."""
    return MoreauComposite(
        c_batch=lambda X, ids: (X.copy(), np.ones((len(ids), 1, 1))),
        h=[abs_value()],
        phi_batch=lambda u, Y, ids: (Y * u)[:, 0],
        phi_grads_batch=lambda u, Y, ids: (Y.copy(), u.copy()),
        constants=_unit_composite(**kw), regime=FiniteSum(8),
        set_x=Box([-1.0], [1.0]), set_y=Box([-1.0], [1.0]))


def test_smoothed_constants_unit_quarter(abs_value):
    # lam = 1/4 keeps the arithmetic dyadic: L_x = sqrt(3/lam^2 + 3 + 3)
    # = sqrt(54); rho = 1 + 1 = 2; mu and theta are the composite's
    sc = smoothed_constants(replace(_unit_moreau(abs_value), mu=0.5, theta=0.75), 0.25)
    assert sc == SmoothnessMeta(L_x=math.sqrt(54.0), L_y=1.0, rho=2.0, ell=1.0,
                                mu=0.5, theta=0.75)


def test_smoothed_L_y_reduces_to_L_phi(abs_value):
    sc = smoothed_constants(_unit_moreau(abs_value, ell_h=0.0, L_phi=7.0), 0.25)
    assert sc.L_y == 7.0


def test_smoothed_L_x_scales_inversely_with_lambda(abs_value):
    c = _unit_moreau(abs_value)
    big = smoothed_constants(c, 1e-4).L_x
    small = smoothed_constants(c, 1e-2).L_x
    assert big > 50 * small  # ~1/lam in the dominant term


def test_lambda_auto_tracks_epsilon(abs_value):
    problem, cfg, audit = tune_nonsmooth(_unit_moreau(abs_value), 0.05)
    assert problem.metadata["lambda"] == 0.05
    assert audit.outputs["lambda"] == 0.05
    assert audit.outputs["lambda_cap"] == 2.0
    assert audit.inputs["lambda_choice"] == "auto"
    # the smoothed constants drive the recorded schedule inputs
    assert audit.inputs["meta"]["L_x"] == audit.outputs["smoothed_L_x"]
    assert problem.constants.L_x == audit.outputs["smoothed_L_x"]


def test_lambda_clamped_with_warning(abs_value, caplog):
    with caplog.at_level(logging.WARNING, logger="spidergda.tuner"):
        problem, _, audit = tune_nonsmooth(
            _unit_moreau(abs_value, delta_tilde=0.001), 0.1)
    # ceiling 2*delta_tilde/(ell_h^2 sqrt(d_h))
    assert problem.metadata["lambda"] == 0.002
    assert any("clamped" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("bad", [-0.1, 0.0, math.nan])
@pytest.mark.parametrize("choice", ["auto", 0.25])
def test_nonsmooth_names_a_bad_epsilon(abs_value, bad, choice):
    # an auto lambda of a bad epsilon used to fail as "lambda must be positive"
    with pytest.raises(ValueError, match="epsilon must be positive"):
        tune_nonsmooth(_unit_moreau(abs_value), bad, lambda_choice=choice)


def test_lambda_explicit_choice(abs_value):
    comp = _unit_moreau(abs_value)
    problem, _, audit = tune_nonsmooth(comp, 0.1, lambda_choice=0.25)
    assert problem.metadata["lambda"] == 0.25
    assert audit.outputs["smoothed_L_x"] == math.sqrt(54.0)
    for bad in (-1.0, 0.0, math.nan):  # as_problem's check rejects each
        with pytest.raises(ValueError, match="lambda must be positive"):
            tune_nonsmooth(comp, 0.1, lambda_choice=bad)


def test_nonsmooth_refuses_an_online_composite(abs_value):
    # the smoothed constants carry sigma = 0, which used to plan an online
    # run with B = T = M = 1 from no variance at all
    comp = replace(_unit_moreau(abs_value), regime=Online())
    with pytest.raises(ValueError, match="online composite goes through as_problem"):
        tune_nonsmooth(comp, 0.1, overrides={"K": 1})
