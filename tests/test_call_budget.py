"""Noise-free cost guards: Python-level calls into the package per unit of work.

Seconds vary too much between runs of one host to guard a regression in
the fast tier; call counts do not.  `sys.setprofile` reports a `call` event
for every Python function entered (and for every generator resumed); only
frames whose code lies in the `spidergda` package are counted, so the
numbers do not depend on numpy's version.  Operators that numpy dispatches
through type slots make no call event, so these counts complement timing
and do not replace it.

Each budget is the count measured when the test was written.  Lower a
budget when a change removes calls; raising one loosens the guard.
"""

import os
import sys

import spidergda
from spidergda import (SolverConfig, TunerInput, as_problem,
                       default_initial_point, gs_residuals, lyapunov,
                       make_group_dro, make_quadratic_saddle,
                       make_two_group_regression, run, tune_smooth)

_PACKAGE = os.path.dirname(os.path.abspath(spidergda.__file__)) + os.sep

# package calls of one run of K*T = 400 steps (11.52 per step)
RUN_CALLS = 4606
# package calls of one exact residual evaluation
GS_RESIDUALS_CALLS = 24
# package calls, and oracle calls among them, of one merit evaluation at a
# trace row of the benchmark's diagnostics schedule (34,028 and 1,717 when
# its 8 ascent starts ran one after another)
LYAPUNOV_CALLS = 2347
LYAPUNOV_ORACLE_CALLS = 238
# package calls, and oracle calls among them, of one epoch of the
# benchmark's smoothed group-DRO run (one anchor and T - 1 = 24 recursions)
GDRO_EPOCH_CALLS = 497
GDRO_EPOCH_ORACLE_CALLS = 25


def _package_calls(fn, name=None) -> int:
    """Package calls that `fn()` makes, or only those of functions `name`."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(_PACKAGE)
                and name in (None, code.co_name)):
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _tuned_quadratic():
    """The benchmark's `quad_tuned` problem and schedule, at K = 50."""
    p = make_quadratic_saddle(4, 3, n_samples=16, a_range=(4.0, 6.0),
                              c_range=(0.05, 0.08), coupling=0.05,
                              linear_scale=0.1, noise=0.01, seed=11)
    cfg, _ = tune_smooth(TunerInput(
        meta=p.constants, epsilon=1e-3, regime=p.regime,
        overrides={"alpha_y": 4.0, "beta": 0.016, "T": 8, "M": 16, "K": 50}))
    cfg.seed = 7
    cfg.trace_stride = cfg.T
    return p, cfg


def test_solver_run_call_budget():
    p, cfg = _tuned_quadratic()
    assert cfg.K * cfg.T == 400
    calls = _package_calls(lambda: run(p, cfg))
    assert calls <= RUN_CALLS, f"{calls / 400:.2f} package calls per step"


def test_gs_residuals_call_budget():
    p, _ = _tuned_quadratic()
    x, y = default_initial_point(p.set_x), default_initial_point(p.set_y)
    calls = _package_calls(lambda: gs_residuals(p, x, y))
    assert calls <= GS_RESIDUALS_CALLS, f"{calls} package calls"


def test_lyapunov_row_call_budget():
    # row 200 of the cli_diagnostics workload's schedule (quadratic_saddle
    # 4x3, N = 16, K = 50, T = 8, M = 16), seed 22: p_r comes from 8 ascents
    p = make_quadratic_saddle(4, 3, n_samples=16, seed=11)
    cfg, _ = tune_smooth(TunerInput(
        meta=p.constants, epsilon=1e-3, regime=p.regime,
        overrides={"alpha_y": 4.0, "beta": 0.016, "K": 50, "T": 8, "M": 16}))
    cfg.seed = 22
    row = run(p, cfg).rows[200]

    def merit():
        return lyapunov(p, cfg.r, row.x, row.y, row.z)

    calls = _package_calls(merit)
    assert calls <= LYAPUNOV_CALLS, f"{calls} package calls"
    oracle_calls = _package_calls(merit, "batch_grads")
    assert oracle_calls <= LYAPUNOV_ORACLE_CALLS, f"{oracle_calls} oracle calls"


def test_group_dro_epoch_call_budget():
    # the gdro_smoothed workload's problem and schedule (n = 200,
    # lambda = 1e-3, T = 25, M = 32) at K = 1, seed 7
    spec = make_two_group_regression(n=200, d=3, minority_frac=0.1, noise=0.1,
                                     noise_ratio=10.0, seed=0)
    p = as_problem(make_group_dro(spec), lam=1e-3)
    cfg = SolverConfig(K=1, T=25, M=32, B=200, alpha_x=5e-3, alpha_y=0.05,
                       beta=0.05, r=0.5, seed=7, trace_stride=25)
    calls = _package_calls(lambda: run(p, cfg))
    assert calls <= GDRO_EPOCH_CALLS, f"{calls} package calls"
    oracle_calls = _package_calls(lambda: run(p, cfg), "batch_grads")
    assert oracle_calls <= GDRO_EPOCH_ORACLE_CALLS, f"{oracle_calls} oracle calls"
