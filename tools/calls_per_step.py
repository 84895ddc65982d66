"""Print the calls per solver step of three fixed schedules and of one of
them run for 1, 2 and 10 seeds in one loop (and for 2 seeds recording
every step), and the calls of seven diagnostics units.

    PYTHONPATH=src python3 tools/calls_per_step.py

Each schedule and unit runs once to warm up, then once under
`sys.setprofile`.  Three counts per step (or per unit) are printed:

- package: Python-level calls whose code lies in the `spidergda` package
  (what `tests/test_call_budget.py` budgets, with this module's schedules
  and counter);
- python: every Python-level call, numpy's Python wrappers included (a
  generator resumed counts as a call);
- c: every call of a C function or builtin method.

Operators that numpy dispatches through type slots (`a + b`, `a[i]`) and
calls of ufunc objects make no event, so the counts complement timing and
do not replace it.  The schedules are the benchmark's `quad_tuned` problem
at K = 50 (400 steps), one epoch (K = 1, T = 25) of its `gdro_smoothed`
run, and one epoch of `phi_div_dro` at n = 400, whose dual is a
`Simplex(400)` where `gdro_smoothed`'s is a `Simplex(2)`.  The seed units
run the `quad_tuned` schedule for S seeds in one `run(..., seeds=...)`
call; their per-step calls should not grow with S.  A last seed unit
runs two seeds and records every step, as the CLI does.  Three units
come from the first run of the benchmark's `cli_diagnostics` command: the
exact residuals of the 64 trace rows that one exact-gradient call takes at
N = 16, the merit function at one row, and the command's whole merit
column of that seed, three rows of one lockstep solve and ascent.  A
fourth is all the diagnostics of that seed, one `diagnose` call, and a
fifth those of both of the command's seeds as the command makes them, one
`diagnose` call over the seed axis.  The other two are certified merit
functions, whose p_r comes from a 513-point grid: of the 1-D example, and
of the 1-D saddle of the acceptance suite's criterion 12.
The counts depend on the numpy and Python versions, except the package
count.
"""

import math
import os
import sys

import numpy as np

import spidergda
from spidergda import (Box, FiniteSum, ProblemInstance, SmoothnessMeta,
                       SolverConfig, StochasticOracle, TunerInput, as_problem,
                       diagnose, lyapunov, make_group_dro, make_kl_example,
                       make_quadratic_saddle, make_two_group_regression, run,
                       tune_smooth)
from spidergda.cli import _phi_div_dro
from spidergda.diagnostics import _gs_residual_rows, _lyapunov_rows

_PACKAGE = os.path.dirname(os.path.abspath(spidergda.__file__)) + os.sep


def quad_tuned():
    """The `quad_tuned` problem and schedule at K = 50: 400 steps."""
    p = make_quadratic_saddle(4, 3, n_samples=16, a_range=(4.0, 6.0),
                              c_range=(0.05, 0.08), coupling=0.05,
                              linear_scale=0.1, noise=0.01, seed=11)
    cfg, _ = tune_smooth(TunerInput(
        meta=p.constants, epsilon=1e-3, regime=p.regime,
        overrides={"alpha_y": 4.0, "beta": 0.016, "T": 8, "M": 16, "K": 50}))
    cfg.seed = 7
    cfg.trace_stride = cfg.T
    return p, cfg


def quad_tuned_seeds(S: int, trace_stride=None):
    """The `quad_tuned` schedule for seeds 7..6+S in one loop, recording
    every `trace_stride`-th step (by default the schedule's T), as a call
    of no arguments."""
    p, cfg = quad_tuned()
    cfg.trace_stride = trace_stride or cfg.trace_stride
    seeds = list(range(cfg.seed, cfg.seed + S))
    return lambda: run(p, cfg, seeds=seeds)


def gdro_epoch():
    """One epoch of the `gdro_smoothed` schedule: 25 steps."""
    spec = make_two_group_regression(n=200, d=3, minority_frac=0.1, noise=0.1,
                                     noise_ratio=10.0, seed=0)
    p = as_problem(make_group_dro(spec), lam=1e-3)
    cfg = SolverConfig(K=1, T=25, M=32, B=200, alpha_x=5e-3, alpha_y=0.05,
                       beta=0.05, r=0.5, seed=7, trace_stride=25)
    return p, cfg


def phi_div_epoch():
    """One epoch (K = 1, T = 25) of `phi_div_dro` on the CLI's synthetic
    set at n = 400 (d = 3, seed 0): its dual is a `Simplex(400)`."""
    p = _phi_div_dro({"n": 400})
    cfg = SolverConfig(K=1, T=25, M=32, B=400, alpha_x=1e-3, alpha_y=1e-3,
                       beta=0.05, r=0.5, seed=7, trace_stride=25)
    return p, cfg


def cli_diagnostics():
    """The `cli_diagnostics` problem and schedule (quadratic_saddle 4x3,
    N = 16, K = 50, T = 8, M = 16) at its first seed, 22, with the trace
    of that run."""
    p = make_quadratic_saddle(4, 3, n_samples=16, seed=11)
    cfg, _ = tune_smooth(TunerInput(
        meta=p.constants, epsilon=1e-3, regime=p.regime,
        overrides={"alpha_y": 4.0, "beta": 0.016, "K": 50, "T": 8, "M": 16}))
    cfg.seed = 22
    return p, cfg, run(p, cfg)


def residual_window():
    """The exact residuals of the first 64 trace rows of `cli_diagnostics`,
    the points of one exact-gradient call at N = 16, as a call of no
    arguments."""
    p, _, trace = cli_diagnostics()
    rows = trace.rows[:64]
    X, Y = np.array([row.x for row in rows]), np.array([row.y for row in rows])
    return lambda: _gs_residual_rows(p, X, Y)


def merit_row():
    """The merit evaluation at row 200 of `cli_diagnostics`, whose p_r
    comes from 8 ascents, as a call of no arguments."""
    p, cfg, trace = cli_diagnostics()
    row = trace.rows[200]
    return lambda: lyapunov(p, cfg.r, row.x, row.y, row.z)


def merit_column():
    """The merit column of `cli_diagnostics` at its first seed: trace rows
    0, 200 and 399 (every `lyapunov_stride`-th row and the last), the rows
    of one `_lyapunov_rows` call as the command makes it, as a call of no
    arguments."""
    p, cfg, trace = cli_diagnostics()
    rows = [trace.rows[i] for i in (0, 200, 399)]
    X, Y, Z = (np.array([getattr(row, v) for row in rows]) for v in "xyz")
    return lambda: _lyapunov_rows(p, cfg.r, X, Y, Z)


def diagnose_seed():
    """The diagnostics of `cli_diagnostics` at its first seed as the command
    makes them: one `diagnose` call with residual_stride 1 and
    lyapunov_stride 200 (the exact residuals of all 400 trace rows and the
    output pair, and the merit at rows 0, 200 and 399), as a call of no
    arguments."""
    p, cfg, trace = cli_diagnostics()
    return lambda: diagnose(p, trace, cfg, 1, 200)


def diagnose_two_seeds():
    """The diagnostics of `cli_diagnostics` at both its seeds, 22 and 23, as
    the command makes them: one `diagnose` call over the list that one
    `run(..., seeds=[22, 23])` returns, with the strides of `diagnose_seed`
    (both seeds' residuals in one rows call and their six merit rows in one
    lockstep solve and ascent), as a call of no arguments."""
    p, cfg, _ = cli_diagnostics()
    traces = run(p, cfg, seeds=[22, 23])
    return lambda: diagnose(p, traces, cfg, 1, 200)


def certified_merit():
    """The merit evaluation of the 1-D example at (x, y, z) = (0, 0.3, 0),
    r = 1, which is certified by a 513-point grid on its box dual, as a
    call of no arguments that returns the `LyapunovValue`."""
    p = make_kl_example()
    return lambda: lyapunov(p, 1.0, np.zeros(1), np.array([0.3]), np.zeros(1))


def certified_saddle_merit():
    """The merit evaluation of criterion 12's saddle,
    F = x^2 + x y - y^2/2 on [-4, 4] x [-2, 2], at (x, y, z) =
    (1.5, 1.0, 1.2), r = 1, certified by a 513-point grid on its box dual,
    as a call of no arguments that returns the `LyapunovValue`."""
    oracle = StochasticOracle(
        regime=FiniteSum(1),
        grads_batch=lambda X, Y, ids: (2.0 * X + Y, X - Y),
        values_batch=lambda X, Y, ids: (X ** 2 + X * Y - 0.5 * Y ** 2)[:, 0])
    p = ProblemInstance(
        oracle=oracle, set_x=Box([-4.0], [4.0]), set_y=Box([-2.0], [2.0]),
        constants=SmoothnessMeta(L_x=2.0, L_y=1.0, rho=0.0, ell=10.0,
                                 mu=math.sqrt(2.0), theta=0.5))
    return lambda: lyapunov(p, 1.0, np.array([1.5]), np.array([1.0]), np.array([1.2]))


def count_calls(fn, name=None) -> dict:
    """Package, Python-level and C-level call events of `fn()`; with `name`,
    the package count holds only the calls of functions so named."""
    counts = {"package": 0, "python": 0, "c": 0}

    def profile(frame, event, arg):
        if event == "call":
            counts["python"] += 1
            code = frame.f_code
            if (code.co_filename.startswith(_PACKAGE)
                    and name in (None, code.co_name)):
                counts["package"] += 1
        elif event == "c_call":
            counts["c"] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


def main() -> int:
    print(f"{'schedule':<14} {'steps':>6} {'package':>9} {'python':>9} {'c':>9}"
          "   (calls per step)")
    for name, build in (("quad_tuned", quad_tuned), ("gdro_smoothed", gdro_epoch),
                        ("phi_div_dro", phi_div_epoch)):
        p, cfg = build()
        steps = cfg.K * cfg.T
        run(p, cfg)
        counts = count_calls(lambda: run(p, cfg))
        print(f"{name:<14} {steps:>6} " + " ".join(
            f"{counts[k] / steps:>9.2f}" for k in ("package", "python", "c")))
    for name, unit in [(f"quad S={S}", quad_tuned_seeds(S)) for S in (1, 2, 10)] + [
            ("quad S=2 stride 1", quad_tuned_seeds(2, 1))]:
        unit()
        counts = count_calls(unit)
        print(f"{name:<17} {400:>3} " + " ".join(
            f"{counts[k] / 400:>9.2f}" for k in ("package", "python", "c")))
    print(f"{'unit':<22} {'package':>9} {'python':>9} {'c':>9}   (calls per unit)")
    for name, build in (("residual_window", residual_window), ("merit_row", merit_row),
                        ("merit_column", merit_column), ("diagnose_seed", diagnose_seed),
                        ("diagnose_two_seeds", diagnose_two_seeds),
                        ("certified_merit", certified_merit),
                        ("certified_saddle_merit", certified_saddle_merit)):
        unit = build()
        unit()
        counts = count_calls(unit)
        print(f"{name:<22} " + " ".join(
            f"{counts[k]:>9}" for k in ("package", "python", "c")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
