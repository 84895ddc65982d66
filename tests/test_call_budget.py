"""Noise-free cost guards: Python-level calls into the package per unit of
work, and the peak memory of a run.

Seconds vary too much between runs of one host to guard a regression in
the fast tier; call counts do not.  `sys.setprofile` reports a `call` event
for every Python function entered (and for every generator resumed); only
frames whose code lies in the `spidergda` package are counted, so the
numbers do not depend on numpy's version.  Operators that numpy dispatches
through type slots make no call event, so these counts complement timing
and do not replace it.  The counter, the `quad_tuned`/`gdro_smoothed`
schedules, the `cli_diagnostics` units and the certified merit units come
from `tools/calls_per_step.py`, which prints the same package counts next
to all Python-level and C-level calls, and, for the diagnostics units, the
oracle calls and their rows.

Each call budget is the count measured when the test was written.  Lower a
budget when a change removes calls; raising one loosens the guard.  The
peak-bytes budget is the `tracemalloc` peak measured then plus a margin,
because that peak moves by about a hundred bytes between runs; other
Python and numpy versions may move it further.
"""

import dataclasses
import importlib.util
import json
import tracemalloc
from pathlib import Path

import pytest

from spidergda import (as_problem, default_initial_point, diagnostics, gs_residuals,
                       make_group_dro, make_two_group_regression, run,
                       solve_x_r)
from spidergda.cli import EXIT_OK, run_experiment

_SPEC = importlib.util.spec_from_file_location(
    "calls_per_step", Path(__file__).resolve().parents[1] / "tools" / "calls_per_step.py")
_TOOL = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_TOOL)

# package calls of one run of K*T = 400 steps (6.63 per step; 4,606 or
# 11.52 per step while step, recurse and the id tables called Python-level
# helpers and a finite-sum anchor built an unused generator; 2,959 while a
# reservoir picked the output step as the run went; 2,949 while each trace
# row's norms were helper calls and the finite-sum anchor went through
# `full_grads`; 2,701 while each recorded row counted its samples with a
# call of its own)
RUN_CALLS = 2652
# package calls of the same schedule run for two seeds in one loop (6.68
# per step): the seeds share every per-step call, and only the per-seed
# set-up and the id tables, twice as many at the same ids per table, add
# calls (2,721 while each recorded row counted its samples)
RUN_TWO_SEEDS_CALLS = 2672
# tracemalloc peak of the same run, in bytes: 164,338 measured on Python
# 3.11 with numpy 2.4 (not yet on 3.10), set by the temporaries of the
# first id table, which is built before the run allocates its trace
# (169,615 while it was built at the first step)
RUN_PEAK_BYTES = 180_000
# package calls of the same schedule run for two seeds recording every
# step, as the CLI records (3,071 while each recorded row of each seed was
# a `TraceRow` of three copies, made in the loop): a recorded step is one
# state write, and the norm pass after the loop three `_row_norms` calls
# per 186 recorded steps
RUN_TWO_SEEDS_STRIDE_ONE_CALLS = 2678
# tracemalloc peak of that run, in bytes: 359,575 measured as above, set
# by the recorded states (401 by 2 seeds by 11 floats) and the norm pass's
# temporaries (611,754 with a `TraceRow` per seed-row)
RUN_TWO_SEEDS_STRIDE_ONE_PEAK_BYTES = 370_000
# tracemalloc peak of four epochs of `phi_div_dro` at n = 400, recording
# every step, in bytes: 4,483,794 measured as above, where each recorded
# state holds a `Simplex(400)` dual (4,435,667 with a `TraceRow` of three
# copies per row, built as the run went; 4,801,669 while the trace kept
# the states before each step next to those after it)
WIDE_STRIDE_ONE_PEAK_BYTES = 4_550_000
# package calls of one exact residual evaluation (24 while the normal-cone
# distances went through `normal_cone_dist`, 20 while `ProblemInstance`
# had the `dim_x`/`dim_y` properties)
GS_RESIDUALS_CALLS = 18
# package calls of one 64-row residual window of the benchmark's
# diagnostics schedule (648 while each row's normal-cone distances were
# two `normal_cone_dist` calls)
RESIDUAL_WINDOW_CALLS = 15
# package calls, and oracle calls among them, of one merit evaluation at a
# trace row of the benchmark's diagnostics schedule, whose p_r ascends from
# y alone and whose ascent's first inner solve is the cold solve of
# d_r(y, z) (34,028 and 1,717 when
# its 8 ascent starts ran one after another; 2,347 and 238 while each
# ascent step asked the oracle again for the y gradient at x_r; 2,225
# while `lyapunov` checked the regime itself; 2,224 while each d_r value
# looped over the per-sample values; 2,006 and 178 while the inner solve
# and the ascent were plain projected gradient, 62 ascent steps where the
# restarted FISTA ascent takes 34; 1,459 measured before `lyapunov`
# checked that x and y are feasible, 1,461 after; 1,491 while it was the
# one-row case of a `_lyapunov_rows` whose ascent passed each inner solve
# through a wrapper that mapped a stalled row to its owner, 1,455 since
# each row's label is passed down to the solve; 1,455 while `dim_x`
# was a property; 1,454 and 100 while p_r ascended from 8 starts, one of
# them solving d_r(y, z) again; 1,366 while the ascent projected its start
# and compared it with the cold solve's y bit for bit)
LYAPUNOV_CALLS = 1363
LYAPUNOV_ORACLE_CALLS = 94
# package calls, and oracle calls among them, of the whole merit column of
# one seed of the benchmark's diagnostics command (trace rows 0, 200 and
# 399 of seed 22), which the CLI makes as one `_lyapunov_rows` call: its
# three d_r(y, z) are rows of one lockstep solve and its three ascent
# starts, each row's y, rows of one ascent (300 oracle calls while the CLI called `lyapunov`
# once per row; 1,493 package calls while the ascent's inner solves went
# through a wrapper that mapped a stalled row to its owner; 1,457 while
# `dim_x` was a property; 1,456 and 100 while its ascent ran 24 starts,
# 8 per row, and solved each d_r(y, z) again; 1,400 while the ascent
# projected its starts and compared them with the cold solve's y bit for
# bit), and the rows of those oracle calls (34,544 with 8 starts per row)
MERIT_COLUMN_CALLS = 1397
MERIT_COLUMN_ORACLE_CALLS = 96
MERIT_COLUMN_ORACLE_ROWS = 4400
# package calls, and `batch_grads` and `batch_values` calls among them, of
# all the diagnostics of that seed as the command makes them: one
# `diagnose` call with residual_stride 1 and lyapunov_stride 200, the exact
# residuals of its 400 trace rows and the output pair (7 oracle calls of at
# most 64 points) and the merit column above (1,521 while `dim_x` was a
# property; 1,520 and 107 while the merit ran 8 ascent starts per row;
# 1,464 while the ascent projected its starts)
DIAGNOSE_SEED_CALLS = 1461
DIAGNOSE_SEED_ORACLE_CALLS = 103
DIAGNOSE_SEED_VALUES_CALLS = 2
# package calls, and `batch_grads` calls among them, of all the diagnostics
# of both seeds of that command (22 and 23) as the command makes them: one
# `diagnose` call over the seed axis, whose residual rows of both seeds are
# one rows call and whose six merit rows are one lockstep solve and ascent
# (3,054 and 214 as two single-seed `diagnose` calls; 1,558 and 113 while
# the merit ran 8 ascent starts per row; 1,502 while the ascent projected
# its starts)
DIAGNOSE_TWO_SEEDS_CALLS = 1499
DIAGNOSE_TWO_SEEDS_ORACLE_CALLS = 109
# `batch_grads` calls of a certified merit evaluation on the 1-D example:
# one per lockstep inner-solve iteration of d_r(y, z) and the 513 grid
# points; the ascent takes its start's grid row as its first inner solve,
# and each ascent step reuses the y side of its inner solve's last call (2
# while the ascent solved its start again; 515 while each grid point's
# solve was warm-started from the last, one after another; 516 with plain
# projected gradient)
KL_LYAPUNOV_ORACLE_CALLS = 1
# `batch_values` calls of the same evaluation: F_r at (x, y) with the d_r
# values of y and the whole 513-point grid, and the ascent's d_r (3 while
# F_r at (x, y) was a call of its own, 4 while d_r(y, z) was too; 516
# while each grid point's d_r was)
KL_LYAPUNOV_VALUES_CALLS = 2
# `batch_grads` calls of a certified merit evaluation on criterion 12's
# 1-D saddle at (1.5, 1.0, 1.2), r = 1: 33 while the ascent solved its
# start, a grid point, again; 1,572 while the grid's solves were a
# warm-start chain, where each took 3 momentum iterations
CERTIFIED_SADDLE_ORACLE_CALLS = 30
# `batch_grads` calls of one cold inner solve at r = 2 rho + 1 on a
# smoothed group DRO (n = 24), where kappa = (r + L_x)/(r - rho) = 7,287:
# 403 measured with the accelerated, restarted solve (67,783 with plain
# projected gradient, 998 with constant momentum and no restart).  The
# budget sits above the count because at this conditioning the restarts,
# and so the count, follow the last bits of the arithmetic, which other
# numpy builds may round differently
COMPOSITE_SOLVE_ORACLE_CALLS = 1500
# `batch_grads` calls of the console run with merit tracking on a smoothed
# two_group_regression (n = 60, seed 2, eps 0.05, K = 5, T = 4, merit every
# 10th trace row), which CI also runs under a 10 s timeout: its three merit
# rows ascend from their y alone, each start a row of one lockstep cold
# solve and that row the first inner solve of its start in one ascent
# (3,017 while each row ascended from y and 7 seeded perturbations, whose
# p_r was at most 9e-16 larger; 3,049 while the perturbed starts were
# solved in a second call, 3,052 while the starts at y repeated the cold
# solve of d_r(y, z), each with the same merit values bit for bit; 7,899
# while each row was a `lyapunov` call of its own, 477,555 with plain
# projected gradient)
COMPOSITE_MERIT_RUN_ORACLE_CALLS = 1880
# package calls, and oracle calls among them, of one epoch of the
# benchmark's smoothed group-DRO run (one anchor and T - 1 = 24 recursions;
# 497 calls before the lean step path, 398 while the smoothed batch hook
# was a lambda around `_smooth_grads_batch`, 373 while the group count
# was a property of the spec that each oracle call read, 348 while a
# reservoir picked the output step as the run went, 341 while the
# finite-sum anchor went through `full_grads`; its one trace row took its
# norms in the loop, where now three `_row_norms` calls over the recorded
# states take them after it, and the row no longer counts its samples with a call)
GDRO_EPOCH_CALLS = 339
GDRO_EPOCH_ORACLE_CALLS = 25


def _package_calls(fn, name=None) -> int:
    """Package calls that `fn()` makes, or only those of functions `name`."""
    return _TOOL.count_calls(fn, name)["package"]


# the benchmark's `quad_tuned` problem and schedule, at K = 50
_tuned_quadratic = _TOOL.quad_tuned


def test_solver_run_call_budget():
    p, cfg = _tuned_quadratic()
    assert cfg.K * cfg.T == 400
    calls = _package_calls(lambda: run(p, cfg))
    assert calls <= RUN_CALLS, f"{calls / 400:.2f} package calls per step"


def test_two_seeds_in_one_loop_share_the_per_step_calls():
    p, cfg = _tuned_quadratic()
    calls = _package_calls(lambda: run(p, cfg, seeds=[7, 8]))
    assert calls <= RUN_TWO_SEEDS_CALLS, f"{calls / 400:.2f} package calls per step"


def _peak_bytes(fn) -> int:
    """The tracemalloc peak of `fn()`, after a first call that does the
    set-up of a first call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solver_run_peak_bytes_budget():
    p, cfg = _tuned_quadratic()
    peak = _peak_bytes(lambda: run(p, cfg))
    assert peak <= RUN_PEAK_BYTES, f"{peak:,} bytes at the peak"


def test_two_seeds_recording_every_step_budgets():
    unit = _TOOL.quad_tuned_seeds(2, trace_stride=1)
    calls = _package_calls(unit)
    assert calls <= RUN_TWO_SEEDS_STRIDE_ONE_CALLS, f"{calls / 400:.2f} package calls per step"
    peak = _peak_bytes(unit)
    assert peak <= RUN_TWO_SEEDS_STRIDE_ONE_PEAK_BYTES, f"{peak:,} bytes at the peak"


def test_wide_problem_recording_every_step_peak_bytes():
    p, cfg = _TOOL.phi_div_epoch()
    cfg = dataclasses.replace(cfg, K=4, trace_stride=1)
    peak = _peak_bytes(lambda: run(p, cfg))
    assert peak <= WIDE_STRIDE_ONE_PEAK_BYTES, f"{peak:,} bytes at the peak"


def test_gs_residuals_call_budget():
    p, _ = _tuned_quadratic()
    x, y = default_initial_point(p.set_x), default_initial_point(p.set_y)
    calls = _package_calls(lambda: gs_residuals(p, x, y))
    assert calls <= GS_RESIDUALS_CALLS, f"{calls} package calls"


def test_residual_window_call_budget():
    # rows 0-63 of the cli_diagnostics workload's run with seed 22
    calls = _package_calls(_TOOL.residual_window())
    assert calls <= RESIDUAL_WINDOW_CALLS, f"{calls} package calls"


def test_lyapunov_row_call_budget():
    # row 200 of the cli_diagnostics workload's run with seed 22: p_r
    # comes from one ascent
    merit = _TOOL.merit_row()
    calls = _package_calls(merit)
    assert calls <= LYAPUNOV_CALLS, f"{calls} package calls"
    oracle_calls = _package_calls(merit, "batch_grads")
    assert oracle_calls <= LYAPUNOV_ORACLE_CALLS, f"{oracle_calls} oracle calls"


def test_merit_column_call_budget():
    # rows 0, 200 and 399 of the cli_diagnostics workload's run with seed
    # 22, the rows the command's lyapunov_stride of 200 picks
    merit = _TOOL.merit_column()
    calls = _package_calls(merit)
    assert calls <= MERIT_COLUMN_CALLS, f"{calls} package calls"
    oracle_calls = _package_calls(merit, "batch_grads")
    assert oracle_calls <= MERIT_COLUMN_ORACLE_CALLS, f"{oracle_calls} oracle calls"
    rows = _TOOL.count_calls(merit)["rows"]
    assert rows <= MERIT_COLUMN_ORACLE_ROWS, f"{rows} oracle rows"


def test_diagnose_seed_call_budget():
    # the residuals and merit column of the cli_diagnostics workload's run
    # with seed 22, as the command asks for them
    diagnose_seed = _TOOL.diagnose_seed()
    calls = _package_calls(diagnose_seed)
    assert calls <= DIAGNOSE_SEED_CALLS, f"{calls} package calls"
    oracle_calls = _package_calls(diagnose_seed, "batch_grads")
    assert oracle_calls <= DIAGNOSE_SEED_ORACLE_CALLS, f"{oracle_calls} oracle calls"
    values_calls = _package_calls(diagnose_seed, "batch_values")
    assert values_calls <= DIAGNOSE_SEED_VALUES_CALLS, f"{values_calls} values calls"


def test_diagnose_two_seeds_call_budget():
    # the diagnostics of both seeds of the cli_diagnostics workload's run,
    # one pass over the seed axis
    diagnose_two_seeds = _TOOL.diagnose_two_seeds()
    calls = _package_calls(diagnose_two_seeds)
    assert calls <= DIAGNOSE_TWO_SEEDS_CALLS, f"{calls} package calls"
    oracle_calls = _package_calls(diagnose_two_seeds, "batch_grads")
    assert oracle_calls <= DIAGNOSE_TWO_SEEDS_ORACLE_CALLS, f"{oracle_calls} oracle calls"


def test_kl_example_merit_oracle_call_budget():
    # the 1-D example at (x, y, z) = (0, 0.3, 0), r = 1: p_r is certified
    merit = _TOOL.certified_merit()
    assert merit().certified
    oracle_calls = _package_calls(merit, "batch_grads")
    assert oracle_calls <= KL_LYAPUNOV_ORACLE_CALLS, f"{oracle_calls} oracle calls"
    values_calls = _package_calls(merit, "batch_values")
    assert values_calls <= KL_LYAPUNOV_VALUES_CALLS, f"{values_calls} values calls"


def test_certified_saddle_merit_oracle_call_budget():
    merit = _TOOL.certified_saddle_merit()
    assert merit().certified
    oracle_calls = _package_calls(merit, "batch_grads")
    assert oracle_calls <= CERTIFIED_SADDLE_ORACLE_CALLS, f"{oracle_calls} oracle calls"


@pytest.mark.parametrize("unit, p_r", [("certified_merit", 2.0),
                                       ("certified_saddle_merit", 0.5399999999999965)])
def test_certified_ascent_solves_no_grid_point_again(unit, p_r, monkeypatch):
    # the ascent starts at the grid's best point, whose cold solve from z
    # is a row of the merit's one 514-row solve: it takes that row as its
    # first inner solve, so no later solve is at a grid point
    merit, solves, solve = getattr(_TOOL, unit)(), [], diagnostics._solve_rows
    monkeypatch.setattr(diagnostics, "_solve_rows",
                        lambda *a: solves.append(a[2][:, 0].tolist()) or solve(*a))
    assert merit().p_r == p_r
    grid = set(solves[0][1:])
    assert len(solves[0]) == 514 and len(grid) == 513
    assert [y for Y in solves[1:] for y in Y if y in grid] == []


def test_composite_cold_inner_solve_oracle_call_budget():
    p = as_problem(make_group_dro(make_two_group_regression(
        n=24, d=2, minority_frac=0.25, seed=3)), 0.1)
    r = 2 * p.constants.rho + 1
    y, z = default_initial_point(p.set_y), default_initial_point(p.set_x)
    oracle_calls = _package_calls(lambda: solve_x_r(p, r, y, z), "batch_grads")
    assert oracle_calls <= COMPOSITE_SOLVE_ORACLE_CALLS, f"{oracle_calls} oracle calls"


def test_composite_merit_run_oracle_call_budget(tmp_path):
    cfg = tmp_path / "composite_merit.json"
    cfg.write_text(json.dumps({
        "problem": {"kind": "two_group_regression", "n": 60, "seed": 2},
        "tuner": {"epsilon": 0.05, "overrides": {"K": 5, "T": 4}},
        "diagnostics": {"lyapunov_stride": 10},
        "output": {"directory": str(tmp_path / "out")}}))
    codes = []
    oracle_calls = _package_calls(
        lambda: codes.append(run_experiment(str(cfg), quiet=True)), "batch_grads")
    assert codes == [EXIT_OK]
    assert oracle_calls <= COMPOSITE_MERIT_RUN_ORACLE_CALLS, f"{oracle_calls} oracle calls"


def test_group_dro_epoch_call_budget():
    # the gdro_smoothed workload's problem and schedule (n = 200,
    # lambda = 1e-3, T = 25, M = 32) at K = 1, seed 7
    p, cfg = _TOOL.gdro_epoch()
    calls = _package_calls(lambda: run(p, cfg))
    assert calls <= GDRO_EPOCH_CALLS, f"{calls} package calls"
    oracle_calls = _package_calls(lambda: run(p, cfg), "batch_grads")
    assert oracle_calls <= GDRO_EPOCH_ORACLE_CALLS, f"{oracle_calls} oracle calls"
