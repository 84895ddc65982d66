"""Noise-free cost guards: Python-level calls into the package per unit of
work, and the peak memory of a run.

Seconds vary too much between runs of one host to guard a regression in
the fast tier; call counts do not.  `sys.setprofile` reports a `call` event
for every Python function entered (and for every generator resumed); only
frames whose code lies in the `spidergda` package are counted, so the
numbers do not depend on numpy's version.  Operators that numpy dispatches
through type slots make no call event, so these counts complement timing
and do not replace it.  The counter, the `quad_tuned`/`gdro_smoothed`
schedules and the `cli_diagnostics` units come from
`tools/calls_per_step.py`, which prints the same package counts next to
all Python-level and C-level calls.

Each call budget is the count measured when the test was written.  Lower a
budget when a change removes calls; raising one loosens the guard.  The
peak-bytes budget is the `tracemalloc` peak measured then plus a margin,
because that peak moves by about a hundred bytes between runs; other
Python and numpy versions may move it further.
"""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np

from spidergda import (default_initial_point, gs_residuals, lyapunov,
                       make_kl_example, run)

_SPEC = importlib.util.spec_from_file_location(
    "calls_per_step", Path(__file__).resolve().parents[1] / "tools" / "calls_per_step.py")
_TOOL = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_TOOL)

# package calls of one run of K*T = 400 steps (7.40 per step; 4,606 or
# 11.52 per step while step, recurse and the id tables called Python-level
# helpers and a finite-sum anchor built an unused generator)
RUN_CALLS = 2959
# tracemalloc peak of the same run, in bytes: 169,615 measured on Python
# 3.11 with numpy 2.4 (not yet on 3.10), set by the temporaries of the
# first id table
RUN_PEAK_BYTES = 180_000
# package calls of one exact residual evaluation (24 while the normal-cone
# distances went through `normal_cone_dist`)
GS_RESIDUALS_CALLS = 21
# package calls of one 64-row residual window of the benchmark's
# diagnostics schedule (648 while each row's normal-cone distances were
# two `normal_cone_dist` calls)
RESIDUAL_WINDOW_CALLS = 15
# package calls, and oracle calls among them, of one merit evaluation at a
# trace row of the benchmark's diagnostics schedule (34,028 and 1,717 when
# its 8 ascent starts ran one after another; 2,347 and 238 while each
# ascent step asked the oracle again for the y gradient at x_r)
LYAPUNOV_CALLS = 2225
LYAPUNOV_ORACLE_CALLS = 178
# scalar grad_x and grad_y calls of a certified merit evaluation on the
# 1-D example, whose oracle has no `grads_batch`
KL_LYAPUNOV_SCALAR_CALLS = {"grad_x": 516, "grad_y": 1}
# package calls, and oracle calls among them, of one epoch of the
# benchmark's smoothed group-DRO run (one anchor and T - 1 = 24 recursions;
# 497 calls before the lean step path, 398 while the smoothed batch hook
# was a lambda around `_smooth_grads_batch`)
GDRO_EPOCH_CALLS = 373
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


def test_solver_run_peak_bytes_budget():
    p, cfg = _tuned_quadratic()
    run(p, cfg)  # first-call set-up is not the run's cost
    tracemalloc.start()
    try:
        run(p, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= RUN_PEAK_BYTES, f"{peak:,} bytes at the peak"


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
    # comes from 8 ascents
    merit = _TOOL.merit_row()
    calls = _package_calls(merit)
    assert calls <= LYAPUNOV_CALLS, f"{calls} package calls"
    oracle_calls = _package_calls(merit, "batch_grads")
    assert oracle_calls <= LYAPUNOV_ORACLE_CALLS, f"{oracle_calls} oracle calls"


def test_scalar_oracle_merit_asks_no_extra_sides():
    # without grads_batch the inner solves ask for grad_x alone, and the
    # ascent asks for grad_y once per step
    p = make_kl_example()
    calls = dict.fromkeys(KL_LYAPUNOV_SCALAR_CALLS, 0)

    def counted(name):
        grad = getattr(p.oracle, name)

        def call(x, y, i):
            calls[name] += 1
            return grad(x, y, i)
        return call

    for name in calls:
        setattr(p.oracle, name, counted(name))
    assert lyapunov(p, 1.0, np.zeros(1), np.array([0.3]), np.zeros(1)).certified
    for name, budget in KL_LYAPUNOV_SCALAR_CALLS.items():
        assert calls[name] <= budget, f"{calls[name]} {name} calls"


def test_group_dro_epoch_call_budget():
    # the gdro_smoothed workload's problem and schedule (n = 200,
    # lambda = 1e-3, T = 25, M = 32) at K = 1, seed 7
    p, cfg = _TOOL.gdro_epoch()
    calls = _package_calls(lambda: run(p, cfg))
    assert calls <= GDRO_EPOCH_CALLS, f"{calls} package calls"
    oracle_calls = _package_calls(lambda: run(p, cfg), "batch_grads")
    assert oracle_calls <= GDRO_EPOCH_ORACLE_CALLS, f"{oracle_calls} oracle calls"
