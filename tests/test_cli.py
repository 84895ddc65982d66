"""Command-line interface tests: config validation, exit codes, artifact
formats, and byte-level reproducibility of reruns."""

import filecmp
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from spidergda import (Box, MaxItersError, NonFiniteError, Online, ProblemInstance,
                       RegimeError, SmoothnessMeta, SolverConfig, StochasticOracle,
                       batch_rng, diagnose, mc_gs_residuals, run)
from spidergda.cli import _SCHEMA, _build_problem, _load_config, _tune
from spidergda.cli import (EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_INFEASIBLE,
                           EXIT_NUMERICAL, EXIT_OK, TRACE_HEADER, ConfigError,
                           main, run_experiment, verify)
from spidergda.tuner import OVERRIDE_KEYS
from spidergda.verify import SUITES, Check


def _kl_config(**extra):
    cfg = {
        "problem": {"kind": "kl_example"},
        "tuner": {"epsilon": 0.1,
                  "overrides": {"alpha_y": 0.2, "K": 50, "T": 1, "M": 1,
                                "B": 1}},
        "solver": {"y0": [1.8]},
        "seeds": [0, 1],
    }
    cfg.update(extra)
    return cfg


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------------
# run command

def test_run_produces_artifacts(tmp_path):
    cfg_path = _write(tmp_path, _kl_config())
    out = tmp_path / "out"
    assert run_experiment(cfg_path, out_dir=str(out), quiet=True) == EXIT_OK
    assert (out / "trace_seed0.csv").exists()
    assert (out / "trace_seed1.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert {r["seed"] for r in summary["runs"]} == {0, 1}
    for r in summary["runs"]:
        assert r["final_res_y"] <= 0.1  # converged within epsilon
        assert r["total_samples"] > 0
        assert len(r["output_index"]) == 2
    audit = summary["tuner_audit"]
    assert audit["inputs"]["overrides"]["alpha_y"] == 0.2
    assert audit["outputs"]["K"] == 50


def test_rerun_is_byte_identical(tmp_path):
    cfg_path = _write(tmp_path, _kl_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_experiment(cfg_path, out_dir=str(out1), quiet=True) == EXIT_OK
    assert run_experiment(cfg_path, out_dir=str(out2), quiet=True) == EXIT_OK
    for name in ("trace_seed0.csv", "trace_seed1.csv", "summary.json"):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def test_trace_csv_format(tmp_path):
    cfg = _kl_config(diagnostics={"residual_stride": 5})
    cfg["tuner"]["overrides"]["K"] = 10
    cfg["seeds"] = [3]
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert run_experiment(cfg_path, out_dir=str(out), quiet=True) == EXIT_OK
    raw = (out / "trace_seed3.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == TRACE_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(r) == 9 for r in rows)
    res_col = TRACE_HEADER.split(",").index("res_y")
    assert rows[0][res_col] != ""    # stride hit
    assert rows[1][res_col] == ""    # skipped between strides
    assert rows[-1][res_col] != ""   # final row always measured
    # floats in the file round-trip exactly
    assert repr(float(rows[-1][res_col])) == rows[-1][res_col]


def test_merit_column_annotated(tmp_path):
    cfg = _kl_config(diagnostics={"lyapunov_stride": 5})
    cfg["tuner"]["overrides"]["K"] = 10
    cfg["seeds"] = [0]
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert run_experiment(cfg_path, out_dir=str(out), quiet=True) == EXIT_OK
    lines = (out / "trace_seed0.csv").read_text().splitlines()
    col = TRACE_HEADER.split(",").index("lyapunov")
    cells = [line.split(",")[col] for line in lines[1:]]
    assert cells[0] != "" and cells[5] != "" and cells[-1] != ""
    assert cells[1] == ""
    assert all(float(c) >= 0.0 for c in cells if c != "")


def test_dz_norm_in_summary(tmp_path):
    cfg = _kl_config(diagnostics={"dz_norm": True})
    cfg["seeds"] = [0]
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert run_experiment(cfg_path, out_dir=str(out), quiet=True) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["runs"][0]["dz_norm"] >= 0.0


def test_formats_subset(tmp_path):
    cfg = _kl_config(output={"formats": ["csv"]})
    cfg["seeds"] = [0]
    out = tmp_path / "csv_only"
    assert run_experiment(_write(tmp_path, cfg), out_dir=str(out),
                          quiet=True) == EXIT_OK
    assert (out / "trace_seed0.csv").exists()
    assert not (out / "summary.json").exists()

    cfg = _kl_config(output={"formats": ["json"]})
    cfg["seeds"] = [0]
    out2 = tmp_path / "json_only"
    assert run_experiment(_write(tmp_path, cfg, "c2.json"), out_dir=str(out2),
                          quiet=True) == EXIT_OK
    assert not (out2 / "trace_seed0.csv").exists()
    assert (out2 / "summary.json").exists()


def test_invalid_config_creates_no_output(tmp_path):
    cfg = _kl_config()
    cfg["tuner"]["epsilon"] = -0.1
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "never"
    assert run_experiment(cfg_path, out_dir=str(out), quiet=True) == EXIT_CONFIG
    assert not out.exists()


def test_malformed_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_experiment(str(path), quiet=True) == EXIT_CONFIG


def test_missing_file_is_config_error(tmp_path):
    assert run_experiment(str(tmp_path / "absent.json"),
                          quiet=True) == EXIT_CONFIG


def test_infeasible_override_exit_code(tmp_path):
    cfg = _kl_config()
    cfg["tuner"]["overrides"] = {"r": 10.0}
    assert run_experiment(_write(tmp_path, cfg), quiet=True,
                          out_dir=str(tmp_path / "x")) == EXIT_INFEASIBLE


def test_sample_cap_exit_code(tmp_path, capsys):
    cfg = {
        "problem": {"kind": "quadratic_saddle", "dim_x": 2, "dim_y": 2},
        "tuner": {"epsilon": 0.1, "sample_cap": 10},
        "seeds": [0],
    }
    assert run_experiment(_write(tmp_path, cfg), quiet=True,
                          out_dir=str(tmp_path / "x")) == EXIT_INFEASIBLE
    # the package's own OverflowError keeps its words: no function name
    assert capsys.readouterr().err == (
        "infeasible schedule: planned sample draws 11748 exceed cap 10; "
        "raise sample_cap or loosen epsilon\n")


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    import spidergda.cli as cli_mod

    def _explode(*a, seeds, **k):
        return [NonFiniteError("iterate diverged") for _ in seeds]

    monkeypatch.setattr(cli_mod, "run", _explode)
    cfg_path = _write(tmp_path, _kl_config())
    assert run_experiment(cfg_path, out_dir=str(tmp_path / "x"),
                          quiet=True) == EXIT_NUMERICAL


def test_a_failing_seed_still_writes_the_seeds_before_it(tmp_path, monkeypatch,
                                                          capsys):
    # the seeds run in one loop and are reported in config order: seed 4
    # writes its trace, seed 7 fails mid-run with the one line of its
    # failure, and no summary is written.  Seed 7's first recursion draws
    # a sample whose gradient rows are NaN outside the exact passes (which
    # take all 1000 ids per point); seed 4 never draws it
    import spidergda.problems as problems_mod

    n, make = 1000, problems_mod.make_quadratic_saddle
    poison = batch_rng(7, 0, 1).integers(0, n, size=2)[0]
    assert not any(poison in batch_rng(4, k, tau).integers(0, n, size=2)
                   for k in range(2) for tau in range(1, 4))

    def poisoned(*args, **kwargs):
        p = make(*args, **kwargs)
        inner = p.oracle.grads_batch

        def grads_batch(X, Y, ids):
            gx, gy = inner(X, Y, ids)
            if len(ids) % n:
                gx[ids == poison] = np.nan
            return gx, gy

        p.oracle.grads_batch = grads_batch
        return p

    cfg = {"problem": {"kind": "quadratic_saddle", "dim_x": 2, "dim_y": 2,
                       "n_samples": n},
           "tuner": {"epsilon": 0.1, "overrides": {"K": 2, "T": 4, "M": 2}},
           "diagnostics": {"residual_stride": 1}}
    clean = tmp_path / "clean"
    assert run_experiment(_write(tmp_path, dict(cfg, seeds=[4]), "clean.json"),
                          out_dir=str(clean), quiet=True) == EXIT_OK
    monkeypatch.setattr(problems_mod, "make_quadratic_saddle", poisoned)
    out = tmp_path / "out"
    assert run_experiment(_write(tmp_path, dict(cfg, seeds=[4, 7])), out_dir=str(out),
                          quiet=True) == EXIT_NUMERICAL
    assert capsys.readouterr().err == ("numerical failure (seed 7): "
                                       "iterate became non-finite\n")
    assert sorted(f.name for f in out.iterdir()) == ["trace_seed4.csv"]
    assert filecmp.cmp(out / "trace_seed4.csv", clean / "trace_seed4.csv", shallow=False)


def test_seeds_after_a_non_finite_run_are_not_diagnosed(tmp_path, monkeypatch, capsys):
    # seed 1's run goes non-finite: seed 0 is diagnosed and written, and
    # seed 2, which the report never reaches, is not diagnosed
    import spidergda.cli as cli_mod
    import spidergda.diagnostics as diag_mod
    real_run, diagnose_traces, diagnosed = cli_mod.run, diag_mod._diagnose_traces, []

    def second_fails(*args, seeds, **kwargs):
        traces = real_run(*args, seeds=seeds, **kwargs)
        return [traces[0], NonFiniteError("iterate became non-finite"), traces[2]]

    def recorded(*args):
        diagnosed.append([t.seed for t in args[-1]])
        return diagnose_traces(*args)

    monkeypatch.setattr(cli_mod, "run", second_fails)
    monkeypatch.setattr(diag_mod, "_diagnose_traces", recorded)
    cfg = _kl_config(seeds=[0, 1, 2], diagnostics={"residual_stride": 5,
                                                   "lyapunov_stride": 25})
    out = tmp_path / "out"
    assert run_experiment(_write(tmp_path, cfg), out_dir=str(out), quiet=True) == EXIT_NUMERICAL
    assert diagnosed == [[0]]
    assert capsys.readouterr().err == ("numerical failure (seed 1): "
                                       "iterate became non-finite\n")
    assert sorted(f.name for f in out.iterdir()) == ["trace_seed0.csv"]


def test_overflowing_iterate_exits_with_one_line(tmp_path, capsys):
    # the iterate overflows in the first step; the failure is the one line
    # of stderr, with no numpy overflow warning before it
    cfg = {"problem": {"kind": "quadratic_saddle"},
           "tuner": {"epsilon": 0.1, "theta": 1,
                     "overrides": {"alpha_y": 1e308, "K": 2, "T": 2, "M": 1}}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_experiment(_write(tmp_path, cfg), out_dir=str(tmp_path / "out"),
                              quiet=True) == EXIT_NUMERICAL
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ("numerical failure (seed 0): "
                                       "iterate became non-finite\n")


@pytest.mark.parametrize("diagnostics, name", [
    ({"dz_norm": True}, "dz_norm"), ({"lyapunov_stride": 4}, "lyapunov")])
def test_stalled_inner_solve_exit_code(tmp_path, monkeypatch, capsys,
                                       diagnostics, name):
    # a diagnostic whose inner solve runs out of iterations is a numerical
    # failure of that seed, reported in one line, not a traceback
    import spidergda.diagnostics as diag_mod
    monkeypatch.setattr(diag_mod, "_INNER_MAX_ITERS", 2)
    cfg = {
        "problem": {"kind": "quadratic_saddle", "dim_x": 2, "dim_y": 2,
                    "n_samples": 8},
        "tuner": {"epsilon": 0.1, "overrides": {"K": 2, "T": 2, "M": 2}},
        "diagnostics": diagnostics,
        "seeds": [3],
    }
    assert run_experiment(_write(tmp_path, cfg), out_dir=str(tmp_path / "x"),
                          quiet=True) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure (seed 3): {name}: inner solve "
                          "stalled at residual ")
    assert err.count("\n") == 1 and "Traceback" not in err
    # every merit row stalls here, so the first, trace row 0, is named
    assert err.endswith(" iterations at trace row 0\n" if name == "lyapunov"
                        else " iterations\n")


def test_merit_stall_names_its_trace_row(tmp_path, monkeypatch, capsys):
    # the merit rows of both seeds are one `_lyapunov_rows` call, labelled
    # by their trace rows; after a stall there the seeds run alone up to
    # the first that stalls, here seed 0, and the MaxItersError of its call
    # carries the label of the row that stalled; the one stderr line names
    # that trace row
    import spidergda.diagnostics as diag_mod
    calls = []

    def stall(problem, r, X, Y, Z, labels):
        # trace rows 0, 5, ..., 45 and the last, 49, of each seed
        calls.append(labels.tolist())
        assert len(X) == len(labels)
        raise MaxItersError("inner solve stalled at residual 1.000e+00", best=X[2],
                            residual=1.0, row=int(labels[2]))

    monkeypatch.setattr(diag_mod, "_lyapunov_rows", stall)
    cfg = _write(tmp_path, _kl_config(diagnostics={"lyapunov_stride": 5}))
    assert run_experiment(cfg, out_dir=str(tmp_path / "x"), quiet=True) == EXIT_NUMERICAL
    rows = [*range(0, 50, 5), 49]
    assert calls == [rows * 2, rows]
    assert capsys.readouterr().err == ("numerical failure (seed 0): lyapunov: inner solve "
                                       "stalled at residual 1.000e+00 at trace row 10\n")


# beta = 0.5 moves z at every step, so rows 1-3 of the two seeds have
# seven distinct prox centres (row 0, after the exact anchor, is shared)
_STALL_CFG = {"problem": {"kind": "quadratic_saddle", "dim_x": 2, "dim_y": 2, "n_samples": 8},
              "tuner": {"epsilon": 0.1, "overrides": {"K": 2, "T": 2, "M": 2, "beta": 0.5}},
              "diagnostics": {"lyapunov_stride": 1}, "seeds": [0, 1]}


def _stall_merit_rows(monkeypatch, stall_at):
    """Make the merit row of seed s and trace row i stall at its n-th inner
    solve call of a merit evaluation, for each (s, i): n of `stall_at` (call
    1 is the d_r(y, z) solve, call 2 the ascent's first step, ...).  As in a
    lockstep, a call raises for the first of its rows that is due, with that
    row's label.  The rows are told apart by their prox centres z, from the
    command's own run of `_STALL_CFG`.  Returns the labels raised, in order."""
    import spidergda.diagnostics as diag_mod
    cfg = _load_config(_STALL_CFG)
    problem, config, _ = _tune(cfg, _build_problem(cfg))
    traces = run(problem, config, seeds=cfg["seeds"])
    due = {traces[s].rows[i].z.tobytes(): n for (s, i), n in stall_at.items()}
    assert len(due) == len(stall_at)  # distinct prox centres
    lyapunov_rows, solve_rows = diag_mod._lyapunov_rows, diag_mod._solve_rows
    seen, raised = {}, []

    def counted_lyapunov_rows(*args):
        seen.clear()
        return lyapunov_rows(*args)

    def counted_solve_rows(problem, r, Y, z, X0, labels):
        keys = [c.tobytes() for c in np.broadcast_to(z, X0.shape)]
        for key in set(keys):
            seen[key] = seen.get(key, 0) + 1
        for s, key in enumerate(keys):
            if due.get(key) == seen[key]:
                raised.append(int(labels[s]))
                raise MaxItersError("inner solve stalled at residual 1.000e+00", best=X0[s],
                                    residual=1.0, row=int(labels[s]))
        return solve_rows(problem, r, Y, z, X0, labels)

    monkeypatch.setattr(diag_mod, "_lyapunov_rows", counted_lyapunov_rows)
    monkeypatch.setattr(diag_mod, "_solve_rows", counted_solve_rows)
    return raised


def test_an_earlier_seeds_merit_stall_is_reported_before_a_later_seeds(tmp_path, monkeypatch,
                                                                       capsys):
    # seed 1's trace row 1 stalls at the first inner solve, seed 0's trace
    # row 2 at the third: the shared pass meets seed 1's stall first, and
    # the command still reports seed 0's, as when each seed ran alone
    raised = _stall_merit_rows(monkeypatch, {(0, 2): 3, (1, 1): 1})
    out = tmp_path / "out"
    assert run_experiment(_write(tmp_path, _STALL_CFG), out_dir=str(out),
                          quiet=True) == EXIT_NUMERICAL
    assert capsys.readouterr().err == ("numerical failure (seed 0): lyapunov: inner solve "
                                       "stalled at residual 1.000e+00 at trace row 2\n")
    assert raised[0] == 1 and 2 in raised
    assert list(out.iterdir()) == []


def test_a_dz_norm_stall_is_reported_before_a_later_seeds_merit_stall(tmp_path, monkeypatch,
                                                                      capsys):
    # seed 0's merit is fine and its dz_norm stalls; seed 1's merit stalls
    import spidergda.cli as cli_mod

    def stalled_dz_norm(*args):
        raise MaxItersError("inner solve stalled at residual 2.000e+00", best=None,
                            residual=2.0, row=0)

    _stall_merit_rows(monkeypatch, {(1, 3): 2})
    monkeypatch.setattr(cli_mod, "dz_norm", stalled_dz_norm)
    cfg = dict(_STALL_CFG, diagnostics={"lyapunov_stride": 1, "dz_norm": True})
    assert run_experiment(_write(tmp_path, cfg), out_dir=str(tmp_path / "out"),
                          quiet=True) == EXIT_NUMERICAL
    assert capsys.readouterr().err == ("numerical failure (seed 0): dz_norm: inner solve "
                                       "stalled at residual 2.000e+00\n")


def _online_problem():
    """f(x, y; xi) = x*y + (token mod 7) * x, sampled online."""
    def grads(X, Y, ids):
        return ((Y[:, 0] + (np.asarray(ids) % 7).astype(np.float64))[:, None],
                X[:, :1].copy())

    oracle = StochasticOracle(
        regime=Online(), grads_batch=grads,
        values_batch=lambda X, Y, ids: (X[:, 0] * Y[:, 0]
                                        + (np.asarray(ids) % 7) * X[:, 0]))
    return ProblemInstance(oracle=oracle, set_x=Box([-1.0], [1.0]),
                           set_y=Box([-1.0], [1.0]),
                           constants=SmoothnessMeta(L_x=0, L_y=1, rho=0,
                                                    ell=8))


def test_aliasing_schedule_exit_code(tmp_path, monkeypatch, capsys):
    import spidergda.cli as cli

    def _no_run(*args, **kwargs):
        raise AssertionError("an aliasing schedule must not start a run")

    monkeypatch.setattr(cli, "run", _no_run)
    cfg = _kl_config()
    cfg["tuner"]["overrides"]["K"] = 2 ** 31 + 1
    cfg["tuner"]["sample_cap"] = 1e12
    assert run_experiment(_write(tmp_path, cfg), quiet=True,
                          out_dir=str(tmp_path / "x")) == EXIT_INFEASIBLE
    assert "K=2147483649" in capsys.readouterr().err


def test_online_output_residuals():
    # online residuals are Monte-Carlo, each on a stream keyed by the seed
    # and the trace row; index -1 is the output pair, whose stream must be
    # a valid, distinct one
    p = _online_problem()
    cfg = SolverConfig(K=2, T=2, M=2, B=4, alpha_x=0.1, alpha_y=0.1, beta=0.5,
                       r=1.0, seed=3)
    trace = run(p, cfg)
    res, lya = diagnose(p, trace, cfg, 1, None)
    assert lya == {} and list(res) == [0, 1, 2, 3, -1]
    assert all(np.isfinite(v) for out in res.values() for v in out)
    assert diagnose(p, trace, cfg, 1, None) == (res, lya)
    for i, out in res.items():
        x, y = trace.output_pair if i < 0 else (trace.rows[i].x, trace.rows[i].y)
        key = 2 ** 63 if i < 0 else i
        assert out == mc_gs_residuals(p, x, y, rng=np.random.default_rng((3, key)))
    assert res[-1] != mc_gs_residuals(p, *trace.output_pair,
                                      rng=np.random.default_rng((3, 0)))
    # merit values need exact ones
    with pytest.raises(RegimeError):
        diagnose(p, trace, cfg, None, 1)


def test_seed_flag_overrides_config(tmp_path):
    cfg_path = _write(tmp_path, _kl_config())
    out = tmp_path / "out"
    assert run_experiment(cfg_path, out_dir=str(out), seed=7,
                          quiet=True) == EXIT_OK
    assert (out / "trace_seed7.csv").exists()
    assert not (out / "trace_seed0.csv").exists()
    assert run_experiment(cfg_path, out_dir=str(out), seed=-1,
                          quiet=True) == EXIT_CONFIG


@pytest.mark.parametrize("stride", [1, 3])
def test_each_seed_of_a_command_writes_its_own_commands_csv(tmp_path, stride):
    # the seeds of one command share the recorded states; each seed's CSV is
    # byte for byte that of a command of its own, also at a stride that
    # does not divide K*T = 20, whose extra final row is the last step
    cfg = {"problem": {"kind": "quadratic_saddle", "dim_x": 3, "dim_y": 2,
                       "n_samples": 8, "seed": 1},
           "tuner": {"epsilon": 0.01, "overrides": {"K": 5, "T": 4, "M": 2}},
           "diagnostics": {"residual_stride": 2, "lyapunov_stride": 3},
           "seeds": [4, 9]}
    path = _write(tmp_path, cfg)
    both = tmp_path / "both"
    assert run_experiment(path, out_dir=str(both), trace_stride=stride,
                          quiet=True) == EXIT_OK
    for s in cfg["seeds"]:
        own = tmp_path / f"seed{s}"
        assert run_experiment(path, out_dir=str(own), seed=s, trace_stride=stride,
                              quiet=True) == EXIT_OK
        name = f"trace_seed{s}.csv"
        assert (both / name).read_bytes() == (own / name).read_bytes()
        lines = (own / name).read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + -(-20 // stride)
        assert lines[-1].startswith("4,3,")


# ----------------------------------------------------------------------------
# config schema

def test_config_defaults():
    cfg = _load_config({"problem": {"kind": "kl_example"},
                        "tuner": {"epsilon": 0.5}})
    assert cfg["seeds"] == [0]
    assert cfg["output"] == {"directory": "out", "formats": ["csv", "json"]}
    assert cfg["solver"] == {}
    assert cfg["diagnostics"] == {}


@pytest.mark.parametrize("raw", [
    {"problem": {"kind": "kl_example"}},                       # no tuner
    {"tuner": {"epsilon": 0.1}},                               # no problem
    {"problem": {"kind": "kl_example"}, "tuner": {"epsilon": 0.1},
     "extra": 1},                                              # unknown top key
    {"problem": {"kind": "mystery"}, "tuner": {"epsilon": 0.1}},
    {"problem": {"kind": "kl_example", "n": 4}, "tuner": {"epsilon": 0.1}},
    {"problem": {"kind": "kl_example"}, "tuner": {"eps": 0.1}},
    {"problem": {"kind": "kl_example"}, "tuner": {"epsilon": 0.1,
                                                  "theta": 1.5}},
    {"problem": {"kind": "kl_example"},
     "tuner": {"epsilon": 0.1, "overrides": {"gamma": 1.0}}},
    {"problem": {"kind": "kl_example"},
     "tuner": {"epsilon": 0.1, "overrides": {"K": -2}}},
    {"problem": {"kind": "kl_example"},
     "tuner": {"epsilon": 0.1, "overrides": {"beta": 2.0}}},
    {"problem": {"kind": "kl_example"},
     "tuner": {"epsilon": 0.1, "lambda": 0.5}},                # not composite
    {"problem": {"kind": "kl_example"}, "tuner": {"epsilon": 0.1},
     "solver": {"x0": 3}},
    {"problem": {"kind": "kl_example"}, "tuner": {"epsilon": 0.1},
     "output": {"formats": ["yaml"]}},
    {"problem": {"kind": "kl_example"}, "tuner": {"epsilon": 0.1},
     "seeds": []},
    {"problem": {"kind": "kl_example"}, "tuner": {"epsilon": 0.1},
     "seeds": [1, 1]},
    {"problem": {"kind": "kl_example"}, "tuner": {"epsilon": 0.1},
     "seeds": [True]},
    {"problem": {"kind": "kl_example"}, "tuner": {"epsilon": 0.1},
     "seeds": [-4]},
    {"problem": {"kind": "kl_example"}, "tuner": {"epsilon": 0.1},
     "diagnostics": {"dz_norm": "yes"}},
    {"problem": {"kind": "kl_example"}, "tuner": {"epsilon": 0.1},
     "diagnostics": {"residual_stride": 0}},
    {"problem": {"kind": ["kl_example"]}, "tuner": {"epsilon": 0.1}},
])
def test_config_rejections(raw):
    with pytest.raises(ConfigError):
        _load_config(raw)


def test_override_rules_cover_the_tuner_keys():
    assert set(_SCHEMA["tuner"]["overrides"]) == OVERRIDE_KEYS


def test_composite_kind_accepts_lambda():
    cfg = _load_config({
        "problem": {"kind": "two_group_regression", "n": 40},
        "tuner": {"epsilon": 0.1, "mu": 1.0, "lambda": 0.5}})
    assert cfg["tuner"]["lambda"] == 0.5


def test_group_dro_requires_dataset(tmp_path):
    cfg = {"problem": {"kind": "group_dro"}, "tuner": {"epsilon": 0.1,
                                                       "mu": 1.0}}
    assert run_experiment(_write(tmp_path, cfg), quiet=True,
                          out_dir=str(tmp_path / "x")) == EXIT_CONFIG


@pytest.mark.parametrize("problem", [
    {"kind": "quadratic_saddle", "dim_x": "abc"},
    {"kind": "quadratic_saddle", "dim_x": 0},
    {"kind": "quadratic_saddle", "dim_y": 2.0},
    {"kind": "quadratic_saddle", "n_samples": -3},
    {"kind": "quadratic_saddle", "noise": True},
    {"kind": "quadratic_saddle", "coupling": float("inf")},
    {"kind": "quadratic_saddle", "seed": -1},
    {"kind": "two_group_regression", "n": 1},
    {"kind": "two_group_regression", "d": 0},
    {"kind": "two_group_regression", "noise_ratio": 10 ** 400},
    {"kind": "group_dro", "dataset": "no/such/file.csv"},
    {"kind": "phi_div_dro", "psi": 3},
    {"kind": "phi_div_dro", "psi": "tv"},
    {"kind": "phi_div_dro", "d": 0},
    {"kind": "phi_div_dro", "lambda_pen": -1.0},
    # synthetic-set keys do not apply with a dataset ("<csv>": a real file)
    {"kind": "phi_div_dro", "dataset": "<csv>", "n": 0, "d": 0},
])
def test_malformed_problem_is_config_error(problem, tmp_path, capsys,
                                           save_dataset_csv):
    if problem.get("dataset") == "<csv>":
        csv_path = tmp_path / "data.csv"
        save_dataset_csv(csv_path, np.ones((4, 2)), np.zeros(4), np.zeros(4))
        problem = dict(problem, dataset=str(csv_path))
    cfg = {"problem": problem, "tuner": {"epsilon": 0.1, "mu": 1.0}}
    out = tmp_path / "never"
    assert run_experiment(_write(tmp_path, cfg), quiet=True,
                          out_dir=str(out)) == EXIT_CONFIG
    assert not out.exists()
    assert f"config error: problem[{problem['kind']}]" in capsys.readouterr().err


def test_kl_psi_is_refused_with_its_reason(tmp_path, capsys):
    # psi'' = 1/t of kl is unbounded on the simplex, so no L_y holds
    cfg = {"problem": {"kind": "phi_div_dro", "psi": "kl"},
           "tuner": {"epsilon": 0.1, "mu": 1.0}}
    assert run_experiment(_write(tmp_path, cfg), quiet=True,
                          out_dir=str(tmp_path / "never")) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("config error: problem[phi_div_dro]")
    assert "psi 'kl' is not supported" in err and "no L_y holds" in err


# schedule arithmetic that divides by a float64 that underflowed to 0, with
# the function that raises the ZeroDivisionError
_ZERO_DIVISION = [
    ({"kind": "quadratic_saddle", "coupling": 1e200}, {}, "compute_varpi"),
    ({"kind": "quadratic_saddle"}, {"mu": 1e-300}, "compute_varpi"),
    ({"kind": "quadratic_saddle"}, {"epsilon": 1e-300, "theta": 1.0},
     "_kt_branches"),
    ({"kind": "kl_example"}, {"overrides": {"r": 1e-300}}, "alpha_x_interval"),
    ({"kind": "two_group_regression", "n": 20},
     {"lambda": 1e-320, "sample_cap": 1e300}, "smoothed_constants"),
]

# schedule arithmetic whose float power overflows, with the function that
# raises the OverflowError
_OVERFLOW = ({"kind": "kl_example"}, {"overrides": {"alpha_y": 1e308, "K": 1}},
             "compute_varpi")


# configs whose values sit at the edge of the float64 range: a problem
# constant that overflows is a config error (2) naming it, and schedule
# arithmetic that leaves the range is an infeasible schedule (4)
@pytest.mark.parametrize("problem, tuner, code, words", [
    ({"kind": "quadratic_saddle", "noise": 1e300}, {}, EXIT_CONFIG, "ell is inf"),
    ({"kind": "quadratic_saddle", "linear_scale": 1e308}, {}, EXIT_CONFIG,
     "non-finite"),
    *[(problem, tuner, EXIT_INFEASIBLE, "division by zero")
      for problem, tuner, _ in _ZERO_DIVISION],
    ({"kind": "two_group_regression", "n": 20},
     {"epsilon": 1e-300, "asymptotic_constant": 1e-300, "sample_cap": 1e300},
     EXIT_INFEASIBLE, "underflows to 0"),
    ({"kind": "phi_div_dro", "lambda_pen": 1e308}, {"sample_cap": 1e300},
     EXIT_CONFIG, "L_y is inf"),
    (*_OVERFLOW[:2], EXIT_INFEASIBLE, "Numerical result out of range"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_float_range_edges_exit_with_one_line(problem, tuner, code, words,
                                              tmp_path, capsys):
    cfg = {"problem": problem,
           "tuner": {"epsilon": 0.1, "overrides": {"K": 1}, **tuner}}
    out = tmp_path / "out"
    assert run_experiment(_write(tmp_path, cfg), quiet=True,
                          out_dir=str(out)) == code
    err = capsys.readouterr().err
    prefix = "config error:" if code == EXIT_CONFIG else "infeasible schedule:"
    assert err.startswith(prefix) and words in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()  # no trace CSV


@pytest.mark.parametrize("problem, tuner, function", _ZERO_DIVISION)
def test_zero_division_names_the_raising_function(problem, tuner, function,
                                                  tmp_path, capsys):
    cfg = {"problem": problem,
           "tuner": {"epsilon": 0.1, "overrides": {"K": 1}, **tuner}}
    assert run_experiment(_write(tmp_path, cfg), quiet=True,
                          out_dir=str(tmp_path / "out")) == EXIT_INFEASIBLE
    assert capsys.readouterr().err == (
        f"infeasible schedule: {function}: float division by zero\n")


def test_overflow_names_the_raising_function(tmp_path, capsys):
    problem, tuner, function = _OVERFLOW
    cfg = {"problem": problem, "tuner": {"epsilon": 0.1, **tuner}}
    assert run_experiment(_write(tmp_path, cfg), quiet=True,
                          out_dir=str(tmp_path / "out")) == EXIT_INFEASIBLE
    assert capsys.readouterr().err == (
        f"infeasible schedule: {function}: (34, 'Numerical result out of range')\n")


# dataset files that `load_dataset_csv` rejects, with the line it names
_BAD_CSV = {
    "empty": ("", None),
    "header-only": ("feature_0,target,group\n", None),
    "short-row": ("feature_0,target,group\n1.0,2.0,0\n3.0,4.0\n", "line 3"),
    "long-row": ("feature_0,target,group\n1.0,2.0,0,7\n", "line 2"),
    "not-a-number": ("feature_0,target,group\n1.0,x,0\n", "line 2"),
    "no-features": ("target,group\n2.0,0\n4.0,1\n", None),
    # float() parses both; the tuner would see non-finite constants
    "nan-feature": ("feature_0,target,group\n1.0,2.0,0\nnan,4.0,1\n3.0,1.0,0\n",
                    "line 3"),
    "inf-target": ("feature_0,target,group\n1.0,-inf,0\n3.0,4.0,1\n", "line 2"),
    # finite, but the problem constants it gives overflow to inf
    "huge-feature": ("feature_0,target,group\n1e200,1.0,0\n1.0,2.0,1\n", None),
}


@pytest.mark.parametrize("kind", ["group_dro", "phi_div_dro"])
@pytest.mark.parametrize("name", sorted(_BAD_CSV))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_malformed_dataset_is_config_error(kind, name, tmp_path, capsys):
    text, line = _BAD_CSV[name]
    data = tmp_path / "data.csv"
    data.write_text(text, encoding="utf-8")
    cfg = {"problem": {"kind": kind, "dataset": str(data)},
           "tuner": {"epsilon": 0.1, "mu": 1.0}}
    out = tmp_path / "never"
    assert run_experiment(_write(tmp_path, cfg), quiet=True,
                          out_dir=str(out)) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"config error: problem[{kind}]: {data}")
    assert err.count("\n") == 1 and "Traceback" not in err
    if line is not None:
        assert err.startswith(f"config error: problem[{kind}]: {data} {line}: ")


def test_negative_group_id_is_config_error_for_group_dro_only(tmp_path, capsys):
    # groups 0, -1, 1: in a group-DRO problem the row of group -1 would join
    # no group; groups 0, 2: group 1 has no rows.  Phi-divergence DRO
    # ignores the group column, so the same files still load there
    tuner = {"epsilon": 0.1, "mu": 1.0}
    for groups, message in ((["0", "-1", "1"], " line 3: group id -1 is negative"),
                            (["0", "2"], ": group 1 is empty")):
        data = tmp_path / f"data{len(groups)}.csv"
        data.write_text("feature_0,target,group\n" + "".join(
            f"{2 * i + 1}.0,{2 * i + 2}.0,{g}\n" for i, g in enumerate(groups)),
            encoding="utf-8")
        cfg = {"problem": {"kind": "group_dro", "dataset": str(data)},
               "tuner": tuner}
        out = tmp_path / "never"
        assert run_experiment(_write(tmp_path, cfg), quiet=True,
                              out_dir=str(out)) == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"config error: problem[group_dro]: {data}{message}\n")
        phi = _load_config({"problem": {"kind": "phi_div_dro",
                                        "dataset": str(data)}, "tuner": tuner})
        assert _build_problem(phi).regime.n == len(groups)


def _with(section, **entries):
    cfg = _kl_config()
    cfg[section] = {**cfg.get(section, {}), **entries}
    return cfg


@pytest.mark.parametrize("cfg, flags, where", [
    (_with("output", directory=5), [], "output.directory"),
    (_with("solver", x0=["a"]), [], "solver.x0"),
    (_with("solver", x0=[1.0, 2.0]), [], "solver.x0"),    # kl_example: dim 1
    (_with("solver", x0=[[1.0]]), [], "solver.x0"),
    (_with("solver", x0=[float("nan")]), [], "solver.x0"),
    (_kl_config(), ["--trace-stride", "0"], "solver.trace_stride"),
    (_kl_config(), ["--seed", "-1"], "seeds"),
    (_with("tuner", theta=True), [], "tuner.theta"),
    (_with("tuner", sample_cap=10 ** 400), [], "tuner.sample_cap"),
    (_with("tuner", overrides={"alpha_y": 0.2, "K": 2.5, "T": 1, "M": 1}),
     [], "tuner.overrides.K"),
], ids=["directory-int", "x0-str", "x0-dim", "x0-nested", "x0-nan",
        "trace-stride-flag", "seed-flag", "theta-bool", "sample-cap-huge",
        "override-K-float"])
def test_malformed_input_exits_before_output(cfg, flags, where, tmp_path,
                                             monkeypatch, capsys):
    # run from an empty directory so a default output directory would show
    monkeypatch.chdir(tmp_path)
    cfg_path = _write(tmp_path, cfg)
    out = ["--out", str(tmp_path / "never")] if "output" not in cfg else []
    assert main(["run", cfg_path, *out, *flags, "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {where}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("via", ["output.directory", "--out"])
def test_output_directory_on_a_file_is_config_error(via, under, tmp_path,
                                                    monkeypatch, capsys):
    # an output directory that is an existing file, or lies under one,
    # cannot be made: one config error line before any run
    monkeypatch.chdir(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n", encoding="utf-8")
    target = str(blocker / "out" if under else blocker)
    if via == "--out":
        cfg, flags = _kl_config(), ["--out", target]
    else:
        cfg, flags = _with("output", directory=target), []
    assert main(["run", _write(tmp_path, cfg), *flags, "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]
    assert blocker.read_text(encoding="utf-8") == "a file\n"


def test_config_not_utf8_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(json.dumps(_with("output", directory="résultats"),
                                    ensure_ascii=False).encode("latin-1"))
    assert main(["run", str(cfg_path), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


# ----------------------------------------------------------------------------
# verify command

@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_suites_pass(suite, capsys):
    assert verify(suite) == EXIT_OK
    out = capsys.readouterr().out
    assert "[pass]" in out
    assert "[FAIL]" not in out


def test_verify_unknown_suite():
    assert verify("nope") == EXIT_CONFIG


def test_verify_failing_check_exits_1(monkeypatch, capsys):
    monkeypatch.setitem(SUITES, "tuner", lambda: [
        Check("holds", True), Check("broken", False, "measured 3")])
    assert main(["verify", "tuner"]) == EXIT_CHECK_FAILED
    assert capsys.readouterr().out.splitlines() == [
        "[pass] holds", "[FAIL] broken  (measured 3)"]


# every check of every suite, in order: dropping or renaming one fails here
_SUITE_CHECKS = {
    "kl-example": ["error-bound margin >= 0 on the 4001-point grid",
                   "peak value max g = g(0) = 2",
                   "continuity at the piece boundaries"],
    "projections": ["projection idempotent (exact)",
                    "projection nonexpansive",
                    "variational inequality (u - Pu)'(w - Pu) <= 0",
                    "outside points project onto the boundary"],
    "tuner": ["prox weight r = 676 at unit constants",
              "primal step alpha_x = 1/8148 at unit constants",
              "primal step lower bound = 48/455625 at unit constants",
              "dual step alpha_y = min(alpha_x, 1/40, 1/12)"],
    "estimator": ["finite-sum anchor equals the exact gradient (bitwise)",
                  "zero-displacement recursion leaves estimates unchanged "
                  "(bitwise)"],
}


def test_verify_suite_check_names(suite_checks):
    assert {suite: list(suite_checks(suite)) for suite in SUITES} == _SUITE_CHECKS


# ----------------------------------------------------------------------------
# argument parsing end to end

def test_main_run_and_verify(tmp_path):
    cfg_path = _write(tmp_path, _kl_config())
    out = tmp_path / "main_out"
    code = main(["run", cfg_path, "--out", str(out), "--seed", "2",
                 "--trace-stride", "4", "--quiet"])
    assert code == EXIT_OK
    lines = (out / "trace_seed2.csv").read_text().splitlines()
    ks = [int(line.split(",")[0]) for line in lines[1:]]
    assert ks[1] - ks[0] == 4  # stride applied (one inner step per epoch)
    assert len(lines) - 1 < 50  # strictly fewer rows than epochs
    assert main(["verify", "kl-example"]) == EXIT_OK
