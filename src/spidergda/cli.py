"""Command-line experiment runner.

`spidergda run <config.json>` builds a problem from the zoo (or a dataset
CSV), tunes the schedule, runs the solver for all seeds in one loop,
diagnoses their traces in one `diagnose` pass, which stops at the first
seed that fails, and writes per-seed trace CSVs plus a summary JSON
containing final residuals, sample counts and the full tuner audit; the
seeds are reported in config order, the first failing seed with one line.
`spidergda verify <suite>` runs a named property suite and prints
per-check pass/fail lines.

Exit codes: 0 ok; 1 failed verify check; 2 config error / unknown suite;
3 numerical failure; 4 infeasible schedule.
"""

from __future__ import annotations

import argparse
import dataclasses
import dis
import json
import logging
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .core import DimError, FiniteSum, ProblemInstance, as_vector
from .diagnostics import MaxItersError, diagnose, dz_norm
from .smoothing import MoreauComposite
from .solver import NonFiniteError, run
from .tuner import InfeasibleScheduleError, TunerInput, tune_nonsmooth, tune_smooth
from .verify import SUITES
from . import problems

__all__ = ["ConfigError", "run_experiment", "verify", "main"]

logger = logging.getLogger("spidergda.cli")

TRACE_HEADER = "k,tau,dx_norm,dy_norm,xz_gap,samples,res_x,res_y,lyapunov"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INFEASIBLE = 4

_U64 = 2 ** 64


class ConfigError(Exception):
    """The experiment config is malformed."""


# ----------------------------------------------------------------------------
# rules
#
# A rule is a predicate on a config value and the words that complete the
# message "<section>.<key> must be <what>, got <value>".  JSON has one
# number type: an integer key takes integers only, a number key any number
# a float holds, NaN and infinities excluded (the type of a boolean is bool,
# not int).

class _Rule(NamedTuple):
    ok: Callable[[object], bool]
    what: str
    required: bool = False


def _finite(v) -> bool:
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


_INT = _Rule(lambda v: type(v) is int, "an integer")
_FLOAT = _Rule(_finite, "a finite number")
_STR = _Rule(lambda v: type(v) is str, "a string")
_POSITIVE = _Rule(lambda v: _finite(v) and v > 0, "a positive number")
_COUNT = _Rule(lambda v: type(v) is int and v > 0, "a positive integer")
_POINT = _Rule(lambda v: type(v) is list and all(map(_finite, v)),
               "a list of finite numbers")


def _require(rule: _Rule, v, where: str):
    """`v` if it satisfies `rule`, else a ConfigError naming `where`."""
    if not rule.ok(v):
        raise ConfigError(f"{where} must be {rule.what}, got {v!r}")
    return v


def _required(rule) -> bool:
    # a nested table is required when one of its keys is
    if isinstance(rule, _Rule):
        return rule.required
    return any(map(_required, rule.values()))


def _check(d, table: dict, where: str = "") -> None:
    """Check the object `d` against a rule table (key -> rule, or key ->
    nested table for a sub-object); `where` is its path, "" at the top."""
    label = where or "config"
    if type(d) is not dict:
        raise ConfigError(f"{label}: expected an object, got {type(d).__name__}")
    unknown = set(d) - set(table)
    if unknown:
        raise ConfigError(f"{label}: unknown keys {sorted(unknown)}")
    missing = [k for k, rule in table.items() if _required(rule) and k not in d]
    if missing:
        raise ConfigError(f"{label}: missing required keys {missing}")
    for key, v in d.items():
        at = f"{where}.{key}" if where else key
        if isinstance(table[key], dict):
            _check(v, table[key], at)
        else:
            _require(table[key], v, at)


# ----------------------------------------------------------------------------
# problem kinds
#
# Builders take the config's problem keys (kind removed, number keys cast to
# float) and leave every omitted key to the library's default.  They look
# the library up through `problems` when called, so a wrapper installed
# there sees every build.

def _quadratic_saddle(p: dict) -> ProblemInstance:
    return problems.make_quadratic_saddle(p.pop("dim_x", 3), p.pop("dim_y", 2),
                                          **p)


def _group_dro(p: dict) -> MoreauComposite:
    if "dataset" not in p:
        raise ValueError("problem.dataset (CSV path) is required")
    return problems.make_group_dro(problems.spec_from_csv(p.pop("dataset"), **p))


def _phi_div_dro(p: dict) -> ProblemInstance:
    synthetic = [k for k in ("n", "d", "noise", "seed") if k in p]
    n, d = p.pop("n", 32), p.pop("d", 3)
    noise, seed = p.pop("noise", 0.1), p.pop("seed", 0)
    if "dataset" in p:
        if synthetic:
            raise ValueError(f"keys {synthetic} describe a synthetic set and "
                             "do not apply with a dataset")
        X, t, _ = problems.load_dataset_csv(p.pop("dataset"))
    else:
        if n < 1 or d < 1:
            raise ValueError(f"n and d must be at least 1, got n={n}, d={d}")
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        t = X[:, 0] + noise * rng.normal(size=n)
    return problems.make_phi_div_dro(
        problems.PhiDivDroSpec(features=X, targets=t, **p))


class _Kind(NamedTuple):
    keys: dict            # config key -> rule
    composite: bool       # built unsmoothed; the tuner picks its lambda
    placeholder_mu: bool  # mu = 1, theta = 1 unless the config sets them
    build: Callable[[dict], Union[ProblemInstance, MoreauComposite]]


_KINDS = {
    "kl_example": _Kind({}, False, False, lambda p: problems.make_kl_example()),
    "quadratic_saddle": _Kind(
        {"dim_x": _INT, "dim_y": _INT, "n_samples": _INT, "noise": _FLOAT,
         "coupling": _FLOAT, "linear_scale": _FLOAT, "seed": _INT},
        False, False, _quadratic_saddle),
    "two_group_regression": _Kind(
        {"n": _INT, "d": _INT, "minority_frac": _FLOAT, "noise": _FLOAT,
         "noise_ratio": _FLOAT, "seed": _INT},
        True, True,
        lambda p: problems.make_group_dro(problems.make_two_group_regression(**p))),
    "group_dro": _Kind({"dataset": _STR, "loss": _STR}, True, True, _group_dro),
    "phi_div_dro": _Kind(
        {"dataset": _STR, "n": _INT, "d": _INT, "noise": _FLOAT, "seed": _INT,
         "psi": _STR, "lambda_pen": _FLOAT},
        False, True, _phi_div_dro),
}


# ----------------------------------------------------------------------------
# config schema
#
# The problem section is checked against its kind's table; every other key
# of a config is checked here.  The --seed and --trace-stride flags follow
# the rules of the keys they replace.

_KIND = _Rule(lambda v: type(v) is str and v in _KINDS, f"one of {sorted(_KINDS)}")

_SCHEMA = {
    "problem": _Rule(lambda v: type(v) is dict, "an object", required=True),
    "tuner": {
        "epsilon": _POSITIVE._replace(required=True),
        "mu": _POSITIVE,
        "theta": _Rule(lambda v: _finite(v) and 0 <= v <= 1, "a number in [0, 1]"),
        "delta_phi_estimate": _POSITIVE,
        "asymptotic_constant": _POSITIVE,
        "sample_cap": _POSITIVE,
        "lambda": _Rule(lambda v: v == "auto" or _POSITIVE.ok(v),
                        'a positive number or "auto"'),
        "overrides": {"K": _COUNT, "T": _COUNT, "M": _COUNT, "B": _COUNT,
                      "r": _POSITIVE, "alpha_x": _POSITIVE, "alpha_y": _POSITIVE,
                      "beta": _Rule(lambda v: _finite(v) and 0 < v <= 1,
                                    "a number in (0, 1]")},
    },
    "solver": {"trace_stride": _COUNT, "x0": _POINT, "y0": _POINT},
    "output": {
        "directory": _STR,
        "formats": _Rule(lambda v: type(v) is list and len(v) > 0
                         and all(f in ("csv", "json") for f in v),
                         'a nonempty list of "csv" and "json"'),
    },
    "seeds": _Rule(lambda v: type(v) is list and len(v) > 0
                   and all(type(s) is int and 0 <= s < _U64 for s in v)
                   and len(set(v)) == len(v),
                   "a nonempty list of distinct integers in [0, 2^64)"),
    "diagnostics": {"residual_stride": _COUNT, "lyapunov_stride": _COUNT,
                    "dz_norm": _Rule(lambda v: type(v) is bool, "a boolean")},
}


def _load_config(raw) -> dict:
    """Validate a parsed JSON object (see `_SCHEMA` for its rules; unknown
    keys anywhere are errors) into the experiment's sections: problem,
    tuner, solver, output, seeds and diagnostics, with the defaults of the
    optional ones filled in."""
    _check(raw, _SCHEMA)
    prob, tun = raw["problem"], raw["tuner"]
    kind = _require(_KIND, prob.get("kind"), "problem.kind")
    _check(prob, {"kind": _KIND, **_KINDS[kind].keys}, f"problem[{kind}]")
    if "lambda" in tun and not _KINDS[kind].composite:
        raise ConfigError("tuner.lambda only applies to composite "
                          f"problems, not {kind!r}")
    out = raw.get("output", {})
    return {"problem": dict(prob), "tuner": dict(tun),
            "solver": dict(raw.get("solver", {})),
            "output": {"directory": out.get("directory", "out"),
                       "formats": list(out.get("formats", ["csv", "json"]))},
            "seeds": list(raw.get("seeds", [0])),
            "diagnostics": dict(raw.get("diagnostics", {}))}


# ----------------------------------------------------------------------------
# problem construction

def _build_problem(cfg: dict) -> Union[ProblemInstance, MoreauComposite]:
    """Instantiate the configured problem; a composite comes back unsmoothed
    (the tuner picks its smoothing level)."""
    prob = cfg["problem"]
    kind, keys = prob["kind"], _KINDS[prob["kind"]].keys
    try:
        # a huge key or datum overflows in the builder's arithmetic; the
        # constant check that follows names it, so numpy need not warn first
        with np.errstate(over="ignore", invalid="ignore"):
            return _KINDS[kind].build({k: float(v) if keys[k] is _FLOAT else v
                                       for k, v in prob.items() if k != "kind"})
    except (OverflowError, problems.EmptyGroupError) as err:
        # a key or a constant left the float64 range, or a group id of the
        # data has no rows; name the data too
        data = f"{prob['dataset']}: " if "dataset" in prob else ""
        raise ConfigError(f"problem[{kind}]: {data}{err}") from None
    except (ValueError, DimError, OSError, problems.SingularityError) as err:
        raise ConfigError(f"problem[{kind}]: {err}") from None


def _tune(cfg: dict, built: Union[ProblemInstance, MoreauComposite]):
    """Run the tuner on the built problem; returns (problem, config, audit)."""
    t, kind = cfg["tuner"], cfg["problem"]["kind"]
    if _KINDS[kind].placeholder_mu and "mu" not in t:
        logger.warning(
            "no dual error-bound constants supplied for %s; using defaults "
            "mu=1, theta=1 (schedules may be mis-scaled)", kind)
    updates = {k: float(t[k]) for k in ("mu", "theta") if k in t}
    settings = {k: float(t[k]) for k in ("delta_phi_estimate",
                                         "asymptotic_constant", "sample_cap")
                if k in t}
    settings["overrides"] = dict(t.get("overrides", {}))
    eps = float(t["epsilon"])
    if _KINDS[kind].composite:
        return tune_nonsmooth(dataclasses.replace(built, **updates), eps,
                              t.get("lambda", "auto"), **settings)
    built.constants = dataclasses.replace(built.constants, **updates)
    config, audit = tune_smooth(TunerInput(meta=built.constants, epsilon=eps,
                                           regime=built.regime, **settings))
    return built, config, audit


def _config_point(solver: dict, key: str, cset) -> Optional[np.ndarray]:
    """The start point `key` of the solver section, if set, checked against
    the dimension of its set."""
    if key not in solver:
        return None
    try:
        return as_vector(solver[key], cset.dim)
    except DimError as err:
        raise ConfigError(f"solver.{key}: {err}") from None


# ----------------------------------------------------------------------------
# trace output

def _fmt(v) -> str:
    return "" if v is None else repr(float(v))


def _write_trace_csv(path: Path, rows, res: dict, lya: dict) -> None:
    """The trace rows with the residual and merit columns of `diagnose`,
    empty where a row was not measured."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRACE_HEADER + "\n")
        for i, row in enumerate(rows):
            res_x, res_y, _, _ = res.get(i, (None,) * 4)
            fh.write(",".join([
                str(row.k), str(row.tau), _fmt(row.dx_norm),
                _fmt(row.dy_norm), _fmt(row.xz_gap), str(row.samples_used),
                _fmt(res_x), _fmt(res_y), _fmt(lya.get(i)),
            ]) + "\n")


# ----------------------------------------------------------------------------
# run command

def run_experiment(config_path: str, out_dir: Optional[str] = None,
                   seed: Optional[int] = None,
                   trace_stride: Optional[int] = None,
                   quiet: bool = False) -> int:
    """Execute a config end to end; returns the process exit code."""
    try:
        raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
        cfg = _load_config(raw)
        if seed is not None:
            cfg["seeds"] = _require(_SCHEMA["seeds"], [seed], "seeds")
        if trace_stride is not None:
            cfg["solver"]["trace_stride"] = _require(
                _SCHEMA["solver"]["trace_stride"], trace_stride, "solver.trace_stride")
        built = _build_problem(cfg)
        x0, y0 = (_config_point(cfg["solver"], key, cset)
                  for key, cset in (("x0", built.set_x), ("y0", built.set_y)))
        problem, config, audit = _tune(cfg, built)
        if out_dir is not None:
            cfg["output"]["directory"] = out_dir
        out = Path(cfg["output"]["directory"])
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, ConfigError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleScheduleError, ArithmeticError) as err:
        # float arithmetic's own words ("float division by zero", "(34,
        # 'Numerical result out of range')") need the function that raised
        # them; an error that a `raise` statement words keeps its words
        tb = err.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        where = ("" if code.co_code[tb.tb_lasti] == dis.opmap["RAISE_VARARGS"]
                 else f"{code.co_name}: ")
        print(f"infeasible schedule: {where}{err}", file=sys.stderr)
        return EXIT_INFEASIBLE

    summary = {"tuner_audit": {"inputs": audit.inputs, "outputs": audit.outputs},
               "problem": cfg["problem"], "runs": []}
    diag = cfg["diagnostics"]
    res_stride, lya_stride = diag.get("residual_stride"), diag.get("lyapunov_stride")
    if lya_stride is not None and not isinstance(problem.regime, FiniteSum):
        logger.warning("merit tracking needs exact values; skipping in the online regime")
        lya_stride = None
    # every seed runs in one loop, and one `diagnose` call measures the runs
    # up to the first seed that fails; the walk below reports each seed's
    # result in order, a run that went non-finite or a diagnostic whose
    # inner solve stalled as its failure, which ends the list.  An
    # overflowing iterate is that failure, so numpy need not warn of it first
    run_config = dataclasses.replace(config, trace_stride=cfg["solver"].get("trace_stride", 1))
    with np.errstate(over="ignore", invalid="ignore"):
        results = run(problem, run_config, x0=x0, y0=y0, seeds=cfg["seeds"])
    found = diagnose(problem, results, run_config, res_stride, lya_stride)
    for s, trace, diagnosed in zip(cfg["seeds"], results, found):
        stage = "" if isinstance(trace, NonFiniteError) else "lyapunov: "
        try:
            if isinstance(diagnosed, Exception):
                raise diagnosed
            res, lya = diagnosed
            stage = "dz_norm: "
            dz = (dz_norm(problem, run_config.r, trace.output_pair[1], trace.output_z)
                  if diag.get("dz_norm", False) else None)
        except (NonFiniteError, MaxItersError) as err:
            where = f" at trace row {err.row}" if stage == "lyapunov: " else ""
            print(f"numerical failure (seed {s}): {stage}{err}{where}", file=sys.stderr)
            return EXIT_NUMERICAL
        f_rx, f_ry, _, _ = res[len(trace.rows) - 1]
        o_rx, o_ry, o_sx, o_sy = res[-1]
        entry = {
            "seed": s,
            "final_res_x": f_rx,
            "final_res_y": f_ry,
            "output_res_x": o_rx,
            "output_res_y": o_ry,
            "output_index": list(trace.output_index),
            "total_samples": trace.total_samples,
        }
        if o_sx is not None:
            entry["output_res_x_se"] = o_sx
            entry["output_res_y_se"] = o_sy
        if dz is not None:
            entry["dz_norm"] = dz
        summary["runs"].append(entry)

        if "csv" in cfg["output"]["formats"]:
            path = out / f"trace_seed{s}.csv"
            _write_trace_csv(path, trace.rows, res, lya)
            if not quiet:
                print(f"wrote {path}")

    if "json" in cfg["output"]["formats"]:
        path = out / "summary.json"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if not quiet:
            print(f"wrote {path}")
    return EXIT_OK


# ----------------------------------------------------------------------------
# verify command

def verify(suite: str) -> int:
    """Run one suite of `verify.SUITES`, printing a line per check."""
    if suite not in SUITES:
        print(f"unknown suite {suite!r}; available: {', '.join(sorted(SUITES))}",
              file=sys.stderr)
        return EXIT_CONFIG
    checks = SUITES[suite]()
    for name, ok, detail in checks:
        suffix = f"  ({detail})" if detail else ""
        print(f"[{'pass' if ok else 'FAIL'}] {name}{suffix}")
    return EXIT_OK if all(c.ok for c in checks) else EXIT_CHECK_FAILED


# ----------------------------------------------------------------------------
# entry point

def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spidergda",
        description="Variance-reduced smoothed gradient descent-ascent for "
                    "constrained stochastic minimax problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to the experiment config (JSON)")
    p_run.add_argument("--out", default=None, metavar="DIR",
                       help="override the output directory")
    p_run.add_argument("--seed", type=int, default=None, metavar="U64",
                       help="run only this seed (overrides the config list)")
    p_run.add_argument("--trace-stride", type=int, default=None, metavar="N",
                       help="record every N-th step")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress informational output")

    p_ver = sub.add_parser("verify", help="run a named property suite")
    p_ver.add_argument("suite",
                       help=f"one of: {', '.join(sorted(SUITES))}")

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.command == "run" and args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")

    if args.command == "run":
        return run_experiment(args.config, out_dir=args.out, seed=args.seed,
                              trace_stride=args.trace_stride,
                              quiet=args.quiet)
    return verify(args.suite)


if __name__ == "__main__":
    sys.exit(main())
