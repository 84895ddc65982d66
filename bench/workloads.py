"""The benchmark's three workloads.

Each workload builds its inputs from the seed, runs one timed unit through
the package's public entry points (`spidergda.run`, `spidergda.cli.main`),
and checks the outputs against quantities the benchmark computes itself
from the problem data: closed-form gradients, its own normal-cone distances,
a KKT solve, pooled least squares and the schedule's sample arithmetic.

The worker imports this module only after `import spidergda` has been timed,
so numpy is already loaded when it runs.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import statistics
import time
from pathlib import Path

import numpy as np

import hostspeed

# samples_to_eps target on the benchmark's own residual max(res_x, res_y)
EPS = 0.1

SIZES = {
    # quad_eps_K: the tuned quadratic first reaches EPS at epoch 3621 on
    # every seed tried, so its untimed reference run of 3700 epochs reaches
    # it with a small margin; the timed units are quad_K epochs long
    "full": {"quad_K": 500, "quad_eps_K": 3700, "gdro_K": 40,
             "cli_K": 50, "cli_lyapunov": 200},
    "smoke": {"quad_K": 100, "quad_eps_K": 300, "gdro_K": 8,
              "cli_K": 6, "cli_lyapunov": 100},
}

# final distance to the KKT saddle that quad_tuned must reach, per size
QUAD_DIST_TOL = {"full": 0.05, "smoke": 1.9}  # after quad_eps_K epochs

# seed offset of gdro_smoothed's two extra solver streams for samples_to_eps
EXTRA_STREAM_OFFSET = 1_000_000

FEAS_TOL = 1e-9     # the package's declared feasibility band
GRAD_RTOL = 1e-9    # summation-order slack between per-sample and closed form


class Failed(Exception):
    """A unit did not complete (exception or non-zero exit code)."""


# ----------------------------------------------------------------------------
# the benchmark's own stationarity measures

def box_residual(lo, hi, x, g) -> float:
    """dist(0, g + N_box(x)): drop the components of -g that point out of
    the box at an active bound."""
    w = -np.asarray(g, dtype=np.float64)
    w = np.where((x <= lo) & (w < 0.0), 0.0, w)
    w = np.where((x >= hi) & (w > 0.0), 0.0, w)
    return float(np.linalg.norm(w))


def simplex_residual(q, g) -> float:
    """dist(0, g + N_simplex(q)) = ||proj onto the tangent cone of -g||.

    The cone is {v : sum v = 0, v_i >= 0 where q_i = 0}; its projection is
    v_i = w_i - lam (free) or max(w_i - lam, 0) (at zero), with lam found by
    bisection on the decreasing function sum(v(lam)).
    """
    w = -np.asarray(g, dtype=np.float64)
    at_zero = np.asarray(q) <= 0.0

    def v(lam):
        return np.where(at_zero, np.maximum(w - lam, 0.0), w - lam)

    lo, hi = float(w.min()) - 1.0, float(w.max()) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if v(mid).sum() > 0.0:
            lo = mid
        else:
            hi = mid
    return float(np.linalg.norm(v(0.5 * (lo + hi))))


def quad_residuals(problem, x, y) -> tuple[float, float]:
    """(res_x, res_y) of the quadratic saddle from its defining matrices:
    grad_x F = A x + B y + a,  grad_y F = B'x - C y - b."""
    md = problem.metadata
    gx = md["A"] @ x + md["B"] @ y + md["a"]
    gy = md["B"].T @ x - md["C"] @ y - md["b"]
    sx, sy = problem.set_x, problem.set_y
    return (box_residual(sx.lo, sx.hi, x, gx),
            box_residual(sy.lo, sy.hi, y, -gy))


def samples_formula(c: int, N: int, M: int, T: int) -> int:
    """Samples drawn after c steps: an N-sample anchor at the start and after
    every T-th step, M fresh samples on every other step."""
    return N * (1 + c // T) + M * (c - c // T)


def first_at_eps(rows, residual):
    """(samples_used, k) at the first row with residual <= EPS, or None."""
    for row in rows:
        if residual(row.x, row.y) <= EPS:
            return row.samples_used, row.k
    return None


def _epoch_sink(T: int, stamps: list):
    def sink(row):
        if row.tau == T - 1:
            stamps.append(time.perf_counter())
    return sink


def _timed_run(sg, problem, config, epochs: dict):
    """One `sg.run` under a ScaledClock, with a timestamp at every epoch's
    last step.  The epoch times between two timestamps go to epochs["raw"]
    and epochs["scaled"]; returns ((raw_s, scaled_s), trace)."""
    stamps: list[float] = []
    clock = hostspeed.ScaledClock()
    try:
        trace = sg.run(problem, config, sink=_epoch_sink(config.T, stamps))
    finally:
        clock.stop()
    for a, b in zip(stamps, stamps[1:]):
        raw, scaled = clock.span(a, b)
        epochs["raw"].append(raw)
        epochs["scaled"].append(scaled)
    return clock.total(), trace


class Checks:
    """Named pass/fail results with the measured value behind each."""

    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok, detail: str = "") -> None:
        self.items.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.items)


# ----------------------------------------------------------------------------
# library workloads

class _LibraryWorkload:
    """One unit is one `spidergda.run` call with an epoch-boundary sink."""

    SETUP_IN_UNIT = False

    def __init__(self, seed: int, size: str, out_dir: Path):
        self.seed = seed
        self.size = size
        self.out_dir = out_dir
        self.epochs = {"raw": [], "scaled": []}
        self.first = None
        self.samples_to_eps = None

    def unit(self, sg):
        return _timed_run(sg, self.problem, self.config, self.epochs)

    def output_bytes(self) -> int:
        return 0

    def check_repeat(self, sg, trace, checks: Checks) -> None:
        same = (np.array_equal(trace.output_pair[0], self.first.output_pair[0])
                and np.array_equal(trace.output_pair[1], self.first.output_pair[1])
                and trace.total_samples == self.first.total_samples)
        if not same:
            checks.add("a repeat with the same seed returns the same output",
                       False, "outputs differ")

    def _check_schedule(self, trace, c, N: int, checks: Checks) -> None:
        expect = c.K * N + c.K * (c.T - 1) * c.M
        checks.add("total_samples = K*N + K*(T-1)*M",
                   trace.total_samples == expect,
                   f"{trace.total_samples} vs {expect}")
        bad = [row for row in trace.rows
               if (row.k + 1) * c.T < c.K * c.T and row.samples_used
               != samples_formula((row.k + 1) * c.T, N, c.M, c.T)]
        checks.add("samples_used at every epoch row follows the schedule",
                   not bad and len(trace.rows) == c.K
                   and trace.rows[-1].samples_used == expect,
                   f"{len(trace.rows)} rows, {len(bad)} off")

    def _set_samples_to_eps(self, traces, residual, checks: Checks) -> None:
        """Median over the traces of the samples drawn until EPS (all of a
        trace's samples if it never gets there)."""
        hits = [first_at_eps(t.rows, residual) for t in traces]
        self.samples_to_eps = statistics.median_low(
            h[0] if h else t.total_samples for h, t in zip(hits, traces))
        if self.size == "full":
            checks.add(f"residual reaches eps={EPS} within the schedule",
                       all(hits), "epochs " + ", ".join(
                           str(h[1]) if h else "-" for h in hits))


class QuadTuned(_LibraryWorkload):
    """Tuned well-conditioned 4x3 quadratic saddle, n=16, Box sets."""

    name = "quad_tuned"
    N, DX, DY = 16, 4, 3

    def setup(self, sg) -> None:
        self.problem = sg.problems.make_quadratic_saddle(
            self.DX, self.DY, n_samples=self.N, a_range=(4.0, 6.0),
            c_range=(0.05, 0.08), coupling=0.05, linear_scale=0.1,
            noise=0.01, seed=11)
        tin = sg.TunerInput(
            meta=self.problem.constants, epsilon=1e-3, regime=self.problem.regime,
            overrides={"alpha_y": 4.0, "beta": 0.016, "T": 8, "M": 16,
                       "K": SIZES[self.size]["quad_K"]})
        self.config, _audit = sg.tune_smooth(tin)
        self.config.seed = self.seed
        self.config.trace_stride = self.config.T

    def residual(self, x, y) -> float:
        return max(quad_residuals(self.problem, x, y))

    def check_first(self, sg, trace, checks: Checks) -> None:
        self.first = trace
        self._check_schedule(trace, self.config, self.N, checks)
        # the timed schedule is too short to converge: convergence and
        # samples_to_eps come from one untimed longer run of the same seed
        ref_config = dataclasses.replace(self.config,
                                         K=SIZES[self.size]["quad_eps_K"])
        ref = sg.run(self.problem, ref_config)
        md = self.problem.metadata
        A, B, C, a, b = md["A"], md["B"], md["C"], md["a"], md["b"]
        kkt = np.block([[A, B], [B.T, -C]])
        sol = np.linalg.solve(kkt, np.concatenate([-a, b]))
        xs, ys = sol[:self.DX], sol[self.DX:]
        sx, sy = self.problem.set_x, self.problem.set_y
        checks.add("KKT saddle lies inside both boxes",
                   np.all((sx.lo < xs) & (xs < sx.hi))
                   and np.all((sy.lo < ys) & (ys < sy.hi)))

        def dist(x, y):
            return float(np.linalg.norm(np.concatenate([x - xs, y - ys])))

        d0 = dist(0.5 * (sx.lo + sx.hi), 0.5 * (sy.lo + sy.hi))
        last = ref.rows[-1]
        d1 = dist(last.x, last.y)
        tol = QUAD_DIST_TOL[self.size]
        checks.add("distance to the KKT saddle shrinks below its tolerance",
                   d1 <= tol and d1 < d0, f"{d0:.3g} -> {d1:.3g} <= {tol}")

        mine = self.residual(last.x, last.y)
        theirs = max(sg.gs_residuals(self.problem, last.x, last.y))
        checks.add("program residual matches the closed-form residual",
                   abs(mine - theirs) <= 1e-9 * (1.0 + mine),
                   f"{theirs:.6g} vs {mine:.6g}")

        runs = (trace, ref)
        feasible = all(np.all((sx.lo - FEAS_TOL <= v) & (v <= sx.hi + FEAS_TOL))
                       for t in runs for v in [r.x for r in t.rows] + [t.output_pair[0]])
        feasible &= all(np.all((sy.lo - FEAS_TOL <= v) & (v <= sy.hi + FEAS_TOL))
                        for t in runs for v in [r.y for r in t.rows] + [t.output_pair[1]])
        checks.add("every recorded iterate and the output pair are feasible",
                   feasible)
        self._check_schedule(ref, ref_config, self.N, checks)
        self._set_samples_to_eps([ref], self.residual, checks)


class GdroSmoothed(_LibraryWorkload):
    """Moreau-smoothed group DRO on the two-group regression, n=200, d=3."""

    name = "gdro_smoothed"
    N, LAM = 200, 1e-3

    def setup(self, sg) -> None:
        # the data set is criterion 08's first one; the seed drives the solver
        self.spec = sg.make_two_group_regression(
            n=self.N, d=3, minority_frac=0.1, noise=0.1, noise_ratio=10.0, seed=0)
        self.problem = sg.as_problem(sg.make_group_dro(self.spec), lam=self.LAM)
        self.config = sg.SolverConfig(
            K=SIZES[self.size]["gdro_K"], T=25, M=32, B=200, alpha_x=5e-3,
            alpha_y=0.05, beta=0.05, r=0.5, seed=self.seed, trace_stride=25)

    def _groups(self):
        return [(np.asarray(X, dtype=np.float64), np.asarray(t, dtype=np.float64))
                for X, t in self.spec.groups]

    def grads(self, theta, q):
        """Closed-form gradient of the smoothed objective.  With squared loss
        and h = identity the envelope derivative is exactly 1 and its value
        is the loss minus lam/2."""
        gx = np.zeros_like(theta)
        gq = np.empty(len(self.spec.groups))
        for j, (X, t) in enumerate(self._groups()):
            r = X @ theta - t
            gx += q[j] * (2.0 / len(t)) * (r @ X)
            gq[j] = np.mean(r ** 2) - self.LAM / 2.0
        return gx, gq

    def residual(self, x, y) -> float:
        gx, gq = self.grads(x, y)
        sx = self.problem.set_x
        return max(box_residual(sx.lo, sx.hi, x, gx), simplex_residual(y, -gq))

    def check_first(self, sg, trace, checks: Checks) -> None:
        self.first = trace
        groups = self._groups()
        X = np.concatenate([g[0] for g in groups])
        t = np.concatenate([g[1] for g in groups])
        theta_ls, *_ = np.linalg.lstsq(X, t, rcond=None)

        def worst(theta):
            return max(float(np.mean((Xg @ theta - tg) ** 2)) for Xg, tg in groups)

        x_out, y_out = trace.output_pair
        ratio = worst(x_out) / worst(theta_ls)
        checks.add("worst-group loss <= 0.95 x pooled least squares",
                   ratio <= 0.95, f"ratio {ratio:.3f}")

        gx, gq = self.grads(x_out, y_out)
        fx = sg.full_grad_x(self.problem, x_out, y_out)
        fy = sg.full_grad_y(self.problem, x_out, y_out)
        err = max(float(np.max(np.abs(fx - gx))) / (1.0 + float(np.max(np.abs(gx)))),
                  float(np.max(np.abs(fy - gq))) / (1.0 + float(np.max(np.abs(gq)))))
        checks.add("full_grad_x/y match the closed-form smoothed gradient",
                   err <= GRAD_RTOL, f"max rel err {err:.2e}")

        ys = [r.y for r in trace.rows] + [y_out]
        on_simplex = all(np.all(y >= -FEAS_TOL) and abs(float(np.sum(y)) - 1.0)
                         <= FEAS_TOL for y in ys)
        checks.add("the dual iterate stays on the simplex", on_simplex)
        sx = self.problem.set_x
        checks.add("the primal iterate stays in its box",
                   all(np.all((sx.lo - FEAS_TOL <= r.x) & (r.x <= sx.hi + FEAS_TOL))
                       for r in trace.rows))
        self._check_schedule(trace, self.config, self.N, checks)
        # one solver stream in five or so reaches EPS three epochs early or
        # late; the median over three streams keeps the metric steady
        streams = [trace] + [
            sg.run(self.problem, dataclasses.replace(
                self.config, seed=self.seed + i * EXTRA_STREAM_OFFSET))
            for i in (1, 2)]
        self._set_samples_to_eps(streams, self.residual, checks)


# ----------------------------------------------------------------------------
# CLI workload

class CliDiagnostics:
    """`spidergda run` on a README-style quadratic_saddle config with every
    diagnostic on; one unit is one command, run in-process."""

    name = "cli_diagnostics"
    N, T, M = 16, 8, 16
    # every command builds and tunes its own problem, so a traced run
    # skips the separate set-up command
    SETUP_IN_UNIT = True

    def __init__(self, seed: int, size: str, out_dir: Path):
        self.seed = seed
        self.size = size
        self.out_dir = out_dir
        self.seeds = [2 * seed, 2 * seed + 1]
        self.K = SIZES[size]["cli_K"]
        self.lyapunov_stride = SIZES[size]["cli_lyapunov"]
        self.run_dir = out_dir / "run"
        self.epochs = {"raw": [], "scaled": []}
        self.first_digest = None
        self.replays = 0
        self.samples_to_eps = None
        out_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self._write_config("config.json", self.K, self.T,
                                              self.run_dir, full=True)
        # set-up probe: the same config cut to one step, no diagnostics
        self.setup_path = self._write_config("setup.json", 1, 1,
                                             out_dir / "setup", full=False)

    def _config(self, K: int, T: int, out: Path, full: bool) -> dict:
        cfg = {
            "problem": {"kind": "quadratic_saddle", "dim_x": 4, "dim_y": 3,
                        "n_samples": self.N, "seed": 11},
            "tuner": {"epsilon": 0.001,
                      "overrides": {"alpha_y": 4.0, "beta": 0.016,
                                    "K": K, "T": T, "M": self.M}},
            "solver": {"trace_stride": 1},
            "output": {"directory": str(out), "formats": ["csv", "json"]},
            "seeds": self.seeds,
        }
        if full:
            cfg["diagnostics"] = {"residual_stride": 1, "dz_norm": True,
                                  "lyapunov_stride": self.lyapunov_stride}
        else:
            cfg["output"]["formats"] = ["json"]
            cfg["seeds"] = self.seeds[:1]
        return cfg

    def _write_config(self, name: str, K: int, T: int, out: Path, full: bool) -> Path:
        path = self.out_dir / name
        path.write_text(json.dumps(self._config(K, T, out, full), indent=2),
                        encoding="utf-8")
        return path

    def setup(self, sg) -> None:
        code = sg.cli.main(["run", str(self.setup_path), "--quiet"])
        if code != 0:
            raise Failed(f"set-up command exited with {code}")

    def unit(self, sg):
        clock = hostspeed.ScaledClock()
        try:
            code = sg.cli.main(["run", str(self.config_path), "--quiet"])
        finally:
            clock.stop()
        if code != 0:
            raise Failed(f"exit code {code}")
        return clock.total(), self._digest()

    def _files(self):
        return [self.run_dir / f"trace_seed{s}.csv" for s in self.seeds] + \
            [self.run_dir / "summary.json"]

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self._files())

    def _digest(self) -> str:
        h = hashlib.sha256()
        for p in self._files():
            h.update(p.read_bytes())
        return h.hexdigest()

    # -- untimed library replay of the audited schedule ------------------------

    def _build_reference(self, sg) -> None:
        self.problem = sg.problems.make_quadratic_saddle(4, 3, n_samples=self.N,
                                                         seed=11)
        tin = sg.TunerInput(meta=self.problem.constants, epsilon=0.001,
                            regime=self.problem.regime,
                            overrides={"alpha_y": 4.0, "beta": 0.016,
                                       "K": self.K, "T": self.T, "M": self.M})
        self.config, _audit = sg.tune_smooth(tin)
        self.config.trace_stride = 1

    def replay(self, sg, seed: int):
        """Library run of the command's schedule for one config seed; its
        epoch times feed epoch_ms_p50."""
        self.config.seed = seed
        _timing, trace = _timed_run(sg, self.problem, self.config, self.epochs)
        self.replays += 1
        return trace

    def residual(self, x, y) -> float:
        return max(quad_residuals(self.problem, x, y))

    def check_first(self, sg, digest: str, checks: Checks) -> None:
        self.first_digest = digest
        self._build_reference(sg)
        summary = json.loads((self.run_dir / "summary.json").read_text(encoding="utf-8"))
        runs = {r["seed"]: r for r in summary["runs"]}
        K, T, N, M = self.K, self.T, self.N, self.M
        expect_total = K * N + K * (T - 1) * M
        for s in self.seeds:
            with open(self.run_dir / f"trace_seed{s}.csv", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            entry = runs[s]
            order = [(int(r["k"]), int(r["tau"])) for r in rows]
            checks.add(f"seed {s}: every (k, tau) of the schedule in order",
                       order == [(k, t) for k in range(K) for t in range(T)],
                       f"{len(rows)} rows")
            samples = [int(r["samples"]) for r in rows]
            expect = [samples_formula(c, N, M, T) for c in range(1, K * T)]
            checks.add(f"seed {s}: samples column follows the schedule",
                       samples[:-1] == expect and samples[-1] == expect_total
                       == entry["total_samples"],
                       f"final {samples[-1]}, total_samples {entry['total_samples']}")
            k, t = entry["output_index"]
            out_row = rows[k * T + t]
            checks.add(f"seed {s}: output_res_* equal the residuals of the "
                       f"output_index row",
                       float(out_row["res_x"]) == entry["output_res_x"]
                       and float(out_row["res_y"]) == entry["output_res_y"],
                       f"row {k * T + t}")
            lyap_rows = [i for i, r in enumerate(rows) if r["lyapunov"] != ""]
            want = [i for i in range(len(rows))
                    if i % self.lyapunov_stride == 0 or i == len(rows) - 1]
            checks.add(f"seed {s}: lyapunov filled exactly at its stride rows",
                       lyap_rows == want, f"{len(lyap_rows)} rows")

            trace = self.replay(sg, s)
            worst = 0.0
            same_steps = len(trace.rows) == len(rows)
            for r_lib, r_cli in zip(trace.rows, rows):
                same_steps &= (repr(r_lib.dx_norm) == r_cli["dx_norm"]
                               and r_lib.samples_used == int(r_cli["samples"]))
                mine = quad_residuals(self.problem, r_lib.x, r_lib.y)
                for m, col in zip(mine, ("res_x", "res_y")):
                    worst = max(worst, abs(float(r_cli[col]) - m) / (1.0 + m))
            checks.add(f"seed {s}: CLI trace matches a library replay step "
                       f"for step", same_steps)
            checks.add(f"seed {s}: res_* columns match the closed-form "
                       f"residuals of the replay", worst <= GRAD_RTOL,
                       f"max rel err {worst:.2e}")
            if s == self.seeds[0]:
                hit = first_at_eps(trace.rows, self.residual)
                # the README-style schedule is too short to reach EPS; the
                # metric then reads the samples the whole command drew
                self.samples_to_eps = hit[0] if hit else entry["total_samples"]
            checks.add(f"seed {s}: dz_norm reported and finite",
                       np.isfinite(entry.get("dz_norm", np.nan)))

    def check_repeat(self, sg, digest: str, checks: Checks) -> None:
        self.replay(sg, self.seeds[self.replays % 2])
        if digest != self.first_digest:
            checks.add("repeated commands write byte-identical files", False,
                       "digest differs")


WORKLOADS = {w.name: w for w in (QuadTuned, GdroSmoothed, CliDiagnostics)}
