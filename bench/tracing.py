"""Outside-in layer tracing for the benchmark's traced runs.

The tracer replaces named functions of the `spidergda` modules with thin
wrappers, installed from the benchmark's own files at the names the
modules call them by (`spidergda.solver.recurse`, `spidergda.cli.gs_residuals`,
`Box.project`, ...).  Each wrapped call records one span (layer name, start,
end, parent span) in flat in-memory arrays; a layer's self time is its span
time minus the time of its direct child spans.  Targets that a refactor has
removed are skipped and reported as missing, so the traced run keeps working
while the package changes under it.  Untraced runs never install it.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

# (metric layer, wrapped names).  A name is "module:attr" or
# "module:Class.attr"; every binding a caller can reach is listed, because
# the modules import these functions by name.
SPAN_TARGETS = [
    ("core.batch_grads", ["spidergda.core:StochasticOracle.batch_grads"]),
    ("core.full_grad", [f"{mod}:full_grad_{side}"
                        for mod in ("spidergda.estimator", "spidergda.diagnostics",
                                    "spidergda.core", "spidergda")
                        for side in ("x", "y")]),
    ("estimator.anchor", ["spidergda.solver:anchor", "spidergda.estimator:anchor"]),
    ("estimator.recurse", ["spidergda.solver:recurse", "spidergda.estimator:recurse"]),
    ("estimator.batch_rng", ["spidergda.solver:batch_rng",
                             "spidergda.estimator:batch_rng"]),
    ("solver.step", ["spidergda.solver:step"]),
    ("solver.run", ["spidergda.solver:run", "spidergda:run", "spidergda.cli:run"]),
    ("smoothing.smooth_grad", ["spidergda.smoothing:smooth_grad_x",
                               "spidergda.smoothing:smooth_grad_y"]),
    ("tuner.tune", [f"{mod}:{fn}"
                    for mod in ("spidergda.tuner", "spidergda", "spidergda.cli")
                    for fn in ("tune_smooth", "tune_nonsmooth")]),
    ("problems.build", [f"{mod}:{fn}"
                        for mod in ("spidergda.problems", "spidergda")
                        for fn in ("make_quadratic_saddle", "make_group_dro",
                                   "make_two_group_regression")]
                       + ["spidergda.smoothing:as_problem", "spidergda:as_problem",
                          "spidergda.cli:as_problem"]),
    ("diagnostics.gs_residuals", ["spidergda.cli:gs_residuals",
                                  "spidergda.diagnostics:gs_residuals",
                                  "spidergda:gs_residuals"]),
    ("diagnostics.solve_x_r", ["spidergda.diagnostics:solve_x_r"]),
    ("diagnostics.lyapunov", ["spidergda.cli:lyapunov",
                              "spidergda.diagnostics:lyapunov"]),
    ("diagnostics.dz_norm", ["spidergda.cli:dz_norm", "spidergda.diagnostics:dz_norm"]),
    ("cli.run_experiment", ["spidergda.cli:run_experiment"]),
] + [
    (f"projections.{op}.{kind.lower()}", [f"spidergda.projections:{kind}.{op}"])
    for op in ("project", "tangent_dist")
    for kind in ("Box", "Ball", "Simplex", "FullSpace")
]

# count-only targets: called per sample, where a span each would swamp the
# measurement; their time stays in the calling span's self time
COUNT_TARGETS = [
    ("smoothing.envelope", ["spidergda.smoothing:envelope"]),
]

# per-sample oracle callables, wrapped on each problem the build layer returns
SCALAR_ORACLE_ATTRS = ("grad_x", "grad_y", "eval_f")


def _resolve(target: str):
    """(owner object, attribute name) for a target, or None if it is gone."""
    mod_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._open = Counter()      # layer name -> wrapped calls in progress
        self.counts = Counter()     # layer name -> calls
        self.batch_rows = 0         # rows asked of batch_grads, anywhere
        self.run_batch_rows = 0     # ... and inside solver.run
        self.scalar_grads = 0       # scalar grad_x/grad_y calls inside
                                    # solver.run and outside batch_grads
        self.trace_rows = 0
        self.samples = 0            # total_samples of every solver.run
        self.missing: list[str] = []
        self._installed: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer._stack.append(sid)
            tracer._open[name] += 1
            tracer.counts[name] += 1
            tracer._on_enter(name, args, kwargs)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer._open[name] -= 1
                tracer.span_start[sid] = t0
                tracer.span_end[sid] = t1
            tracer._on_exit(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _scalar_wrapper(self, attr: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts["core.oracle_scalar"] += 1
            if (attr != "eval_f" and tracer._open["solver.run"]
                    and not tracer._open["core.batch_grads"]):
                tracer.scalar_grads += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_enter(self, name: str, args, kwargs) -> None:
        if name == "core.batch_grads":
            ids = args[3] if len(args) > 3 else kwargs.get("ids", ())
            self.batch_rows += len(ids)
            if self._open["solver.run"]:
                self.run_batch_rows += len(ids)

    def _on_exit(self, name: str, result) -> None:
        if name == "problems.build":
            self._wrap_oracle(result)
        elif name == "solver.run":
            self.trace_rows += len(getattr(result, "rows", ()))
            self.samples += int(getattr(result, "total_samples", 0))

    def _wrap_oracle(self, problem) -> None:
        oracle = getattr(problem, "oracle", None)
        if oracle is None:
            return
        for attr in SCALAR_ORACLE_ATTRS:
            fn = getattr(oracle, attr, None)
            if callable(fn) and not hasattr(fn, "__wrapped__"):
                setattr(oracle, attr, self._scalar_wrapper(attr, fn))

    # -- install / remove ----------------------------------------------------

    def install(self, span_targets=SPAN_TARGETS, count_targets=COUNT_TARGETS):
        """Wrap every target that still exists; list the rest as missing."""
        for targets, make in ((span_targets, self._span_wrapper),
                              (count_targets, self._count_wrapper)):
            for name, names in targets:
                for target in names:
                    found = _resolve(target)
                    if found is None:
                        self.missing.append(target)
                        continue
                    owner, attr = found
                    original = owner.__dict__.get(attr, getattr(owner, attr))
                    self._installed.append((owner, attr, original))
                    setattr(owner, attr, make(name, getattr(owner, attr)))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> Counter:
        """Per-layer self seconds: span time minus direct children's time."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = Counter()
        for i in range(n):
            out[self.names[self.span_name[i]]] += dur[i] - child[i]
        return out

    def write_spans(self, path) -> None:
        """Write the raw spans as TSV: id, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                         f"{self.span_parent[i]}\n")


# layers reported with calls and self time, then with self time only
_TIMED = ["core.batch_grads", "core.full_grad", "estimator.anchor",
          "estimator.recurse", "estimator.batch_rng", "solver.step",
          "smoothing.smooth_grad", "diagnostics.gs_residuals",
          "diagnostics.solve_x_r", "diagnostics.lyapunov"] + [
    f"projections.{op}.{kind}" for op in ("project", "tangent_dist")
    for kind in ("box", "ball", "simplex", "fullspace")]
_SELF_ONLY = ["solver.run", "tuner.tune", "problems.build", "cli.run_experiment"]


def layer_metrics(tracer: Tracer, unit_s: float, output_bytes: int) -> dict:
    """Every per-layer metric of one traced unit, by name: value and unit."""
    times = tracer.self_times()
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer in _TIMED:
        put(f"{layer}.calls", tracer.counts[layer], "count")
        put(f"{layer}.self_s", times[layer], "s")
    for layer in _SELF_ONLY:
        put(f"{layer}.self_s", times[layer], "s")
    put("core.batch_grads.rows", tracer.batch_rows, "count")
    put("core.oracle_scalar.calls", tracer.counts["core.oracle_scalar"], "count")
    rows = tracer.run_batch_rows + tracer.scalar_grads / 2.0
    put("core.evals_per_sample", rows / tracer.samples if tracer.samples else 0.0,
        "ratio")
    put("solver.trace_rows", tracer.trace_rows, "count")
    put("smoothing.envelope.calls", tracer.counts["smoothing.envelope"], "count")
    put("diagnostics.dz_norm.calls", tracer.counts["diagnostics.dz_norm"], "count")
    put("cli.output_bytes", output_bytes, "bytes")
    put("trace.missing_targets", len(tracer.missing), "count")
    put("trace.unit_s", unit_s, "s")
    return out
