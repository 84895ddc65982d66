"""Public-name tests: each module's `__all__` is the one list of its public
names, the package root re-exports those lists, and every name resolves.
Also: no module imports a name that it never reads, no public name goes
without a reader in `src/` unless it is pinned below with its reason, the
CLI imports only public names of the package, `src/` stays within its
code-line budget, and no further benchmark tracer target goes missing."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import spidergda

ROOT = Path(__file__).resolve().parents[1]

# code lines of src/ by tools/code_lines.py when the test was written.
# Lower the budget when a change removes code; raising it loosens the
# guard, and CHANGES.md must say so (1,872 before the solver's seed axis,
# 1,948 before the diagnostics' seed axis, 1,967 before the columnar trace)
SRC_CODE_LINES = 1976

# benchmark tracer targets (bench/tracing.py) that no longer resolve when
# the test was written; a target that resolves again leaves the list, and
# none may join it
TRACER_TARGETS_MISSING = frozenset(
    [f"spidergda.{mod}:{fn}_{side}" for mod, fn in (("estimator", "full_grad"),
                                                    ("diagnostics", "full_grad"),
                                                    ("smoothing", "smooth_grad"))
     for side in "xy"]
    + ["spidergda.cli:as_problem", "spidergda.cli:gs_residuals",
       "spidergda.cli:lyapunov", "spidergda.smoothing:envelope"])

MODULES = ["spidergda"] + [f"spidergda.{m.name}"
                           for m in pkgutil.iter_modules(spidergda.__path__)]

# the modules the root re-exports, in the root's order; `cli` and `verify`
# stay out of it
REEXPORTED = ["core", "projections", "estimator", "solver", "tuner",
              "smoothing", "diagnostics", "problems"]


def _tree(module):
    return ast.parse(Path(module.__file__).read_text())


def _top_level_names(tree):
    """Names bound by the module's top-level defs, classes and assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} lists no public names"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", REEXPORTED)
def test_every_public_name_is_listed(name):
    module = importlib.import_module(f"spidergda.{name}")
    public = [n for n in _top_level_names(_tree(module))
              if not n.startswith("_") and n != "logger"]
    assert [n for n in public if n not in module.__all__] == []


def test_root_reexports_each_modules_list():
    expected = ["__version__", "problems"]
    for name in REEXPORTED:
        expected += importlib.import_module(f"spidergda.{name}").__all__
    assert spidergda.__all__ == expected
    assert len(set(expected)) == len(expected), "a name is listed twice"


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    module = importlib.import_module(name)
    tree = _tree(module)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names
                         if a.name not in ("*", "annotations")}
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= set(module.__all__)
    assert sorted(imported - read) == []


# public names that no module of src/ reads, each with the reason it stays
UNREAD_PUBLIC = {
    "gs_residuals": "the one-point exact residuals; the benchmark calls it",
    "full_value": "the README's oracle example calls it; `src/` takes exact "
                  "values over rows (`_exact_values`)",
    "lyapunov": "the one-row case of the merit rows of `diagnose` "
                "(`_lyapunov_rows`); the benchmark's traced layer and "
                "tools/calls_per_step.py call it",
    "estimate_sigmas": "the sigma constants of item 5's online CLI kind",
    "estimator_mse": "the estimator error that item 4's est_err column "
                     "reports; criterion 03 and ESTIMATOR_MSE_DIGEST pin it",
    "near_stationarity_certificate": "item 19's certificate in a composite "
                                     "summary",
}


def test_every_public_name_has_a_reader():
    # a read is a loaded name or an attribute (`problems.make_group_dro`)
    # anywhere in src/ outside the statement that defines the name; the
    # `__all__` entry is a string, so it is no read
    read = set()
    for name in MODULES:
        for stmt in _tree(importlib.import_module(name)).body:
            own = set(_top_level_names(ast.Module(body=[stmt], type_ignores=[])))
            read |= {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(stmt)
                     if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
                     or isinstance(n, ast.Attribute)} - own
    # the root lists only its modules' names, `__version__` and `problems`
    public = {n for name in MODULES if name != "spidergda"
              for n in importlib.import_module(name).__all__}
    assert sorted(public - read) == sorted(UNREAD_PUBLIC)


def test_cli_imports_no_private_package_name():
    # the CLI checks configs and formats what the public API returns, so
    # no decision of the library leaks into it through a private name
    tree = _tree(importlib.import_module("spidergda.cli"))
    private = [f"{'.' * node.level}{node.module or ''}:{a.name}"
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "spidergda")
               for a in node.names if a.name.startswith("_")]
    assert private == []


def _load(relpath):
    """A script of the repository outside the package, loaded by path."""
    path = ROOT / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_code_lines_within_budget():
    tool = _load("tools/code_lines.py")
    total = sum(map(tool.code_lines, (ROOT / "src").rglob("*.py")))
    assert total <= SRC_CODE_LINES, f"{total} code lines in src/"


def test_no_further_benchmark_tracer_target_goes_missing():
    # a traced benchmark run skips a target that no longer resolves and
    # only counts it in trace.missing_targets; this names each one that a
    # refactor drops, beyond those already gone
    tracing = _load("bench/tracing.py")
    missing = {target for _, targets in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS
               for target in targets if tracing._resolve(target) is None}
    assert missing <= TRACER_TARGETS_MISSING, sorted(missing - TRACER_TARGETS_MISSING)
