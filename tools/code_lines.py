"""Count the code lines, the public names and the settings of each `src/`
module, and their totals.

A code line carries at least one token that is not a comment, a newline or
an indent; lines that belong to a docstring (the first string statement of
a module, class or function) do not count.  The public names are the string
entries of the module's `__all__`; a package root's starred entries
(`*core.__all__`) are counted in the modules that list them.  The settings
are the defaulted parameters of the public functions and of the public
methods (and `__init__`) of public classes, plus the fields with a default
of public dataclasses; a `field(init=False)` is no setting.

    python3 tools/code_lines.py [SRC_DIR]      # default: src/ of the repo
"""

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        lines = {tok.start[0] for tok in tokenize.tokenize(fh.readline)
                 if tok.type not in _LAYOUT}
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


def public_names(path: Path) -> int:
    count = 0
    for node in ast.parse(path.read_bytes()).body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            count += sum(isinstance(e, ast.Constant) for e in node.value.elts)
    return count


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _defaults(fn: ast.FunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in cls.decorator_list)


def _no_init(value: ast.expr) -> bool:
    # field(init=False)
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"
            and any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in value.keywords))


def settings(path: Path) -> int:
    count = 0
    for node in ast.parse(path.read_bytes()).body:
        if isinstance(node, ast.FunctionDef) and _public(node.name):
            count += _defaults(node)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    count += _defaults(item)
                elif (isinstance(item, ast.AnnAssign) and _is_dataclass(node)
                      and item.value is not None and _public(item.target.id)
                      and not _no_init(item.value)):
                    count += 1
    return count


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    lines = names = sets = 0
    print("  code  names  settings  module")
    for path in sorted(root.rglob("*.py")):
        n, k, m = code_lines(path), public_names(path), settings(path)
        lines, names, sets = lines + n, names + k, sets + m
        print(f"{n:6d}  {k:5d}  {m:8d}  {path.relative_to(root)}")
    print(f"{lines:6d}  {names:5d}  {sets:8d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
