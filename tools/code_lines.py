"""Count the code lines and the public names of each `src/` module, and
their totals.

A code line carries at least one token that is not a comment, a newline or
an indent; lines that belong to a docstring (the first string statement of
a module, class or function) do not count.  The public names are the string
entries of the module's `__all__`; a package root's starred entries
(`*core.__all__`) are counted in the modules that list them.

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


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    lines = names = 0
    print("  code  names  module")
    for path in sorted(root.rglob("*.py")):
        n, k = code_lines(path), public_names(path)
        lines, names = lines + n, names + k
        print(f"{n:6d}  {k:5d}  {path.relative_to(root)}")
    print(f"{lines:6d}  {names:5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
