"""Count the code lines of each `src/` module and their total.

A code line carries at least one token that is not a comment, a newline or
an indent; lines that belong to a docstring (the first string statement of
a module, class or function) do not count.

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


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
