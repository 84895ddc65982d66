"""The README's rows-contract example runs as written and prints what its
comment says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _snippet(heading: str) -> str:
    """The first ```python block under the README section `heading`."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"### {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_rows_contract_snippet_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_snippet("The rows contract"), "README.md", "exec"), {})
    # grad_x = mean(w) y, grad_y = mean(w) x and F = mean(w) x y
    assert out.getvalue() == "(array([-2.5]), array([1.25])) -1.25\n"
