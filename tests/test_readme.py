"""The README's quick start, rows-contract and h-component examples run as
written and print what their comments say, and its table of problem kinds
lists the CLI's kinds and keys."""

import contextlib
import io
import re
from pathlib import Path

from spidergda.cli import _KINDS

README = Path(__file__).resolve().parents[1] / "README.md"


def _snippet(heading: str) -> str:
    """The first ```python block under the README heading `heading`."""
    text = README.read_text(encoding="utf-8")
    section = text[re.search(f"^#+ {re.escape(heading)}\n", text, re.M).end():]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _printed(heading: str) -> str:
    """What the README snippet under `heading` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_snippet(heading), "README.md", "exec"), {})
    return out.getvalue()


def test_quick_start_snippet_runs():
    # the output pair's exact residuals, then the merit values of trace
    # rows 0, 3000 and 5999, all from one `diagnose` pass
    assert _printed("Library quick start") == (
        "(2.3670105920871225, 1.3891480768919312e-05)\n"
        "{0: 2.6419102745195637, 3000: 0.944135123792785, 5999: 0.7567019788227662}\n")


def test_rows_contract_snippet_runs():
    # grad_x = mean(w) y, grad_y = mean(w) x and F = mean(w) x y
    assert _printed("The rows contract") == "(array([-2.5]), array([1.25])) -1.25\n"


def test_h_component_snippet_runs():
    # |q| at lam = 1/2: Huber values |w| - 1/4 outside, w^2 inside
    assert _printed("h components") == "[1.75, 0.0625, 0.75] [-1.0, 0.5, 1.0]\n"


def test_kinds_table_lists_the_clis_kinds_and_keys():
    # each row names a kind and its keys in backticks (quoted values such
    # as `"hinge"` are not keys); "none" is a kind without keys
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| kind | keys |\n"):].split("\n")[2:]
    rows = {}
    for line in table[:next(i for i, row in enumerate(table) if not row.startswith("|"))]:
        kind, keys = line.split("|")[1:3]
        rows[kind.strip().strip("`")] = set(re.findall(r"`([a-z_][a-z0-9_]*)`", keys))
    assert rows == {kind: set(spec.keys) for kind, spec in _KINDS.items()}
