"""The README's library example runs as written and shows what it computes."""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no python block under '## Library'"
    return match.group(1)


def test_library_example_runs_and_its_shown_values_hold():
    block = library_block()
    namespace: dict = {}
    exec(block, namespace)
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        comment = comment.strip()
        try:
            shown = ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            if comment.endswith(", ...)"):
                assert repr(eval(code, namespace)).startswith(comment[:-4]), line
                checked += 1
            continue
        assert eval(code, namespace) == shown, line
        checked += 1
    assert checked >= 4
