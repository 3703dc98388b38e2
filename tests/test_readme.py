"""The README's library example and command-line transcript run as written and show what they compute."""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import pytest

from wreathwalls.cli import main

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


def cli_examples() -> list[tuple[str, list[str]]]:
    """Each ``$ wreathwalls ...`` example under "Command-line usage" and the lines it shows."""
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Command-line usage\n.*?^```sh\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no sh block under '## Command-line usage'"
    examples = []
    for chunk in match.group(1).strip().split("\n\n"):
        command, *shown = chunk.splitlines()
        assert command.startswith("$ wreathwalls "), command
        examples.append((command[2:], shown))
    return examples


# The cnd and embed examples read a sample.txt that the repository does not
# hold, so they are not run; every other example is.
RUN = [(c, shown) for c, shown in cli_examples() if not {"cnd", "embed"} & set(c.split())]


def test_cli_transcript_runs_all_but_the_sample_file_examples():
    assert len(cli_examples()) == 10
    commands = [re.search(r" (mul|inv|dist|walls|proper|growth) ", c).group(1) for c, _ in RUN]
    assert commands == ["mul", "inv", "dist", "dist", "walls", "proper", "proper", "growth"]


@pytest.mark.parametrize("command, shown", RUN, ids=[c for c, _ in RUN])
def test_cli_example_prints_what_the_readme_shows(capsys, command, shown):
    words = shlex.split(command, comments=True)[1:]
    keep = None
    if "|" in words:  # the README shows the output cut by "| head -N"
        cut = words.index("|")
        assert words[cut + 1] == "head"
        words, keep = words[:cut], int(words[cut + 2].removeprefix("-"))
    assert main(words) == 0
    assert capsys.readouterr().out.splitlines()[:keep] == shown
