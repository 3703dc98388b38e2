"""Fuzzing the command line: any argv and any file contents exit 0, 1 or 2, with no traceback.

Hypothesis draws one of the eight commands with its arguments, the global
flags (extreme and negative ints for ``--rank``, ``--cap``, ``--max-wall``
and ``--radius``) and random bytes for sample and lamp table files.
``main`` runs in process; the only exception it may raise is argparse's
``SystemExit``.

Every draw is bounded. Only ``mul``, ``inv`` and ``walls``, whose work does
not grow with the cap, draw caps above 3,000 (with lamp orders of at most
12); every other command runs under a cap of at most 3,000, which bounds the
sub-level set, the growth ball, the oracle's ball and the lamp table.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from wreathwalls.cli import main

from support import format_lamp_table, s3

EXTREMES = [-(10**30), -(2**63), -1, 0, 2**63, 10**20, 10**100]
INTS = st.one_of(st.integers(0, 4), st.integers(-3, 12), st.sampled_from(EXTREMES)).map(str)
BOUNDED_CAPS = st.one_of(
    st.integers(8, 3000), st.integers(-3, 3000), st.sampled_from(EXTREMES[:4])
).map(str)
ANY_CAPS = st.one_of(BOUNDED_CAPS, st.sampled_from(EXTREMES).map(str))
LITERALS = st.one_of(
    st.sampled_from(["{}|1", "{a:1}|ab", "{1:1,B:1}|b", "{A:1}|ba"]),
    st.sampled_from(["{a:2}|A", "{}|C", "{a:1}|", "{", "1", "", "--x"]),
    st.text(max_size=10),
)
SAMPLE_TEXT = "{}|1\n{}|a\n{a:1}|ab\n"
FILE_BYTES = st.one_of(
    st.binary(max_size=200),
    st.sampled_from([SAMPLE_TEXT.encode(), format_lamp_table(s3()).encode(), b"order 2\n0 1\n"]),
)
COMMANDS = ["mul", "inv", "dist", "walls", "proper", "growth", "cnd", "embed"]


@st.composite
def invocations(draw, directory: Path) -> list[str]:
    command = draw(st.sampled_from(COMMANDS))
    unbounded = command in ("mul", "inv", "walls")
    argv = []
    if draw(st.booleans()):
        argv += ["--rank", draw(INTS)]
    argv += ["--cap", draw(ANY_CAPS if unbounded else BOUNDED_CAPS)]
    lamps = draw(st.sampled_from(["default", "order", "table"]))
    if lamps == "order":
        argv += ["--lamp-order", draw(st.integers(-3, 12).map(str) if unbounded else INTS)]
    elif lamps == "table":
        table = directory / "table.txt"
        table.write_bytes(draw(FILE_BYTES, label="table"))
        argv += ["--lamp-table", str(table)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json", "csv"]))]
    argv.append(command)
    if command in ("mul", "dist", "walls"):
        argv += [draw(LITERALS), draw(LITERALS)]
        if command == "dist" and draw(st.booleans()):
            argv.append("--oracle")
    elif command == "inv":
        argv.append(draw(LITERALS))
    elif command == "proper":
        argv += ["--max-wall", draw(INTS)]
        if draw(st.booleans()):
            argv += ["--radius", draw(INTS)]
    elif command == "growth":
        argv += ["--radius", draw(INTS)]
    else:
        sample = directory / "sample.txt"
        sample.write_bytes(draw(FILE_BYTES, label="sample"))
        argv += ["--sample", str(sample)]
        if command == "embed":
            argv += ["--out", str(directory / "out")]
    return argv


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(st.data())
def test_main_exits_zero_one_or_two_without_traceback(data):
    with tempfile.TemporaryDirectory() as directory:
        argv = data.draw(invocations(Path(directory)), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exit:
                code = exit.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
