"""Parsers for the element grammar, sample files, and lamp table files.

The element grammar (produced by ``str()`` on the corresponding types):

    word        := "1" | letter+          letters a..z generators, A..Z inverses
    lampentry   := word ":" elementId     elementId ASCII decimal, 1..order-1
    config      := "{" [lampentry ("," lampentry)*] "}"
    wreath      := config "|" word        e.g. "{1:1,a:1}|ab"

Words are freely reduced on parse, so ``parse_element(str(x)) == x`` and
``str(parse_element(s))`` is the canonical (shortlex-sorted, reduced) form.

A lamp table file starts with a line ``order k`` followed by k lines of k
space-separated ids, row times column, each an integer by :func:`parse_int`.
A sample file holds one wreath literal per line; ``#`` starts a comment and
blank lines are skipped. Both file kinds read undecodable bytes as lone surrogates.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from .groups import (
    DEFAULT_CAP,
    LampConfig,
    LampGroup,
    ReducedWord,
    WreathElement,
    check_rank,
    check_table_order,
    within_cap,
)


class ParseError(ValueError):
    """A syntax or range error in a literal, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.message, self.position = message, position


def parse_int(text: str) -> int:
    """An integer of a flag or a lamp table row: ASCII ``-?[0-9]+``, no ``+``, ``_`` or spaces."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


def _scan_word(text: str, start: int, rank: int) -> tuple[ReducedWord, int]:
    if start < len(text) and text[start] == "1":
        return ReducedWord.identity(rank), start + 1
    letters = []
    i = start
    while i < len(text):
        c = text[i]
        if "a" <= c <= "z":
            index = ord(c) - ord("a") + 1
        elif "A" <= c <= "Z":
            index = -(ord(c) - ord("A") + 1)
        else:
            break
        if abs(index) > rank:
            raise ParseError(f"generator {c!r} outside rank {rank}", i)
        letters.append(index)
        i += 1
    if not letters:
        found = text[start] if start < len(text) else "end of input"
        raise ParseError(f"expected a word, found {found!r}", start)
    return ReducedWord.from_letters(letters, rank), i


def _expect(text: str, i: int, char: str) -> int:
    if i >= len(text) or text[i] != char:
        found = text[i] if i < len(text) else "end of input"
        raise ParseError(f"expected {char!r}, found {found!r}", i)
    return i + 1


def parse_word(text: str, rank: int) -> ReducedWord:
    """Parse a whole string as a word literal."""
    check_rank(rank)
    word, i = _scan_word(text, 0, rank)
    if i != len(text):
        raise ParseError(f"unexpected trailing {text[i]!r}", i)
    return word


def _scan_config(
    text: str, start: int, lamps: LampGroup, rank: int
) -> tuple[LampConfig, int]:
    i = _expect(text, start, "{")
    pairs: list[tuple[ReducedWord, int]] = []
    positions_seen: set[ReducedWord] = set()
    if i < len(text) and text[i] == "}":
        return LampConfig.empty(lamps, rank), i + 1
    while True:
        entry_start = i
        position, i = _scan_word(text, i, rank)
        if position in positions_seen:
            raise ParseError(f"duplicate position {position} in configuration", entry_start)
        positions_seen.add(position)
        i = _expect(text, i, ":")
        value_start = i
        while i < len(text) and "0" <= text[i] <= "9":
            i += 1
        if i == value_start:
            found = text[i] if i < len(text) else "end of input"
            raise ParseError(f"expected a lamp id, found {found!r}", i)
        digits = text[value_start:i].lstrip("0")  # int() converts at most 4,300 digits
        if not digits:
            raise ParseError("lamp id 0 is the identity and may not appear", value_start)
        if len(digits) > len(str(lamps.order)) or int(digits) >= lamps.order:
            raise ParseError(f"lamp id {digits} outside 1..{lamps.order - 1}", value_start)
        pairs.append((position, int(digits)))
        if i < len(text) and text[i] == ",":
            i += 1
            continue
        i = _expect(text, i, "}")
        return LampConfig.from_pairs(pairs, lamps, rank), i


def parse_config(text: str, lamps: LampGroup, rank: int) -> LampConfig:
    """Parse a whole string as a configuration literal."""
    check_rank(rank)
    config, i = _scan_config(text, 0, lamps, rank)
    if i != len(text):
        raise ParseError(f"unexpected trailing {text[i]!r}", i)
    return config


def parse_element(text: str, lamps: LampGroup, rank: int) -> WreathElement:
    """Parse a wreath element literal ``config|word``."""
    check_rank(rank)
    if not text:
        raise ParseError("empty element literal", 0)
    config, i = _scan_config(text, 0, lamps, rank)
    i = _expect(text, i, "|")
    position, i = _scan_word(text, i, rank)
    if i != len(text):
        raise ParseError(f"unexpected trailing {text[i]!r}", i)
    return WreathElement(config, position)


# -- sample files -----------------------------------------------------------


def parse_sample_text(text: str, lamps: LampGroup, rank: int) -> list[WreathElement]:
    """One element literal per line; '#' comments and blank lines ignored."""
    elements = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            elements.append(parse_element(line, lamps, rank))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.message}", exc.position) from exc
    return elements


def load_sample_file(path: str | Path, lamps: LampGroup, rank: int) -> list[WreathElement]:
    return parse_sample_text(Path(path).read_text(errors="surrogateescape"), lamps, rank)


# -- lamp table files ---------------------------------------------------------


def parse_lamp_table(text: str, cap: int = DEFAULT_CAP) -> LampGroup:
    """Parse a lamp table: line ``order k`` then k rows of k ids.

    Refuses from the header, before reading the rows, when the table's
    ``k**3`` associativity checks would exceed ``cap``.
    """
    return _parse_table_lines(text.splitlines(), cap)


def _parse_table_lines(lines: Iterable[str], cap: int) -> LampGroup:
    kept = (line.strip() for line in lines if line.strip())
    first = next(kept, None)
    if first is None:
        raise ValueError("empty lamp table")
    header = first.split()
    if not first.isascii() or len(header) != 2 or header[0] != "order" or not header[1].isdigit():
        raise ValueError(f"lamp table must start with 'order k', got {first!r}")
    digits = header[1].lstrip("0") or "0"
    try:
        order = int(digits)
    except ValueError:  # more digits than int() converts, so more than any flag's cap
        within_cap(None, cap, f"lamp table check of order {digits}")
    check_table_order(order, cap)
    rows = list(kept)
    if len(rows) != order:
        raise ValueError(f"expected {order} table rows, got {len(rows)}")
    table = []
    for lineno, line in enumerate(rows, start=2):
        try:
            table.append([parse_int(field) for field in line.split()])
        except ValueError:
            raise ValueError(f"line {lineno}: table entries must be integers") from None
    return LampGroup(table)


def load_lamp_table(path: str | Path, cap: int = DEFAULT_CAP) -> LampGroup:
    """:func:`parse_lamp_table` line by line; undecodable bytes fail as lone surrogates."""
    with open(path, errors="surrogateescape") as handle:
        return _parse_table_lines(handle, cap)


def format_lamp_table(lamps: LampGroup) -> str:
    lines = [f"order {lamps.order}"]
    lines.extend(" ".join(str(v) for v in row) for row in lamps.table)
    return "\n".join(lines) + "\n"
