"""Independent reference computations used to check the CLI's outputs.

Nothing here imports wreathwalls. Words are tuples of signed generator
indices (+i the i-th generator, -i its inverse); an element is a pair
``(position, lamps)`` with ``lamps`` a dict word -> nonzero lamp id.

The wall distance uses the closed form: with ``D`` the set of positions where
the two lamp configurations differ,

    d(a, b) = 2 * |{nonempty prefixes of a.pos^-1 * s : s in {b.pos} | D}|,

that is, twice the number of edges of the tree spanned by ``a.pos``, ``b.pos``
and ``D``.
"""

from __future__ import annotations

import itertools


def reduce_word(letters) -> tuple[int, ...]:
    out: list[int] = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def inverse_word(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-letter for letter in reversed(word))


def letter_order(letter: int) -> int:
    """a < A < b < B < ..., the CLI's shortlex letter order."""
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def shortlex(word: tuple[int, ...]) -> tuple:
    return (len(word), tuple(letter_order(letter) for letter in word))


def format_word(word: tuple[int, ...]) -> str:
    if not word:
        return "1"
    return "".join(
        chr(ord("a") + letter - 1) if letter > 0 else chr(ord("A") - letter - 1)
        for letter in word
    )


def format_element(position: tuple[int, ...], lamps: dict) -> str:
    """The canonical literal ``{p:v,...}|w``, entries in shortlex order."""
    entries = ",".join(
        f"{format_word(p)}:{lamps[p]}" for p in sorted(lamps, key=shortlex)
    )
    return "{" + entries + "}|" + format_word(position)


def parse_word(text: str) -> tuple[int, ...]:
    if text == "1":
        return ()
    return reduce_word(
        ord(c) - ord("a") + 1 if c.islower() else -(ord(c) - ord("A") + 1) for c in text
    )


def parse_element(text: str) -> tuple[tuple[int, ...], dict]:
    config, word = text.strip().split("|")
    lamps = {}
    body = config[1:-1]
    if body:
        for entry in body.split(","):
            position, value = entry.split(":")
            lamps[parse_word(position)] = int(value)
    return parse_word(word), lamps


def distance(a, b) -> int:
    """Closed-form wall distance between elements ``(position, lamps)``."""
    a_pos, a_lamps = a
    b_pos, b_lamps = b
    targets = {b_pos}
    targets.update(p for p in a_lamps.keys() | b_lamps.keys() if a_lamps.get(p) != b_lamps.get(p))
    back = inverse_word(a_pos)
    edges = set()
    for target in targets:
        word = reduce_word(back + target)
        edges.update(word[:i] for i in range(1, len(word) + 1))
    return 2 * len(edges)


def free_ball(rank: int, radius: int) -> list[tuple[int, ...]]:
    """Reduced words of length <= radius, in shortlex order."""
    alphabet = sorted([*range(1, rank + 1), *range(-rank, 0)], key=letter_order)
    words = [()]
    level = [()]
    for _ in range(radius):
        level = [w + (l,) for w in level for l in alphabet if not w or l != -w[-1]]
        words.extend(level)
    return words


def sublevel(rank: int, order: int, max_wall: int, radius: int):
    """Box size and sub-level literals of the exhaustive properness check."""
    ball = free_ball(rank, radius)
    low = []
    box = 0
    for values in itertools.product(range(order), repeat=len(ball)):
        lamps = {p: v for p, v in zip(ball, values) if v}
        for position in ball:
            box += 1
            if distance(((), {}), (position, lamps)) <= max_wall:
                low.append(format_element(position, lamps))
    return box, low


def growth(rank: int, table: list[list[int]], radius: int) -> list[tuple[int, int, int, int]]:
    """Rows (radius, sphere size, min wall, max wall) of the wreath BFS.

    Generators are the tree letters and one lamp move per nontrivial lamp
    value at the identity; lamps are multiplied with the current value on the
    left.
    """
    order = len(table)
    start = ((), ())
    visited = {start}
    spheres = [[start]]
    for _ in range(radius):
        frontier = []
        for position, lamps in spheres[-1]:
            neighbours = [
                (reduce_word(position + (l,)), lamps)
                for l in [*range(1, rank + 1), *range(-rank, 0)]
            ]
            here = dict(lamps)
            for value in range(1, order):
                moved = dict(here)
                product = table[here.get(position, 0)][value]
                if product:
                    moved[position] = product
                else:
                    del moved[position]
                neighbours.append((position, tuple(sorted(moved.items()))))
            for neighbour in neighbours:
                if neighbour not in visited:
                    visited.add(neighbour)
                    frontier.append(neighbour)
        spheres.append(frontier)
    rows = []
    for r, sphere in enumerate(spheres):
        walls = [distance(((), {}), (position, dict(lamps))) for position, lamps in sphere]
        rows.append((r, len(sphere), min(walls), max(walls)))
    return rows

