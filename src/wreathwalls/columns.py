"""A sample's walls as 0/1 columns, keyed in one pass over the tree nodes it occupies.

Needs only ``groups``: ``cnd`` counts the columns without the wall classes,
``WreathWallSpace.separating_walls`` builds its half-spaces from the same keys, and
``embed`` writes the columns' packed Hamming rows and coordinates without numpy.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .groups import LampGroup, WreathElement, check_elements, within_cap


def validate_sample(elements: list[WreathElement]) -> None:
    """Reject empty samples and duplicate elements."""
    if not elements:
        raise ValueError("sample must contain at least one element")
    seen: set[WreathElement] = set()
    for element in elements:
        if element in seen:
            raise ValueError(f"duplicate sample element {element}")
        seen.add(element)


def keyed_edges(
    elements: Sequence[WreathElement],
) -> Iterator[tuple[str, dict[tuple, list[int]], list[int]]]:
    """Each base wall between some two of the elements, with its cone's elements keyed.

    Over an edge, an element lies in exactly one wall's positive half: its own
    side (``inside`` the cone or not), decorated with its lamps beyond the edge.
    The key is that side and those ``(letters, value)`` entries. The edge comes
    as its deep end's letters, and the indices of the elements with a position
    or lamp in the cone come third. Every other element lies in the one wall
    keyed ``(False, ())``, which no element in the cone has: a cocone wall's
    decoration lives in the cone. An edge is yielded, in no fixed order, when
    its elements fall under two or more keys. Ranks and lamp groups are not checked.
    """
    n = len(elements)
    positions = [x.position.letters for x in elements]
    sites = [[(p.letters, v) for p, v in x.lamps.entries] for x in elements]
    in_cone: dict[str, list[int]] = {}
    for i, (position, entries) in enumerate(zip(positions, sites)):
        words = (position, *(w for w, _ in entries))
        for node in {w[:k] for w in words for k in range(1, len(w) + 1)}:
            in_cone.setdefault(node, []).append(i)
    for deep, cone in in_cone.items():
        depth = len(deep)
        members: dict[tuple, list[int]] = {}
        for i in cone:
            inside = positions[i][:depth] == deep
            beyond = tuple([e for e in sites[i] if (e[0][:depth] == deep) != inside])
            members.setdefault((inside, beyond), []).append(i)
        if len(members) + (len(cone) < n) > 1:
            yield deep, members, cone


def wall_columns(
    elements: list[WreathElement], lamps: LampGroup, rank: int, cap: int
) -> list[list[int]]:
    """The sample's walls as 0/1 columns: the ascending rows in each wall's positive half.

    One column per key of :func:`keyed_edges`, and the cone of each edge that misses some
    element: it stands in for the shared wall ``(False, ())``, its complement, which a
    Hamming distance cannot tell from it. Refuses empty or duplicate samples, foreign
    elements, and, before any wall work, above ``cap`` on n * n distance entries.
    """
    validate_sample(elements)
    check_elements(lamps, rank, elements)
    n = len(elements)
    within_cap(n * n, cap, f"distance matrix of {n} elements")
    columns: list[list[int]] = []
    for _, members, cone in keyed_edges(elements):
        columns += [*members.values(), cone] if len(cone) < n else members.values()
    return columns


def smaller_side(rows: Sequence[int], everyone: set[int]) -> Iterable[int]:
    """``rows`` if they hold at most half of ``everyone``, else the others, as a set."""
    return everyone.difference(rows) if 2 * len(rows) > len(everyone) else rows


def row_fields(row: bytes, n: int) -> memoryview:
    """The ``n`` fields of a :func:`hamming_rows` row, cast in a little-endian host's order."""
    return memoryview(row).cast({2: "H", 4: "I", 8: "Q"}[len(row) // n])


def hamming_rows(columns: Sequence[Sequence[int]], n: int) -> list[bytes]:
    """Row ``i`` of the Hamming distance matrix of 0/1 columns (each listing its rows) as the
    bytes of ``total + s_i * ones - 2 * sums[i]``: ``n`` little-endian fields.

    A column and its complement give the same distances, so each adds its field mask over its
    :func:`smaller_side` only: into ``total``, and into ``sums[i]`` for each row ``i`` there;
    ``s_i`` is field ``i`` of ``total``. A field is 2 bytes wide when twice the column count
    is below 2**16, else 4, else 8, so ``total + s_i * ones`` fits, and no field goes negative.
    """
    width = next(w for w in (2, 4, 8) if 2 * len(columns) < 1 << 8 * w)
    size, total, sums, everyone = n * width, 0, [0] * n, set(range(n))
    for rows in columns:
        side = smaller_side(rows, everyone)
        fields = bytearray(size)
        for i in side:
            fields[i * width] = 1
        mask = int.from_bytes(fields, "little")
        total += mask
        for i in side:
            sums[i] += mask
    ones = int.from_bytes(b"\1".ljust(width, b"\0") * n, "little")
    counts = row_fields(total.to_bytes(size, "little"), n)
    return [(total + s * ones - 2 * row).to_bytes(size, "little") for s, row in zip(counts, sums)]


def coordinates_csv(columns: Sequence[Sequence[int]], n: int) -> bytearray:
    """The CSV text of 0/1 columns over rows ``0..n-1``, a line of comma-separated digits a row
    (``\\n`` with no columns): ``n`` copies of a row holding ``1`` where a column holds more
    than half the rows, then each column's :func:`smaller_side` written over them."""
    row = b"".join(b"1," if 2 * len(rows) > n else b"0," for rows in columns)[:-1] + b"\n"
    text, stride, everyone = bytearray(row) * n, len(row), set(range(n))
    for k, rows in enumerate(columns):
        side = smaller_side(rows, everyone)
        digit = ord("1") if side is rows else ord("0")
        for i in side:
            text[i * stride + 2 * k] = digit
    return text
