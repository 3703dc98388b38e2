"""Shared test helpers: independent oracles and random value generators."""

from __future__ import annotations

import itertools
import random

import numpy as np

from wreathwalls import (
    GrowthRow,
    LampConfig,
    LampGroup,
    ReducedWord,
    TreeHalfSpace,
    WreathElement,
    WreathWallSpace,
    separating_tree_walls,
)
from wreathwalls.wreath_walls import WreathHalfSpace


# -- independent oracles ------------------------------------------------------
# The oracles below work on signed 1-based generator indices (+i the i-th
# generator, -i its inverse) and spell a word's letters only to build it.


def spell(letters) -> str:
    """The printed letters of signed generator indices: +i is the i-th of a..z, -i of A..Z."""
    return "".join(chr(ord("a" if l > 0 else "A") + abs(l) - 1) for l in letters)


def naive_reduce(letters) -> tuple[int, ...]:
    """Repeatedly rescan for any adjacent inverse pair and cancel it."""
    current = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(current) - 1):
            if current[i] == -current[i + 1]:
                del current[i : i + 2]
                changed = True
                break
    return tuple(current)


def all_rewrite_results(letters: tuple[int, ...], memo: dict) -> frozenset:
    """Every fully cancelled form reachable by cancelling pairs in any order."""
    if letters in memo:
        return memo[letters]
    sites = [i for i in range(len(letters) - 1) if letters[i] == -letters[i + 1]]
    if not sites:
        result = frozenset([letters])
    else:
        collected = set()
        for i in sites:
            collected |= all_rewrite_results(letters[:i] + letters[i + 2 :], memo)
        result = frozenset(collected)
    memo[letters] = result
    return result


def brute_ball(rank: int, radius: int) -> set[tuple[int, ...]]:
    """Reduced forms of every raw letter sequence of length <= radius."""
    alphabet = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    out = set()
    for length in range(radius + 1):
        for raw in itertools.product(alphabet, repeat=length):
            out.add(naive_reduce(raw))
    return out


def standard_generators(space: WreathWallSpace) -> list[WreathElement]:
    """Tree generators and their inverses, plus one lamp move per nontrivial value."""
    identity_word = ReducedWord.identity(space.rank)
    empty = LampConfig.empty(space.lamps, space.rank)
    moves = []
    for index in range(1, space.rank + 1):
        for letter in (index, -index):
            moves.append(WreathElement(empty, ReducedWord(spell([letter]), space.rank)))
    for value in range(1, space.lamps.order):
        config = LampConfig.from_pairs([(identity_word, value)], space.lamps, space.rank)
        moves.append(WreathElement(config, identity_word))
    return moves


def bfs_spheres(space: WreathWallSpace, radius: int) -> list[list[WreathElement]]:
    """Word-metric spheres of radius 0..radius, by breadth-first search in the wreath product."""
    generators = standard_generators(space)
    identity = space.identity()
    spheres = [[identity]]
    visited = {identity}
    for _ in range(radius):
        frontier = []
        for element in spheres[-1]:
            for move in generators:
                neighbor = element * move
                if neighbor not in visited:
                    visited.add(neighbor)
                    frontier.append(neighbor)
        spheres.append(frontier)
    return spheres


def bfs_growth_rows(space: WreathWallSpace, radius: int) -> list[GrowthRow]:
    """The growth table by enumeration: the oracle for ``growth_table``."""
    identity, rows = space.identity(), []
    for r, sphere in enumerate(bfs_spheres(space, radius)):
        distances = [space.wall_distance(identity, element) for element in sphere]
        rows.append(GrowthRow(r, len(sphere), min(distances), max(distances)))
    return rows


def pairwise_distance_matrix(space: WreathWallSpace, elements: list[WreathElement]) -> np.ndarray:
    """The distance matrix pair by pair through ``wall_distance``.

    The oracle of the node sum in ``distance_matrix``.
    """
    n = len(elements)
    matrix = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = space.wall_distance(elements[i], elements[j])
    return matrix


def base_walls(space: WreathWallSpace, *elements: WreathElement) -> tuple[ReducedWord, ...]:
    """The base walls carrying a wall between some two of the elements, by closed form.

    The edges of the subtree spanned by every position and every site where
    a lamp configuration disagrees with the first's; any other base wall has
    all the elements on one side with equal lamps beyond it. Each is its
    deep endpoint, in shortlex order. The oracle of the edges that
    ``separating_walls`` keys.
    """
    space.check_elements(*elements)
    first = set(elements[0].lamps.entries) if elements else set()
    sites = {p for x in elements[1:] for p, _ in first.symmetric_difference(x.lamps.entries)}
    return separating_tree_walls(*(x.position for x in elements), *sites)


def _series_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Product of two series truncated to the shape of ``a`` (see :func:`spanned_edge_series`)."""
    out = [[0] * len(row) for row in a]
    for i, row_a in enumerate(a):
        for k, row_b in enumerate(b[: len(a) - i]):
            for j, x in enumerate(row_a):
                for l, y in enumerate(row_b if x else ()):
                    out[i + k][j + l] += x * y
    return out


def _series_add(a: list[list[int]], b: list[list[int]], sign: int = 1) -> list[list[int]]:
    return [[x + sign * y for x, y in zip(p, q)] for p, q in zip(a, b)]


def _series_power(a: list[list[int]], exponent: int, one: list[list[int]]) -> list[list[int]]:
    result = one
    for bit in bin(exponent)[2:]:
        result = _series_mul(result, result)
        result = _series_mul(result, a) if bit == "1" else result
    return result


def spanned_edge_series(
    rank: int,
    one: list[list[int]],
    vertex: list[list[int]],
    branch: list[list[int]],
    step: list[list[int]],
) -> list[list[int]]:
    """Elements of H wr F_rank counted by the edges of the subtree they span.

    A series is a list of rows: row ``i`` lists the coefficients of the
    ``i``-th power of the truncating variable, each a polynomial in a second
    variable. ``one`` is the truncated unit and fixes the shape. ``vertex``
    weighs a vertex's lamp, ``branch`` an edge into a side branch and
    ``step`` an edge of the path to the position. A nonempty branch below an
    edge is ``G = branch (V_(2n-1) - 1)``, a vertex with ``k`` branch slots
    is ``V_k = vertex (1 + G)^k``, and the elements are
    ``V_2n + sum_(m>=1) 2n (2n-1)^(m-1) step^m V_(2n-1)^2 V_(2n-2)^(m-1)``
    (README, "Growth series"). With word length ``z`` truncating and edges
    ``e`` inside, the weights are ``1 + (h-1) z``, ``z^2 e`` and ``z e``;
    with edges alone, ``h``, ``e`` and ``e``.
    """
    vertex = _series_mul(one, vertex)
    slot = one  # 1 + G
    for _ in range((len(one) - 1) // (len(branch) - 1) + 1):  # each pass fixes more of G
        inner = _series_mul(vertex, _series_power(slot, 2 * rank - 2, one))  # V_(2n-2)
        end = _series_mul(inner, slot)  # V_(2n-1)
        slot = _series_add(one, _series_mul(_series_add(end, one, -1), branch))
    total = _series_mul(end, slot)  # V_2n
    path = _series_mul(_series_mul(_series_mul(end, end), step), [[2 * rank]])  # the m = 1 term
    for _ in range(len(one) - 1):
        total = _series_add(total, path)
        path = _series_mul(_series_mul(_series_mul(path, inner), step), [[2 * rank - 1]])
    return total


def bivariate_spheres(space: WreathWallSpace, radius: int) -> list[list[int]]:
    """Row ``r`` lists the ``z^r e^j`` coefficients: elements of word length r spanning j edges."""
    one = [[1]] + [[0] * (i + 1) for i in range(1, radius + 1)]
    h = space.lamps.order
    return spanned_edge_series(
        space.rank, one, [[1], [h - 1, 0]], [[0], [0, 0], [0, 1, 0]], [[0], [0, 1]]
    )


def bivariate_growth_rows(space: WreathWallSpace, radius: int) -> list[GrowthRow]:
    """The growth table read off the two-variable series: an oracle for ``growth_table``.

    ``min_wall`` and ``max_wall`` are twice the lowest and highest nonzero
    ``e``-degree of each row, and ``sphere_size`` is the row sum.
    """
    spheres = bivariate_spheres(space, radius)
    edges = [[j for j, count in enumerate(sphere) if count] for sphere in spheres]
    return [GrowthRow(r, sum(spheres[r]), 2 * e[0], 2 * e[-1]) for r, e in enumerate(edges)]


def compose_permutations(p, q):
    """Function composition p after q on tuples encoding permutations."""
    return tuple(p[q[k]] for k in range(len(p)))


def symmetric_group_table(degree: int) -> list[list[int]]:
    """Multiplication table of the symmetric group via explicit composition."""
    perms = sorted(itertools.permutations(range(degree)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[compose_permutations(p, q)] for q in perms] for p in perms]


def s3() -> LampGroup:
    return LampGroup(symmetric_group_table(3))


def z2() -> LampGroup:
    return LampGroup.cyclic(2)


def z3() -> LampGroup:
    return LampGroup.cyclic(3)


def format_lamp_table(lamps: LampGroup) -> str:
    """The lamp table file of ``lamps``, as ``grammar.parse_lamp_table`` reads it."""
    lines = [f"order {lamps.order}"]
    lines.extend(" ".join(str(v) for v in row) for row in lamps.table)
    return "\n".join(lines) + "\n"


# -- random value generators --------------------------------------------------


def random_reduced_word(rng: random.Random, rank: int, max_len: int) -> ReducedWord:
    length = rng.randrange(max_len + 1)
    letters: list[int] = []
    alphabet = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    for _ in range(length):
        choices = [l for l in alphabet if not letters or l != -letters[-1]]
        letters.append(rng.choice(choices))
    return ReducedWord(spell(letters), rank)


def random_config(
    rng: random.Random, lamps: LampGroup, rank: int, max_lamps: int, max_len: int
) -> LampConfig:
    pairs: dict[ReducedWord, int] = {}
    for _ in range(rng.randrange(max_lamps + 1)):
        pairs[random_reduced_word(rng, rank, max_len)] = rng.randrange(1, lamps.order)
    return LampConfig.from_pairs(pairs.items(), lamps, rank)


def random_element(
    rng: random.Random,
    lamps: LampGroup,
    rank: int,
    max_lamps: int = 2,
    max_len: int = 3,
) -> WreathElement:
    return WreathElement(
        random_config(rng, lamps, rank, max_lamps, max_len),
        random_reduced_word(rng, rank, max_len),
    )


def random_tree_half_space(rng: random.Random, rank: int, max_len: int) -> TreeHalfSpace:
    while True:
        deep = random_reduced_word(rng, rank, max_len)
        if not deep.is_identity:
            break
    return TreeHalfSpace(deep, rng.choice([True, False]))


def random_wreath_half_space(
    rng: random.Random, lamps: LampGroup, rank: int, max_lamps: int = 2, max_len: int = 3
) -> WreathHalfSpace:
    base = random_tree_half_space(rng, rank, max_len)
    decoration = random_config(rng, lamps, rank, max_lamps, max_len).restrict(
        lambda p: not base.contains(p)
    )
    return WreathHalfSpace(base, decoration)
