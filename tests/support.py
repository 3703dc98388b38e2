"""Shared test helpers: independent oracles and random value generators."""

from __future__ import annotations

import itertools
import random

from wreathwalls import (
    GrowthRow,
    LampConfig,
    LampGroup,
    ReducedWord,
    TreeHalfSpace,
    WreathElement,
    WreathWallSpace,
)
from wreathwalls.wreath_walls import WreathHalfSpace


# -- independent oracles ------------------------------------------------------


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
            moves.append(WreathElement(empty, ReducedWord((letter,), space.rank)))
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


# -- random value generators --------------------------------------------------


def random_reduced_word(rng: random.Random, rank: int, max_len: int) -> ReducedWord:
    length = rng.randrange(max_len + 1)
    letters: list[int] = []
    alphabet = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    for _ in range(length):
        choices = [l for l in alphabet if not letters or l != -letters[-1]]
        letters.append(rng.choice(choices))
    return ReducedWord(tuple(letters), rank)


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
