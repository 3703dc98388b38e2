"""Property-based oracle checks: the closed-form wall count against its enumerations.

Hypothesis draws a lamp group (Z/2, Z/3 or S3), a rank from 1 to 3, and
words, elements or samples. The n-point ``separating_tree_walls`` and the
``base_walls`` oracle of ``support`` must equal the union of their pairwise
calls, and the deep endpoints of ``separating_walls`` must equal that oracle;
the closed form ``wall_distance`` must agree with both directed enumerations
and with the brute-force search, ``separating_walls`` with the pairwise union of directed
walls, ``wall_columns`` with their number (its matrix also with ``wall_distance`` and the
eigenvalue check), the node-sum distance matrix with ``wall_distance`` pair by pair, and
the wall coordinates with per-cell membership and, by Hamming distance, with the distance
matrix. The packed ``hamming_rows`` of any 0/1 columns must equal their pairwise XOR counts,
on both sides of its 2-byte field width, and ``coordinates_csv`` their membership table.
A random element must lie in the generated sub-level set exactly when its
wall distance to the identity is within the level. The
brute-force search itself must equal a plain reference sweep, the wall
distance must be left-invariant, and the left action on half-spaces must be
equivariant. On breadth-first word-metric
spheres, word length must be ``d(1, x) - |pos| + |supp|``: the premise of the
growth series. The one-pass spanned-edge series must equal the two-variable
fixed-point solver of ``support`` fed one-element rows. The walls and
``translate`` must give an isometric action with
cocycle ``b(g) = χ{E ∋ g} − χ{E ∋ 1}`` over positive halves E (Cherix–Martin–Valette
2004), whose norms are the wall distance. Formatting and parsing words,
configurations, elements, sample text and lamp tables must round-trip.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wreathwalls import (
    MAX_RANK,
    LampConfig,
    LampGroup,
    ReducedWord,
    TreeHalfSpace,
    WreathElement,
    WreathHalfSpace,
    WreathWallSpace,
    cnd_check,
    distance_matrix,
    free_ball,
    parse_config,
    parse_element,
    parse_lamp_table,
    parse_sample_text,
    parse_word,
    separating_tree_walls,
    wall_coordinates,
)
from wreathwalls.columns import coordinates_csv, hamming_rows, row_fields, wall_columns
from wreathwalls.wreath_walls import spanned_edge_series

from support import (
    base_walls,
    bfs_spheres,
    format_lamp_table,
    hamming_distances,
    pairwise_distance_matrix,
    s3,
    spell,
    z2,
    z3,
)
from support import spanned_edge_series as two_variable_series

LAMPS = [z2(), z3(), s3()]


def words(rank: int, max_len: int) -> st.SearchStrategy[ReducedWord]:
    letters = st.sampled_from([i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)])
    raw = st.lists(letters, max_size=max_len)
    return raw.map(lambda ls: ReducedWord.from_letters(spell(ls), rank))


def elements(lamps, rank: int, max_len: int) -> st.SearchStrategy[WreathElement]:
    configs = st.dictionaries(
        words(rank, max_len), st.integers(1, lamps.order - 1), max_size=3
    ).map(lambda pairs: LampConfig.from_pairs(pairs.items(), lamps, rank))
    return st.builds(WreathElement, configs, words(rank, max_len))


@st.composite
def element_tuples(draw, count: int, max_len: int, max_rank: int = 3):
    lamps, rank = draw(st.sampled_from(LAMPS)), draw(st.integers(1, max_rank))
    element = elements(lamps, rank, max_len)
    return (WreathWallSpace(lamps, rank), *(draw(element) for _ in range(count)))


@st.composite
def samples(draw, min_size: int):
    lamps, rank = draw(st.sampled_from(LAMPS)), draw(st.integers(1, 3))
    sample = draw(st.lists(elements(lamps, rank, 4), min_size=min_size, max_size=8, unique=True))
    return WreathWallSpace(lamps, rank), sample


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 3).flatmap(lambda rank: st.lists(words(rank, 5), max_size=6)))
def test_separating_tree_walls_equal_pairwise_union(points):
    union = set()
    for x in points:
        for y in points:
            union.update(separating_tree_walls(x, y))
    assert separating_tree_walls(*points) == tuple(sorted(union, key=lambda w: w.sort_key()))


@settings(deadline=None, max_examples=200)
@given(element_tuples(2, max_len=5))
def test_closed_form_equals_both_directed_counts(case):
    space, a, b = case
    forward = space.directed_separating_walls(a, b)
    reverse = space.directed_separating_walls(b, a)
    assert len(forward) == len(reverse)
    assert space.wall_distance(a, b) == len(forward) + len(reverse)
    assert base_walls(space, a, b) == base_walls(space, b, a)


@settings(deadline=None, max_examples=40)
@given(element_tuples(2, max_len=2))
def test_closed_form_equals_brute_force(case):
    space, a, b = case
    brute = space.brute_force_separating(a, b, space.oracle_radius(a, b))
    assert space.wall_distance(a, b) == len(brute)
    fast = set(space.directed_separating_walls(a, b)) | set(space.directed_separating_walls(b, a))
    assert fast == set(brute)


def reference_brute_force(space, a, b, radius, decoration_sweep=False):
    """The sweep before per-edge classification: restrict per candidate, test with contains."""
    ball = free_ball(space.rank, radius, space.cap)
    found = set()
    for deep in ball[1:]:
        for inside in (True, False):
            base = TreeHalfSpace(deep, inside)
            outside = lambda p: not base.contains(p)
            if decoration_sweep:
                positions = [p for p in ball if outside(p)]
                candidates = {
                    LampConfig.from_pairs(zip(positions, values), space.lamps, space.rank)
                    for values in itertools.product(space.lamps.elements(), repeat=len(positions))
                }
            else:
                candidates = {a.lamps.restrict(outside), b.lamps.restrict(outside)}
            for decoration in candidates:
                half = WreathHalfSpace(base, decoration)
                if half.contains(a) != half.contains(b):
                    found.add(half)
    return tuple(sorted(found, key=WreathHalfSpace.sort_key))


@settings(deadline=None, max_examples=40)
@given(element_tuples(2, max_len=3))
def test_brute_force_equals_reference_sweep(case):
    space, a, b = case
    radius = space.oracle_radius(a, b)
    assert space.brute_force_separating(a, b, radius) == reference_brute_force(space, a, b, radius)


@settings(deadline=None, max_examples=20)
@given(element_tuples(2, max_len=1, max_rank=1))
def test_decoration_sweep_equals_reference_sweep(case):
    # Rank 1 at radius 2 keeps every sweep within a few thousand decorations.
    space, a, b = case
    swept = space.brute_force_separating(a, b, 2, decoration_sweep=True)
    assert swept == reference_brute_force(space, a, b, 2, decoration_sweep=True)


@settings(deadline=None, max_examples=100)
@given(element_tuples(3, max_len=4))
def test_wall_distance_is_left_invariant(case):
    space, g, a, b = case
    assert space.wall_distance(g * a, g * b) == space.wall_distance(a, b)


@settings(deadline=None, max_examples=100)
@given(element_tuples(4, max_len=3))
def test_translation_is_equivariant(case):
    space, g, a, b, x = case
    for half in space.directed_separating_walls(a, b):
        moved = space.translate(g, half)
        for y in (a, b, x):
            assert moved.contains(g * y) == half.contains(y)


@settings(deadline=None, max_examples=60)
@given(samples(min_size=0))
def test_sample_walls_equal_pairwise_directed_union(case):
    space, sample = case
    union, edges = set(), set()
    for i in range(len(sample)):
        for j in range(i + 1, len(sample)):
            union.update(space.directed_separating_walls(sample[i], sample[j]))
            union.update(space.directed_separating_walls(sample[j], sample[i]))
            edges.update(base_walls(space, sample[i], sample[j]))
    closed_form = base_walls(space, *sample)
    assert closed_form == tuple(sorted(edges, key=lambda w: w.sort_key()))
    walls = [wall for wall, _ in space.separating_walls(*sample)]
    deeps = sorted({wall.base.deep for wall in walls}, key=lambda w: w.sort_key())
    assert tuple(deeps) == closed_form
    assert walls == sorted(union, key=lambda w: w.sort_key())
    assert len(set(walls)) == len(walls)


@settings(deadline=None, max_examples=60)
@given(samples(min_size=1))
def test_wall_count_equals_sample_walls(case):
    # cnd counts the sample's walls as wall_columns; the pairwise and numpy oracles agree.
    space, sample = case
    walls, coordinates = wall_coordinates(space, sample)
    assert len(wall_columns(sample, space.lamps, space.rank, space.cap)) == len(walls)
    matrix = distance_matrix(space, sample)
    assert np.array_equal(matrix, pairwise_distance_matrix(space, sample))
    assert np.array_equal(matrix, hamming_distances(coordinates))
    assert cnd_check(matrix).passed


@functools.lru_cache(maxsize=None)
def sublevel_set(lamp_index: int, rank: int, max_wall: int) -> frozenset[WreathElement]:
    return frozenset(WreathWallSpace(LAMPS[lamp_index], rank).sublevel(max_wall))


@settings(deadline=None, max_examples=200)
@given(st.integers(0, len(LAMPS) - 1), st.integers(1, 3), st.integers(0, 4), st.data())
def test_sublevel_holds_exactly_the_elements_within_the_wall_distance(
    lamp_index, rank, max_wall, data
):
    space = WreathWallSpace(LAMPS[lamp_index], rank)
    x = data.draw(elements(space.lamps, rank, 2), label="x")
    within = space.wall_distance(space.identity(), x) <= max_wall
    assert (x in sublevel_set(lamp_index, rank, max_wall)) == within


@settings(deadline=None, max_examples=100)
@given(samples(min_size=1))
def test_node_sum_distance_matrix_equals_pairwise_wall_distances(case):
    space, sample = case
    assert np.array_equal(distance_matrix(space, sample), pairwise_distance_matrix(space, sample))


@settings(deadline=None, max_examples=60)
@given(samples(min_size=1))
def test_hamming_of_coordinates_equals_distance_matrix(case):
    space, sample = case
    walls, coordinates = wall_coordinates(space, sample)
    membership = [[int(wall.contains(x)) for wall in walls] for x in sample]
    assert coordinates.tolist() == membership
    assert np.array_equal(hamming_distances(coordinates), distance_matrix(space, sample))


def xor_counts(columns: list[list[int]], n: int) -> list[list[int]]:
    """Hamming distances of 0/1 columns over rows ``0..n-1``, one pair and one column at a time."""
    return [
        [sum((i in rows) != (j in rows) for rows in columns) for j in range(n)] for i in range(n)
    ]


def assert_hamming_rows(columns: list[list[int]], n: int) -> None:
    rows = hamming_rows(columns, n)
    width = 2 if 2 * len(columns) < 2**16 else 4
    assert [len(row) for row in rows] == [n * width] * n
    assert [row_fields(row, n).tolist() for row in rows] == xor_counts(columns, n)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 9), st.data())
def test_hamming_rows_are_pairwise_xor_counts(n, data):
    # From n = 1 and no columns up; a column may hold more than half the rows, or all of them.
    column = st.lists(st.integers(0, n - 1), unique=True)
    assert_hamming_rows(data.draw(st.lists(column, max_size=12)), n)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 9), st.data())
def test_coordinates_csv_marks_each_row_of_each_column(n, data):
    column = st.lists(st.integers(0, n - 1), unique=True)
    columns = data.draw(st.lists(column, max_size=12))
    rows = (",".join(str(int(i in rows)) for rows in columns) for i in range(n))
    assert coordinates_csv(columns, n).decode() == "".join(f"{row}\n" for row in rows)


@settings(deadline=None, max_examples=4)
@given(
    st.lists(st.lists(st.integers(0, 2), unique=True), min_size=1, max_size=3),
    st.sampled_from([32767, 32768]),
)
@example([[0]], 32767)
@example([[0]], 32768)
def test_hamming_rows_widen_their_fields_at_32768_columns(columns, count):
    # A few columns repeated on three rows: the fields widen to 4 bytes where twice the column
    # count reaches 2**16, and [0] in every column sums row 0's field of total + s_0 * ones to it.
    assert_hamming_rows([columns[k % len(columns)] for k in range(count)], 3)


# Breadth-first balls of these radii take a fraction of a second for every lamp group.
SPHERE_RADIUS = {1: 7, 2: 4, 3: 3}


@functools.lru_cache(maxsize=None)
def sphere_oracle(lamp_index: int, rank: int) -> tuple[WreathWallSpace, list[list[WreathElement]]]:
    space = WreathWallSpace(LAMPS[lamp_index], rank)
    return space, bfs_spheres(space, SPHERE_RADIUS[rank])


@settings(deadline=None, max_examples=40)
@given(st.integers(0, len(LAMPS) - 1), st.integers(1, 3), st.data())
def test_word_length_is_wall_distance_minus_position_plus_support(lamp_index, rank, data):
    space, spheres = sphere_oracle(lamp_index, rank)
    radius = data.draw(st.integers(0, len(spheres) - 1), label="radius")
    identity = space.identity()
    for x in spheres[radius]:
        assert radius == space.wall_distance(identity, x) - len(x.position) + len(x.lamps.support)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([1, 2, 3, 26]), st.sampled_from([2, 3, 6]), st.integers(0, 30), st.booleans())
def test_spanned_edge_series_equals_the_two_variable_series(rank, order, degree, by_length):
    # Word length (the growth spheres) or spanned edges alone (the sub-level sets).
    if by_length:
        weights = ([[1], [order - 1]], [[0], [0], [1]], [[0], [1]])
    else:
        weights = ([[order]], [[0], [1]], [[0], [1]])
    rows = two_variable_series(rank, [[1]] + [[0]] * degree, *weights)
    flat = ([row[0] for row in series] for series in weights)
    assert spanned_edge_series(rank, degree, *flat) == [row[0] for row in rows]


def cocycle(space: WreathWallSpace, g: WreathElement) -> Counter:
    """``b(g)``: +1 on each positive half holding g but not 1, −1 on each holding 1 but not g."""
    one = space.identity()
    b = Counter(space.directed_separating_walls(g, one))
    b.subtract(space.directed_separating_walls(one, g))
    return b


def cancelled(b: Counter) -> dict:
    return {wall: c for wall, c in b.items() if c}


def squared_norm(b: Counter) -> int:
    return sum(c * c for c in b.values())


@settings(deadline=None, max_examples=80)
@given(element_tuples(2, max_len=3))
def test_cocycle_identity(case):
    space, g, h = case
    moved = Counter()
    for wall, c in cocycle(space, h).items():
        moved[space.translate(g, wall)] += c
    total = cocycle(space, g)
    total.update(moved)
    assert cancelled(cocycle(space, g * h)) == cancelled(total)


@settings(deadline=None, max_examples=80)
@given(element_tuples(2, max_len=3))
def test_cocycle_norms_are_wall_distances(case):
    space, g, h = case
    assert squared_norm(cocycle(space, g)) == space.wall_distance(space.identity(), g)
    difference = cocycle(space, g)
    difference.subtract(cocycle(space, h))
    assert squared_norm(difference) == space.wall_distance(g, h)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, MAX_RANK).flatmap(lambda rank: words(rank, 8)))
def test_word_round_trip(word):
    assert parse_word(str(word), word.rank) == word


@settings(deadline=None, max_examples=60)
@given(samples(min_size=0))
def test_config_element_and_sample_round_trip(case):
    space, sample = case
    for x in sample:
        assert parse_config(str(x.lamps), space.lamps, space.rank) == x.lamps
        assert parse_element(str(x), space.lamps, space.rank) == x
    text = "".join(f"{x}\n" for x in sample)
    assert parse_sample_text(text, space.lamps, space.rank) == sample


def relabelled(lamps: LampGroup, ids: list[int]) -> LampGroup:
    """The same group with element ``i`` renamed ``ids[i]`` (``ids[0]`` must stay 0)."""
    table = [[0] * lamps.order for _ in lamps.elements()]
    for a in lamps.elements():
        for b in lamps.elements():
            table[ids[a]][ids[b]] = ids[lamps.mul(a, b)]
    return LampGroup(table)


@settings(deadline=None, max_examples=50)
@given(st.one_of(
    st.integers(2, 12).map(LampGroup.cyclic),
    st.permutations(range(1, 6)).map(lambda p: relabelled(s3(), [0, *p])),
))
def test_lamp_table_round_trip(lamps):
    text = format_lamp_table(lamps)
    assert parse_lamp_table(text) == lamps
    assert format_lamp_table(parse_lamp_table(text)) == text

