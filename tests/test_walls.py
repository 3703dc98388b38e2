"""Tree walls on the free group: separation, distance, and translation."""

from __future__ import annotations

import random

import pytest

from wreathwalls import (
    ReducedWord,
    TreeHalfSpace,
    free_ball,
    separating_tree_walls,
    translate_half_space,
)
from wreathwalls.grammar import parse_word

from support import random_reduced_word, random_tree_half_space


def word(text, rank=2):
    return parse_word(text, rank)


def cone(text, rank=2):
    return TreeHalfSpace(word(text, rank), True)


def cocone(text, rank=2):
    return TreeHalfSpace(word(text, rank), False)


def complement(h):
    return TreeHalfSpace(h.deep, not h.cone)


class TestHalfSpaces:
    def test_wall_needs_nonempty_deep_endpoint(self):
        with pytest.raises(ValueError):
            TreeHalfSpace(ReducedWord.identity(2), True)

    def test_cone_membership_is_prefix_test(self):
        h = cone("ab")
        assert h.contains(word("ab"))
        assert h.contains(word("aba"))
        assert not h.contains(word("a"))
        assert not h.contains(word("1"))
        assert not h.contains(word("ba"))

    def test_complement_flips_membership(self):
        h = cone("a")
        for text in ("1", "a", "ab", "b", "A"):
            assert h.contains(word(text)) != complement(h).contains(word(text))

    def test_sides_partition_small_ball(self):
        h = cone("B")
        ball = free_ball(2, 4)
        inside = sum(1 for w in ball if h.contains(w))
        outside = sum(1 for w in ball if complement(h).contains(w))
        assert inside + outside == len(ball)
        assert 0 < inside < len(ball)

    def test_string_forms(self):
        assert str(cone("ab")) == "CONE(ab)"
        assert str(cocone("A")) == "COCONE(A)"


class TestSeparation:
    def test_identity_to_word_walls_are_its_prefixes(self):
        walls = separating_tree_walls(word("1"), word("aba"))
        assert [str(w) for w in walls] == ["a", "ab", "aba"]

    def test_branching_pair_uses_both_geodesic_legs(self):
        walls = separating_tree_walls(word("ab"), word("aB"))
        assert sorted(str(w) for w in walls) == ["aB", "ab"]

    def test_count_is_word_metric_on_ball_pairs(self):
        ball = free_ball(2, 3)
        for x in ball:
            for y in ball:
                expected = len(x.inverse() * y)
                assert len(separating_tree_walls(x, y)) == expected

    def test_each_listed_wall_separates_and_no_other_nearby_wall_does(self):
        # Against the definition: a wall separates x from y when exactly one
        # of them extends the deep endpoint.
        rng = random.Random(9)
        for _ in range(60):
            x = random_reduced_word(rng, 2, 4)
            y = random_reduced_word(rng, 2, 4)
            listed = set(separating_tree_walls(x, y))
            for deep in free_ball(2, 5):
                if deep.is_identity:
                    continue
                separates = x.starts_with(deep) != y.starts_with(deep)
                assert (deep in listed) == separates

    def test_sorted_by_deep_endpoint(self):
        walls = separating_tree_walls(word("bA"), word("ab"))
        keys = [w.sort_key() for w in walls]
        assert keys == sorted(keys)


class TestTranslation:
    def test_shift_deeper_into_the_cone(self):
        h = translate_half_space(word("a"), cone("b"))
        assert h == cone("ab")

    def test_shift_across_the_wall_flips_the_side(self):
        h = translate_half_space(word("A"), cone("a"))
        assert h == cocone("A")

    def test_membership_equivariance_on_ball(self):
        rng = random.Random(17)
        ball = free_ball(2, 4)
        for _ in range(60):
            g = random_reduced_word(rng, 2, 3)
            h = random_tree_half_space(rng, 2, 3)
            image = translate_half_space(g, h)
            for x in ball:
                assert image.contains(g * x) == h.contains(x)

    def test_translation_is_an_action(self):
        rng = random.Random(19)
        e = ReducedWord.identity(2)
        for _ in range(300):
            g = random_reduced_word(rng, 2, 4)
            k = random_reduced_word(rng, 2, 4)
            h = random_tree_half_space(rng, 2, 4)
            assert translate_half_space(e, h) == h
            assert translate_half_space(g, translate_half_space(k, h)) == (
                translate_half_space(g * k, h)
            )

    def test_translation_commutes_with_complement(self):
        rng = random.Random(23)
        for _ in range(300):
            g = random_reduced_word(rng, 2, 4)
            h = random_tree_half_space(rng, 2, 4)
            assert translate_half_space(g, complement(h)) == complement(translate_half_space(g, h))


class TestTreeWallDistance:
    def test_wall_distance_is_word_metric(self):
        def distance(x, y):
            return len(separating_tree_walls(word(x), word(y)))

        assert distance("1", "ab") == 2
        assert distance("ab", "aB") == 2
        assert distance("a", "a") == 0

    def test_left_invariance(self):
        rng = random.Random(29)
        for _ in range(300):
            g = random_reduced_word(rng, 2, 4)
            x = random_reduced_word(rng, 2, 4)
            y = random_reduced_word(rng, 2, 4)
            assert len(separating_tree_walls(g * x, g * y)) == len(separating_tree_walls(x, y))
