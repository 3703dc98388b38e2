"""Lamp groups, lamp configurations, and wreath product arithmetic."""

from __future__ import annotations

import random

import pytest

from wreathwalls import LampConfig, LampGroup, ReducedWord, WreathElement

from support import (
    compose_permutations,
    random_config,
    random_element,
    random_reduced_word,
    s3,
    symmetric_group_table,
    z2,
    z3,
)


def word(text, rank=2):
    from wreathwalls.grammar import parse_word

    return parse_word(text, rank)


def config(pairs, lamps, rank=2):
    return LampConfig.from_pairs(
        [(word(p, rank), v) for p, v in pairs], lamps, rank
    )


class TestLampGroup:
    def test_cyclic_two(self):
        g = z2()
        assert g.order == 2
        assert g.mul(1, 1) == 0
        assert g.inv(1) == 1

    def test_cyclic_five_inverses(self):
        g = LampGroup.cyclic(5)
        for a in g.elements():
            assert g.mul(a, g.inv(a)) == 0

    def test_rejects_trivial_group(self):
        with pytest.raises(ValueError):
            LampGroup([[0]])
        with pytest.raises(ValueError):
            LampGroup.cyclic(1)

    def test_rejects_ragged_table(self):
        with pytest.raises(ValueError):
            LampGroup([[0, 1], [1]])

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError):
            LampGroup([[0, 1], [1, 2]])

    def test_rejects_wrong_identity(self):
        with pytest.raises(ValueError):
            LampGroup([[1, 0], [0, 1]])

    def test_rejects_missing_inverse(self):
        # Row 1 never reaches the identity: a * b = max(a, b) is a monoid only.
        with pytest.raises(ValueError):
            LampGroup([[0, 1], [1, 1]])

    def test_rejects_non_associative_table(self):
        # Identity and inverse checks pass, but (1*1)*2 = 2 while 1*(1*2) = 0.
        with pytest.raises(ValueError):
            LampGroup([[0, 1, 2], [1, 0, 1], [2, 2, 0]])

    def test_symmetric_group_table_is_a_group(self):
        g = s3()
        assert g.order == 6
        assert not g.is_abelian

    def test_symmetric_group_matches_permutation_composition(self):
        import itertools

        perms = sorted(itertools.permutations(range(3)))
        table = symmetric_group_table(3)
        g = LampGroup(table)
        for i, p in enumerate(perms):
            for j, q in enumerate(perms):
                assert perms[g.mul(i, j)] == compose_permutations(p, q)

    def test_abelian_detection(self):
        assert z3().is_abelian
        assert not s3().is_abelian

    def test_equality_and_hash_follow_table(self):
        assert z2() == LampGroup([[0, 1], [1, 0]])
        assert hash(z2()) == hash(LampGroup([[0, 1], [1, 0]]))
        assert z2() != z3()


class TestLampConfig:
    def test_from_pairs_drops_identity_values(self):
        c = config([("a", 1), ("b", 0)], z2())
        assert c.support == (word("a"),)

    def test_from_pairs_rejects_duplicate_positions(self):
        with pytest.raises(ValueError):
            config([("a", 1), ("a", 1)], z2())

    def test_entries_are_sorted_shortlex(self):
        c = config([("ab", 1), ("a", 1), ("B", 1)], z2())
        assert [str(p) for p in c.support] == ["a", "B", "ab"]

    def test_value_lookup(self):
        c = config([("a", 2)], z3())
        assert dict(c.entries).get(word("a"), 0) == 2
        assert dict(c.entries).get(word("b"), 0) == 0

    def test_pointwise_mul_cancels(self):
        c = config([("a", 1)], z2())
        assert c.pointwise_mul(c).is_empty

    def test_pointwise_mul_is_left_factor_first(self):
        g = s3()
        # ids 1 and 2 generate S3; pick a non-commuting pair.
        a, b = 1, 2
        assert g.mul(a, b) != g.mul(b, a)
        left = config([("a", a)], g).pointwise_mul(config([("a", b)], g))
        assert dict(left.entries).get(word("a"), 0) == g.mul(a, b)

    def test_inverse(self):
        c = config([("a", 1), ("b", 2)], z3())
        assert c.pointwise_mul(c.inverse()).is_empty
        assert c.inverse().pointwise_mul(c).is_empty

    def test_shift_moves_support(self):
        c = config([("b", 1)], z2())
        assert c.shifted(word("a")).support == (word("ab"),)

    def test_shift_cancels_into_shorter_words(self):
        c = config([("Ab", 1)], z2())
        assert c.shifted(word("a")).support == (word("b"),)

    def test_shift_is_an_action(self):
        rng = random.Random(4)
        e = ReducedWord.identity(2)
        for _ in range(200):
            c = random_config(rng, z2(), 2, 3, 3)
            g = random_reduced_word(rng, 2, 3)
            h = random_reduced_word(rng, 2, 3)
            assert c.shifted(e) == c
            assert c.shifted(g).shifted(h) == c.shifted(h * g)

    def test_restrict(self):
        c = config([("a", 1), ("b", 1)], z2())
        kept = c.restrict(lambda p: p.starts_with(word("a")))
        assert kept.support == (word("a"),)

    def test_string_form(self):
        assert str(config([], z2())) == "{}"
        assert str(config([("ab", 1), ("1", 1)], z2())) == "{1:1,ab:1}"


class TestWreathElement:
    def test_semidirect_product_shifts_right_factor(self):
        # ({a:1}, a) * ({a:1}, b) places the second lamp at a*a.
        x = WreathElement(config([("a", 1)], z2()), word("a"))
        y = WreathElement(config([("a", 1)], z2()), word("b"))
        p = x * y
        assert str(p.lamps) == "{a:1,aa:1}"
        assert str(p.position) == "ab"

    def test_lamps_at_same_site_combine_in_the_lamp_group(self):
        x = WreathElement(config([("a", 1)], z3()), word("1"))
        assert str((x * x).lamps) == "{a:2}"
        assert (x * x * x).is_identity

    def test_identity(self):
        e = WreathElement.identity(z2(), 2)
        assert e.is_identity
        x = WreathElement(config([("a", 1)], z2()), word("b"))
        assert x * e == x
        assert e * x == x

    def test_group_axioms_on_random_triples(self):
        rng = random.Random(5)
        for lamps in (z2(), s3()):
            e = WreathElement.identity(lamps, 2)
            for _ in range(500):
                x = random_element(rng, lamps, 2)
                y = random_element(rng, lamps, 2)
                z = random_element(rng, lamps, 2)
                assert (x * y) * z == x * (y * z)
                assert x * x.inverse() == e
                assert x.inverse() * x == e

    def test_rejects_mixed_lamp_groups(self):
        x = WreathElement(config([], z2()), word("1"))
        y = WreathElement(config([], z3()), word("1"))
        with pytest.raises(ValueError):
            x * y

    def test_string_form(self):
        x = WreathElement(config([("a", 1)], z2()), word("ab"))
        assert str(x) == "{a:1}|ab"
        assert str(WreathElement.identity(z2(), 2)) == "{}|1"
