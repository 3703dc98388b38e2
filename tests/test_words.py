"""Free group words: reduction, arithmetic, ordering, and ball enumeration."""

from __future__ import annotations

import itertools
import random

import pytest

from wreathwalls import MAX_RANK, CapExceededError, ReducedWord, free_ball, predicted_ball_size
from wreathwalls.groups import ball_letters, free_reduce, letter_char, letter_order

from support import all_rewrite_results, brute_ball, naive_reduce, random_reduced_word


def word(letters, rank=2):
    return ReducedWord(tuple(letters), rank)


class TestReduction:
    def test_simple_cancellation(self):
        assert free_reduce([1, -1]) == ()
        assert free_reduce([1, 2, -2, -1]) == ()
        assert free_reduce([1, 2, -2, 1]) == (1, 1)

    def test_matches_rescan_oracle_on_random_raw_strings(self):
        rng = random.Random(20260814)
        for _ in range(400):
            raw = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(12))]
            assert free_reduce(raw) == naive_reduce(raw)

    def test_reduction_is_confluent_on_all_short_raw_strings(self):
        # Cancelling adjacent inverse pairs in any order reaches one normal form,
        # and it is the one free_reduce computes.
        memo: dict = {}
        for length in range(7):
            for raw in itertools.product([1, -1, 2, -2], repeat=length):
                results = all_rewrite_results(raw, memo)
                assert len(results) == 1
                assert free_reduce(raw) == next(iter(results))

    def test_reduction_preserves_exponent_parity(self):
        rng = random.Random(11)
        for _ in range(200):
            raw = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(15))]
            reduced = free_reduce(raw)
            for gen in (1, 2):
                raw_sum = sum(1 if l == gen else -1 if l == -gen else 0 for l in raw)
                red_sum = sum(1 if l == gen else -1 if l == -gen else 0 for l in reduced)
                assert raw_sum == red_sum


class TestReducedWord:
    def test_rejects_unreduced_letters(self):
        with pytest.raises(ValueError):
            word([1, -1])

    def test_rejects_letters_out_of_range(self):
        with pytest.raises(ValueError):
            word([3], rank=2)
        with pytest.raises(ValueError):
            word([0])

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            ReducedWord((), 0)

    def test_multiplication_concatenates_and_reduces(self):
        assert word([1, 2]) * word([-2, 1]) == word([1, 1])
        assert word([1]) * word([-1]) == word([])

    def test_multiplication_rejects_rank_mismatch(self):
        with pytest.raises(ValueError):
            word([1], rank=1) * word([2], rank=2)

    def test_group_axioms_on_random_words(self):
        rng = random.Random(7)
        e = word([])
        for _ in range(300):
            x = random_reduced_word(rng, 2, 6)
            y = random_reduced_word(rng, 2, 6)
            z = random_reduced_word(rng, 2, 6)
            assert (x * y) * z == x * (y * z)
            assert x * e == x and e * x == x
            assert x * x.inverse() == e
            assert x.inverse() * x == e
            assert (x * y).inverse() == y.inverse() * x.inverse()

    def test_length_is_letter_count(self):
        assert len(word([])) == 0
        assert len(word([1, 2, -1])) == 3

    def test_prefix_operations(self):
        w = word([1, 2, -1])
        assert w.prefix(2) == word([1, 2])
        assert w.parent() == word([1, 2])
        assert w.starts_with(word([1]))
        assert not w.starts_with(word([2]))
        assert w.starts_with(w)
        with pytest.raises(ValueError):
            word([]).parent()

    def test_string_forms(self):
        assert str(word([])) == "1"
        assert str(word([1, -2, 1])) == "aBa"
        assert letter_char(1) == "a"
        assert letter_char(-1) == "A"
        assert letter_char(2) == "b"
        assert letter_char(-2) == "B"


class TestOrdering:
    def test_letter_order_interleaves_inverses(self):
        assert [letter_order(l) for l in (1, -1, 2, -2)] == [0, 1, 2, 3]

    def test_shortlex_sorts_by_length_then_letters(self):
        words = [word(l) for l in ([2], [], [1, 1], [-1], [1], [-2], [1, -2])]
        ordered = sorted(words, key=lambda w: w.sort_key())
        assert [str(w) for w in ordered] == ["1", "a", "A", "b", "B", "aa", "aB"]


class TestBalls:
    def test_sizes_match_closed_form(self):
        for rank in (1, 2, 3):
            for radius in range(5):
                assert len(free_ball(rank, radius)) == predicted_ball_size(rank, radius)

    def test_rank_two_matches_exhaustive_enumeration(self):
        for radius in range(4):
            expected = brute_ball(2, radius)
            got = {w.letters for w in free_ball(2, radius)}
            assert got == expected

    def test_rank_one_is_integer_segment(self):
        ball = free_ball(1, 3)
        letters = sorted(sum(w.letters) if w.letters else 0 for w in ball)
        assert letters == list(range(-3, 4))

    def test_ball_words_equal_validated_words(self):
        for rank in (1, 2, 3):
            for radius in range(5):
                for w in free_ball(rank, radius):
                    checked = ReducedWord(w.letters, rank)
                    assert w == checked
                    assert hash(w) == hash(checked)

    def test_rank_above_maximum_is_refused(self):
        with pytest.raises(ValueError, match="rank must be in"):
            free_ball(MAX_RANK + 1, 0)

    def test_enumeration_is_shortlex_sorted_without_duplicates(self):
        ball = free_ball(2, 4)
        keys = [w.sort_key() for w in ball]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_cap_refusal_reports_prediction(self):
        with pytest.raises(CapExceededError) as info:
            free_ball(2, 10, cap=1000)
        assert info.value.predicted == predicted_ball_size(2, 10)
        assert info.value.cap == 1000

    def test_ball_letters_are_the_words_letters_and_refuse_before_yielding(self):
        for rank in (1, 2, 3):
            for radius in range(4):
                assert list(ball_letters(rank, radius)) == [w.letters for w in free_ball(rank, radius)]
        with pytest.raises(CapExceededError):
            ball_letters(2, 10, cap=1000)

    def test_cap_boundary_is_inclusive(self):
        size = predicted_ball_size(2, 3)
        assert len(free_ball(2, 3, cap=size)) == size
        with pytest.raises(CapExceededError):
            free_ball(2, 3, cap=size - 1)
