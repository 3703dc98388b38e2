"""Wreath product walls: membership, separation, action, and properness."""

from __future__ import annotations

import hashlib
import random

import pytest

from wreathwalls import columns as columns_module
from wreathwalls import walls as walls_module
from wreathwalls import wreath_walls as wreath_walls_module
from wreathwalls import (
    CapExceededError,
    LampConfig,
    LampGroup,
    ReducedWord,
    TreeHalfSpace,
    WreathElement,
    WreathWallSpace,
)
from wreathwalls.columns import wall_columns
from wreathwalls.grammar import parse_element, parse_word
from wreathwalls.wreath_walls import WreathHalfSpace

from support import bivariate_spheres, random_element, random_wreath_half_space, s3, z2, z3


def space(lamps=None, rank=2):
    return WreathWallSpace(lamps if lamps is not None else z2(), rank)


def elem(text, lamps=None, rank=2):
    return parse_element(text, lamps if lamps is not None else z2(), rank)


def half(cone, deep, decoration_pairs, lamps=None, rank=2):
    lamps = lamps if lamps is not None else z2()
    base = TreeHalfSpace(parse_word(deep, rank), cone)
    decoration = LampConfig.from_pairs(
        [(parse_word(p, rank), v) for p, v in decoration_pairs], lamps, rank
    )
    return WreathHalfSpace(base, decoration)


class TestWreathHalfSpace:
    def test_membership_needs_position_inside(self):
        h = half(True, "a", [])
        assert h.contains(elem("{}|a"))
        assert h.contains(elem("{}|ab"))
        assert not h.contains(elem("{}|1"))
        assert not h.contains(elem("{}|b"))

    def test_membership_needs_exact_outside_lamps(self):
        h = half(True, "a", [("1", 1)])
        assert h.contains(elem("{1:1}|a"))
        assert h.contains(elem("{1:1,a:1}|a"))
        assert not h.contains(elem("{}|a"))
        assert not h.contains(elem("{1:1,b:1}|a"))

    def test_lamps_inside_the_base_are_unconstrained(self):
        h = half(True, "a", [])
        assert h.contains(elem("{a:1,ab:1}|a"))
        assert not h.contains(elem("{b:1}|a"))

    def test_rejects_decoration_inside_the_base(self):
        with pytest.raises(ValueError):
            half(True, "a", [("ab", 1)])

    def test_no_half_space_is_the_complement_of_another(self):
        # The (base, decoration) pair identifies the wall: over a probe set
        # of elements, no candidate half-space has exactly the complementary
        # membership pattern of another. The complement of E(A, mu) holds
        # every element positioned outside A regardless of lamps, a freedom
        # no single decoration can reproduce once the lamp group has two
        # elements.
        from wreathwalls import free_ball

        lamps = z2()
        candidates = []
        for deep in free_ball(2, 2):
            if deep.is_identity:
                continue
            for inside in (True, False):
                base = TreeHalfSpace(deep, inside)
                decorations = [LampConfig.empty(lamps, 2)]
                for p in free_ball(2, 1):
                    if not base.contains(p):
                        decorations.append(
                            LampConfig.from_pairs([(p, 1)], lamps, 2)
                        )
                candidates.extend(WreathHalfSpace(base, d) for d in decorations)
        probe = []
        for position in free_ball(2, 2):
            probe.append(WreathElement(LampConfig.empty(lamps, 2), position))
            for p in free_ball(2, 1):
                probe.append(
                    WreathElement(LampConfig.from_pairs([(p, 1)], lamps, 2), position)
                )
        patterns = {}
        for index, candidate in enumerate(candidates):
            patterns[index] = tuple(candidate.contains(x) for x in probe)
        for index, pattern in patterns.items():
            flipped = tuple(not v for v in pattern)
            assert flipped not in patterns.values(), str(candidates[index])

    def test_string_form(self):
        assert str(half(True, "a", [("1", 1)])) == "E(CONE(a), {1:1})"


class TestDirectedSeparation:
    def test_pure_position_pair_gives_geodesic_walls(self):
        sp = space()
        walls = sp.directed_separating_walls(elem("{}|1"), elem("{}|ab"))
        assert [str(w) for w in walls] == [
            "E(COCONE(a), {})",
            "E(COCONE(ab), {})",
        ]

    def test_lamp_only_difference_walls(self):
        sp = space()
        walls = sp.directed_separating_walls(elem("{}|1"), elem("{a:1}|1"))
        assert [str(w) for w in walls] == ["E(COCONE(a), {})"]
        back = sp.directed_separating_walls(elem("{a:1}|1"), elem("{}|1"))
        assert [str(w) for w in back] == ["E(COCONE(a), {a:1})"]

    def test_lamp_at_origin_is_invisible(self):
        # Both elements sit at the identity position and differ only at the
        # origin lamp, which every wall through the origin leaves
        # unconstrained on one side: distance zero (the metric is a
        # pseudometric, not a metric).
        sp = space()
        assert sp.wall_distance(elem("{}|1"), elem("{1:1}|1")) == 0

    def test_every_directed_wall_contains_inside_and_misses_outside(self):
        rng = random.Random(101)
        sp = space(z3())
        for _ in range(150):
            a = random_element(rng, z3(), 2)
            b = random_element(rng, z3(), 2)
            for wall in sp.directed_separating_walls(a, b):
                assert wall.contains(a)
                assert not wall.contains(b)

    def test_directed_families_are_disjoint(self):
        rng = random.Random(103)
        sp = space()
        for _ in range(150):
            a = random_element(rng, z2(), 2)
            b = random_element(rng, z2(), 2)
            forward = set(sp.directed_separating_walls(a, b))
            backward = set(sp.directed_separating_walls(b, a))
            assert not (forward & backward)

    def test_rejects_foreign_elements(self):
        sp = space()
        for foreign in (elem("{}|1", z3()), elem("{}|1", rank=3)):
            with pytest.raises(ValueError):
                sp.directed_separating_walls(elem("{}|1"), foreign)
            with pytest.raises(ValueError):
                sp.separating_walls(foreign)
            with pytest.raises(ValueError):
                wall_columns([elem("{}|1"), foreign], sp.lamps, sp.rank, sp.cap)


class TestSampleWalls:
    def test_occupied_node_that_separates_nothing_carries_no_wall(self):
        # Nodes a and aa are occupied by all three elements, all under the key
        # (False, ((aa, 1),)): one wall each, which separates nothing.
        sp = space()
        sample = [elem("{aa:1}|1"), elem("{aa:1}|b"), elem("{aa:1,B:1}|1")]
        assert [(str(w), rows) for w, rows in sp.separating_walls(*sample)] == [
            ("E(CONE(b), {aa:1})", [1]),
            ("E(COCONE(b), {})", [0, 2]),
            ("E(COCONE(B), {})", [0, 1]),
            ("E(COCONE(B), {B:1})", [2]),
        ]
        assert len(wall_columns(sample, sp.lamps, sp.rank, sp.cap)) == 4
        assert sp.separating_walls(sample[0]) == []
        assert wall_columns(sample[:1], sp.lamps, sp.rank, sp.cap) == []


class TestWallDistance:
    def test_golden_distances(self):
        sp = space()
        one = elem("{}|1")
        assert sp.wall_distance(one, elem("{1:1}|1")) == 0
        assert sp.wall_distance(one, elem("{a:1}|1")) == 2
        assert sp.wall_distance(one, elem("{}|a")) == 2
        assert sp.wall_distance(one, elem("{}|ab")) == 4
        assert sp.wall_distance(one, elem("{a:1}|a")) == 2
        assert sp.wall_distance(elem("{a:1}|1"), elem("{a:1}|1")) == 0

    def test_agrees_with_brute_force_oracle(self):
        rng = random.Random(107)
        for lamps in (z2(), z3()):
            sp = space(lamps)
            for _ in range(40):
                a = random_element(rng, lamps, 2, max_lamps=2, max_len=2)
                b = random_element(rng, lamps, 2, max_lamps=2, max_len=2)
                fast = set(sp.directed_separating_walls(a, b))
                fast |= set(sp.directed_separating_walls(b, a))
                brute = set(sp.brute_force_separating(a, b, radius=3))
                assert fast == brute

    def test_sweep_oracle_finds_no_extra_decorations(self):
        # Rank 1 keeps the decoration sweep affordable; every decoration
        # supported in the ball is tried, not only the two restrictions.
        sp = WreathWallSpace(z2(), rank=1)
        rng = random.Random(109)
        for _ in range(10):
            a = random_element(rng, z2(), 1, max_lamps=1, max_len=1)
            b = random_element(rng, z2(), 1, max_lamps=1, max_len=1)
            plain = set(sp.brute_force_separating(a, b, radius=2))
            swept = set(sp.brute_force_separating(a, b, radius=2, decoration_sweep=True))
            assert plain == swept

    def test_decoration_sweep_decides_through_contains(self, monkeypatch):
        # With a membership test that also admits every element in the base
        # showing no lamps beyond it, each decoration supported in the ball
        # separates 1 from a over the edge at a: 8 on the cone, 4 on the cocone.
        contains = WreathHalfSpace.contains

        def loose(h, x):
            beyond = x.lamps.restrict(lambda p: not h.base.contains(p))
            return contains(h, x) or (h.base.contains(x.position) and beyond.is_empty)

        monkeypatch.setattr(WreathHalfSpace, "contains", loose)
        sp = WreathWallSpace(z2(), rank=1)
        a, b = elem("{}|1", rank=1), elem("{}|a", rank=1)
        assert len(sp.brute_force_separating(a, b, radius=2)) == 2
        assert len(sp.brute_force_separating(a, b, radius=2, decoration_sweep=True)) == 12

    def test_decoration_sweep_refuses_above_cap(self):
        # Outside the cone of ``a`` lie 13 of the 17 words in the radius-2 ball: 2**13 decorations.
        sp = WreathWallSpace(z2(), rank=2, cap=1000)
        one = sp.identity()
        with pytest.raises(CapExceededError, match="decoration sweep would enumerate 8192"):
            sp.brute_force_separating(one, one, radius=2, decoration_sweep=True)

    def test_oracle_rejects_too_small_radius(self):
        sp = space()
        with pytest.raises(ValueError):
            sp.brute_force_separating(elem("{}|1"), elem("{}|ab"), radius=2)

    def test_smallest_accepted_radius(self):
        sp = space()
        a, b = elem("{1:1,aB:1}|1"), elem("{b:1}|ba")
        radius = sp.oracle_radius(a, b)
        assert radius == 3
        with pytest.raises(ValueError):
            sp.brute_force_separating(a, b, radius - 1)
        assert len(sp.brute_force_separating(a, b, radius)) == sp.wall_distance(a, b)

    def test_oracle_runs_without_the_closed_form(self, monkeypatch):
        # Positions and lamp sites share prefixes, so some cones hold several occurring words.
        sp = space(z3())
        pairs = [
            (elem("{ab:1,abB:2}|aba", z3()), elem("{a:2,aB:1}|ab", z3())),
            (elem("{BB:1,BBa:1}|B", z3()), elem("{B:2}|BBa", z3())),
            (elem("{}|1", z3()), elem("{a:1,aa:1,aaa:2}|aa", z3())),
        ]
        expected = []
        for a, b in pairs:
            walls = {*sp.directed_separating_walls(a, b), *sp.directed_separating_walls(b, a)}
            expected.append(tuple(sorted(walls, key=WreathHalfSpace.sort_key)))

        def closed_form(*args, **kwargs):
            raise AssertionError("the oracle must not use the closed form")

        for module in (walls_module, wreath_walls_module):
            monkeypatch.setattr(module, "spanned_edges", closed_form)
        monkeypatch.setattr(walls_module, "separating_tree_walls", closed_form)
        monkeypatch.setattr(columns_module, "keyed_edges", closed_form)
        with pytest.raises(AssertionError):
            sp.wall_distance(*pairs[0])
        for (a, b), walls in zip(pairs, expected):
            assert sp.brute_force_separating(a, b, sp.oracle_radius(a, b)) == walls

    def test_oracle_finds_walls_only_on_the_ball_words_it_visits(self, monkeypatch):
        # ``ab`` is in the prefix table (a prefix of the position), so a walk over
        # the table instead of the ball would still find the two walls at ``ab``.
        sp = space()
        a, b = elem("{}|1"), elem("{a:1}|ab")
        radius = sp.oracle_radius(a, b)
        full = set(sp.brute_force_separating(a, b, radius))
        ball_letters = wreath_walls_module.ball_letters
        monkeypatch.setattr(
            wreath_walls_module,
            "ball_letters",
            lambda *args: (w for w in ball_letters(*args) if w != "ab"),
        )
        missed = full - set(sp.brute_force_separating(a, b, radius))
        assert missed == {half(False, "ab", []), half(True, "ab", [("a", 1)])}
        assert len(full) == sp.wall_distance(a, b) == 4

    def test_oracle_confirms_each_wall_through_contains(self, monkeypatch):
        sp = space()
        a, b = elem("{}|1"), elem("{a:1}|ab")
        contains = WreathHalfSpace.contains
        monkeypatch.setattr(WreathHalfSpace, "contains", lambda half, x: not contains(half, x))
        with pytest.raises(RuntimeError, match="disagrees"):
            sp.brute_force_separating(a, b, sp.oracle_radius(a, b))

    def test_pseudometric_axioms(self):
        rng = random.Random(113)
        sp = space()
        for _ in range(60):
            a = random_element(rng, z2(), 2)
            b = random_element(rng, z2(), 2)
            c = random_element(rng, z2(), 2)
            assert sp.wall_distance(a, a) == 0
            assert sp.wall_distance(a, b) == sp.wall_distance(b, a)
            assert sp.wall_distance(a, c) <= (
                sp.wall_distance(a, b) + sp.wall_distance(b, c)
            )

    def test_left_invariance(self):
        rng = random.Random(127)
        for lamps in (z2(), s3()):
            sp = space(lamps)
            for _ in range(100):
                g = random_element(rng, lamps, 2)
                a = random_element(rng, lamps, 2)
                b = random_element(rng, lamps, 2)
                assert sp.wall_distance(g * a, g * b) == sp.wall_distance(a, b)


class TestTranslation:
    def test_pure_position_shift(self):
        sp = space()
        h = half(True, "b", [])
        moved = sp.translate(elem("{}|a"), h)
        assert moved == half(True, "ab", [])

    def test_shift_across_the_wall(self):
        sp = space()
        h = half(True, "a", [])
        moved = sp.translate(elem("{}|A"), h)
        assert moved == half(False, "A", [])

    def test_lamps_of_the_mover_decorate_the_outside(self):
        sp = space()
        h = half(True, "b", [])
        moved = sp.translate(elem("{1:1}|a"), h)
        assert moved == half(True, "ab", [("1", 1)])

    def test_mover_lamps_inside_the_image_are_dropped(self):
        sp = space()
        h = half(True, "b", [])
        moved = sp.translate(elem("{ab:1}|a"), h)
        assert moved == half(True, "ab", [])

    def test_action_composes_with_lamp_order(self):
        # Left factor first in the decoration product; exercised with a
        # non-abelian lamp group through random composition checks below.
        rng = random.Random(131)
        for lamps in (z2(), s3()):
            sp = space(lamps)
            e = sp.identity()
            for _ in range(200):
                g = random_element(rng, lamps, 2)
                k = random_element(rng, lamps, 2)
                h = random_wreath_half_space(rng, lamps, 2)
                assert sp.translate(e, h) == h
                assert sp.translate(g, sp.translate(k, h)) == sp.translate(g * k, h)

    def test_membership_equivariance(self):
        rng = random.Random(137)
        for lamps in (z2(), s3()):
            sp = space(lamps)
            for _ in range(300):
                g = random_element(rng, lamps, 2)
                x = random_element(rng, lamps, 2)
                h = random_wreath_half_space(rng, lamps, 2)
                assert sp.translate(g, h).contains(g * x) == h.contains(x)

    def test_equivariance_of_separating_walls(self):
        rng = random.Random(139)
        sp = space()
        for _ in range(60):
            g = random_element(rng, z2(), 2)
            a = random_element(rng, z2(), 2)
            b = random_element(rng, z2(), 2)
            direct = set(sp.directed_separating_walls(g * a, g * b))
            moved = {
                sp.translate(g, w)
                for w in sp.directed_separating_walls(a, b)
            }
            assert direct == moved


class TestProperness:
    def test_box_enumeration_is_deterministic_and_complete(self):
        sp = WreathWallSpace(z2(), rank=1)
        box = list(sp.enumerate_box(1))
        assert len(box) == sp.box_size(1) == 2**3 * 3
        assert len(set(box)) == len(box)
        assert list(sp.enumerate_box(1)) == box

    def test_box_respects_cap(self):
        sp = WreathWallSpace(z2(), rank=2, cap=100)
        with pytest.raises(CapExceededError):
            list(sp.enumerate_box(2))

    def test_sublevel_zero_is_exactly_the_wall_kernel(self):
        # Wall distance 0 from the identity: identity itself and the
        # origin-lamp elements.
        sp = WreathWallSpace(z3(), rank=1)
        report = sp.sublevel_report(0, radius=1)
        assert report.contained
        assert not report.violations
        names = [str(e) for e in report.sublevel]
        assert names == ["{}|1", "{1:1}|1", "{1:2}|1"]

    def test_sublevel_one_rank_one(self):
        sp = WreathWallSpace(z2(), rank=1)
        report = sp.sublevel_report(1, radius=2)
        assert report.contained
        assert not report.violations
        # Everything at wall distance <= 1 fits in the radius-1 ball with
        # its lamps, and the bound counts that box.
        assert report.base_ball_size == 3
        assert report.cardinality_bound == 2**3 * 3
        assert report.sublevel_count <= report.cardinality_bound
        for element in report.sublevel:
            assert sp.wall_distance(sp.identity(), element) <= 1

    def test_sublevel_report_validates_arguments(self):
        sp = WreathWallSpace(z2(), rank=1)
        with pytest.raises(ValueError):
            sp.sublevel_report(-1, radius=1)
        with pytest.raises(ValueError):
            sp.sublevel_report(2, radius=1)

    # The box sweep is the generator's oracle wherever the box of radius N fits under the cap.
    @pytest.mark.parametrize(
        ("lamps", "rank", "max_wall"),
        [(z2(), 1, n) for n in range(6)]
        + [(z3(), 1, n) for n in range(5)]
        + [(s3(), 1, n) for n in range(3)]
        + [(lamps, 2, n) for lamps in (z2(), z3(), s3()) for n in range(2)],
        ids=lambda value: str(value.order) if hasattr(value, "order") else str(value),
    )
    def test_sublevel_equals_box_sweep(self, lamps, rank, max_wall):
        sp = WreathWallSpace(lamps, rank)
        identity = sp.identity()
        swept = [x for x in sp.enumerate_box(max_wall) if sp.wall_distance(identity, x) <= max_wall]
        assert sp.sublevel(max_wall) == sorted(swept, key=WreathElement.sort_key)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("order", [2, 3, 6])
    def test_sublevel_size_counts_the_generated_set(self, order, rank):
        sp = WreathWallSpace(LampGroup.cyclic(order), rank, cap=10**30)
        max_wall = 0
        while sp.sublevel_size(max_wall) <= 12000:
            generated = sp.sublevel(max_wall)
            assert len(set(generated)) == len(generated) == sp.sublevel_size(max_wall)
            max_wall += 1
        assert max_wall >= 3

    def test_sublevel_numbers_its_vertices_by_one_ball(self, monkeypatch):
        # Sorted on ball indices: no word's shortlex key is computed, and every configuration,
        # built without the constructor's checks, equals its validated twin.
        balls = []
        free_ball = wreath_walls_module.free_ball

        def counted(*args):
            balls.append(args)
            return free_ball(*args)

        def no_key(word):
            raise AssertionError(f"shortlex key of {word} computed")

        monkeypatch.setattr(wreath_walls_module, "free_ball", counted)
        monkeypatch.setattr(ReducedWord, "sort_key", no_key)
        generated = WreathWallSpace(z2(), 2).sublevel(6)
        monkeypatch.undo()
        assert len(balls) == 1
        assert len(generated) == 2926
        assert generated == sorted(generated, key=WreathElement.sort_key)
        for x in generated:
            assert x.lamps == LampConfig(x.lamps.entries, z2(), 2)

    def test_sublevel_listing_at_level_eight_is_pinned(self):
        # Past the box sweep's reach, the digest of the 30,864-line rank-2 Z/2 listing pins
        # both the set and its order.
        listing = "".join(f"{x}\n" for x in WreathWallSpace(z2(), 2).sublevel(8))
        digest = "8fbef322ef0d34a6e79058c33bb285c4adbc6c97ec7c68fc37488ab7b27851e6"
        assert hashlib.sha256(listing.encode()).hexdigest() == digest

    def test_sublevel_sizes_rank_two(self):
        sp = WreathWallSpace(z2(), 2)
        sizes = [sp.sublevel_size(n) for n in range(10)]
        assert sizes == [2, 2, 26, 26, 278, 278, 2926, 2926, 30864, 30864]

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_sublevel_size_equals_the_bivariate_series(self, rank):
        # An element spanning E edges has word length at most 3E + 1 (README, "Growth
        # series"), so the two-variable spheres to radius 46 hold every one with E <= 15.
        sp = WreathWallSpace(z3(), rank, cap=10**40)
        spheres = bivariate_spheres(sp, 46)
        by_edges = [sum(sphere[e] for sphere in spheres if e < len(sphere)) for e in range(16)]
        for max_wall in range(31):
            assert sp.sublevel_size(max_wall) == sum(by_edges[: max_wall // 2 + 1])

    def test_sublevel_size_refuses_above_cap(self):
        with pytest.raises(CapExceededError, match="enumerate 26 elements") as info:
            WreathWallSpace(z2(), 2, cap=25).sublevel_size(2)
        assert info.value.predicted == 26
        # Past 2 ** (max_wall // 2) > cap the series is not expanded.
        with pytest.raises(CapExceededError, match="more than 1000000") as info:
            WreathWallSpace(z2(), 2).sublevel_size(10**20)
        assert info.value.predicted is None

    def test_report_leaves_boxes_above_the_cap_unsized(self):
        # The radius-2 box of Z/2 wr F_2 has 2**17 * 17 elements; the radius-1 box 2**5 * 5.
        report = WreathWallSpace(z2(), 2, cap=1000).sublevel_report(2, radius=2)
        assert (report.box_size, report.cardinality_bound) == (None, None)
        assert report.sublevel_count == 26
        assert report.base_ball_size == 17
        assert report.contained
        report = WreathWallSpace(z2(), 2, cap=1000).sublevel_report(1, radius=2)
        assert (report.box_size, report.cardinality_bound) == (None, 160)

    def test_report_never_sweeps_the_box(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("the box was enumerated")

        monkeypatch.setattr(WreathWallSpace, "enumerate_box", no_sweep)
        report = WreathWallSpace(z2(), 1).sublevel_report(3, radius=4)
        assert (report.box_size, report.sublevel_count) == (2**9 * 9, 14)

    def test_space_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            WreathWallSpace(z2(), rank=2, cap=0)

    def test_space_rejects_bad_rank(self):
        for rank in (0, 27):
            with pytest.raises(ValueError, match="rank"):
                WreathWallSpace(z2(), rank=rank)
