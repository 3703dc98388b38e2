"""Distance matrices, wall coordinates, negative-definiteness, and growth."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from wreathwalls import (
    CapExceededError,
    CndReport,
    LampGroup,
    WreathHalfSpace,
    WreathWallSpace,
    cnd_check,
    distance_matrix,
    growth_table,
    hamming_distances,
    validate_distance_matrix,
    validate_sample,
    wall_coordinates,
)
from wreathwalls.grammar import parse_element

from support import (
    bfs_growth_rows,
    bivariate_growth_rows,
    pairwise_distance_matrix,
    random_element,
    s3,
    z2,
    z3,
)
from support import standard_generators as _standard_generators


def sample(texts, lamps=None, rank=2):
    lamps = lamps if lamps is not None else z2()
    return [parse_element(t, lamps, rank) for t in texts]


class TestDistanceMatrix:
    def test_golden_matrix(self):
        sp = WreathWallSpace(z2(), 2)
        matrix = distance_matrix(sp, sample(["{}|1", "{}|a", "{}|ab"]))
        assert matrix.tolist() == [[0, 2, 4], [2, 0, 2], [4, 2, 0]]

    def test_rejects_empty_and_duplicate_samples(self):
        sp = WreathWallSpace(z2(), 2)
        with pytest.raises(ValueError):
            distance_matrix(sp, [])
        with pytest.raises(ValueError):
            distance_matrix(sp, sample(["{}|a", "{}|a"]))

    def test_refuses_above_cap_before_allocating(self):
        sp = WreathWallSpace(z2(), 2, cap=3)
        with pytest.raises(CapExceededError) as info:
            distance_matrix(sp, sample(["{}|1", "{}|a"]))
        assert info.value.predicted == 4

    def test_validate_sample_accepts_distinct_elements(self):
        validate_sample(sample(["{}|1", "{1:1}|1"]))

    def test_validator_catches_broken_matrices(self):
        with pytest.raises(ValueError):
            validate_distance_matrix(np.array([[0, 1], [2, 0]]))
        with pytest.raises(ValueError):
            validate_distance_matrix(np.array([[1, 0], [0, 1]]))
        with pytest.raises(ValueError):
            validate_distance_matrix(np.array([[0, -1], [-1, 0]]))
        with pytest.raises(ValueError):
            validate_distance_matrix(np.array([[0, 1, 9], [1, 0, 1], [9, 1, 0]]))
        with pytest.raises(ValueError):
            validate_distance_matrix(np.zeros((2, 3)))
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite"):
                validate_distance_matrix(np.array([[0, bad], [bad, 0]]))

    @pytest.mark.parametrize("big", [2**14 - 1, 2**14, 2**30 - 1, 2**30])
    def test_triangle_check_on_each_side_of_the_narrow_dtypes(self, big):
        # Twice 2**14 (2**30) is one past the int16 (int32) maximum: a sum the
        # check forms there needs the next wider dtype.
        equilateral = big * (1 - np.eye(3, dtype=np.int64))
        broken = np.array([[0, big, 1], [big, 0, big - 2], [1, big - 2, 0]])
        for dtype in (np.int64, np.float64):
            validate_distance_matrix(equilateral.astype(dtype))
            with pytest.raises(ValueError, match="triangle inequality fails through index 2"):
                validate_distance_matrix(broken.astype(dtype))

    def test_node_sum_equals_pairwise_loop_on_the_seeded_sample(self):
        # The first 150 elements of the seeded n = 1000 certification sample.
        rng = random.Random(7)
        elements = []
        while len(elements) < 150:
            e = random_element(rng, z2(), 2, max_lamps=6, max_len=8)
            if e not in elements:
                elements.append(e)
        sp = WreathWallSpace(z2(), 2)
        assert np.array_equal(distance_matrix(sp, elements), pairwise_distance_matrix(sp, elements))

    def test_rejects_elements_of_another_space(self):
        with pytest.raises(ValueError, match="different lamp group"):
            distance_matrix(WreathWallSpace(z2(), 2), sample(["{a:1}|b"], lamps=z3()))

    def test_accepts_wall_distance_matrices(self):
        rng = random.Random(211)
        sp = WreathWallSpace(z3(), 2)
        elements = []
        for _ in range(8):
            e = random_element(rng, z3(), 2)
            if e not in elements:
                elements.append(e)
        matrix = distance_matrix(sp, elements)
        assert np.array_equal(matrix, matrix.T)


class TestWallCoordinates:
    def test_hamming_distance_equals_wall_distance(self):
        rng = random.Random(223)
        for lamps in (z2(), s3()):
            sp = WreathWallSpace(lamps, 2)
            elements = []
            for _ in range(10):
                e = random_element(rng, lamps, 2)
                if e not in elements:
                    elements.append(e)
            walls, coords = wall_coordinates(sp, elements)
            matrix = distance_matrix(sp, elements)
            assert len(walls) == coords.shape[1]
            for i in range(len(elements)):
                for j in range(len(elements)):
                    hamming = int(np.sum(coords[i] != coords[j]))
                    assert hamming == matrix[i, j]

    def test_coordinates_are_binary_and_walls_canonical(self):
        sp = WreathWallSpace(z2(), 2)
        walls, coords = wall_coordinates(sp, sample(["{}|1", "{a:1}|b"]))
        assert set(np.unique(coords)) <= {0, 1}
        keys = [w.sort_key() for w in walls]
        assert keys == sorted(keys)

    def test_single_element_sample_has_no_walls(self):
        sp = WreathWallSpace(z2(), 2)
        walls, coords = wall_coordinates(sp, sample(["{}|a"]))
        assert walls == []
        assert coords.shape == (1, 0)

    def test_sample_walls_of_empty_and_single_samples_are_empty(self):
        sp = WreathWallSpace(z2(), 2)
        assert sp.separating_walls() == []
        assert sp.separating_walls(*sample(["{a:1,b:1}|ab"])) == []

    def test_each_wall_is_built_once(self, monkeypatch):
        builds = []
        check = WreathHalfSpace.__post_init__

        def counted(half):
            builds.append(half)
            check(half)

        monkeypatch.setattr(WreathHalfSpace, "__post_init__", counted)
        sp = WreathWallSpace(z3(), 2)
        elements = sample(
            ["{}|1", "{a:2}|b", "{1:1,B:2}|ab", "{b:1}|A", "{a:1,ab:2}|aB", "{}|bb"], lamps=z3()
        )
        walls, coords = wall_coordinates(sp, elements)
        assert coords.dtype == np.uint8
        assert len(builds) == len(walls) == coords.shape[1]

    def test_gram_form_hamming_equals_pairwise_loop(self):
        def pairwise(coords):
            n = coords.shape[0]
            out = np.zeros((n, n), dtype=np.int64)
            for i in range(n):
                for j in range(n):
                    out[i, j] = int(np.sum(coords[i] != coords[j]))
            return out

        rng = np.random.default_rng(229)
        for n, width in ((1, 0), (2, 1), (7, 30), (20, 200)):
            for dtype in (np.int64, np.uint8):
                coords = rng.integers(0, 2, size=(n, width), dtype=dtype)
                hamming = hamming_distances(coords)
                assert hamming.dtype == np.int64
                assert np.array_equal(hamming, pairwise(coords))
        sp = WreathWallSpace(z3(), 2)
        elements = sample(["{}|1", "{a:2}|b", "{1:1,B:2}|ab", "{b:1}|A"], lamps=z3())
        _, coords = wall_coordinates(sp, elements)
        assert np.array_equal(hamming_distances(coords), pairwise(coords))
        assert np.array_equal(hamming_distances(coords), distance_matrix(sp, elements))

    def test_gram_form_refuses_widths_past_float64_exactness(self):
        # A zero-stride view: 2**53 columns without allocating them.
        wide = np.broadcast_to(np.zeros((1, 1), dtype=np.int64), (1, 2**53))
        with pytest.raises(ValueError, match="float64"):
            hamming_distances(wide)


class TestCndCheck:
    def test_boundary_metric_passes(self):
        # Squared distances of collinear points 0, 1, 2: the zero-sum vector
        # (1, -2, 1) gives exactly zero, so this sits on the boundary.
        report = cnd_check(np.array([[0, 1, 4], [1, 0, 1], [4, 1, 0]]))
        assert report.passed
        assert report.dimension == 3
        assert abs(report.min_eigenvalue) <= 1e-9 * 4

    def test_non_embeddable_kernel_fails(self):
        # Direct witness: c = (1, -2, 1) sums to zero and gives
        # sum c_i c_j K_ij = 2*(-2*1 + 1*5 - 2*1) = 2 > 0.
        kernel = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        c = np.array([1.0, -2.0, 1.0])
        assert float(c @ kernel @ c) > 0
        report = cnd_check(kernel)
        assert not report.passed
        assert report.min_eigenvalue < -1e-6

    def test_zero_sum_quadratic_form_oracle(self):
        # Whenever the check passes, every sampled zero-sum vector must give
        # a nonpositive form value, and vice versa for clear failures.
        rng = np.random.default_rng(20260814)
        sp = WreathWallSpace(z2(), 2)
        elements = sample(["{}|1", "{}|a", "{}|b", "{a:1}|a", "{}|ab"])
        kernel = distance_matrix(sp, elements).astype(float)
        report = cnd_check(kernel)
        assert report.passed
        for _ in range(200):
            c = rng.normal(size=5)
            c -= c.mean()
            assert float(c @ kernel @ c) <= 1e-9 * max(1.0, kernel.max())

    def test_wall_distance_matrices_always_pass(self):
        rng = random.Random(227)
        for lamps in (z2(), z3()):
            sp = WreathWallSpace(lamps, 2)
            for _ in range(5):
                elements = []
                for _ in range(8):
                    e = random_element(rng, lamps, 2)
                    if e not in elements:
                        elements.append(e)
                assert cnd_check(distance_matrix(sp, elements)).passed

    def test_rejects_bad_inputs(self):
        for tol in (0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tolerance"):
                cnd_check(np.array([[0, 1], [1, 0]]), tol=tol)
        with pytest.raises(ValueError):
            cnd_check(np.array([[0, 1], [2, 0]]))
        with pytest.raises(ValueError):
            cnd_check(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            cnd_check(np.array([[0, -1], [-1, 0]]))
        with pytest.raises(ValueError, match="nonempty"):
            cnd_check(np.zeros((0, 0)))
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite"):
                cnd_check([[0, bad], [bad, 0]])

    def test_report_is_plain_data(self):
        report = cnd_check(np.zeros((2, 2)))
        assert isinstance(report, CndReport)
        assert report.tolerance == 1e-9


class TestGrowthTable:
    def test_radius_zero(self):
        sp = WreathWallSpace(z2(), 2)
        rows = growth_table(sp, 0)
        assert len(rows) == 1
        assert (rows[0].radius, rows[0].sphere_size) == (0, 1)
        assert rows[0].min_wall == rows[0].max_wall == 0

    def test_golden_table_rank_two(self):
        sp = WreathWallSpace(z2(), 2)
        rows = growth_table(sp, 3)
        table = [(r.radius, r.sphere_size, r.min_wall, r.max_wall) for r in rows]
        assert table == [
            (0, 1, 0, 0),
            (1, 5, 0, 2),
            (2, 20, 2, 4),
            (3, 80, 2, 6),
        ]

    def test_sphere_sizes_count_distinct_elements(self):
        # BFS spheres partition the ball: no element appears twice.
        sp = WreathWallSpace(z3(), 1)
        rows = growth_table(sp, 4)
        seen_total = sum(r.sphere_size for r in rows)
        # Rank 1 with Z/3: count the ball directly by multiplying out words.
        elements = {sp.identity()}
        frontier = [sp.identity()]
        gens = _standard_generators(sp)
        for _ in range(4):
            nxt = []
            for e in frontier:
                for g in gens:
                    y = e * g
                    if y not in elements:
                        elements.add(y)
                        nxt.append(y)
            frontier = nxt
        assert seen_total == len(elements)

    def test_min_wall_distance_climbs(self):
        sp = WreathWallSpace(z2(), 1)
        rows = growth_table(sp, 6)
        mins = [r.min_wall for r in rows]
        assert mins[0] == 0
        # Properness at this scale: spheres far out contain no element of
        # small wall distance.
        assert mins[-1] > mins[1]
        assert all(r.max_wall >= r.min_wall for r in rows)

    def test_rejects_negative_radius(self):
        sp = WreathWallSpace(z2(), 2)
        with pytest.raises(ValueError):
            growth_table(sp, -1)

    @pytest.mark.parametrize(
        ("lamps", "rank", "radius"),
        [(z2(), 1, 9), (z2(), 2, 6), (z2(), 3, 4), (z3(), 1, 8), (z3(), 2, 4), (s3(), 2, 4)],
        ids=["z2-rank1", "z2-rank2", "z2-rank3", "z3-rank1", "z3-rank2", "s3-rank2"],
    )
    def test_series_equals_bfs_oracle(self, lamps, rank, radius):
        sp = WreathWallSpace(lamps, rank)
        assert growth_table(sp, radius) == bfs_growth_rows(sp, radius)

    @staticmethod
    def assert_bilipschitz_constants(rows):
        # On every sphere r >= 1: min_wall = 2 ceil((r - 1) / 3) and max_wall = 2 r.
        for row in rows[1:]:
            assert (row.min_wall, row.max_wall) == (2 * ((row.radius + 1) // 3), 2 * row.radius)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("order", [2, 3, 6])
    def test_bilipschitz_constants_of_the_series(self, order, rank):
        sp = WreathWallSpace(LampGroup.cyclic(order), rank, cap=10**40)
        rows = bivariate_growth_rows(sp, 20)
        self.assert_bilipschitz_constants(rows)
        assert growth_table(sp, 20) == rows

    @pytest.mark.parametrize(("lamps", "rank"), [(z2(), 1), (z2(), 2), (z3(), 1), (s3(), 1)])
    def test_bilipschitz_constants_of_the_bfs_oracle(self, lamps, rank):
        self.assert_bilipschitz_constants(bfs_growth_rows(WreathWallSpace(lamps, rank), 5))

    def test_refusal_predicts_the_exact_ball_or_none(self):
        # The radius-3 ball of Z/2 wr F_2 has 1 + 5 + 20 + 80 = 106 elements.
        with pytest.raises(CapExceededError, match="enumerate 106 elements") as info:
            growth_table(WreathWallSpace(z2(), 2, cap=105), 3)
        assert info.value.predicted == 106
        # Past the 2 ** (radius // 2) lower bound the refusal prints no size.
        with pytest.raises(CapExceededError, match="more than 1000000") as info:
            growth_table(WreathWallSpace(z2(), 2), 10**20)
        assert info.value.predicted is None
        # Nor past the free ball: its 53 lamp-free elements of length <= 3.
        with pytest.raises(CapExceededError, match="more than 52") as info:
            growth_table(WreathWallSpace(z2(), 2, cap=52), 3)
        assert info.value.predicted is None
