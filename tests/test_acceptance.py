"""End-to-end acceptance gate.

Nine checks, one printed pass/fail line each (run pytest with -s to see the
lines for passing checks). Each check times itself against its budget and
asserts exact equalities; random data uses fixed seeds so runs are
reproducible.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np
import pytest

from wreathwalls import (
    ReducedWord,
    WreathWallSpace,
    cnd_check,
    distance_matrix,
    free_ball,
    separating_tree_walls,
    wall_coordinates,
)
from wreathwalls.cli import main
from wreathwalls.grammar import parse_element

from support import random_element, random_wreath_half_space, s3, z2, z3


def _report(number: int, label: str, ok: bool, elapsed: float, budget: float | None) -> None:
    verdict = "PASS" if ok else "FAIL"
    timing = f"{elapsed:.2f}s" + (f" of {budget:.0f}s budget" if budget else "")
    print(f"criterion {number} [{verdict}] {label} ({timing})")


def test_criterion_1_base_wall_metric_is_word_length():
    budget = 5.0
    start = time.perf_counter()
    one = ReducedWord.identity(2)
    ball = free_ball(2, 5)
    mismatches = [w for w in ball if len(separating_tree_walls(one, w)) != len(w)]
    elapsed = time.perf_counter() - start
    ok = len(ball) == 485 and not mismatches and elapsed < budget
    _report(1, f"wall distance = word length on all {len(ball)} words of length <= 5", ok, elapsed, budget)
    assert len(ball) == 485
    assert mismatches == []
    assert elapsed < budget


def test_criterion_2_directed_walls_match_brute_force():
    budget = 60.0
    start = time.perf_counter()
    rng = random.Random(42)
    sp = WreathWallSpace(z2(), 2)
    mismatch = 0
    for _ in range(500):
        a = random_element(rng, z2(), 2, max_lamps=2, max_len=3)
        b = random_element(rng, z2(), 2, max_lamps=2, max_len=3)
        fast = set(sp.directed_separating_walls(a, b))
        fast |= set(sp.directed_separating_walls(b, a))
        if fast != set(sp.brute_force_separating(a, b, radius=4)):
            mismatch += 1
    # Completeness sweep: every decoration supported in the rank-1 radius-2
    # ball is tried, confirming the restriction to the two candidate
    # decorations loses nothing.
    sweep_mismatch = 0
    sp1 = WreathWallSpace(z2(), 1)
    for _ in range(20):
        a = random_element(rng, z2(), 1, max_lamps=2, max_len=1)
        b = random_element(rng, z2(), 1, max_lamps=2, max_len=1)
        plain = set(sp1.brute_force_separating(a, b, radius=2))
        swept = set(sp1.brute_force_separating(a, b, radius=2, decoration_sweep=True))
        if plain != swept:
            sweep_mismatch += 1
    elapsed = time.perf_counter() - start
    ok = mismatch == 0 and sweep_mismatch == 0 and elapsed < budget
    _report(2, "directed separating walls = brute force (500 pairs + decoration sweep)", ok, elapsed, budget)
    assert mismatch == 0
    assert sweep_mismatch == 0
    assert elapsed < budget


def test_criterion_3_frozen_golden_distances():
    start = time.perf_counter()
    sp = WreathWallSpace(z2(), 2)
    one = sp.identity()
    failures = []
    if sp.wall_distance(one, parse_element("{1:1}|1", z2(), 2)) != 0:
        failures.append("lamp at origin")
    for gen in ("a", "A", "b", "B"):
        if sp.wall_distance(one, parse_element(f"{{{gen}:1}}|1", z2(), 2)) != 2:
            failures.append(f"lamp at {gen}")
    for g in free_ball(2, 3):
        moved = parse_element(f"{{}}|{g}", z2(), 2)
        if sp.wall_distance(one, moved) != 2 * len(g):
            failures.append(f"translation {g}")
    elapsed = time.perf_counter() - start
    ok = not failures
    _report(3, "golden distances: origin lamp 0, generator lamp 2, translations 2|g|", ok, elapsed, None)
    assert failures == []


def test_criterion_4_action_preserves_membership():
    budget = 30.0
    start = time.perf_counter()
    failures = 0
    for seed, lamps in ((1001, z2()), (1002, s3())):
        rng = random.Random(seed)
        sp = WreathWallSpace(lamps, 2)
        for _ in range(5000):
            mover = random_element(rng, lamps, 2)
            x = random_element(rng, lamps, 2)
            half = random_wreath_half_space(rng, lamps, 2)
            if sp.translate(mover, half).contains(mover * x) != half.contains(x):
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < budget
    _report(4, "membership equivariance on 10000 triples (Z/2 and S3 lamps)", ok, elapsed, budget)
    assert failures == 0
    assert elapsed < budget


def test_criterion_5_left_invariance():
    start = time.perf_counter()
    rng = random.Random(2024)
    sp = WreathWallSpace(z2(), 2)
    failures = 0
    for _ in range(1000):
        mover = random_element(rng, z2(), 2)
        a = random_element(rng, z2(), 2)
        b = random_element(rng, z2(), 2)
        if sp.wall_distance(mover * a, mover * b) != sp.wall_distance(a, b):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0
    _report(5, "left invariance of the wall distance on 1000 triples", ok, elapsed, None)
    assert failures == 0


def test_criterion_6_properness_sublevel_sets():
    budget = 120.0
    start = time.perf_counter()
    sp = WreathWallSpace(z2(), 1)
    failures = []
    for level in (0, 1, 2):
        report = sp.sublevel_report(level, radius=level + 1)
        if not report.contained or report.violations:
            failures.append(f"level {level}: containment")
        if report.sublevel_count > report.cardinality_bound:
            failures.append(f"level {level}: cardinality")
        expected_bound = 2 ** report.base_ball_size * report.base_ball_size
        if report.cardinality_bound != expected_bound:
            failures.append(f"level {level}: bound formula")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < budget
    _report(6, "sub-level sets at N=0,1,2 confined to the radius-N box", ok, elapsed, budget)
    assert failures == []
    assert elapsed < budget


@pytest.fixture(scope="module")
def certification_matrices():
    """Distance matrices for criteria 7 and 8, built once."""
    rng = random.Random(777)
    matrices = []
    start = time.perf_counter()
    hamming_failures = 0
    cnd_failures = 0
    for lamps in (z2(), z3()):
        sp = WreathWallSpace(lamps, 2)
        for _ in range(10):
            elements = []
            while len(elements) < rng.randrange(5, 16):
                e = random_element(rng, lamps, 2)
                if e not in elements:
                    elements.append(e)
            matrix = distance_matrix(sp, elements)
            _, coords = wall_coordinates(sp, elements)
            for i in range(len(elements)):
                for j in range(len(elements)):
                    if int(np.sum(coords[i] != coords[j])) != matrix[i, j]:
                        hamming_failures += 1
            if not cnd_check(matrix, tol=1e-9).passed:
                cnd_failures += 1
            matrices.append(matrix)
    elapsed = time.perf_counter() - start
    return matrices, hamming_failures, cnd_failures, elapsed


def test_criterion_7_hamming_isometry_and_cnd(certification_matrices):
    budget = 60.0
    matrices, hamming_failures, cnd_failures, elapsed = certification_matrices
    ok = hamming_failures == 0 and cnd_failures == 0 and elapsed < budget
    _report(7, "20 samples: hamming = wall distance and kernels pass the CND test", ok, elapsed, budget)
    assert len(matrices) == 20
    assert hamming_failures == 0
    assert cnd_failures == 0
    assert elapsed < budget


def test_criterion_8_pseudometric_axioms(certification_matrices):
    start = time.perf_counter()
    matrices, _, _, _ = certification_matrices
    failures = []
    for index, matrix in enumerate(matrices):
        if np.any(np.diag(matrix) != 0):
            failures.append(f"sample {index}: diagonal")
        if not np.array_equal(matrix, matrix.T):
            failures.append(f"sample {index}: symmetry")
        n = matrix.shape[0]
        for k in range(n):
            if np.any(matrix > matrix[:, k : k + 1] + matrix[k : k + 1, :]):
                failures.append(f"sample {index}: triangle via {k}")
                break
    elapsed = time.perf_counter() - start
    ok = not failures
    _report(8, "pseudometric axioms exact on all 20 distance matrices", ok, elapsed, None)
    assert failures == []


def test_criterion_9_cli_determinism_and_round_trip(capsys):
    start = time.perf_counter()
    invocations = [
        ["walls", "{b:1}|a", "{a:1}|B"],
        ["--format", "json", "walls", "{b:1}|a", "{a:1}|B"],
        ["--format", "csv", "growth", "--radius", "2"],
        ["--format", "json", "proper", "--max-wall", "0"],
        ["--lamp-order", "3", "dist", "{a:2}|ab", "{1:1}|b"],
    ]
    unstable = []
    for argv in invocations:
        outputs = set()
        for _ in range(3):
            code = main(list(argv))
            outputs.add((code, capsys.readouterr().out))
        if len(outputs) != 1:
            unstable.append(" ".join(argv))
    json_code = main(["--format", "json", "walls", "{}|1", "{a:1}|1"])
    json.loads(capsys.readouterr().out)

    rng = random.Random(31337)
    round_trip_failures = 0
    for lamps in (z2(), z3()):
        for _ in range(500):
            element = random_element(rng, lamps, 2, max_lamps=3, max_len=4)
            text = str(element)
            if parse_element(text, lamps, 2) != element or str(parse_element(text, lamps, 2)) != text:
                round_trip_failures += 1
    elapsed = time.perf_counter() - start
    ok = not unstable and json_code == 0 and round_trip_failures == 0
    _report(9, "CLI byte-identical reruns and 1000 parse/format round trips", ok, elapsed, None)
    assert unstable == []
    assert json_code == 0
    assert round_trip_failures == 0
