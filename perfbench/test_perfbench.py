"""Self-tests of the benchmark; not part of the package's tier-1 suite.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from wreathwalls import LampGroup, WreathWallSpace  # noqa: E402
from wreathwalls.grammar import parse_element  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "rank, table",
    [
        (1, LampGroup.cyclic(2).table),
        (2, LampGroup.cyclic(2).table),
        (2, LampGroup.cyclic(3).table),
        (2, gen.s3_table(random.Random(5))),
        (3, LampGroup.cyclic(2).table),
    ],
)
def test_reference_distance_matches_program_and_oracle(rank, table):
    rng = random.Random(rank * 100 + len(table))
    lamps = LampGroup(table)
    space = WreathWallSpace(lamps, rank=rank)
    for _ in range(25):
        a, b = (
            gen.random_element(rng, rank, len(table), rng.randint(0, 2), rng.sample(range(3), rng.randint(0, 2)))
            for _ in range(2)
        )
        x, y = (parse_element(reference.format_element(*e), lamps, rank) for e in (a, b))
        radius = 1 + max(len(w) for e in (a, b) for w in (e[0], *e[1]))
        expected = reference.distance(a, b)
        assert space.wall_distance(x, y) == expected
        assert len(space.brute_force_separating(x, y, radius)) == expected


def test_reference_literals_round_trip_through_the_parser():
    rng = random.Random(3)
    lamps = LampGroup.cyclic(3)
    for _ in range(50):
        element = gen.random_element(rng, 2, 3, rng.randint(0, 4), rng.sample(range(5), 3))
        literal = reference.format_element(*element)
        assert str(parse_element(literal, lamps, 2)) == literal
        assert reference.parse_element(literal) == element


def test_s3_table_is_a_nonabelian_group_of_order_six():
    group = LampGroup(gen.s3_table(random.Random(11)))
    assert group.order == 6 and not group.is_abelian


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.name != "manifest.json"}


def test_generator_is_deterministic_per_seed(tmp_path):
    first = gen.generate(4, tmp_path / "first")
    again = gen.generate(4, tmp_path / "again")
    other = gen.generate(5, tmp_path / "other")
    assert _files(tmp_path / "first") == _files(tmp_path / "again")
    assert first["oracle_pairs"] == again["oracle_pairs"] and first["table"] == again["table"]
    assert _files(tmp_path / "first") != _files(tmp_path / "other")
    for name in ("sample_a.txt", "sample_b.txt"):
        a, b = (Path(m[name.replace(".txt", "")]).read_text().splitlines() for m in (first, other))
        assert len(a) == len(b) == len(set(a))


def test_generator_respects_sizes(tmp_path):
    sizes = gen.FULL
    manifest = gen.generate(9, tmp_path)
    for key, count, lamps, length in (
        ("sample_a", sizes.a_elements, sizes.a_lamps, sizes.a_length),
        ("sample_b", sizes.b_elements, sizes.b_lamps, sizes.b_length),
    ):
        elements = [reference.parse_element(line) for line in Path(manifest[key]).read_text().splitlines()]
        assert len(elements) == count
        assert all(len(e[1]) <= lamps for e in elements)
        assert all(len(w) <= length for e in elements for w in (e[0], *e[1]))
    for pair in manifest["oracle_pairs"]:
        lengths = [len(w) for literal in pair for e in [reference.parse_element(literal)] for w in (e[0], *e[1])]
        assert max(lengths) == sizes.oracle_length == lengths[0]
        assert sorted(lengths)[-2] < sizes.oracle_length


def test_session_metrics_self_time_and_leaves():
    names = ["cli.main", "embedding.wall_coordinates", "wreath_walls.WreathWallSpace.directed_separating_walls"]
    record = {
        "names": names,
        # [function, start, end, parent, value, leaf_calls, leaf_ns]; parent 0 is the root.
        "spans": [
            [0, 0, 100, 0, None, 0, 0],
            [1, 10, 60, 1, [3, 12], 4, 8],
            [2, 20, 30, 2, 6, 0, 0],
        ],
        "counters": {"groups.sort_key_calls": 7},
        "main_ns": 100,
    }
    metrics = spans.session_metrics([record])
    assert metrics["cli.self_s"] == 50 / 1e9
    assert metrics["embedding.self_s"] == (50 - 10 - 8) / 1e9
    assert metrics["wreath_walls.self_s"] == (10 + 8) / 1e9
    assert metrics["wreath_walls.contains_calls"] == 4
    assert metrics["embedding.wall_dedup_ratio"] == 3 / 6
    assert metrics["groups.sort_key_calls"] == 7


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [*BENCHMARK["command"], "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run([*command, "--tiny"], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = [m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(expected)
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert all(result["metrics"][name]["unit"] == unit for name, unit in units.items())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "certify", 0)
    assert done.returncode != 0
    assert not done.stdout.strip()
