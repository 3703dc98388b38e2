"""Command-line interface: commands, formats, determinism, and exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wreathwalls.cli import main

from support import format_lamp_table, s3, z2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` to count its calls; returns the (one-item) counter."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def forbidden(*args, **kwargs):
    raise AssertionError("this path must not be taken")


def drop_a_row(columns):
    """Drop the last row of the first column holding two or more."""
    next(rows for rows in columns if len(rows) > 1).pop()


def add_a_row(columns):
    """Add to the first column the lowest row it does not hold."""
    columns[0].append(min(set(range(len(columns[0]) + 1)).difference(columns[0])))


def damage_wall_columns(monkeypatch, damage):
    """Make ``columns.wall_columns`` apply ``damage`` to each column list it returns."""
    from wreathwalls import columns

    original = columns.wall_columns

    def damaged(*args):
        result = original(*args)
        damage(result)
        return result

    monkeypatch.setattr(columns, "wall_columns", damaged)


def assert_refused_within_five_seconds(argv):
    result = subprocess.run(
        [sys.executable, "-m", "wreathwalls", *argv],
        capture_output=True,
        text=True,
        timeout=5,
        env=child_env(),
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "above the cap" in result.stderr
    return result.stderr


class TestArithmeticCommands:
    def test_mul(self, capsys):
        code, out, err = run(capsys, "mul", "{a:1}|a", "{a:1}|b")
        assert (code, err) == (0, "")
        assert out == "{a:1,aa:1}|ab\n"

    def test_mul_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "mul", "{}|a", "{}|A")
        assert code == 0
        assert json.loads(out) == {"element": "{}|1"}

    def test_inv(self, capsys):
        code, out, _ = run(capsys, "inv", "{a:1}|a")
        assert code == 0
        assert out == "{1:1}|A\n"

    def test_inv_round_trip(self, capsys):
        code, out, _ = run(capsys, "inv", "{1:1}|A")
        assert code == 0
        assert out == "{a:1}|a\n"

    def test_rank_flag_admits_more_generators(self, capsys):
        code, out, _ = run(capsys, "--rank", "3", "mul", "{}|c", "{}|c")
        assert code == 0
        assert out == "{}|cc\n"


class TestDistCommand:
    def test_golden_distance(self, capsys):
        code, out, _ = run(capsys, "dist", "{}|1", "{}|a")
        assert (code, out) == (0, "2\n")

    def test_invisible_origin_lamp(self, capsys):
        code, out, _ = run(capsys, "dist", "{}|1", "{1:1}|1")
        assert (code, out) == (0, "0\n")

    def test_json_with_oracle(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "dist", "--oracle", "{}|1", "{a:1}|ab")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"distance": 4, "oracle_ok": True}

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_oracle_mismatch_exits_one(self, capsys, monkeypatch, fmt):
        from wreathwalls.wreath_walls import WreathWallSpace

        monkeypatch.setattr(
            WreathWallSpace, "brute_force_separating", lambda *a, **k: ()
        )
        code, out, err = run(capsys, "--format", fmt, "dist", "--oracle", "{}|1", "{}|a")
        assert code == 1
        if fmt == "json":
            assert json.loads(out) == {"distance": 2, "oracle_ok": False}
        else:
            assert out == "2\n"
        assert "mismatch" in err
        assert "only in fast enumeration: E(COCONE(a), {})" in err
        assert "only in fast enumeration: E(CONE(a), {})" in err
        assert "only in brute force" not in err

    def test_oracle_mismatch_lists_walls_only_brute_force_found(self, capsys, monkeypatch):
        from wreathwalls.wreath_walls import WreathWallSpace

        monkeypatch.setattr(WreathWallSpace, "separating_walls", lambda *a, **k: [])
        code, out, err = run(capsys, "dist", "--oracle", "{}|1", "{}|a")
        assert (code, out) == (1, "0\n")
        assert "only in brute force: E(COCONE(a), {})" in err
        assert "only in fast enumeration" not in err

    def test_oracle_that_skips_a_ball_word_mismatches(self, capsys, monkeypatch):
        from wreathwalls import wreath_walls

        ball_letters = wreath_walls.ball_letters
        monkeypatch.setattr(
            wreath_walls,
            "ball_letters",
            lambda *args: (w for w in ball_letters(*args) if w != "ab"),
        )
        code, out, err = run(capsys, "dist", "--oracle", "{}|1", "{a:1}|ab")
        assert (code, out) == (1, "4\n")
        assert {line.strip() for line in err.splitlines() if "only in" in line} == {
            "only in fast enumeration: E(COCONE(ab), {})",
            "only in fast enumeration: E(CONE(ab), {a:1})",
        }

    def test_non_default_lamp_order(self, capsys):
        code, out, _ = run(capsys, "--lamp-order", "3", "dist", "{a:2}|1", "{}|1")
        assert (code, out) == (0, "2\n")

    def test_oracle_reads_both_directions_off_one_pass(self, capsys, monkeypatch):
        from wreathwalls.wreath_walls import WreathWallSpace

        calls = count_calls(monkeypatch, WreathWallSpace, "separating_walls")
        monkeypatch.setattr(WreathWallSpace, "directed_separating_walls", forbidden)
        code, out, _ = run(capsys, "dist", "--oracle", "{1:1,ab:1}|a", "{B:1}|b")
        assert (code, out, calls) == (0, "8\n", [1])



class TestWallsCommand:
    def test_both_directions_come_from_one_pass(self, capsys, monkeypatch):
        from wreathwalls.wreath_walls import WreathWallSpace

        calls = count_calls(monkeypatch, WreathWallSpace, "separating_walls")
        monkeypatch.setattr(WreathWallSpace, "directed_separating_walls", forbidden)
        code, out, _ = run(capsys, "walls", "{}|1", "{a:1}|1")
        assert (code, calls) == (0, [1])
        assert out == "1->2 E(COCONE(a), {})\n2->1 E(COCONE(a), {a:1})\ntotal 2\n"

    def test_text_listing(self, capsys):
        code, out, _ = run(capsys, "walls", "{}|1", "{}|ab")
        assert code == 0
        assert out.splitlines() == [
            "1->2 E(COCONE(a), {})",
            "1->2 E(COCONE(ab), {})",
            "2->1 E(CONE(a), {})",
            "2->1 E(CONE(ab), {})",
            "total 4",
        ]

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "walls", "{}|1", "{a:1}|1")
        assert code == 0
        payload = json.loads(out)
        assert payload["distance"] == 2
        assert payload["forward"] == [
            {"base": {"side": "COCONE", "deep": "a"}, "decoration": {}}
        ]
        assert payload["reverse"] == [
            {"base": {"side": "COCONE", "deep": "a"}, "decoration": {"a": 1}}
        ]


class TestProperCommand:
    def test_level_zero_report(self, capsys):
        code, out, _ = run(capsys, "proper", "--max-wall", "0")
        assert code == 0
        lines = out.splitlines()
        assert "wall distance <= 0: 2 elements" in lines[1]
        assert "  {}|1" in lines
        assert "  {1:1}|1" in lines
        assert lines[-1].endswith("yes")

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "--rank", "1", "--format", "json", "proper", "--max-wall", "1", "--radius", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 1
        assert payload["lamp_order"] == 2
        assert payload["max_wall"] == 1
        assert payload["radius"] == 2
        assert payload["contained"] is True
        assert payload["violations"] == []
        assert payload["sublevel_count"] == len(payload["sublevel"])
        assert payload["box_size"] >= payload["sublevel_count"]
        assert payload["cardinality_bound"] >= payload["sublevel_count"]

    def test_rank_two_levels_run_in_seconds(self, capsys):
        # The radius-6 box has 2**485 * 485 elements; the sub-level set has 2,926.
        start = time.perf_counter()
        code, out, _ = run(capsys, "--format", "json", "proper", "--max-wall", "6")
        assert time.perf_counter() - start < 10
        payload = json.loads(out)
        assert (code, payload["sublevel_count"], payload["box_size"]) == (0, 2926, None)

    def test_box_above_cap_no_longer_refuses(self, capsys):
        # The radius-2 box (2**17 * 17 elements) exceeds the cap; the 26 elements do not.
        code, out, err = run(capsys, "--cap", "100", "proper", "--max-wall", "2", "--radius", "2")
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == [
            "box radius 2: more than 100 elements, not enumerated",
            "wall distance <= 2: 26 elements (bound more than 100)",
        ]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_violation_exits_one(self, capsys, monkeypatch, fmt):
        from wreathwalls.grammar import parse_element
        from wreathwalls.wreath_walls import WreathWallSpace

        escaped = lambda self, n: [parse_element("{aa:1}|1", self.lamps, self.rank)]
        monkeypatch.setattr(WreathWallSpace, "sublevel", escaped)
        code, out, _ = run(capsys, "--rank", "1", "--format", fmt, "proper", "--max-wall", "1")
        assert code == 1
        if fmt == "json":
            report = json.loads(out)
            assert (report["contained"], report["violations"]) == (False, ["{aa:1}|1"])
        else:
            assert out.splitlines()[-2:] == [
                "contained in radius-1 box: NO",
                "  violation: {aa:1}|1",
            ]


class TestGrowthCommand:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "growth", "--radius", "2")
        assert code == 0
        assert out.splitlines() == [
            "radius,sphere_size,min_wall,max_wall",
            "0,1,0,0",
            "1,5,0,2",
            "2,20,2,4",
        ]

    def test_text_has_header_and_rows(self, capsys):
        code, out, _ = run(capsys, "growth", "--radius", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["radius", "sphere_size", "min_wall", "max_wall"]
        assert lines[1].split() == ["0", "1", "0", "0"]

    def test_cap_boundary_is_the_ball_size(self, capsys):
        # The radius-3 ball of Z/2 wr F_2 has 1 + 5 + 20 + 80 = 106 elements.
        assert run(capsys, "--cap", "106", "growth", "--radius", "3")[0] == 0
        code, out, err = run(capsys, "--cap", "105", "growth", "--radius", "3")
        assert (code, out) == (2, "")
        assert "growth enumeration would enumerate 106 elements" in err

    @pytest.mark.parametrize("rank", ["2", "26"])
    def test_free_ball_above_cap_exits_two_before_the_series(self, capsys, monkeypatch, rank):
        from wreathwalls import embedding

        def no_series(*args):
            raise AssertionError("the series was expanded before the cap check")

        monkeypatch.setattr(embedding, "spanned_edge_series", no_series)
        # 2 ** (39 // 2) is below the default cap; the free ball of radius 39 is not.
        code, out, err = run(capsys, "--rank", rank, "growth", "--radius", "39")
        assert (code, out) == (2, "")
        assert "growth enumeration would enumerate more than 1000000 elements" in err

    def test_depends_on_the_lamp_group_only_through_its_order(self, capsys, tmp_path):
        table = tmp_path / "s3.txt"
        table.write_text(format_lamp_table(s3()))
        by_table = run(capsys, "--lamp-table", str(table), "growth", "--radius", "4")
        assert by_table[0] == 0
        assert by_table == run(capsys, "--lamp-order", "6", "growth", "--radius", "4")


class TestCndCommand:
    def test_passes_on_sample(self, capsys, tmp_path):
        sample = tmp_path / "sample.txt"
        sample.write_text("{}|1\n{}|a\n{}|ab\n{a:1}|a\n")
        code, out, _ = run(capsys, "cnd", "--sample", str(sample))
        assert code == 0
        assert out.startswith("pass ")

    def test_json_schema(self, capsys, tmp_path):
        sample = tmp_path / "sample.txt"
        sample.write_text("{}|1\n{1:1}|a\n{b:1}|b\n")
        code, out, _ = run(capsys, "--format", "json", "cnd", "--sample", str(sample))
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"pass", "min_eigenvalue", "dimension", "wall_count"}
        assert payload["pass"] is True
        assert payload["dimension"] == 3

    @pytest.mark.parametrize(
        "fmt, out",
        [
            ("text", "pass min_eigenvalue=0.000e+00 dimension=1 wall_count=0\n"),
            ("json", '{"dimension": 1, "min_eigenvalue": 0.0, "pass": true, "wall_count": 0}\n'),
        ],
    )
    def test_one_element_sample_prints_a_positive_zero(self, capsys, tmp_path, fmt, out):
        # Exactly 0.0, never the -0.0 an eigensolver returns for the centred 1 x 1 kernel.
        sample = tmp_path / "sample.txt"
        sample.write_text("{a:1}|b\n")
        assert run(capsys, "--format", fmt, "cnd", "--sample", str(sample)) == (0, out, "")

    def test_wall_count_matches_embed_and_coordinates(self, capsys, tmp_path):
        from wreathwalls import LampGroup, WreathWallSpace, wall_coordinates
        from wreathwalls.grammar import load_sample_file

        sample = tmp_path / "sample.txt"
        sample.write_text("{}|1\n{1:1}|a\n{b:1}|b\n{a:2,aB:1}|aB\n{A:1}|ba\n")
        flags = ("--lamp-order", "3", "--format", "json")
        code, out, _ = run(capsys, *flags, "cnd", "--sample", str(sample))
        assert code == 0
        cnd_count = json.loads(out)["wall_count"]
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, *flags, "embed", "--sample", str(sample), "--out", str(out_dir))
        assert code == 0
        assert json.loads(out)["wall_count"] == cnd_count
        lamps = LampGroup.cyclic(3)
        elements = load_sample_file(sample, lamps, 2)
        assert len(wall_coordinates(WreathWallSpace(lamps, 2), elements)[0]) == cnd_count
        assert len((out_dir / "walls.txt").read_text().splitlines()) == cnd_count

    def test_sample_above_cap_exits_two_before_wall_work(self, capsys, tmp_path, monkeypatch):
        from wreathwalls import columns

        def no_wall_work(*args):
            raise AssertionError("wall work ran before the cap check")

        monkeypatch.setattr(columns, "keyed_edges", no_wall_work)
        sample = tmp_path / "sample.txt"
        sample.write_text("{}|1\n{}|a\n{}|ab\n")
        # 8 admits the Z/2 table check (2**3 triples) but not the 3 * 3 matrix.
        code, out, err = run(capsys, "--cap", "8", "cnd", "--sample", str(sample))
        assert (code, out) == (2, "")
        assert "distance matrix of 3 elements would enumerate 9 elements, above the cap" in err

    def test_passes_exactly_without_the_matrix_checks(self, capsys, tmp_path, monkeypatch):
        from wreathwalls import embedding

        for name in ("distance_matrix", "validate_distance_matrix", "cnd_check"):
            monkeypatch.setattr(embedding, name, forbidden)
        sample = tmp_path / "sample.txt"
        sample.write_text("{}|1\n{}|a\n{}|ab\n{a:1}|a\n")
        out = "pass min_eigenvalue=0.000e+00 dimension=4 wall_count=4\n"
        assert run(capsys, "cnd", "--sample", str(sample)) == (0, out, "")

    @pytest.mark.parametrize(
        "fmt, out",
        [
            ("text", "pass min_eigenvalue=0.000e+00 dimension=2926 wall_count=1144\n"),
            (
                "json",
                '{"dimension": 2926, "min_eigenvalue": 0.0, "pass": true, "wall_count": 1144}\n',
            ),
        ],
    )
    def test_certifies_the_rank_2_wall_ball_of_radius_6(self, capsys, tmp_path, fmt, out):
        # B(1, 6) in Z/2 wr F_2: every finite set of wall diameter at most 6 embeds.
        from wreathwalls import WreathWallSpace

        ball = WreathWallSpace(z2(), 2).sublevel(6)
        sample = tmp_path / "ball.txt"
        sample.write_text("".join(f"{element}\n" for element in ball))
        argv = ["--cap", "10000000", "--format", fmt, "cnd", "--sample", str(sample)]
        assert run(capsys, *argv) == (0, out, "")

    def test_counts_walls_without_building_them(self, capsys, tmp_path, monkeypatch):
        from wreathwalls.wreath_walls import WreathHalfSpace

        monkeypatch.setattr(WreathHalfSpace, "__init__", forbidden)
        sample = tmp_path / "sample.txt"
        sample.write_text("{}|1\n{}|a\n{}|ab\n{a:1}|a\n")
        code, out, _ = run(capsys, "--format", "json", "cnd", "--sample", str(sample))
        assert (code, json.loads(out)["wall_count"]) == (0, 4)


class TestEmbedCommand:
    def test_validates_the_sample_once(self, capsys, tmp_path, monkeypatch):
        from wreathwalls import columns

        calls = count_calls(monkeypatch, columns, "validate_sample")
        sample = tmp_path / "sample.txt"
        sample.write_text("{}|1\n{}|a\n{}|ab\n")
        code, _, _ = run(capsys, "embed", "--sample", str(sample), "--out", str(tmp_path / "out"))
        assert (code, calls) == (0, [1])

    def test_writes_csv_exports(self, capsys, tmp_path):
        sample = tmp_path / "sample.txt"
        sample.write_text("{}|1\n{}|a\n{}|ab\n")
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "embed", "--sample", str(sample), "--out", str(out_dir))
        assert code == 0
        assert "isometry self-check ok" in out
        assert (out_dir / "elements.txt").read_text() == "{}|1\n{}|a\n{}|ab\n"
        assert (out_dir / "distances.csv").read_text() == "0,2,4\n2,0,2\n4,2,0\n"
        walls = (out_dir / "walls.txt").read_text().splitlines()
        assert len(walls) == 4
        coords = (out_dir / "coordinates.csv").read_text().splitlines()
        assert len(coords) == 3
        assert all(set(row) <= {"0", "1", ","} for row in coords)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("damage", [drop_a_row, add_a_row], ids=["drop", "add"])
    def test_broken_distance_matrix_fails_the_isometry_check(
        self, capsys, tmp_path, monkeypatch, damage, fmt
    ):
        # embed runs no separate validation: the Hamming identity of the distances it writes
        # (read off wall_columns) and the coordinates it writes (off the walls) is its check.
        damage_wall_columns(monkeypatch, damage)
        sample = tmp_path / "sample.txt"
        sample.write_text("{}|1\n{}|a\n{}|ab\n")
        argv = ("--format", fmt, "embed", "--sample", str(sample), "--out", str(tmp_path / "out"))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        if fmt == "json":
            assert json.loads(out)["isometry_ok"] is False
        else:
            assert "isometry self-check FAILED" in out

    def test_json_reports_isometry(self, capsys, tmp_path):
        sample = tmp_path / "sample.txt"
        sample.write_text("{}|1\n{a:1}|b\n")
        out_dir = tmp_path / "out"
        code, out, _ = run(
            capsys, "--format", "json", "embed", "--sample", str(sample), "--out", str(out_dir)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["isometry_ok"] is True
        assert payload["dimension"] == 2


class TestLampTableFlag:
    def test_table_file_enables_nonabelian_lamps(self, capsys, tmp_path):
        table = tmp_path / "s3.txt"
        table.write_text(format_lamp_table(s3()))
        code, out, _ = run(capsys, "--lamp-table", str(table), "mul", "{1:1}|1", "{1:2}|1")
        assert code == 0
        g = s3()
        assert out == f"{{1:{g.mul(1, 2)}}}|1\n"

    def test_conflicting_lamp_flags_are_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--lamp-order", "2", "--lamp-table", "x.txt", "dist", "{}|1", "{}|1"])
        assert info.value.code == 2


class TestErrorsAndDeterminism:
    def test_parse_error_exits_two(self, capsys):
        code, _, err = run(capsys, "dist", "{}|1", "{}|!")
        assert code == 2
        assert err.startswith("error: ")

    def test_missing_table_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "--lamp-table", str(tmp_path / "nope.txt"), "dist", "{}|1", "{}|1"
        )
        assert code == 2
        assert "error" in err

    def test_csv_rejected_for_scalar_commands(self, capsys):
        code, _, err = run(capsys, "--format", "csv", "mul", "{}|1", "{}|1")
        assert code == 2
        assert "csv" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["mul", "{}|1", "{}|a"],
            ["inv", "{}|a"],
            ["dist", "{}|1", "{}|a"],
            ["walls", "{}|1", "{}|a"],
            ["proper", "--max-wall", "1"],
            ["cnd", "--sample", "SAMPLE"],
            ["embed", "--sample", "SAMPLE", "--out", "OUT"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_csv_rejected_for_every_command_but_growth(self, capsys, tmp_path, argv):
        sample = tmp_path / "sample.txt"
        sample.write_text("{}|1\n{}|a\n")
        paths = {"SAMPLE": str(sample), "OUT": str(tmp_path / "out")}
        code, out, err = run(capsys, "--format", "csv", *(paths.get(a, a) for a in argv))
        assert (code, out) == (2, "")
        assert "csv output is not available" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["--rank", "0", "--cap", "0", "mul", "{}|1", "{}|1"], "cap must be >= 1, got 0"),
            (
                ["--rank", "0", "--format", "csv", "mul", "{}|1", "{}|1"],
                "csv output is not available for this command",
            ),
            (
                ["--rank", "0", "--format", "csv", "--lamp-order", "1", "inv", "{}|1"],
                "lamp group must have order >= 2, got 1",
            ),
            (
                ["--rank", "0", "--lamp-order", "1", "inv", "{}|1"],
                "lamp group must have order >= 2, got 1",
            ),
            (
                ["--rank", "0", "--lamp-table", "MISSING", "mul", "{}|1", "{}|1"],
                "[Errno 2] No such file or directory: 'MISSING'",
            ),
            (["--rank", "27", "mul", "{z:1}|1", "b"], "rank must be in 1..26, got 27"),
            (["--rank", "0", "proper", "--max-wall", "1"], "rank must be in 1..26, got 0"),
            (
                ["--rank", "0", "--lamp-table", "TABLE", "growth", "--radius", "1"],
                "rank must be in 1..26, got 0",
            ),
        ],
    )
    def test_first_bad_session_argument_reports(self, capsys, tmp_path, argv, line):
        # Cap, lamps, format, then rank; the rank before any element is parsed.
        (tmp_path / "table.txt").write_text(format_lamp_table(s3()))
        paths = {"TABLE": str(tmp_path / "table.txt"), "MISSING": str(tmp_path / "missing.txt")}
        argv = [paths.get(a, a) for a in argv]
        line = line.replace("MISSING", paths["MISSING"])
        assert run(capsys, *argv) == (2, "", f"error: {line}\n")

    def test_cap_exhaustion_exits_two(self, capsys):
        # The cap bounds the 26 elements at wall distance <= 2, not the box around them.
        code, _, err = run(capsys, "--cap", "10", "proper", "--max-wall", "2")
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["proper", "--max-wall", "10000"],
            ["--rank", "1", "proper", "--max-wall", "10000"],
            ["proper", "--max-wall", "99999999999999999999"],
            ["--rank", "1", "proper", "--max-wall", "99999999999999999999"],
            ["growth", "--radius", "100000000000000000000"],
        ],
        ids=["rank2", "rank1", "rank2-huge", "rank1-huge", "growth-huge"],
    )
    def test_large_radius_is_refused_quickly(self, argv):
        # The exact box and ball sizes here have thousands of digits (or a
        # 10**20 exponent); the refusal must come from a cheap bound.
        assert_refused_within_five_seconds(argv)

    def test_growth_at_a_large_cap_is_refused_quickly(self):
        # Below the cap's 133 bits the 2 ** (radius // 2) bound settles nothing: the exact
        # ball of the one-variable series refuses.
        cap = "1" + "0" * 40
        err = assert_refused_within_five_seconds(
            ["--cap", cap, "--rank", "1", "growth", "--radius", "260"]
        )
        assert err == (
            "error: growth enumeration would enumerate"
            " 34854375040834133346137606028402393372119509011181721770 elements,"
            f" above the cap of {cap}\n"
        )
        # The same for the sub-level sets: the edge series to degree 130 refuses.
        sizes = {
            "2": "115033156880803884011343733360296048976294037390015312464615660083190748"
            "21393494085157759158618410647616209445859076520768358916707844096",
            "26": "204406780788492838562476413418215352234644219669676360134306326566144400"
            "726667893205926165009554016527433285369678830681485879063710742107248141"
            "910915633995964618608128361298402895817441031954701124585907253052431372"
            "778048908066638030735513580059703390735517960351655635609810182123337633"
            "0131800391441776",
        }
        for rank, size in sizes.items():
            err = assert_refused_within_five_seconds(
                ["--cap", cap, "--rank", rank, "proper", "--max-wall", "260"]
            )
            assert err == (
                f"error: sub-level set at wall distance 260 would enumerate {size} elements,"
                f" above the cap of {cap}\n"
            )

    def test_large_lamp_order_is_refused_quickly(self):
        # Building and verifying this table would take 4,000,000 entries and
        # 8 * 10**9 associativity checks.
        assert_refused_within_five_seconds(["--lamp-order", "2000", "mul", "{}|1", "{}|1"])

    def test_large_lamp_table_is_refused_quickly(self, tmp_path):
        # The k**3 associativity check of this 300-row file is refused from its header.
        table = tmp_path / "z300.txt"
        rows = (" ".join(str((i + j) % 300) for j in range(300)) for i in range(300))
        table.write_text("order 300\n" + "\n".join(rows) + "\n")
        argv = ["--lamp-table", str(table), "mul", "{}|1", "{}|1"]
        err = assert_refused_within_five_seconds(argv)
        assert "lamp table check of order 300 would enumerate 27000000 elements" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--rank", "\u0661", "--cap", "1_000", "mul", "{}|a", "{}|A"],
            ["--cap", "1_000", "mul", "{}|a", "{}|A"],
            ["--lamp-order", "\u0663", "growth", "--radius", "1"],
            ["--rank", "1", "proper", "--max-wall", "1_0"],
            ["--lamp-order", "+3", "mul", "{}|1", "{}|1"],
            ["--rank", "1", "proper", "--max-wall", "\u0662"],
            ["--rank", "1", "proper", "--max-wall", "2", "--radius", " 3"],
            ["--rank", "1", "growth", "--radius", "0_3"],
        ],
    )
    def test_number_flags_take_ascii_digits_only(self, capsys, argv):
        # int() also reads other scripts' digits, "_", "+" and spaces.
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        assert (info.value.code, out) == (2, "")
        assert "invalid int value" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--rank", "x", "mul", "{}|1", "{}|1"], "argument --rank: invalid int value: 'x'"),
            (
                ["--lamp-order", "x", "mul", "{}|1", "{}|1"],
                "argument --lamp-order: invalid int value: 'x'",
            ),
            (["--cap", "-1", "mul", "{}|1", "{}|1"], "cap must be >= 1, got -1"),
        ],
    )
    def test_refused_numbers_keep_their_messages(self, capsys, argv, message):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                ["--cap", "7", "mul", "{}|1", "{}|1"],
                "lamp table check of order 2 would enumerate 8 elements, above the cap of 7",
            ),
            (
                ["--lamp-table", "TABLE", "mul", "{}|1", "{}|1"],
                "lamp table check of order 300 would enumerate 27000000 elements,"
                " above the cap of 1000000",
            ),
            (
                ["--cap", "1000", "--lamp-order", "3", "dist", "--oracle", "{}|aaaaaaa", "{}|1"],
                "ball of radius 8 in F_2 would enumerate 13121 elements, above the cap of 1000",
            ),
            (
                ["growth", "--radius", "39"],
                "growth enumeration would enumerate more than 1000000 elements,"
                " above the cap of 1000000",
            ),
            (
                ["growth", "--radius", "40"],
                "growth enumeration would enumerate more than 1000000 elements,"
                " above the cap of 1000000",
            ),
            (
                ["--rank", "1", "growth", "--radius", "39"],
                "growth enumeration would enumerate 2265310252 elements, above the cap of 1000000",
            ),
            (
                ["proper", "--max-wall", "40"],
                "sub-level set at wall distance 40 would enumerate more than 1000000 elements,"
                " above the cap of 1000000",
            ),
            (
                ["--rank", "1", "proper", "--max-wall", "39"],
                "sub-level set at wall distance 39 would enumerate 230162432 elements,"
                " above the cap of 1000000",
            ),
            (
                ["--cap", "1000", "proper", "--max-wall", "6"],
                "sub-level set at wall distance 6 would enumerate 2926 elements,"
                " above the cap of 1000",
            ),
            (
                ["--cap", "8", "cnd", "--sample", "SAMPLE"],
                "distance matrix of 3 elements would enumerate 9 elements, above the cap of 8",
            ),
        ],
    )
    def test_every_refusal_names_its_size_and_cap(self, capsys, tmp_path, argv, line):
        # The exact size where it is cheap, else "more than" the cap from a lower bound.
        (tmp_path / "order300.txt").write_text("order 300\n")
        (tmp_path / "sample.txt").write_text("{}|1\n{a:1}|1\n{}|a\n")
        paths = {"TABLE": str(tmp_path / "order300.txt"), "SAMPLE": str(tmp_path / "sample.txt")}
        code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
        assert (code, out, err) == (2, "", f"error: {line}\n")

    def test_undecodable_sample_bytes_name_their_line(self, capsys, tmp_path):
        # Read as lone surrogates, as lamp tables are: a parse error, not a codec error.
        sample = tmp_path / "sample.txt"
        sample.write_bytes(b"{}|1\n\xff\xfe\n")
        code, out, err = run(capsys, "cnd", "--sample", str(sample))
        assert (code, out) == (2, "")
        assert err == "error: line 2: expected '{', found '\\udcff' at position 0\n"
        sample.write_bytes(b"{}|1\n# \xff only in a comment\n{}|a\n")
        assert run(capsys, "cnd", "--sample", str(sample))[0] == 0

    def test_overlong_numbers_keep_the_error_rules(self, capsys, tmp_path):
        # 5,000 digits is past int()'s default string-conversion limit of 4,300.
        nines = "9" * 5000
        code, out, err = run(capsys, "mul", f"{{a:{nines}}}|1", "{}|1")
        assert (code, out, err) == (2, "", f"error: lamp id {nines} outside 1..1 at position 3\n")
        code, out, err = run(capsys, "mul", f"{{a:{'0' * 5000}}}|1", "{}|1")
        assert (code, out) == (2, "")
        assert err == "error: lamp id 0 is the identity and may not appear at position 3\n"
        sample = tmp_path / "sample.txt"
        sample.write_text(f"{{}}|1\n{{a:{nines}}}|1\n")
        code, out, err = run(capsys, "cnd", "--sample", str(sample))
        assert (code, out) == (2, "")
        assert err == f"error: line 2: lamp id {nines} outside 1..1 at position 3\n"
        table = tmp_path / "table.txt"
        table.write_text(f"order {nines}\n")
        code, out, err = run(capsys, "--lamp-table", str(table), "mul", "{}|1", "{}|1")
        assert (code, out) == (2, "")
        assert err == (
            f"error: lamp table check of order {nines} would enumerate more than 1000000"
            " elements, above the cap of 1000000\n"
        )

    def test_leading_zeros_past_the_digit_limit_are_dropped(self, capsys, tmp_path):
        # 5,000 digits with one significant: read as 2 and 1, as a plain Z/2 would be.
        argv = ["mul", "{a:1}|b", "{B:1}|ab"]
        expected = run(capsys, "--lamp-order", "2", *argv)
        assert expected == (0, "{1:1,a:1}|bab\n", "")
        assert run(capsys, "--lamp-order", "0" * 4999 + "2", *argv) == expected
        table = tmp_path / "table.txt"
        table.write_text(f"order 2\n0 {'0' * 4999}1\n1 0\n")
        assert run(capsys, "--lamp-table", str(table), *argv) == expected
        # More than 4,300 significant digits are still refused by int()'s limit.
        table.write_text(f"order 2\n0 {'9' * 5000}\n1 0\n")
        code, out, err = run(capsys, "--lamp-table", str(table), *argv)
        assert (code, out, err) == (2, "", "error: line 2: table entries must be integers\n")
        with pytest.raises(SystemExit) as info:
            main(["--lamp-order", "9" * 5000, *argv])
        assert info.value.code == 2
        assert "argument --lamp-order: invalid int value" in capsys.readouterr().err

    def test_bad_lamp_order_exits_two(self, capsys):
        code, _, err = run(capsys, "--lamp-order", "1", "dist", "{}|1", "{}|1")
        assert code == 2

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_repeat_runs_are_byte_identical(self, capsys):
        outputs = set()
        for _ in range(2):
            code, out, _ = run(capsys, "walls", "{b:1}|a", "{a:1}|B")
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1
        outputs = set()
        for _ in range(2):
            code, out, _ = run(capsys, "--format", "json", "growth", "--radius", "2")
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_output_does_not_depend_on_the_hash_seed(self, tmp_path):
        # Words are keyed by their letter strings, whose hashes change with each
        # process's seed: no set or dict order may reach stdout or an export.
        sample = tmp_path / "sample.txt"
        lines = ["{}|1", "{a:1,bA:1}|ab", "{B:1}|aB", "{ab:1,Ba:1}|b", "{1:1,aa:1}|BA", "{abA:1}|bb"]
        sample.write_text("".join(f"{line}\n" for line in lines))
        out = tmp_path / "exports"
        commands = [
            ["walls", "{ab:1,Ba:1}|aB", "{a:1,bA:1}|bbA"],
            ["--format", "json", "proper", "--max-wall", "4"],
            ["cnd", "--sample", str(sample)],
            ["embed", "--sample", str(sample), "--out", str(out)],
        ]
        runs = []
        for seed in ("0", "1"):
            env = {**child_env(), "PYTHONHASHSEED": seed}
            stdouts = []
            for argv in commands:
                result = subprocess.run(
                    [sys.executable, "-m", "wreathwalls", *argv],
                    capture_output=True,
                    env=env,
                    timeout=60,
                )
                assert (result.returncode, result.stderr) == (0, b"")
                stdouts.append(result.stdout)
            exports = {path.name: path.read_bytes() for path in out.iterdir()}
            runs.append((stdouts, exports))
        assert len(runs[0][1]) == 4
        assert runs[0] == runs[1]


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        result = subprocess.run(
            [sys.executable, "-m", "wreathwalls", "dist", "{}|1", "{}|ab"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0
        assert result.stdout == "4\n"

    def test_closed_stdout_exits_quietly(self):
        # About 216 KB of listing: more than the pipe holds, so writes go on after the close.
        child = subprocess.Popen(
            [sys.executable, "-m", "wreathwalls", "--rank", "3", "proper", "--max-wall", "6"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        assert child.stdout.readline().startswith(b"box radius 7")
        child.stdout.close()
        stderr = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 0
        assert stderr == b""


# The package modules the probe reports, and those each command loads besides cli and groups.
PACKAGE_MODULES = ("columns", "embedding", "grammar", "walls", "wreath_walls")
COMMAND_MODULES = {
    "mul": {"grammar"},
    "inv": {"grammar"},
    "dist": {"grammar", "walls", "wreath_walls"},
    "walls": {"columns", "grammar", "walls", "wreath_walls"},
    "proper": {"walls", "wreath_walls"},
    "growth": {"embedding", "walls", "wreath_walls"},
    "cnd": {"columns", "grammar"},
    "embed": {"columns", "grammar", "walls", "wreath_walls"},
}

# Runs main(argv) in a fresh interpreter, then reports its exit code and whether numpy,
# dataclasses, json and each of the PACKAGE_MODULES are loaded.
IMPORT_PROBE = f"""
import sys
from wreathwalls.cli import main
code = main(sys.argv[1:])
loaded = ("numpy", "dataclasses", "json", *("wreathwalls." + m for m in {PACKAGE_MODULES}))
print(code, *(name in sys.modules for name in loaded), file=sys.stderr)
"""


def probe_imports(*argv):
    """The probe's last stderr line for ``argv``: exit code, then each module's loaded flag."""
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    return result.stderr.splitlines()[-1]


NUMPY_FREE = [
    ["mul", "{a:1}|a", "{}|b"],
    ["inv", "{a:1}|a"],
    ["dist", "{}|1", "{a:1}|ab"],
    ["dist", "--oracle", "{}|1", "{a:1}|ab"],
    ["walls", "{}|1", "{a:1}|ab"],
    ["--rank", "1", "proper", "--max-wall", "1"],
    ["growth", "--radius", "3"],
    ["cnd", "--sample", "SAMPLE"],
    ["embed", "--sample", "SAMPLE", "--out", "OUT"],
]


def with_sample(argv, tmp_path):
    """``argv`` with ``SAMPLE`` replaced by a three-element sample file written in ``tmp_path``
    and ``OUT`` by a directory there."""
    sample = tmp_path / "sample.txt"
    sample.write_text("{}|1\n{}|a\n{a:1}|ab\n")
    paths = {"SAMPLE": str(sample), "OUT": str(tmp_path / "out")}
    return [paths.get(a, a) for a in argv]


def expected_probe(argv, json=False, modules=frozenset()):
    """The probe's line for a numpy-free command that exits 0: its command's modules loaded,
    plus ``modules``; json only when asked for."""
    command = next(a for a in argv if a in COMMAND_MODULES)
    # dist --oracle lists the separating walls, as walls does.
    loaded = modules | COMMAND_MODULES["walls" if "--oracle" in argv else command]
    flags = [False, False, json, *(m in loaded for m in PACKAGE_MODULES)]
    return " ".join(map(str, [0, *flags]))


class TestNumpyLoading:
    @pytest.mark.parametrize("argv", NUMPY_FREE, ids=" ".join)
    def test_numpy_free_commands_never_import_numpy(self, argv, tmp_path):
        # Nor dataclasses, nor json in text format, nor a package module the command never runs.
        argv = with_sample(argv, tmp_path)
        assert probe_imports(*argv) == expected_probe(argv)

    @pytest.mark.parametrize("argv", NUMPY_FREE, ids=" ".join)
    def test_json_format_imports_json_but_not_numpy_or_dataclasses(self, argv, tmp_path):
        argv = with_sample(argv, tmp_path)
        assert probe_imports("--format", "json", *argv) == expected_probe(argv, json=True)

    def test_lamp_table_growth_also_loads_the_grammar(self, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text(format_lamp_table(s3()))
        argv = ["--lamp-table", str(table), "growth", "--radius", "3"]
        assert probe_imports(*argv) == expected_probe(argv, modules={"grammar"})


class TestPackageImport:
    def run_child(self, code):
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert (result.returncode, result.stderr) == (0, "")
        return result.stdout

    def test_importing_the_package_loads_no_submodule(self):
        code = "import sys, wreathwalls\nprint(sorted(m for m in sys.modules if 'walls' in m))"
        assert self.run_child(code) == "['wreathwalls']\n"

    def test_star_import_binds_every_exported_name(self):
        # dir() before any name is resolved; the star import resolves each through its module.
        code = """
import wreathwalls
listed = dir(wreathwalls)
namespace = {}
exec("from wreathwalls import *", namespace)
for name in wreathwalls.__all__:
    assert name in listed and name in namespace, name
    assert getattr(wreathwalls, name) is namespace[name], name
print(len(wreathwalls.__all__))
"""
        assert self.run_child(code) == "32\n"

    def test_unknown_attribute_raises(self):
        import wreathwalls

        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            wreathwalls.nonexistent


# Registers an atexit handler that writes a last stdout line, then runs the package as
# ``__main__``, after breaking the oracle when the first argument says so.
MAIN_PROBE = """
import atexit, runpy, sys
atexit.register(print, "atexit handler ran")
if sys.argv.pop(1) == "break-oracle":
    from wreathwalls.wreath_walls import WreathWallSpace
    WreathWallSpace.brute_force_separating = lambda *args: ()
runpy.run_module("wreathwalls", run_name="__main__", alter_sys=True)
"""


# Runs the package as ``__main__`` with an atexit handler that prints on stderr whether the
# cyclic collector is on and the heap frozen, then unfreezes it and prints how many
# unreachable objects a collection finds.
GARBAGE_PROBE = """
import atexit, gc, runpy, sys

def report():
    frozen = gc.get_freeze_count() > 0
    gc.unfreeze()
    print(gc.isenabled(), frozen, gc.collect(), file=sys.stderr)

atexit.register(report)
runpy.run_module("wreathwalls", run_name="__main__", alter_sys=True)
"""


class TestShutdown:
    def run_main(self, *argv):
        return subprocess.run(
            [sys.executable, "-c", MAIN_PROBE, *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )

    def test_output_is_complete_and_atexit_handlers_run(self, capsys):
        argv = ["--rank", "2", "proper", "--max-wall", "6"]
        _, expected, _ = run(capsys, *argv)
        result = self.run_main("keep", *argv)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == expected + "atexit handler ran\n"
        assert len(expected.splitlines()) > 1000

    def test_failed_check_exits_one(self):
        result = self.run_main("break-oracle", "dist", "--oracle", "{}|1", "{}|a")
        assert result.returncode == 1
        assert result.stdout == "2\natexit handler ran\n"
        assert "oracle mismatch" in result.stderr

    def test_collector_is_off_the_heap_frozen_and_cyclic_garbage_constant(self):
        # 278 elements against 30,864: the cycles left are the argument parser's, so a
        # process without the collector holds no more memory for more work.
        results = [
            subprocess.run(
                [sys.executable, "-c", GARBAGE_PROBE, "proper", *argv],
                capture_output=True,
                text=True,
                timeout=60,
                env=child_env(),
            )
            for argv in (["--max-wall", "4"], ["--max-wall", "8", "--radius", "8"])
        ]
        assert [result.returncode for result in results] == [0, 0]
        assert results[0].stderr.startswith("False True ")
        assert results[0].stderr == results[1].stderr

    @pytest.mark.parametrize(
        "argv, code, out",
        [(["dist", "{}|1", "{}|ab"], 0, "4\n"), (["dist", "{}|1", "{}|z"], 2, "")],
        ids=["success", "input-error"],
    )
    def test_exit_code_passes_through_python_dash_m(self, argv, code, out):
        result = subprocess.run(
            [sys.executable, "-m", "wreathwalls", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert (result.returncode, result.stdout) == (code, out)
        assert result.stderr.startswith("error: ") == (code == 2)
