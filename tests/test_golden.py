"""Golden stdout: the exact bytes of text and JSON command output.

Every case runs ``main`` in process and compares stdout byte for byte, with
the exit code. The expectations are the output of the code before the
wall-structure layer was folded into the tree walls; they hold every later
refactoring to the same bytes. The ``mul``, ``inv``, csv ``growth`` and capped
``proper`` cases were captured before the commands shared one output path.
The ``embed`` case also pins its four export files, captured before the
sample's wall union was taken from one element's base walls.
"""

from __future__ import annotations

import json

import pytest

from wreathwalls.cli import main

# The centred kernel of any sample has the eigenvalue 0 (on the constant
# vector). cnd certifies this sample exactly and prints that 0 as 0.0.
SAMPLE = (
    "{1:1,A:1}|Ab\n"
    "{a:2,aB:1}|aB\n"
    "{a:1,b:2}|1\n"
    "{A:1}|ba\n"
    "{}|ab\n"
    "{B:2}|A\n"
)

CASES = {
    "mul": (
        ["mul", "{a:1}|b", "{B:1}|ab"],
        0,
        "{1:1,a:1}|bab\n",
    ),
    "mul_json": (
        ["--format", "json", "mul", "{a:1}|b", "{B:1}|ab"],
        0,
        '{"element": "{1:1,a:1}|bab"}\n',
    ),
    "inv": (
        ["inv", "{a:1,bA:1}|ba"],
        0,
        "{AA:1,ABa:1}|AB\n",
    ),
    "inv_json": (
        ["--format", "json", "inv", "{a:1,bA:1}|ba"],
        0,
        '{"element": "{AA:1,ABa:1}|AB"}\n',
    ),
    "walls": (
        ["walls", "{a:1}|b", "{B:1}|ab"],
        0,
        (
            "1->2 E(COCONE(a), {a:1})\n"
            "1->2 E(CONE(b), {a:1})\n"
            "1->2 E(COCONE(B), {})\n"
            "1->2 E(COCONE(ab), {})\n"
            "2->1 E(CONE(a), {B:1})\n"
            "2->1 E(COCONE(b), {})\n"
            "2->1 E(COCONE(B), {B:1})\n"
            "2->1 E(CONE(ab), {B:1})\n"
            "total 8\n"
        ),
    ),
    "walls_json": (
        ["--format", "json", "walls", "{a:1}|b", "{B:1}|ab"],
        0,
        (
            '{"distance": 8, "forward": [{"base": {"deep": "a", "side": "COCONE"}, '
            '"decoration": {"a": 1}}, {"base": {"deep": "b", "side": "CONE"}, '
            '"decoration": {"a": 1}}, {"base": {"deep": "B", "side": "COCONE"}, '
            '"decoration": {}}, {"base": {"deep": "ab", "side": "COCONE"}, '
            '"decoration": {}}], "reverse": [{"base": {"deep": "a", "side": "CONE"}, '
            '"decoration": {"B": 1}}, {"base": {"deep": "b", "side": "COCONE"}, '
            '"decoration": {}}, {"base": {"deep": "B", "side": "COCONE"}, '
            '"decoration": {"B": 1}}, {"base": {"deep": "ab", "side": "CONE"}, '
            '"decoration": {"B": 1}}]}\n'
        ),
    ),
    "walls_z3": (
        ["--lamp-order", "3", "walls", "{a:2}|1", "{b:1}|A"],
        0,
        (
            "1->2 E(COCONE(a), {a:2})\n"
            "1->2 E(COCONE(A), {})\n"
            "1->2 E(COCONE(b), {})\n"
            "2->1 E(COCONE(a), {})\n"
            "2->1 E(CONE(A), {b:1})\n"
            "2->1 E(COCONE(b), {b:1})\n"
            "total 6\n"
        ),
    ),
    "dist": (
        ["dist", "{a:1}|b", "{B:1}|ab"],
        0,
        "8\n",
    ),
    "dist_oracle": (
        ["dist", "--oracle", "{1:1,ab:1}|a", "{B:1}|b"],
        0,
        "8\n",
    ),
    "dist_oracle_json": (
        ["--format", "json", "dist", "--oracle", "{a:1}|b", "{B:1}|ab"],
        0,
        '{"distance": 8, "oracle_ok": true}\n',
    ),
    "proper": (
        ["--rank", "1", "proper", "--max-wall", "2"],
        0,
        (
            "box radius 3: 896 elements enumerated\n"
            "wall distance <= 2: 14 elements (bound 160)\n"
            "  {}|1\n"
            "  {1:1}|1\n"
            "  {1:1,a:1}|1\n"
            "  {1:1,A:1}|1\n"
            "  {a:1}|1\n"
            "  {A:1}|1\n"
            "  {}|a\n"
            "  {1:1}|a\n"
            "  {1:1,a:1}|a\n"
            "  {a:1}|a\n"
            "  {}|A\n"
            "  {1:1}|A\n"
            "  {1:1,A:1}|A\n"
            "  {A:1}|A\n"
            "contained in radius-2 box: yes\n"
        ),
    ),
    "proper_json": (
        ["--rank", "1", "--format", "json", "proper", "--max-wall", "2", "--radius", "3"],
        0,
        (
            '{"base_ball_size": 5, "box_size": 896, "cardinality_bound": 160, '
            '"contained": true, "lamp_order": 2, "max_wall": 2, "radius": 3, '
            '"rank": 1, "sublevel": ["{}|1", "{1:1}|1", "{1:1,a:1}|1", '
            '"{1:1,A:1}|1", "{a:1}|1", "{A:1}|1", "{}|a", "{1:1}|a", "{1:1,a:1}|a", '
            '"{a:1}|a", "{}|A", "{1:1}|A", "{1:1,A:1}|A", "{A:1}|A"], '
            '"sublevel_count": 14, "violations": []}\n'
        ),
    ),
    # The rank-2 sub-level list equals that of the box sweep, which needs
    # --cap 3000000 --radius 2 (2,228,224 box elements) to run.
    "proper_rank2": (
        ["proper", "--max-wall", "2"],
        0,
        (
            "box radius 3: more than 1000000 elements, not enumerated\n"
            "wall distance <= 2: 26 elements (bound more than 1000000)\n"
            "  {}|1\n"
            "  {1:1}|1\n"
            "  {1:1,a:1}|1\n"
            "  {1:1,A:1}|1\n"
            "  {1:1,b:1}|1\n"
            "  {1:1,B:1}|1\n"
            "  {a:1}|1\n"
            "  {A:1}|1\n"
            "  {b:1}|1\n"
            "  {B:1}|1\n"
            "  {}|a\n"
            "  {1:1}|a\n"
            "  {1:1,a:1}|a\n"
            "  {a:1}|a\n"
            "  {}|A\n"
            "  {1:1}|A\n"
            "  {1:1,A:1}|A\n"
            "  {A:1}|A\n"
            "  {}|b\n"
            "  {1:1}|b\n"
            "  {1:1,b:1}|b\n"
            "  {b:1}|b\n"
            "  {}|B\n"
            "  {1:1}|B\n"
            "  {1:1,B:1}|B\n"
            "  {B:1}|B\n"
            "contained in radius-2 box: yes\n"
        ),
    ),
    "proper_rank2_json": (
        ["--format", "json", "proper", "--max-wall", "2"],
        0,
        (
            '{"base_ball_size": 17, "box_size": null, "cardinality_bound": null, '
            '"contained": true, "lamp_order": 2, "max_wall": 2, "radius": 3, "rank": 2, '
            '"sublevel": ["{}|1", "{1:1}|1", "{1:1,a:1}|1", "{1:1,A:1}|1", '
            '"{1:1,b:1}|1", "{1:1,B:1}|1", "{a:1}|1", "{A:1}|1", "{b:1}|1", "{B:1}|1", '
            '"{}|a", "{1:1}|a", "{1:1,a:1}|a", "{a:1}|a", "{}|A", "{1:1}|A", '
            '"{1:1,A:1}|A", "{A:1}|A", "{}|b", "{1:1}|b", "{1:1,b:1}|b", "{b:1}|b", '
            '"{}|B", "{1:1}|B", "{1:1,B:1}|B", "{B:1}|B"], "sublevel_count": 26, '
            '"violations": []}\n'
        ),
    ),
    # Both box sizes are above the cap, so JSON shows them as null.
    "proper_capped_json": (
        ["--cap", "100", "--format", "json", "proper", "--max-wall", "2"],
        0,
        (
            '{"base_ball_size": 17, "box_size": null, "cardinality_bound": null, '
            '"contained": true, "lamp_order": 2, "max_wall": 2, "radius": 3, "rank": 2, '
            '"sublevel": ["{}|1", "{1:1}|1", "{1:1,a:1}|1", "{1:1,A:1}|1", '
            '"{1:1,b:1}|1", "{1:1,B:1}|1", "{a:1}|1", "{A:1}|1", "{b:1}|1", "{B:1}|1", '
            '"{}|a", "{1:1}|a", "{1:1,a:1}|a", "{a:1}|a", "{}|A", "{1:1}|A", '
            '"{1:1,A:1}|A", "{A:1}|A", "{}|b", "{1:1}|b", "{1:1,b:1}|b", "{b:1}|b", '
            '"{}|B", "{1:1}|B", "{1:1,B:1}|B", "{B:1}|B"], "sublevel_count": 26, '
            '"violations": []}\n'
        ),
    ),
    "growth": (
        ["growth", "--radius", "3"],
        0,
        (
            "radius sphere_size min_wall max_wall\n"
            "     0           1        0        0\n"
            "     1           5        0        2\n"
            "     2          20        2        4\n"
            "     3          80        2        6\n"
        ),
    ),
    "growth_csv": (
        ["--format", "csv", "growth", "--radius", "3"],
        0,
        "radius,sphere_size,min_wall,max_wall\n0,1,0,0\n1,5,0,2\n2,20,2,4\n3,80,2,6\n",
    ),
    "growth_json": (
        ["--format", "json", "growth", "--radius", "3"],
        0,
        (
            '[{"max_wall": 0, "min_wall": 0, "radius": 0, "sphere_size": 1}, '
            '{"max_wall": 2, "min_wall": 0, "radius": 1, "sphere_size": 5}, '
            '{"max_wall": 4, "min_wall": 2, "radius": 2, "sphere_size": 20}, '
            '{"max_wall": 6, "min_wall": 2, "radius": 3, "sphere_size": 80}]\n'
        ),
    ),
    "cnd": (
        ["--lamp-order", "3", "cnd", "--sample", "SAMPLE"],
        0,
        "pass min_eigenvalue=0.000e+00 dimension=6 wall_count=20\n",
    ),
    "cnd_json": (
        ["--lamp-order", "3", "--format", "json", "cnd", "--sample", "SAMPLE"],
        0,
        (
            '{"dimension": 6, "min_eigenvalue": 0.0, "pass": true, "wall_count": 20}\n'
        ),
    ),
}


EMBED_FILES = {
    "elements.txt": SAMPLE,
    "walls.txt": (
        "E(CONE(a), {})\n"
        "E(COCONE(a), {})\n"
        "E(COCONE(a), {a:1})\n"
        "E(CONE(A), {1:1})\n"
        "E(CONE(A), {B:2})\n"
        "E(COCONE(A), {})\n"
        "E(COCONE(A), {A:1})\n"
        "E(CONE(b), {A:1})\n"
        "E(COCONE(b), {})\n"
        "E(COCONE(b), {b:2})\n"
        "E(COCONE(B), {})\n"
        "E(COCONE(B), {B:2})\n"
        "E(CONE(ab), {})\n"
        "E(COCONE(ab), {})\n"
        "E(CONE(aB), {a:2})\n"
        "E(COCONE(aB), {})\n"
        "E(CONE(Ab), {1:1,A:1})\n"
        "E(COCONE(Ab), {})\n"
        "E(CONE(ba), {A:1})\n"
        "E(COCONE(ba), {})\n"
    ),
    "distances.csv": (
        "0,8,8,8,8,6\n"
        "8,0,6,10,4,8\n"
        "8,6,0,8,6,8\n"
        "8,10,8,0,10,8\n"
        "8,4,6,10,0,8\n"
        "6,8,8,8,8,0\n"
    ),
    "coordinates.csv": (
        "0,1,0,1,0,0,0,0,1,0,1,0,0,1,0,1,1,0,0,1\n"
        "1,0,0,0,0,1,0,0,1,0,1,0,0,1,1,0,0,1,0,1\n"
        "0,0,1,0,0,1,0,0,0,1,1,0,0,1,0,1,0,1,0,1\n"
        "0,1,0,0,0,0,1,1,0,0,1,0,0,1,0,1,0,1,1,0\n"
        "1,0,0,0,0,1,0,0,1,0,1,0,1,0,0,1,0,1,0,1\n"
        "0,1,0,0,1,0,0,0,1,0,0,1,0,1,0,1,0,1,0,1\n"
    ),
}

# ``OUT`` stands for the export directory, which appears in stdout.
EMBED_CASES = {
    "text": "wrote 6 elements x 20 walls to OUT; isometry self-check ok\n",
    "json": '{"dimension": 6, "isometry_ok": true, "out": OUT, "wall_count": 20}\n',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_is_byte_identical(name, capsys, tmp_path):
    argv, expected_code, expected_out = CASES[name]
    sample = tmp_path / "sample.txt"
    sample.write_text(SAMPLE)
    code = main([str(sample) if arg == "SAMPLE" else arg for arg in argv])
    assert (code, capsys.readouterr().out) == (expected_code, expected_out)


@pytest.mark.parametrize("fmt", sorted(EMBED_CASES))
def test_embed_stdout_and_exports_are_byte_identical(fmt, capsys, tmp_path):
    sample = tmp_path / "sample.txt"
    sample.write_text(SAMPLE)
    out = tmp_path / "exports"
    argv = ["--lamp-order", "3", "--format", fmt, "embed", "--sample", str(sample)]
    code = main([*argv, "--out", str(out)])
    shown = json.dumps(str(out)) if fmt == "json" else str(out)
    assert (code, capsys.readouterr().out) == (0, EMBED_CASES[fmt].replace("OUT", shown))
    assert {name: (out / name).read_text() for name in EMBED_FILES} == EMBED_FILES


# The smallest shapes of the export writers: one element (no walls, so every
# coordinates row is empty) and two. Captured before coordinates.csv was
# written from one byte buffer.
SMALL_EMBEDS = {
    "one": (
        "{}|ab\n",
        {
            "elements.txt": "{}|ab\n",
            "walls.txt": "",
            "distances.csv": "0\n",
            "coordinates.csv": "\n",
        },
        {
            "text": "wrote 1 elements x 0 walls to OUT; isometry self-check ok\n",
            "json": '{"dimension": 1, "isometry_ok": true, "out": OUT, "wall_count": 0}\n',
        },
    ),
    "two": (
        "{a:1}|b\n{}|1\n",
        {
            "elements.txt": "{a:1}|b\n{}|1\n",
            "walls.txt": (
                "E(COCONE(a), {})\n"
                "E(COCONE(a), {a:1})\n"
                "E(CONE(b), {a:1})\n"
                "E(COCONE(b), {})\n"
            ),
            "distances.csv": "0,4\n4,0\n",
            "coordinates.csv": "0,1,1,0\n1,0,0,1\n",
        },
        {
            "text": "wrote 2 elements x 4 walls to OUT; isometry self-check ok\n",
            "json": '{"dimension": 2, "isometry_ok": true, "out": OUT, "wall_count": 4}\n',
        },
    ),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", sorted(SMALL_EMBEDS))
def test_small_embed_stdout_and_exports_are_byte_identical(name, fmt, capsys, tmp_path):
    text, files, stdouts = SMALL_EMBEDS[name]
    sample = tmp_path / "sample.txt"
    sample.write_text(text)
    out = tmp_path / "exports"
    code = main(["--format", fmt, "embed", "--sample", str(sample), "--out", str(out)])
    shown = json.dumps(str(out)) if fmt == "json" else str(out)
    assert (code, capsys.readouterr().out) == (0, stdouts[fmt].replace("OUT", shown))
    assert {file: (out / file).read_bytes().decode() for file in files} == files
