"""Command-line front end.

Every command works over one session: the free-group rank, the lamp group
(cyclic order or explicit table file) and an enumeration cap. Only a command
that parses imports ``grammar``. ``cnd`` counts wall columns by ``columns``; only the
other wall commands import ``wreath_walls``. It reads the output format from its arguments.
Results go to stdout, errors to stderr. Exit codes: 0 success, 1 a checked
property failed (oracle mismatch, properness violation, isometry self-check),
2 usage or input errors. A reader that closes stdout early ends the output
quietly, with 0. Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from .groups import (
    DEFAULT_CAP,
    LampGroup,
    WreathElement,
    check_rank,
    check_table_order,
    parse_int,
)

if TYPE_CHECKING:
    from .wreath_walls import WreathHalfSpace, WreathWallSpace

# What a command returns: exit code, the ``--format json`` payload, and the text lines.
Result = tuple[int, object, Iterable[str]]


def _number(text: str) -> int:
    """A numeric flag value: an int by :func:`groups.parse_int`."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathwalls",
        description=(
            "Walls on the wreath product of a finite lamp group with a free group: "
            "arithmetic, separating-wall enumeration, properness reports, and "
            "Hilbert-embedding certification."
        ),
    )
    parser.add_argument("--rank", type=_number, default=2, help="free-group rank (default 2)")
    lamp = parser.add_mutually_exclusive_group()
    lamp.add_argument("--lamp-order", type=_number, help="cyclic lamp group order (default 2)")
    lamp.add_argument("--lamp-table", type=Path, help="lamp group multiplication table file")
    parser.add_argument(
        "--cap", type=_number, default=DEFAULT_CAP, help="enumeration cardinality cap"
    )
    parser.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    mul = sub.add_parser("mul", help="multiply two elements")
    mul.set_defaults(run=_cmd_mul)
    mul.add_argument("left")
    mul.add_argument("right")

    inv = sub.add_parser("inv", help="invert an element")
    inv.set_defaults(run=_cmd_inv)
    inv.add_argument("element")

    dist = sub.add_parser("dist", help="wall distance between two elements")
    dist.set_defaults(run=_cmd_dist)
    dist.add_argument("first")
    dist.add_argument("second")
    dist.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the brute-force enumeration; exit 1 on mismatch",
    )

    walls = sub.add_parser("walls", help="list the walls separating two elements")
    walls.set_defaults(run=_cmd_walls)
    walls.add_argument("first")
    walls.add_argument("second")

    proper = sub.add_parser("proper", help="exhaustive sub-level properness report")
    proper.set_defaults(run=_cmd_proper)
    proper.add_argument("--max-wall", type=_number, required=True)
    proper.add_argument("--radius", type=_number, help="enumeration radius (default max-wall + 1)")

    growth = sub.add_parser("growth", help="wall distance along word-metric spheres")
    growth.set_defaults(run=_cmd_growth)
    growth.add_argument("--radius", type=_number, required=True)

    cnd = sub.add_parser("cnd", help="CND check of a sample's wall distance matrix")
    cnd.set_defaults(run=_cmd_cnd)
    cnd.add_argument("--sample", type=Path, required=True)

    embed = sub.add_parser("embed", help="export wall coordinates and distances as CSV")
    embed.set_defaults(run=_cmd_embed)
    embed.add_argument("--sample", type=Path, required=True)
    embed.add_argument("--out", type=Path, required=True)

    return parser


def _session(args: argparse.Namespace) -> LampGroup:
    """The session's lamp group, once every session argument has been checked."""
    if args.cap < 1:
        raise ValueError(f"cap must be >= 1, got {args.cap}")
    if args.lamp_table is not None:
        from .grammar import load_lamp_table
        lamps = load_lamp_table(args.lamp_table, args.cap)
    else:
        order = args.lamp_order if args.lamp_order is not None else 2
        check_table_order(order, args.cap)
        lamps = LampGroup.cyclic(order)
    if args.fmt == "csv" and args.command != "growth":
        raise ValueError("csv output is not available for this command")
    check_rank(args.rank)
    return lamps


def _space(lamps: LampGroup, args: argparse.Namespace) -> WreathWallSpace:
    from .wreath_walls import WreathWallSpace
    return WreathWallSpace(lamps, rank=args.rank, cap=args.cap)


def _parse(lamps: LampGroup, rank: int, *texts: str) -> list[WreathElement]:
    from .grammar import parse_element
    return [parse_element(text, lamps, rank) for text in texts]


def _half_space_dict(half: WreathHalfSpace) -> dict:
    return {
        "base": {"side": half.base.side, "deep": str(half.base.deep)},
        "decoration": {str(p): v for p, v in half.decoration.entries},
    }


def _cmd_mul(lamps: LampGroup, args: argparse.Namespace) -> Result:
    left, right = _parse(lamps, args.rank, args.left, args.right)
    product = str(left * right)
    return 0, {"element": product}, [product]


def _cmd_inv(lamps: LampGroup, args: argparse.Namespace) -> Result:
    (element,) = _parse(lamps, args.rank, args.element)
    inverse = str(element.inverse())
    return 0, {"element": inverse}, [inverse]


def _cmd_dist(lamps: LampGroup, args: argparse.Namespace) -> Result:
    space = _space(lamps, args)
    first, second = _parse(lamps, args.rank, args.first, args.second)
    if not args.oracle:
        distance = space.wall_distance(first, second)
        return 0, {"distance": distance}, [str(distance)]
    fast = {wall for wall, _ in space.separating_walls(first, second)}
    brute = set(space.brute_force_separating(first, second, space.oracle_radius(first, second)))
    if brute != fast:
        message = "oracle mismatch: brute-force walls differ from the fast enumeration"
        print(message, file=sys.stderr)
        for label, only in (("brute force", brute - fast), ("fast enumeration", fast - brute)):
            for wall in sorted(only, key=lambda half: half.sort_key()):
                print(f"  only in {label}: {wall}", file=sys.stderr)
    payload = {"distance": len(fast), "oracle_ok": brute == fast}
    return (0 if brute == fast else 1), payload, [str(len(fast))]


def _cmd_walls(lamps: LampGroup, args: argparse.Namespace) -> Result:
    space = _space(lamps, args)
    first, second = _parse(lamps, args.rank, args.first, args.second)
    walls = space.separating_walls(first, second)
    forward = [wall for wall, rows in walls if rows == [0]]
    reverse = [wall for wall, rows in walls if rows == [1]]
    distance = len(forward) + len(reverse)
    payload = {
        "forward": [_half_space_dict(w) for w in forward],
        "reverse": [_half_space_dict(w) for w in reverse],
        "distance": distance,
    }
    lines = [*(f"1->2 {w}" for w in forward), *(f"2->1 {w}" for w in reverse)]
    return 0, payload, [*lines, f"total {distance}"]


def _cmd_proper(lamps: LampGroup, args: argparse.Namespace) -> Result:
    space = _space(lamps, args)
    radius = args.radius if args.radius is not None else args.max_wall + 1
    report = space.sublevel_report(args.max_wall, radius)
    sublevel = [str(e) for e in report.sublevel]
    violations = [str(e) for e in report.violations]
    payload = report._asdict()
    payload.update(sublevel=sublevel, violations=violations, sublevel_count=len(sublevel))

    def lines() -> Iterator[str]:
        above = f"more than {space.cap}"
        if report.box_size is None:
            yield f"box radius {report.radius}: {above} elements, not enumerated"
        else:
            yield f"box radius {report.radius}: {report.box_size} elements enumerated"
        bound = above if report.cardinality_bound is None else report.cardinality_bound
        yield f"wall distance <= {report.max_wall}: {len(sublevel)} elements (bound {bound})"
        yield from (f"  {element}" for element in sublevel)
        yield f"contained in radius-{report.max_wall} box: {'yes' if report.contained else 'NO'}"
        yield from (f"  violation: {element}" for element in violations)

    return (0 if report.contained else 1), payload, lines()


def _cmd_growth(lamps: LampGroup, args: argparse.Namespace) -> Result:
    from .embedding import growth_table

    rows = growth_table(_space(lamps, args), args.radius)
    if args.fmt == "csv":
        lines = ["radius,sphere_size,min_wall,max_wall"]
        lines += (f"{r.radius},{r.sphere_size},{r.min_wall},{r.max_wall}" for r in rows)
    else:
        lines = ["radius sphere_size min_wall max_wall"]
        lines += (
            f"{r.radius:6d} {r.sphere_size:11d} {r.min_wall:8d} {r.max_wall:8d}" for r in rows
        )
    return 0, [row._asdict() for row in rows], lines


def _cmd_cnd(lamps: LampGroup, args: argparse.Namespace) -> Result:
    from .columns import wall_columns
    from .grammar import load_sample_file

    elements = load_sample_file(args.sample, lamps, args.rank)
    # The wall distance is the Hamming distance of these 0/1 wall columns, so it is CND
    # with least centred eigenvalue exactly 0; the tests hold the columns to their oracles.
    wall_count = len(wall_columns(elements, lamps, args.rank, args.cap))
    n = len(elements)
    payload = {"pass": True, "min_eigenvalue": 0.0, "dimension": n, "wall_count": wall_count}
    return 0, payload, [f"pass min_eigenvalue=0.000e+00 dimension={n} wall_count={wall_count}"]


def _write_lines(path: Path, lines: Iterable) -> None:
    path.write_text("".join(f"{line}\n" for line in lines))


def _cmd_embed(lamps: LampGroup, args: argparse.Namespace) -> Result:
    from .columns import coordinates_csv, hamming_rows, row_fields, wall_columns
    from .grammar import load_sample_file

    space = _space(lamps, args)
    elements = load_sample_file(args.sample, lamps, args.rank)
    n = len(elements)
    keyed = wall_columns(elements, lamps, args.rank, args.cap)
    distances = hamming_rows(keyed, n)
    walls = space.separating_walls(*elements)
    columns = [rows for _, rows in walls]
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    _write_lines(out / "elements.txt", elements)
    _write_lines(out / "walls.txt", (wall for wall, _ in walls))
    numerals = [str(d) for d in range(len(keyed) + 1)]  # a Hamming distance counts columns
    csv_rows = (",".join([numerals[d] for d in row_fields(r, n)]) for r in distances)
    _write_lines(out / "distances.csv", csv_rows)
    (out / "coordinates.csv").write_bytes(coordinates_csv(columns, n))
    # Hamming distances are a pseudometric: equality validates the distances (else exit 1).
    ok = hamming_rows(columns, n) == distances
    payload = {"dimension": n, "wall_count": len(walls), "isometry_ok": ok, "out": str(out)}
    line = (
        f"wrote {n} elements x {len(walls)} walls to {out};"
        f" isometry self-check {'ok' if ok else 'FAILED'}"
    )
    return (0 if ok else 1), payload, [line]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, lines = args.run(_session(args), args)
        if args.fmt == "json":
            import json
            print(json.dumps(payload, sort_keys=True))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (say ``| head -1``): not an error. The null
        # device takes whatever is still buffered at the interpreter's exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:  # ParseError and CapExceededError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
