"""Command-line front end.

Every command works over one session configuration: the free-group rank, the
lamp group (cyclic order or explicit table file), an enumeration cap, an
output format, and an eigenvalue tolerance. Results go to stdout, errors to
stderr. Exit codes: 0 success, 1 a checked property failed (oracle mismatch,
non-CND kernel, properness violation, isometry self-check), 2 usage or input
errors. A reader that closes stdout early ends the output quietly, with 0.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .embedding import (
    check_tolerance,
    cnd_check,
    distance_matrix,
    growth_table,
    hamming_distances,
    wall_coordinates,
)
from .grammar import ParseError, load_lamp_table, load_sample_file, parse_element
from .groups import DEFAULT_CAP, CapExceededError, LampGroup, check_table_order
from .wreath_walls import SublevelReport, WreathHalfSpace, WreathWallSpace

if TYPE_CHECKING:
    import numpy as np


@dataclass
class SessionConfig:
    rank: int
    lamps: LampGroup
    cap: int
    fmt: str
    tol: float

    def space(self) -> WreathWallSpace:
        return WreathWallSpace(self.lamps, rank=self.rank, cap=self.cap)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathwalls",
        description=(
            "Walls on the wreath product of a finite lamp group with a free group: "
            "arithmetic, separating-wall enumeration, properness reports, and "
            "Hilbert-embedding certification."
        ),
    )
    parser.add_argument("--rank", type=int, default=2, help="free-group rank (default 2)")
    lamp = parser.add_mutually_exclusive_group()
    lamp.add_argument(
        "--lamp-order", type=int, default=None, help="cyclic lamp group order (default 2)"
    )
    lamp.add_argument(
        "--lamp-table", type=Path, default=None, help="lamp group multiplication table file"
    )
    parser.add_argument(
        "--cap", type=int, default=DEFAULT_CAP, help="enumeration cardinality cap"
    )
    parser.add_argument(
        "--format", dest="fmt", choices=("text", "json", "csv"), default="text"
    )
    parser.add_argument(
        "--tol", type=float, default=1e-9, help="eigenvalue tolerance for the CND check"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mul = sub.add_parser("mul", help="multiply two elements")
    mul.add_argument("left")
    mul.add_argument("right")

    inv = sub.add_parser("inv", help="invert an element")
    inv.add_argument("element")

    dist = sub.add_parser("dist", help="wall distance between two elements")
    dist.add_argument("first")
    dist.add_argument("second")
    dist.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the brute-force enumeration; exit 1 on mismatch",
    )

    walls = sub.add_parser("walls", help="list the walls separating two elements")
    walls.add_argument("first")
    walls.add_argument("second")

    proper = sub.add_parser("proper", help="exhaustive sub-level properness report")
    proper.add_argument("--max-wall", type=int, required=True)
    proper.add_argument(
        "--radius", type=int, default=None, help="enumeration radius (default max-wall + 1)"
    )

    growth = sub.add_parser("growth", help="wall distance along word-metric spheres")
    growth.add_argument("--radius", type=int, required=True)

    cnd = sub.add_parser("cnd", help="CND check of a sample's wall distance matrix")
    cnd.add_argument("--sample", type=Path, required=True)

    embed = sub.add_parser("embed", help="export wall coordinates and distances as CSV")
    embed.add_argument("--sample", type=Path, required=True)
    embed.add_argument("--out", type=Path, required=True)

    return parser


def _session(args: argparse.Namespace) -> SessionConfig:
    if args.cap < 1:
        raise ValueError(f"cap must be >= 1, got {args.cap}")
    if args.lamp_table is not None:
        lamps = load_lamp_table(args.lamp_table, args.cap)
    else:
        order = args.lamp_order if args.lamp_order is not None else 2
        check_table_order(order, args.cap)
        lamps = LampGroup.cyclic(order)
    check_tolerance(args.tol)
    return SessionConfig(rank=args.rank, lamps=lamps, cap=args.cap, fmt=args.fmt, tol=args.tol)


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _half_space_dict(half: WreathHalfSpace) -> dict:
    return {
        "base": {"side": half.base.side.value, "deep": str(half.base.wall.deep)},
        "decoration": {str(p): v for p, v in half.decoration.entries},
    }


def _cmd_mul(cfg: SessionConfig, args: argparse.Namespace) -> int:
    left = parse_element(args.left, cfg.lamps, cfg.rank)
    right = parse_element(args.right, cfg.lamps, cfg.rank)
    product = left * right
    if cfg.fmt == "json":
        _emit_json({"element": str(product)})
    else:
        print(product)
    return 0


def _cmd_inv(cfg: SessionConfig, args: argparse.Namespace) -> int:
    element = parse_element(args.element, cfg.lamps, cfg.rank)
    inverse = element.inverse()
    if cfg.fmt == "json":
        _emit_json({"element": str(inverse)})
    else:
        print(inverse)
    return 0


def _cmd_dist(cfg: SessionConfig, args: argparse.Namespace) -> int:
    space = cfg.space()
    first = parse_element(args.first, cfg.lamps, cfg.rank)
    second = parse_element(args.second, cfg.lamps, cfg.rank)
    if args.oracle:
        fast = {wall for wall, _ in space.separating_walls(first, second)}
        brute = set(
            space.brute_force_separating(first, second, space.oracle_radius(first, second))
        )
        payload = {"distance": len(fast), "oracle_ok": brute == fast}
    else:
        payload = {"distance": space.wall_distance(first, second)}
    if cfg.fmt == "json":
        _emit_json(payload)
    else:
        print(payload["distance"])
    if payload.get("oracle_ok", True):
        return 0
    print("oracle mismatch: brute-force walls differ from the fast enumeration", file=sys.stderr)
    for label, only in (("brute force", brute - fast), ("fast enumeration", fast - brute)):
        for wall in sorted(only, key=WreathHalfSpace.sort_key):
            print(f"  only in {label}: {wall}", file=sys.stderr)
    return 1


def _cmd_walls(cfg: SessionConfig, args: argparse.Namespace) -> int:
    space = cfg.space()
    first = parse_element(args.first, cfg.lamps, cfg.rank)
    second = parse_element(args.second, cfg.lamps, cfg.rank)
    walls = space.separating_walls(first, second)
    forward = [wall for wall, rows in walls if rows == [0]]
    reverse = [wall for wall, rows in walls if rows == [1]]
    if cfg.fmt == "json":
        _emit_json(
            {
                "forward": [_half_space_dict(w) for w in forward],
                "reverse": [_half_space_dict(w) for w in reverse],
                "distance": len(forward) + len(reverse),
            }
        )
    else:
        for wall in forward:
            print(f"1->2 {wall}")
        for wall in reverse:
            print(f"2->1 {wall}")
        print(f"total {len(forward) + len(reverse)}")
    return 0


def _report_dict(report: SublevelReport) -> dict:
    return {
        "rank": report.rank,
        "lamp_order": report.lamp_order,
        "max_wall": report.max_wall,
        "radius": report.radius,
        "box_size": report.box_size,
        "sublevel_count": report.sublevel_count,
        "sublevel": [str(e) for e in report.sublevel],
        "base_ball_size": report.base_ball_size,
        "cardinality_bound": report.cardinality_bound,
        "contained": report.contained,
        "violations": [str(e) for e in report.violations],
    }


def _cmd_proper(cfg: SessionConfig, args: argparse.Namespace) -> int:
    radius = args.radius if args.radius is not None else args.max_wall + 1
    report = cfg.space().sublevel_report(args.max_wall, radius)
    if cfg.fmt == "json":
        _emit_json(_report_dict(report))
    else:
        above = f"more than {cfg.cap}"
        if report.box_size is None:
            print(f"box radius {report.radius}: {above} elements, not enumerated")
        else:
            print(f"box radius {report.radius}: {report.box_size} elements enumerated")
        bound = above if report.cardinality_bound is None else report.cardinality_bound
        print(
            f"wall distance <= {report.max_wall}: {report.sublevel_count} elements"
            f" (bound {bound})"
        )
        for element in report.sublevel:
            print(f"  {element}")
        print(f"contained in radius-{report.max_wall} box: {'yes' if report.contained else 'NO'}")
        for element in report.violations:
            print(f"  violation: {element}")
    return 0 if report.contained else 1


def _cmd_growth(cfg: SessionConfig, args: argparse.Namespace) -> int:
    rows = growth_table(cfg.space(), args.radius)
    if cfg.fmt == "json":
        _emit_json([asdict(row) for row in rows])
    elif cfg.fmt == "csv":
        print("radius,sphere_size,min_wall,max_wall")
        for row in rows:
            print(f"{row.radius},{row.sphere_size},{row.min_wall},{row.max_wall}")
    else:
        print("radius sphere_size min_wall max_wall")
        for row in rows:
            print(f"{row.radius:6d} {row.sphere_size:11d} {row.min_wall:8d} {row.max_wall:8d}")
    return 0


def _cmd_cnd(cfg: SessionConfig, args: argparse.Namespace) -> int:
    space = cfg.space()
    elements = load_sample_file(args.sample, cfg.lamps, cfg.rank)
    matrix = distance_matrix(space, elements)
    wall_count = space.separating_wall_count(*elements)
    report = cnd_check(matrix, cfg.tol)
    payload = {
        "pass": report.passed,
        "min_eigenvalue": report.min_eigenvalue,
        "dimension": report.dimension,
        "wall_count": wall_count,
    }
    if cfg.fmt == "json":
        _emit_json(payload)
    else:
        print(
            f"{'pass' if report.passed else 'FAIL'}"
            f" min_eigenvalue={report.min_eigenvalue:.3e}"
            f" dimension={report.dimension} wall_count={wall_count}"
        )
    return 0 if report.passed else 1


def _write_int_csv(path: Path, matrix: np.ndarray) -> None:
    lines = [",".join(str(int(v)) for v in row) for row in matrix]
    path.write_text("\n".join(lines) + "\n")


def _cmd_embed(cfg: SessionConfig, args: argparse.Namespace) -> int:
    space = cfg.space()
    elements = load_sample_file(args.sample, cfg.lamps, cfg.rank)
    matrix = distance_matrix(space, elements)
    walls, coordinates = wall_coordinates(space, elements)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    (out / "elements.txt").write_text("".join(f"{e}\n" for e in elements))
    (out / "walls.txt").write_text("".join(f"{w}\n" for w in walls))
    _write_int_csv(out / "distances.csv", matrix)
    _write_int_csv(out / "coordinates.csv", coordinates)
    isometry_ok = bool((hamming_distances(coordinates) == matrix).all())
    payload = {
        "dimension": len(elements),
        "wall_count": len(walls),
        "isometry_ok": isometry_ok,
        "out": str(out),
    }
    if cfg.fmt == "json":
        _emit_json(payload)
    else:
        print(
            f"wrote {len(elements)} elements x {len(walls)} walls to {out};"
            f" isometry self-check {'ok' if isometry_ok else 'FAILED'}"
        )
    return 0 if isometry_ok else 1


_COMMANDS = {
    "mul": _cmd_mul,
    "inv": _cmd_inv,
    "dist": _cmd_dist,
    "walls": _cmd_walls,
    "proper": _cmd_proper,
    "growth": _cmd_growth,
    "cnd": _cmd_cnd,
    "embed": _cmd_embed,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _session(args)
        if cfg.fmt == "csv" and args.command != "growth":
            raise ValueError("csv output is not available for this command")
        code = _COMMANDS[args.command](cfg, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (say ``| head -1``): not an error. The null
        # device takes whatever is still buffered at the interpreter's exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ParseError, CapExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
