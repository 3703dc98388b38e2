"""In-process run of one CLI command, optionally traced layer by layer.

    PYTHONPATH=src python3 perfbench/spans.py --mode trace --record FILE -- ARGV...

Runs ``wreathwalls.cli.main(ARGV)`` once in this process and writes a JSON
record to FILE: the time spent in ``main``, its exit code and, in ``trace``
mode, every span. Stdout is the command's own.

Tracing wraps the public functions listed in ``SPANS`` and ``LEAVES`` from
outside the package: module functions are replaced in every
``wreathwalls`` module that holds them (``cli`` re-imports several), methods
on their class. A span is ``[function, start_ns, end_ns, parent, value,
leaf_calls, leaf_ns]``; ``value`` is a count taken from the result. Leaves are
too hot for one span per call: their calls and time are added to the
enclosing span. ``COUNTERS`` only count calls (or, for a generator, yields).
Spans stay in memory and are written once, at the end.

:func:`session_metrics` turns the records of one session (one per command)
into the per-layer metrics; :func:`layer_metrics` combines sessions.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
import time
from pathlib import Path
from statistics import median

PACKAGE = "wreathwalls"
LAYERS = ("cli", "grammar", "groups", "walls", "wreath_walls", "embedding")


def _length(args, result):
    return len(result)


def _pairs(args, result):
    n = len(result)
    return n * (n - 1) // 2


def _coordinates(args, result):
    walls, matrix = result
    return [len(walls), int(matrix.size)]


# (module, attribute path, value taken from (args, result) or None)
SPANS = [
    ("cli", "main", None),
    ("grammar", "load_sample_file", None),
    ("grammar", "load_lamp_table", None),
    ("grammar", "parse_element", None),
    ("groups", "free_ball", _length),
    ("groups", "LampConfig.from_pairs", None),
    ("groups", "WreathElement.__mul__", None),
    ("walls", "separating_tree_walls", _length),
    ("wreath_walls", "WreathWallSpace.directed_separating_walls", _length),
    ("wreath_walls", "WreathWallSpace.wall_distance", None),
    ("wreath_walls", "WreathWallSpace.sublevel_report", lambda args, r: r.sublevel_count),
    ("wreath_walls", "WreathWallSpace.brute_force_separating", _length),
    ("embedding", "distance_matrix", _pairs),
    ("embedding", "validate_distance_matrix", None),
    ("embedding", "cnd_check", None),
    ("embedding", "wall_coordinates", _coordinates),
    ("embedding", "growth_table", lambda args, r: sum(row.sphere_size for row in r)),
]
LEAVES = [("wreath_walls", "WreathHalfSpace.contains")]
COUNTERS = [
    ("groups", "ReducedWord.sort_key", "groups.sort_key_calls"),
    ("wreath_walls", "WreathWallSpace.enumerate_box", "wreath_walls.box_elements"),
]


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # Index 0 is the root: time outside every traced function.
        self.spans: list[list] = [[-1, 0, 0, -1, None, 0, 0]]
        self.stack = [0]
        self.counters: dict[str, int] = {}

    def span(self, name: str, fn, value_of):
        fn_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            record = [fn_id, 0, 0, stack[-1], None, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if value_of is not None:
                record[4] = value_of(args, result)
            return result

        return wrapper

    def leaf(self, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            record = spans[stack[-1]]
            record[5] += 1
            record[6] += elapsed
            return result

        return wrapper

    def counter(self, key: str, fn):
        counters = self.counters
        counters[key] = 0

        if inspect.isgeneratorfunction(fn):  # count yields

            def generator(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counters[key] += 1
                    yield item

            return generator

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS]
        modules.append(importlib.import_module(PACKAGE))
        for module, path, value_of in SPANS:
            make = lambda fn, name=f"{module}.{path}", value_of=value_of: self.span(name, fn, value_of)
            _replace(modules, module, path, make)
        for module, path in LEAVES:
            _replace(modules, module, path, self.leaf)
        for module, path, key in COUNTERS:
            _replace(modules, module, path, lambda fn, key=key: self.counter(key, fn))


def _replace(modules, module_name: str, path: str, make) -> None:
    """Swap ``module.path`` for ``make(original)`` wherever the original is bound."""
    owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if classes:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        return
    original = getattr(owner, attr)
    wrapped = make(original)
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def run(mode: str, argv: list[str], record_path: Path) -> int:
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer = Tracer()
    if mode == "trace":
        tracer.install()
    start = time.perf_counter_ns()
    code = cli.main(argv)
    elapsed = time.perf_counter_ns() - start
    sys.stdout.flush()
    record = {"main_ns": elapsed, "exit": code}
    if mode == "trace":
        record.update(names=tracer.names, spans=tracer.spans[1:], counters=tracer.counters)
    record_path.write_text(json.dumps(record, separators=(",", ":")))
    return code


# -- aggregation ----------------------------------------------------------------

# Per-layer metrics: "<layer>.<name>_s" are seconds, the rest counts or ratios.
TIMES = {
    "grammar.parse_s": ("grammar.load_sample_file", "grammar.load_lamp_table", "grammar.parse_element"),
    "groups.wreath_mul_s": ("groups.WreathElement.__mul__",),
    "groups.free_ball_s": ("groups.free_ball",),
    "groups.config_build_s": ("groups.LampConfig.from_pairs",),
    "walls.geodesic_s": ("walls.separating_tree_walls",),
    "wreath_walls.directed_s": ("wreath_walls.WreathWallSpace.directed_separating_walls",),
    "wreath_walls.wall_distance_s": ("wreath_walls.WreathWallSpace.wall_distance",),
    "wreath_walls.sublevel_s": ("wreath_walls.WreathWallSpace.sublevel_report",),
    "wreath_walls.oracle_s": ("wreath_walls.WreathWallSpace.brute_force_separating",),
    "embedding.distance_matrix_s": ("embedding.distance_matrix",),
    "embedding.validate_matrix_s": ("embedding.validate_distance_matrix",),
    "embedding.cnd_check_s": ("embedding.cnd_check",),
    "embedding.wall_coordinates_s": ("embedding.wall_coordinates",),
    "embedding.growth_table_s": ("embedding.growth_table",),
}
CALLS = {
    "grammar.elements_parsed": "grammar.parse_element",
    "groups.wreath_mul_calls": "groups.WreathElement.__mul__",
    "groups.free_ball_calls": "groups.free_ball",
    "groups.config_builds": "groups.LampConfig.from_pairs",
    "walls.geodesic_calls": "walls.separating_tree_walls",
    "wreath_walls.directed_calls": "wreath_walls.WreathWallSpace.directed_separating_walls",
    "wreath_walls.wall_distance_calls": "wreath_walls.WreathWallSpace.wall_distance",
    "wreath_walls.oracle_calls": "wreath_walls.WreathWallSpace.brute_force_separating",
}
VALUES = {
    "groups.free_ball_words": "groups.free_ball",
    "walls.geodesic_edges": "walls.separating_tree_walls",
    "wreath_walls.walls_enumerated": "wreath_walls.WreathWallSpace.directed_separating_walls",
    "embedding.pairs": "embedding.distance_matrix",
    "embedding.growth_visited": "embedding.growth_table",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def session_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced session (one record per command)."""
    calls: dict[str, int] = {}
    values: dict[str, int] = {}
    outer_ns = {metric: 0 for metric in TIMES}
    self_ns = {layer: 0 for layer in LAYERS}
    counters = {key: 0 for _, _, key in COUNTERS}
    contains_calls = contains_ns = oracle_tested = oracle_found = 0
    coord_walls = coord_cells = coord_enumerated = 0
    span_count = 0
    for record in records:
        names, spans = record["names"], record["spans"]
        for key, count in record["counters"].items():
            counters[key] += count
        span_count += len(spans)
        child_ns = [0] * len(spans)
        for _, start, end, parent, _, _, _ in spans:
            if parent > 0:
                child_ns[parent - 1] += end - start
        for index, (fn, start, end, parent, value, leaf_calls, leaf_ns) in enumerate(spans):
            name = names[fn]
            parent_name = names[spans[parent - 1][0]] if parent > 0 else None
            duration = end - start
            self_ns[name.split(".", 1)[0]] += duration - child_ns[index] - leaf_ns
            self_ns["wreath_walls"] += leaf_ns
            contains_calls += leaf_calls
            contains_ns += leaf_ns
            calls[name] = calls.get(name, 0) + 1
            if isinstance(value, int):
                values[name] = values.get(name, 0) + value
            for metric, group in TIMES.items():
                if name in group and parent_name not in group:
                    outer_ns[metric] += duration
            if name == "wreath_walls.WreathWallSpace.brute_force_separating":
                oracle_found += value
                oracle_tested += leaf_calls // 2  # each half-space is tested on both elements
            elif name == "embedding.wall_coordinates":
                coord_walls += value[0]
                coord_cells += value[1]
            elif (
                name == "wreath_walls.WreathWallSpace.directed_separating_walls"
                and parent_name == "embedding.wall_coordinates"
            ):
                coord_enumerated += value
    metrics: dict[str, float] = {f"{layer}.self_s": ns / 1e9 for layer, ns in self_ns.items()}
    metrics.update({metric: ns / 1e9 for metric, ns in outer_ns.items()})
    metrics.update({metric: calls.get(name, 0) for metric, name in CALLS.items()})
    metrics.update({metric: values.get(name, 0) for metric, name in VALUES.items()})
    metrics.update(counters)
    metrics["wreath_walls.contains_calls"] = contains_calls
    metrics["wreath_walls.contains_s"] = contains_ns / 1e9
    metrics["wreath_walls.sublevel_yield"] = _ratio(
        values.get("wreath_walls.WreathWallSpace.sublevel_report", 0),
        counters["wreath_walls.box_elements"],
    )
    metrics["wreath_walls.oracle_yield"] = _ratio(oracle_found, oracle_tested)
    metrics["embedding.coord_walls"] = coord_walls
    metrics["embedding.coord_cells"] = coord_cells
    metrics["embedding.wall_dedup_ratio"] = _ratio(coord_walls, coord_enumerated)
    metrics["trace.spans"] = span_count
    return metrics


def layer_metrics(traced: list[list[dict]], plain: list[list[dict]]) -> tuple[dict, bool]:
    """Median times over traced sessions, counts from the first.

    Returns the metrics and whether every traced session gave the same
    counts. ``trace.overhead_ratio`` is the median over sessions of traced
    over plain in-process time, ``plain[i]`` being the untraced twin of
    ``traced[i]``.
    """
    per_session = [session_metrics(records) for records in traced]
    first = per_session[0]
    is_time = lambda key: key.endswith("_s")
    steady = all(
        all(m[key] == first[key] for key in first if not is_time(key)) for m in per_session
    )
    metrics = {
        key: median(m[key] for m in per_session) if is_time(key) else first[key] for key in first
    }
    main_ns = lambda session: sum(r["main_ns"] for r in session)
    metrics["trace.overhead_ratio"] = median(main_ns(t) / main_ns(p) for t, p in zip(traced, plain))
    return metrics, steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "trace"), required=True)
    parser.add_argument("--record", type=Path, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    return run(args.mode, argv, args.record)


if __name__ == "__main__":
    sys.exit(main())
