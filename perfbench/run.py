"""Benchmark of the wreathwalls command line, end to end and layer by layer.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Run from anywhere inside a source checkout; the package is not installed, so
every child gets the checkout's ``src`` on ``PYTHONPATH``. Inputs come from
``gen.py`` and depend only on the seed. Scratch files live in
``.perfbench_work/`` at the checkout root and are removed at the end.

One client runs a closed loop: each workload is a fixed sequence of
``python -m wreathwalls`` commands (a *session*), and the next command starts
only when the previous one has exited. Sessions repeat while the next one
should end within ``--seconds`` (at least one runs); each is preceded by a
trivial ``mul`` probe that measures start-up.

Workloads (see BENCHMARK.json for why each was chosen):

* ``certify``: ``cnd`` then ``embed`` on sample A (Z/2) and on sample B (S3).
  ``cmd_a_s`` is ``cnd``, ``cmd_b_s`` is ``embed``.
* ``exhaustive``: ``--rank 1 proper`` and ``dist --oracle`` on seeded pairs.
  ``cmd_a_s`` is ``proper``, ``cmd_b_s`` is the oracle pairs.
* ``growth``: ``growth`` with Z/2 lamps, then with S3 lamps.
  ``cmd_a_s`` is the Z/2 table, ``cmd_b_s`` the S3 one.

``--trace 0`` reports the end-to-end metrics, each untraced: ``setup_s``
(median probe), ``session_s``, ``cmd_a_s`` and ``cmd_b_s`` (medians over
sessions of the command sums) and ``peak_rss_mb`` (largest child max-RSS,
from ``os.wait4``). ``--trace 1`` instead runs each session's commands in
process through ``spans.py``, each command plain and then traced, and reports
the per-layer metrics of ``spans.layer_metrics``.

Times are wall-clock seconds scaled to a nominal machine speed. On a shared
host the CPU's speed drifts by tens of percent over minutes, which would
swamp any comparison between two commits. So before every child the harness
times a fixed pure-Python reference (closed-form distances on a fixed
sample) and multiplies each time by ``REF_NOMINAL_S`` over the mean
reference time of the run. The harness pins itself, and so every child, to
one CPU, so the reference sees the processor the commands run on. The raw
medians and the factor are printed on the line before the result.

Every output is checked outside the timed region, against ``reference.py``
and against the first session's bytes; an invocation that exits wrongly,
times out or fails a check counts in ``failed``. The last stdout line is the
JSON result; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np

import gen
import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE = ["mul", "{}|1", "{}|1"]
# The machine's speed drifts (shared host): every time is scaled by how long a
# fixed pure-Python reference takes, measured right before each child.
REF_NOMINAL_S = 0.05
REF_PASSES = 2
CHILD_TIMEOUT_S = 60.0
HARD_LIMIT_S = 150.0  # stop starting commands; the whole run must end within 180 s
MIN_PROBES = 6


@dataclass
class Command:
    kind: str  # "a" or "b": which per-command metric it adds to
    argv: list[str]


@dataclass
class Outcome:
    seconds: float
    code: int | None  # None: killed on timeout
    stdout: bytes
    stderr: bytes


@dataclass
class Workload:
    """One session's commands plus the checks on their outputs."""

    commands: list[Command]
    check: Callable[[list[bytes]], list[str | None]]  # session stdouts -> an error or None per command
    files: list[Path] = field(default_factory=list)  # exported files that must repeat byte for byte


def _json(stdout: bytes) -> dict:
    return json.loads(stdout.decode())


def _expect(condition: bool, message: str) -> str | None:
    return None if condition else message


def certify(inputs: dict, sizes: gen.Sizes, work: Path) -> Workload:
    samples = [
        (Path(inputs["sample_a"]), [], work / "embed_a"),
        (Path(inputs["sample_b"]), ["--lamp-table", inputs["s3_table"]], work / "embed_b"),
    ]
    commands = []
    for sample, lamps, out in samples:
        commands.append(Command("a", [*lamps, "--format", "json", "cnd", "--sample", str(sample)]))
        commands.append(
            Command("b", [*lamps, "--format", "json", "embed", "--sample", str(sample), "--out", str(out)])
        )

    def check(stdouts: list[bytes]) -> list[str | None]:
        errors: list[str | None] = []
        for (sample, _, out), cnd_out, embed_out in zip(samples, stdouts[0::2], stdouts[1::2]):
            lines = sample.read_text().splitlines()
            cnd, embed = _json(cnd_out), _json(embed_out)
            errors.append(
                _expect(cnd["pass"] and cnd["dimension"] == len(lines), f"cnd failed on {sample.name}")
                or _expect(
                    cnd["wall_count"] == embed["wall_count"],
                    f"cnd and embed wall_count differ on {sample.name}",
                )
            )
            errors.append(_check_export(lines, embed, out))
        return errors

    exported = ("elements.txt", "walls.txt", "distances.csv", "coordinates.csv")
    files = [out / name for _, _, out in samples for name in exported]
    return Workload(commands, check, files)


def _check_export(lines: list[str], embed: dict, out: Path) -> str | None:
    n, walls = len(lines), embed["wall_count"]
    if not (embed["isometry_ok"] and embed["dimension"] == n and embed["out"] == str(out)):
        return f"embed reported {embed}"
    if (out / "elements.txt").read_text().splitlines() != lines:
        return "elements.txt differs from the sample"
    wall_lines = (out / "walls.txt").read_text().splitlines()
    if len(wall_lines) != walls or len(set(wall_lines)) != walls:
        return "walls.txt does not list wall_count distinct walls"
    distances = np.loadtxt(out / "distances.csv", delimiter=",", dtype=np.int64, ndmin=2)
    coordinates = np.loadtxt(out / "coordinates.csv", delimiter=",", dtype=np.int64, ndmin=2)
    if coordinates.shape != (n, walls) or not np.isin(coordinates, (0, 1)).all():
        return f"coordinates.csv has shape {coordinates.shape}, expected ({n}, {walls}) of 0/1"
    hamming = (coordinates[:, None, :] != coordinates[None, :, :]).sum(axis=2)
    if not np.array_equal(hamming, distances):
        return "distances.csv differs from the Hamming distances of coordinates.csv"
    elements = [reference.parse_element(line) for line in lines]
    for i in range(n):
        for j in range(i + 1, n):
            if distances[i, j] != reference.distance(elements[i], elements[j]):
                return f"distance {lines[i]} .. {lines[j]} is {distances[i, j]}, reference says otherwise"
    return None


def exhaustive(inputs: dict, sizes: gen.Sizes, work: Path) -> Workload:
    max_wall = sizes.proper_max_wall
    commands = [Command("a", ["--rank", "1", "--format", "json", "proper", "--max-wall", str(max_wall)])]
    pairs = inputs["oracle_pairs"]
    for first, second in pairs:
        argv = ["--lamp-order", "3", "--format", "json", "dist", "--oracle", first, second]
        commands.append(Command("b", argv))

    def check(stdouts: list[bytes]) -> list[str | None]:
        report = _json(stdouts[0])
        radius = max_wall + 1
        ball = len(reference.free_ball(1, radius))
        inner = len(reference.free_ball(1, max_wall))
        box, low = reference.sublevel(1, 2, max_wall, radius)
        errors = [
            _expect(report["contained"] and not report["violations"], "proper reports a violation")
            or _expect(report["box_size"] == 2**ball * ball == box, f"box_size {report['box_size']}")
            or _expect(
                report["base_ball_size"] == inner
                and report["cardinality_bound"] == 2**inner * inner,
                "ball sizes differ",
            )
            or _expect(
                report["sublevel_count"] == len(low) and sorted(report["sublevel"]) == sorted(low),
                "sub-level set differs from the reference",
            )
        ]
        for (first, second), stdout in zip(pairs, stdouts[1:]):
            result = _json(stdout)
            expected = reference.distance(reference.parse_element(first), reference.parse_element(second))
            errors.append(
                _expect(
                    result == {"distance": expected, "oracle_ok": True},
                    f"dist --oracle {first} {second}: {result}",
                )
            )
        return errors

    return Workload(commands, check)


def growth(inputs: dict, sizes: gen.Sizes, work: Path) -> Workload:
    tables = [
        ([], [[0, 1], [1, 0]], sizes.growth_z2_radius),
        (["--lamp-table", inputs["s3_table"]], inputs["table"], sizes.growth_s3_radius),
    ]
    commands = [
        Command(kind, [*lamps, "growth", "--radius", str(radius)])
        for kind, (lamps, _, radius) in zip("ab", tables)
    ]

    def check(stdouts: list[bytes]) -> list[str | None]:
        errors = []
        for (_, table, radius), stdout in zip(tables, stdouts):
            lines = stdout.decode().splitlines()
            rows = [tuple(int(field) for field in line.split()) for line in lines[1:]]
            errors.append(
                _expect(
                    lines[0].split() == ["radius", "sphere_size", "min_wall", "max_wall"]
                    and rows == reference.growth(2, table, radius),
                    f"growth table at radius {radius} differs from the reference BFS",
                )
            )
        return errors

    return Workload(commands, check)


WORKLOADS = {"certify": certify, "exhaustive": exhaustive, "growth": growth}


class Runner:
    """Launches children, one at a time, and keeps the failure tally."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_rss_kb = 0
        rng = random.Random(0)
        elements = [reference.parse_element(line) for line in gen.sample(rng, 2, 2, 48, 4, 6)]
        self.ref_pairs = list(itertools.combinations(elements, 2))
        self.ref_seconds: list[float] = []
        self.calibrate()  # warm-up, discarded
        self.ref_seconds.clear()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )

    def out_of_time(self) -> bool:
        return time.perf_counter() - self.started > HARD_LIMIT_S

    def calibrate(self) -> None:
        start = time.perf_counter()
        for _ in range(REF_PASSES):
            for a, b in self.ref_pairs:
                reference.distance(a, b)
        self.ref_seconds.append(time.perf_counter() - start)

    def speed_factor(self) -> float:
        """Scale from measured seconds to seconds at the nominal reference speed."""
        return REF_NOMINAL_S / (sum(self.ref_seconds) / len(self.ref_seconds))

    def launch(self, argv: list[str]) -> Outcome:
        """Run one child; wall time covers spawn to reap, RSS comes from its own rusage."""
        self.calibrate()
        self.attempted += 1
        stdout_path, stderr_path = self.work / "stdout", self.work / "stderr"
        timeout = max(1.0, min(CHILD_TIMEOUT_S, HARD_LIMIT_S + 20 - (time.perf_counter() - self.started)))
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, os.kill, (child.pid, signal.SIGKILL))
            timer.start()
            _, status, usage = os.wait4(child.pid, 0)
            seconds = time.perf_counter() - start
            timer.cancel()
        timer.join()
        child.returncode = code = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        killed = code == -signal.SIGKILL
        return Outcome(seconds, None if killed else code, stdout_path.read_bytes(), stderr_path.read_bytes())

    def cli(self, argv: list[str]) -> Outcome:
        return self.launch([sys.executable, "-m", "wreathwalls", *argv])

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def settle(self, label: str, outcome: Outcome, expected: bytes | None, error: str | None = None) -> None:
        """Count one invocation as failed if it exited wrongly, changed output or failed a check."""
        if outcome.code is None:
            self.fail(f"{label}: timed out")
        elif outcome.code != 0:
            self.fail(f"{label}: exit {outcome.code}: {outcome.stderr.decode(errors='replace')[-300:]}")
        elif expected is not None and outcome.stdout != expected:
            self.fail(f"{label}: stdout differs from the first run")
        elif error is not None:
            self.fail(f"{label}: {error}")


def _checked(
    runner: Runner,
    workload: Workload,
    label: str,
    outcomes: list[Outcome],
    first: list[bytes] | None,
    files: dict,
) -> list[bytes]:
    """Check one session; the first is checked in full, later ones against its bytes."""
    stdouts = [o.stdout for o in outcomes]
    if first is None:
        try:
            errors = workload.check(stdouts) if all(o.code == 0 for o in outcomes) else [None] * len(outcomes)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            errors = [f"unreadable output: {exc!r}"] * len(outcomes)
        for path in workload.files:
            files[path] = path.read_bytes() if path.exists() else None
    else:
        errors = [None] * len(outcomes)
        changed = [p.name for p in workload.files if (p.read_bytes() if p.exists() else None) != files[p]]
        if changed:
            errors[-1] = f"exported files changed between sessions: {changed}"
    expected_stdouts = first or [None] * len(outcomes)
    for command, outcome, error, expected in zip(workload.commands, outcomes, errors, expected_stdouts):
        runner.settle(f"{label} {' '.join(command.argv)}", outcome, expected, error)
    return first or stdouts


def measure(runner: Runner, workload: Workload, seconds: float) -> dict:
    """Closed loop of untraced sessions; returns the end-to-end metrics."""
    probes: list[float] = []
    sessions: list[list[float]] = []
    first = None
    files: dict = {}
    deadline = time.perf_counter() + seconds

    def probe() -> None:
        outcome = runner.cli(PROBE)
        runner.settle("probe", outcome, b"{}|1\n")
        probes.append(outcome.seconds)

    while not runner.out_of_time():
        probe()
        outcomes = [runner.cli(command.argv) for command in workload.commands]
        sessions.append([o.seconds for o in outcomes])
        first = _checked(runner, workload, f"session {len(sessions)}", outcomes, first, files)
        # Start another session while it would end, on average, by the deadline.
        if time.perf_counter() + median(map(sum, sessions)) / 2 > deadline:
            break
    while len(probes) < MIN_PROBES and not runner.out_of_time():
        probe()

    def kind_sum(kind: str) -> float:
        return median(
            sum(t for t, c in zip(times, workload.commands) if c.kind == kind) for times in sessions
        )

    scale = runner.speed_factor()
    print(
        f"{len(sessions)} sessions, {len(probes)} probes; raw setup {median(probes):.4f} s,"
        f" session {median(map(sum, sessions)):.4f} s, cmd_a {kind_sum('a'):.4f} s,"
        f" cmd_b {kind_sum('b'):.4f} s; speed factor {scale:.4f}"
    )
    return {
        "setup_s": (median(probes) * scale, "s"),
        "session_s": (median(map(sum, sessions)) * scale, "s"),
        "cmd_a_s": (kind_sum("a") * scale, "s"),
        "cmd_b_s": (kind_sum("b") * scale, "s"),
        "peak_rss_mb": (runner.peak_rss_kb / 1024, "MB"),
    }


def trace(runner: Runner, workload: Workload, seconds: float) -> dict:
    """In-process sessions, each command run plain and then traced; returns the per-layer metrics.

    Each traced command runs right after its plain twin, so the two see the
    same machine speed and ``trace.overhead_ratio`` compares like with like.
    """
    plain: list[list[dict]] = []
    traced: list[list[dict]] = []
    first = None
    files: dict = {}
    deadline = time.perf_counter() + seconds
    record = runner.work / "record.json"

    def launch(mode: str, command: Command) -> tuple[Outcome, dict | None]:
        if record.exists():
            record.unlink()
        tracer = [sys.executable, str(HERE / "spans.py"), "--mode", mode, "--record", str(record)]
        outcome = runner.launch([*tracer, "--", *command.argv])
        return outcome, json.loads(record.read_text()) if record.exists() else None

    while not runner.out_of_time():
        session_start = time.perf_counter()
        runs = {"plain": [], "trace": []}
        for command in workload.commands:
            for mode in runs:
                runs[mode].append(launch(mode, command))
        for mode, sessions in (("plain", plain), ("trace", traced)):
            outcomes, records = zip(*runs[mode])
            first = _checked(runner, workload, f"{mode} session {len(sessions) + 1}", list(outcomes), first, files)
            if None in records:
                return {}
            sessions.append(list(records))
        if 2 * time.perf_counter() - session_start > deadline:
            break
    if not traced:
        return {}
    metrics, steady = spans.layer_metrics(traced, plain)
    if not steady:
        runner.fail("per-layer counts differ between traced sessions")
    scale = runner.speed_factor()
    print(f"{len(traced)} traced and {len(plain)} plain sessions; speed factor {scale:.4f}")
    units = {key: "s" if key.endswith("_s") else "count" for key in metrics}
    units.update({key: "ratio" for key in metrics if key.endswith(("_ratio", "_yield"))})
    return {
        key: (value * scale if units[key] == "s" else value, units[key])
        for key, value in metrics.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wreathwalls" / "cli.py").is_file():
        print(f"error: no wreathwalls sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for the harness and every child, so the reference timing sees
    # the same processor as the commands it scales.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    started = time.perf_counter()
    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        sizes = gen.TINY if args.tiny else gen.FULL
        inputs = gen.generate(args.seed, work / "inputs", sizes)
        workload = WORKLOADS[args.workload](inputs, sizes, work)
        runner = Runner(work, started)
        measured = (trace if args.trace else measure)(runner, workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    for message in runner.errors:
        print(f"FAILED {message}", file=sys.stderr)
    correct = runner.failed == 0 and bool(measured)
    print(
        f"{args.workload} seed {args.seed}: "
        + " ".join(
            f"{key}={value:.6g}{unit if unit in ('s', 'MB') else ''}"
            for key, (value, unit) in measured.items()
        )
    )
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in measured.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
