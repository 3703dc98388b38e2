"""Seeded inputs for the benchmark workloads.

Every size is fixed here; the seed only picks content (letters, lamp values,
the labelling of S3). Element ``i`` of a sample gets its position length and
lamp count from its index, so the amount of work moves little between seeds.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

from reference import format_element


@dataclass(frozen=True)
class Sizes:
    """Every size the generator and the workloads use."""

    a_elements: int = 48  # certify sample A: rank 2, Z/2 lamps
    a_lamps: int = 4
    a_length: int = 6
    b_elements: int = 40  # certify sample B: rank 2, S3 lamps
    b_lamps: int = 3
    b_length: int = 5
    proper_max_wall: int = 3  # rank 1, Z/2: box radius max_wall + 1
    oracle_pairs: int = 4  # rank 2, Z/3
    oracle_length: int = 7  # exact longest word in each pair
    growth_z2_radius: int = 6
    growth_s3_radius: int = 5


FULL = Sizes()
TINY = Sizes(6, 2, 3, 5, 2, 2, 1, 1, 4, 2, 2)


def random_word(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    """A uniformly random reduced word of exactly ``length`` letters."""
    letters = [*range(1, rank + 1), *range(-rank, 0)]
    word: list[int] = []
    while len(word) < length:
        letter = rng.choice(letters)
        if not word or letter != -word[-1]:
            word.append(letter)
    return tuple(word)


def random_element(
    rng: random.Random, rank: int, order: int, length: int, lamp_lengths: list[int]
) -> tuple[tuple[int, ...], dict]:
    """Position of exactly ``length`` letters; one lamp per (distinct) length in ``lamp_lengths``."""
    position = random_word(rng, rank, length)
    lamps = {random_word(rng, rank, n): rng.randint(1, order - 1) for n in lamp_lengths}
    return position, lamps


def sample(
    rng: random.Random, rank: int, order: int, count: int, max_lamps: int, max_length: int
) -> list[str]:
    """``count`` distinct element literals; shapes cycle with the index, content is random."""
    lines: list[str] = []
    seen: set[str] = set()
    lengths = max_length + 1
    for i in itertools.count():
        length = i % lengths
        lamp_count = (i // lengths + i) % (max_lamps + 1)
        lamp_lengths = [(length + 1 + j) % lengths for j in range(lamp_count)]
        # Small shapes (the identity, say) have few members: give up after a few draws.
        for _ in range(8):
            literal = format_element(*random_element(rng, rank, order, length, lamp_lengths))
            if literal not in seen:
                seen.add(literal)
                lines.append(literal)
                break
        if len(lines) == count:
            return lines


def s3_table(rng: random.Random) -> list[list[int]]:
    """Multiplication table of S3 with the identity at id 0 and the other ids shuffled."""
    perms = list(itertools.permutations(range(3)))
    rest = perms[1:]
    rng.shuffle(rest)
    perms = [perms[0], *rest]
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms]


def oracle_pair(rng: random.Random, sizes: Sizes) -> list[str]:
    """Two rank-2, Z/3 elements; the first has position length exactly ``oracle_length``.

    Every other word is shorter, so the oracle's ball radius is
    ``oracle_length + 1`` for every pair.
    """
    shorter = sizes.oracle_length - 2
    first = random_element(rng, 2, 3, sizes.oracle_length, [shorter, shorter - 1])
    second = random_element(rng, 2, 3, shorter, [shorter - 1, shorter - 2])
    return [format_element(*first), format_element(*second)]


def generate(seed: int, out: Path, sizes: Sizes = FULL) -> dict:
    """Write one seed's input files under ``out``; return a manifest of them."""
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    table = s3_table(rng)
    table_path = out / "s3.table"
    table_path.write_text(
        f"order {len(table)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in table)
    )
    sample_a = out / "sample_a.txt"
    lines = sample(rng, 2, 2, sizes.a_elements, sizes.a_lamps, sizes.a_length)
    sample_a.write_text("".join(f"{line}\n" for line in lines))
    sample_b = out / "sample_b.txt"
    lines = sample(rng, 2, 6, sizes.b_elements, sizes.b_lamps, sizes.b_length)
    sample_b.write_text("".join(f"{line}\n" for line in lines))
    oracle = [oracle_pair(rng, sizes) for _ in range(sizes.oracle_pairs)]
    manifest = {
        "seed": seed,
        "sizes": asdict(sizes),
        "s3_table": str(table_path),
        "table": table,
        "sample_a": str(sample_a),
        "sample_b": str(sample_b),
        "oracle_pairs": oracle,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest

