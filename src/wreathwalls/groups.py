"""Element arithmetic for free groups, finite lamp groups, and their wreath product.

Three kinds of values make up the wreath product ``H wr F_n`` of a finite
"lamp" group H with a free group F_n:

* :class:`ReducedWord` - an element of F_n in freely reduced normal form,
  read as a position in the Cayley tree.
* :class:`LampGroup` - H, given by a fully verified multiplication table on
  ids ``0 .. order-1`` with 0 the identity.
* :class:`LampConfig` - a finitely supported assignment of non-identity lamp
  values to positions.
* :class:`WreathElement` - a pair (lamp configuration, position); the product
  shifts the right factor's lamps by the left factor's position.

Everything here is immutable and hashable, and every operation is a pure
function of its inputs, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

MAX_RANK = 26
DEFAULT_CAP = 10**6
_EXACT_BITS = 4096  # refusals print sizes up to this many bits (str() stops at 4,300 digits)


class CapExceededError(ValueError):
    """An enumeration was refused because it would exceed the configured cap.

    ``predicted`` is the exact size, or None when a lower bound settled it.
    """

    def __init__(self, predicted: int | None, cap: int, what: str):
        shown = predicted is not None and predicted.bit_length() <= _EXACT_BITS
        size = predicted if shown else f"more than {cap}"
        super().__init__(f"{what} would enumerate {size} elements, above the cap of {cap}")
        self.predicted = predicted
        self.cap = cap


def capped_power(base: int, exponent: int, cap: int) -> int | None:
    """``base ** exponent`` (base >= 2), or None when it is too large to show.

    None only where ``2 ** exponent`` already exceeds ``cap``; the exponent may be any radius.
    """
    if exponent > cap.bit_length() and exponent * base.bit_length() > _EXACT_BITS:
        return None
    return base**exponent


def check_table_order(order: int, cap: int) -> None:
    """Refuse a lamp table whose order**3 associativity checks would exceed ``cap``."""
    if order >= 2 and order**3 > cap:
        raise CapExceededError(order**3, cap, f"lamp table check of order {order}")


def check_rank(rank: int) -> None:
    """Reject a free-group rank outside 1..MAX_RANK (one letter pair per rank)."""
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be in 1..{MAX_RANK}, got {rank}")


# ---------------------------------------------------------------------------
# Free group words
# ---------------------------------------------------------------------------

# A letter is a nonzero signed generator index: +i is the i-th generator,
# -i its inverse (1-based, i <= rank).


def letter_order(letter: int) -> int:
    """Total order on letters: a < A < b < B < ... (generator before inverse)."""
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def letter_char(letter: int) -> str:
    index = abs(letter) - 1
    return chr(ord("a") + index) if letter > 0 else chr(ord("A") + index)


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs until none remain.

    Returns the unique freely reduced form of the sequence; idempotent.
    """
    out: list[int] = []
    for letter in letters:
        if letter == 0:
            raise ValueError("0 is not a generator index")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


@dataclass(frozen=True)
class ReducedWord:
    """A freely reduced word over the generators of F_n.

    ``letters`` holds signed 1-based generator indices with no adjacent
    cancelling pair; ``rank`` is n. The empty word is the identity.
    """

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self) -> None:
        check_rank(self.rank)
        previous = 0
        for letter in self.letters:
            if not 1 <= abs(letter) <= self.rank:
                raise ValueError(f"letter {letter} outside rank {self.rank}")
            if letter == -previous:
                raise ValueError(f"word {self.letters} is not freely reduced")
            previous = letter

    @classmethod
    def identity(cls, rank: int) -> "ReducedWord":
        return cls((), rank)

    @classmethod
    def from_letters(cls, letters: Iterable[int], rank: int) -> "ReducedWord":
        """Build a word from a raw (possibly unreduced) letter sequence."""
        return cls(free_reduce(letters), rank)

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        if not isinstance(other, ReducedWord):
            return NotImplemented
        if other.rank != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        return ReducedWord(free_reduce(self.letters + other.letters), self.rank)

    def inverse(self) -> "ReducedWord":
        return ReducedWord(tuple(-l for l in reversed(self.letters)), self.rank)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def starts_with(self, prefix: "ReducedWord") -> bool:
        if prefix.rank != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {prefix.rank}")
        return self.letters[: len(prefix.letters)] == prefix.letters

    def prefix(self, length: int) -> "ReducedWord":
        return ReducedWord(self.letters[:length], self.rank)

    def parent(self) -> "ReducedWord":
        """Drop the final letter: the adjacent Cayley-tree vertex nearer 1."""
        if not self.letters:
            raise ValueError("the identity has no parent in the Cayley tree")
        return ReducedWord(self.letters[:-1], self.rank)

    def sort_key(self) -> tuple:
        """Shortlex key: by length, then letterwise in a < A < b < B order."""
        return (len(self.letters), tuple(letter_order(l) for l in self.letters))

    def __str__(self) -> str:
        return "".join(letter_char(l) for l in self.letters) or "1"

    def __repr__(self) -> str:
        return f"ReducedWord({str(self)!r}, rank={self.rank})"


def _built_reduced(letters: tuple[int, ...], rank: int) -> ReducedWord:
    """A word its caller built reduced and within a checked rank, not validated again."""
    word = object.__new__(ReducedWord)
    object.__setattr__(word, "letters", letters)
    object.__setattr__(word, "rank", rank)
    return word


def predicted_ball_size(rank: int, radius: int) -> int:
    """Exact number of reduced words of length <= radius in F_rank."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if rank == 1:
        return 2 * radius + 1
    q = 2 * rank - 1
    return 1 + 2 * rank * (q**radius - 1) // (q - 1)


def capped_ball_size(rank: int, radius: int, cap: int) -> int:
    """Size of the radius ball, refusing above ``cap``.

    For rank >= 2 the lower bound 3**radius refuses before the exact size is computed.
    """
    large = rank > 1 and capped_power(3, radius, cap) is None
    predicted = None if large else predicted_ball_size(rank, radius)
    if predicted is None or predicted > cap:
        raise CapExceededError(predicted, cap, f"ball of radius {radius} in F_{rank}")
    return predicted


def ball_letters(rank: int, radius: int, cap: int = DEFAULT_CAP) -> Iterator[tuple[int, ...]]:
    """The letter tuples of all reduced words of length <= radius, in shortlex order.

    Refuses with :class:`CapExceededError` above ``cap`` (see
    :func:`capped_ball_size`) before yielding any; the ball grows like
    (2*rank-1)**radius. Every tuple is reduced by construction.
    """
    capped_ball_size(rank, radius, cap)
    check_rank(rank)
    return _ball_levels(rank, radius)


def _ball_levels(rank: int, radius: int) -> Iterator[tuple[int, ...]]:
    alphabet = sorted(
        [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)],
        key=letter_order,
    )
    level: list[tuple[int, ...]] = [()]
    yield ()
    for _ in range(radius):
        next_level: list[tuple[int, ...]] = []
        for letters in level:
            last = letters[-1] if letters else 0
            for letter in alphabet:
                if letter != -last:
                    next_level.append(letters + (letter,))
        yield from next_level
        level = next_level


def free_ball(rank: int, radius: int, cap: int = DEFAULT_CAP) -> list[ReducedWord]:
    """All reduced words of length <= radius, in shortlex order: :func:`ball_letters` as words.

    No word is validated again: each is reduced by construction.
    """
    return [_built_reduced(letters, rank) for letters in ball_letters(rank, radius, cap)]


# ---------------------------------------------------------------------------
# Finite lamp groups
# ---------------------------------------------------------------------------


class LampGroup:
    """A finite group on element ids ``0 .. order-1`` with 0 the identity.

    The multiplication table is verified in full at construction: identity
    row and column, two-sided inverses, and associativity. Order 1 is
    rejected; a trivial lamp group contributes no walls beyond the base
    group's own.

    Instances compare and hash by table contents, so two groups built from
    the same table are interchangeable.
    """

    __slots__ = ("order", "_table", "_inverse", "_hash")

    def __init__(self, table: Sequence[Sequence[int]]):
        rows = tuple(tuple(row) for row in table)
        order = len(rows)
        if order < 2:
            raise ValueError(
                f"lamp group must have order >= 2, got {order}; "
                "a trivial lamp group adds nothing over the base group"
            )
        for row in rows:
            if len(row) != order:
                raise ValueError(f"table row of length {len(row)} in a {order}x{order} table")
            for value in row:
                if not 0 <= value < order:
                    raise ValueError(f"table entry {value} outside 0..{order - 1}")
        for j in range(order):
            if rows[0][j] != j or rows[j][0] != j:
                raise ValueError("element 0 is not a two-sided identity")
        inverse = [-1] * order
        for a in range(order):
            for b in range(order):
                if rows[a][b] == 0 and rows[b][a] == 0:
                    inverse[a] = b
                    break
            if inverse[a] < 0:
                raise ValueError(f"element {a} has no two-sided inverse")
        for a in range(order):
            for b in range(order):
                ab = rows[a][b]
                for c in range(order):
                    if rows[ab][c] != rows[a][rows[b][c]]:
                        raise ValueError(
                            f"table is not associative at ({a}, {b}, {c})"
                        )
        self.order = order
        self._table = rows
        self._inverse = tuple(inverse)
        self._hash = hash(rows)

    @classmethod
    def cyclic(cls, order: int) -> "LampGroup":
        """The cyclic group Z/order with ids added modulo order."""
        if order < 2:
            raise ValueError(f"lamp group must have order >= 2, got {order}")
        return cls([[(i + j) % order for j in range(order)] for i in range(order)])

    def mul(self, a: int, b: int) -> int:
        return self._table[a][b]

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def elements(self) -> range:
        return range(self.order)

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        return self._table

    @property
    def is_abelian(self) -> bool:
        n = self.order
        return all(
            self._table[a][b] == self._table[b][a]
            for a in range(n)
            for b in range(a + 1, n)
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LampGroup):
            return NotImplemented
        return self._table == other._table

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"LampGroup(order={self.order})"


# ---------------------------------------------------------------------------
# Lamp configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LampConfig:
    """Finitely supported map position -> lamp id, identity values omitted.

    Entries are stored sorted by the shortlex order of their positions, so
    equality, hashing, and serialization are deterministic. The support is
    exactly the set of entry keys.
    """

    entries: tuple[tuple[ReducedWord, int], ...]
    lamps: LampGroup
    rank: int

    def __post_init__(self) -> None:
        previous_key = None
        for position, value in self.entries:
            if position.rank != self.rank:
                raise ValueError(
                    f"entry position {position} has rank {position.rank}, expected {self.rank}"
                )
            if not 1 <= value < self.lamps.order:
                raise ValueError(
                    f"lamp value {value} outside 1..{self.lamps.order - 1} at {position}"
                )
            key = position.sort_key()
            if previous_key is not None and key <= previous_key:
                raise ValueError("entries must be strictly shortlex-sorted by position")
            previous_key = key

    @classmethod
    def empty(cls, lamps: LampGroup, rank: int) -> "LampConfig":
        return cls((), lamps, rank)

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[tuple[ReducedWord, int]],
        lamps: LampGroup,
        rank: int,
    ) -> "LampConfig":
        """Normalize arbitrary (position, value) pairs: drop identity values, sort."""
        kept = [(p, v) for p, v in pairs if v != 0]
        kept.sort(key=lambda item: item[0].sort_key())
        for (a, _), (b, _) in zip(kept, kept[1:]):
            if a == b:
                raise ValueError(f"duplicate position {a} in lamp configuration")
        return cls(tuple(kept), lamps, rank)

    def value_at(self, position: ReducedWord) -> int:
        for p, v in self.entries:
            if p == position:
                return v
        return 0

    @property
    def support(self) -> tuple[ReducedWord, ...]:
        return tuple(p for p, _ in self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def _check_compatible(self, other: "LampConfig") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        if self.lamps != other.lamps:
            raise ValueError("lamp configurations use different lamp groups")

    def pointwise_mul(self, other: "LampConfig") -> "LampConfig":
        """Pointwise product, this configuration's value on the left."""
        self._check_compatible(other)
        values: dict[ReducedWord, int] = dict(self.entries)
        for position, value in other.entries:
            values[position] = self.lamps.mul(values.get(position, 0), value)
        return LampConfig.from_pairs(values.items(), self.lamps, self.rank)

    def inverse(self) -> "LampConfig":
        return LampConfig(
            tuple((p, self.lamps.inv(v)) for p, v in self.entries),
            self.lamps,
            self.rank,
        )

    def shifted(self, g: ReducedWord) -> "LampConfig":
        """The shifted configuration x -> self(g^-1 x); support moves to g * support."""
        if g.rank != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {g.rank}")
        return LampConfig.from_pairs(
            ((g * p, v) for p, v in self.entries), self.lamps, self.rank
        )

    def restrict(self, keep: Callable[[ReducedWord], bool]) -> "LampConfig":
        """The configuration agreeing with this one where ``keep`` holds, identity elsewhere."""
        return LampConfig(
            tuple((p, v) for p, v in self.entries if keep(p)), self.lamps, self.rank
        )

    def sort_key(self) -> tuple:
        return tuple((p.sort_key(), v) for p, v in self.entries)

    def __str__(self) -> str:
        return "{" + ",".join(f"{p}:{v}" for p, v in self.entries) + "}"

    def __repr__(self) -> str:
        return f"LampConfig({str(self)!r}, rank={self.rank}, lamps={self.lamps!r})"


# ---------------------------------------------------------------------------
# Wreath product elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WreathElement:
    """An element (lamps, position) of the wreath product H wr F_n."""

    lamps: LampConfig
    position: ReducedWord

    def __post_init__(self) -> None:
        if self.lamps.rank != self.position.rank:
            raise ValueError(
                f"lamp rank {self.lamps.rank} differs from position rank {self.position.rank}"
            )

    @classmethod
    def identity(cls, lamps: LampGroup, rank: int) -> "WreathElement":
        return cls(LampConfig.empty(lamps, rank), ReducedWord.identity(rank))

    @property
    def rank(self) -> int:
        return self.position.rank

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        if not isinstance(other, WreathElement):
            return NotImplemented
        return WreathElement(
            self.lamps.pointwise_mul(other.lamps.shifted(self.position)),
            self.position * other.position,
        )

    def inverse(self) -> "WreathElement":
        back = self.position.inverse()
        return WreathElement(self.lamps.inverse().shifted(back), back)

    @property
    def is_identity(self) -> bool:
        return self.lamps.is_empty and self.position.is_identity

    def sort_key(self) -> tuple:
        return (self.position.sort_key(), self.lamps.sort_key())

    def __str__(self) -> str:
        return f"{self.lamps}|{self.position}"

    def __repr__(self) -> str:
        return f"WreathElement({str(self)!r}, rank={self.rank})"
