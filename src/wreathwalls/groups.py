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

import re
from operator import attrgetter
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


def within_cap(size: int | None, cap: int, what: str) -> int:
    """``size`` when it is at most ``cap``, else refuse; None: a lower bound passed the cap."""
    if size is None or size > cap:
        raise CapExceededError(size, cap, what)
    return size


def capped_power(base: int, exponent: int, cap: int) -> int | None:
    """``base ** exponent`` (base >= 2), or None when it is too large to show.

    None only where ``2 ** exponent`` already exceeds ``cap``; the exponent may be any radius.
    """
    if exponent > cap.bit_length() and exponent * base.bit_length() > _EXACT_BITS:
        return None
    return base**exponent


def check_table_order(order: int, cap: int) -> None:
    """Refuse a lamp table whose order**3 associativity checks would exceed ``cap``."""
    if order >= 2:
        within_cap(order**3, cap, f"lamp table check of order {order}")


def check_rank(rank: int) -> None:
    """Reject a free-group rank outside 1..MAX_RANK (one letter pair per rank)."""
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be in 1..{MAX_RANK}, got {rank}")


def check_elements(lamps: LampGroup, rank: int, elements: Iterable[WreathElement]) -> None:
    """Reject elements of another rank or lamp group."""
    for element in elements:
        if element.rank != rank:
            raise ValueError(f"rank mismatch: {element.rank} vs {rank}")
        if element.lamps.lamps != lamps:
            raise ValueError("element uses a different lamp group")


def parse_int(text: str) -> int:
    """An integer of a flag or a lamp table row: ASCII ``-?[0-9]+``, no ``+``, ``_`` or spaces."""
    digits = text.removeprefix("-")
    if not (text.isascii() and digits.isdigit()):
        raise ValueError(f"invalid int value: {text!r}")
    value = int(digits.lstrip("0") or "0")  # int() converts at most 4,300 digits
    return value if digits == text else -value


class Frozen:
    """Base of the immutable value classes: fields in ``__slots__``, compared as a tuple.

    A subclass validates in ``__init__`` and sets its slots with
    ``object.__setattr__``. Instances are equal when of the same class with
    equal fields, hash as the tuple of their fields in declaration order, and
    raise ``AttributeError`` on assignment or deletion.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # Closures over the class's field getter: a comparison or hash looks nothing up.
        fields = cls._astuple = attrgetter(*cls.__slots__)

        def __eq__(self: Frozen, other: object) -> bool:
            if other.__class__ is not self.__class__:
                return NotImplemented
            return fields(self) == fields(other)

        def __hash__(self: Frozen) -> int:
            return hash(fields(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{self.__class__.__qualname__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return self.__class__, self._astuple(self)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({shown})"


# ---------------------------------------------------------------------------
# Free group words
# ---------------------------------------------------------------------------

# A letter is a character of the printed alphabet: the i-th lower-case letter
# is the i-th generator (i <= rank), its upper case the inverse. A word's
# letters are the string it prints as.

_ALPHABET = "".join(c + c.upper() for c in "abcdefghijklmnopqrstuvwxyz")  # a, A, b, B, ...
_SHORTLEX = str.maketrans(_ALPHABET, "".join(map(chr, range(len(_ALPHABET)))))
_CANCELLING = re.compile("|".join(c + c.swapcase() for c in _ALPHABET))  # aA, Aa, bB, ...


def free_reduce(letters: str) -> str:
    """Cancel adjacent inverse pairs (``x`` and ``x.swapcase()``) until none remain.

    Returns the unique freely reduced form of the letter string; idempotent.
    """
    out: list[str] = []
    for letter in letters:
        if letter not in _ALPHABET:
            raise ValueError(f"{letter!r} is not a generator letter")
        if out and out[-1] == letter.swapcase():
            out.pop()
        else:
            out.append(letter)
    return "".join(out)


class ReducedWord(Frozen):
    """A freely reduced word over the generators of F_n.

    ``letters`` is the printed string: ``a``, ``b``, ... for the generators
    and ``A``, ``B``, ... for their inverses, the first ``rank`` of each,
    with no adjacent cancelling pair; ``rank`` is n. The empty string is the
    identity.
    """

    __slots__ = ("letters", "rank")

    def __init__(self, letters: str, rank: int) -> None:
        check_rank(rank)
        if not isinstance(letters, str):
            raise TypeError(f"letters must be a str, got {letters!r}")
        outside = letters.strip(_ALPHABET[: 2 * rank])
        if outside:
            raise ValueError(f"letter {outside[0]!r} outside rank {rank}")
        if _CANCELLING.search(letters):
            raise ValueError(f"word {letters!r} is not freely reduced")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "rank", rank)

    @classmethod
    def identity(cls, rank: int) -> "ReducedWord":
        return cls("", rank)

    @classmethod
    def from_letters(cls, letters: str, rank: int) -> "ReducedWord":
        """Build a word from a raw (possibly unreduced) letter string."""
        return cls(free_reduce(letters), rank)

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        if not isinstance(other, ReducedWord):
            return NotImplemented
        if other.rank != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        return ReducedWord(free_reduce(self.letters + other.letters), self.rank)

    def inverse(self) -> "ReducedWord":
        return ReducedWord(self.letters[::-1].swapcase(), self.rank)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def starts_with(self, prefix: "ReducedWord") -> bool:
        if prefix.rank != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {prefix.rank}")
        return self.letters.startswith(prefix.letters)

    def parent(self) -> "ReducedWord":
        """Drop the final letter: the adjacent Cayley-tree vertex nearer 1."""
        if not self.letters:
            raise ValueError("the identity has no parent in the Cayley tree")
        return ReducedWord(self.letters[:-1], self.rank)

    def sort_key(self) -> tuple:
        """Shortlex key: by length, then letterwise in a < A < b < B order."""
        return (len(self.letters), self.letters.translate(_SHORTLEX))

    def __str__(self) -> str:
        return self.letters or "1"

    def __repr__(self) -> str:
        return f"ReducedWord({str(self)!r}, rank={self.rank})"


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
    return within_cap(predicted, cap, f"ball of radius {radius} in F_{rank}")


def ball_letters(rank: int, radius: int, cap: int = DEFAULT_CAP) -> Iterator[str]:
    """The letter strings of all reduced words of length <= radius, in shortlex order.

    Refuses with :class:`CapExceededError` above ``cap`` (see
    :func:`capped_ball_size`) before yielding any; the ball grows like
    (2*rank-1)**radius. Every string is reduced by construction.
    """
    capped_ball_size(rank, radius, cap)
    check_rank(rank)
    return _ball_levels(rank, radius)


def tree_children(letters: str, rank: int) -> list[str]:
    """The Cayley-tree children of a reduced word: one letter longer, in shortlex order."""
    back = letters[-1:].swapcase()
    return [letters + letter for letter in _ALPHABET[: 2 * rank] if letter != back]


def _ball_levels(rank: int, radius: int) -> Iterator[str]:
    # The letters that may follow each last letter ("" for the identity), in shortlex order.
    after = {x: [w[-1] for w in tree_children(x, rank)] for x in ["", *_ALPHABET[: 2 * rank]]}
    level = [""]
    yield ""
    for _ in range(radius):
        level = [word + y for word in level for y in after[word[-1:]]]
        yield from level


def free_ball(rank: int, radius: int, cap: int = DEFAULT_CAP) -> list[ReducedWord]:
    """All reduced words of length <= radius, in shortlex order: :func:`ball_letters` as words."""
    return [ReducedWord(letters, rank) for letters in ball_letters(rank, radius, cap)]


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
                        raise ValueError(f"table is not associative at ({a}, {b}, {c})")
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
        return all(self._table[a][b] == self._table[b][a] for a in range(n) for b in range(a))

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


class LampConfig(Frozen):
    """Finitely supported map position -> lamp id, identity values omitted.

    Entries are stored sorted by the shortlex order of their positions, so
    equality, hashing, and serialization are deterministic. The support is
    exactly the set of entry keys.
    """

    __slots__ = ("entries", "lamps", "rank")

    def __init__(
        self, entries: tuple[tuple[ReducedWord, int], ...], lamps: LampGroup, rank: int
    ) -> None:
        previous_key = None
        for position, value in entries:
            if position.rank != rank:
                raise ValueError(
                    f"entry position {position} has rank {position.rank}, expected {rank}"
                )
            if not 1 <= value < lamps.order:
                raise ValueError(f"lamp value {value} outside 1..{lamps.order - 1} at {position}")
            key = position.sort_key()
            if previous_key is not None and key <= previous_key:
                raise ValueError("entries must be strictly shortlex-sorted by position")
            previous_key = key
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "lamps", lamps)
        object.__setattr__(self, "rank", rank)

    @classmethod
    def empty(cls, lamps: LampGroup, rank: int) -> "LampConfig":
        return cls((), lamps, rank)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[ReducedWord, int]], lamps: LampGroup, rank: int
    ) -> "LampConfig":
        """Normalize arbitrary (position, value) pairs: drop identity values, sort."""
        kept = [(p, v) for p, v in pairs if v != 0]
        kept.sort(key=lambda item: item[0].sort_key())
        for (a, _), (b, _) in zip(kept, kept[1:]):
            if a == b:
                raise ValueError(f"duplicate position {a} in lamp configuration")
        return cls(tuple(kept), lamps, rank)

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
        entries = tuple((p, self.lamps.inv(v)) for p, v in self.entries)
        return LampConfig(entries, self.lamps, self.rank)

    def shifted(self, g: ReducedWord) -> "LampConfig":
        """The shifted configuration x -> self(g^-1 x); support moves to g * support."""
        if g.rank != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {g.rank}")
        return LampConfig.from_pairs(((g * p, v) for p, v in self.entries), self.lamps, self.rank)

    def restrict(self, keep: Callable[[ReducedWord], bool]) -> "LampConfig":
        """The configuration agreeing with this one where ``keep`` holds, identity elsewhere."""
        return LampConfig(tuple((p, v) for p, v in self.entries if keep(p)), self.lamps, self.rank)

    def sort_key(self) -> tuple:
        return tuple((p.sort_key(), v) for p, v in self.entries)

    def __str__(self) -> str:
        return "{" + ",".join(f"{p}:{v}" for p, v in self.entries) + "}"

    def __repr__(self) -> str:
        return f"LampConfig({str(self)!r}, rank={self.rank}, lamps={self.lamps!r})"


# ---------------------------------------------------------------------------
# Wreath product elements
# ---------------------------------------------------------------------------


class WreathElement(Frozen):
    """An element (lamps, position) of the wreath product H wr F_n."""

    __slots__ = ("lamps", "position")

    def __init__(self, lamps: LampConfig, position: ReducedWord) -> None:
        if lamps.rank != position.rank:
            raise ValueError(f"lamp rank {lamps.rank} differs from position rank {position.rank}")
        object.__setattr__(self, "lamps", lamps)
        object.__setattr__(self, "position", position)

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
