"""Cayley-tree walls on free groups: the base wall family of the wreath construction.

A wall on a set is a partition into two half-spaces. The concrete walls used
here are the edges of the Cayley tree of F_n: cutting the edge between a
nonempty reduced word ``p`` and its parent splits the group into the cone of
words extending ``p`` and everything else. One wall per tree edge, keyed by
the deep endpoint, and the resulting wall distance is the word metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .groups import ReducedWord


class Side(Enum):
    """Which half of a tree wall: the cone of the deep endpoint, or the rest."""

    CONE = "CONE"
    COCONE = "COCONE"

    @property
    def flipped(self) -> "Side":
        return Side.COCONE if self is Side.CONE else Side.CONE


@dataclass(frozen=True)
class TreeWall:
    """The wall cut by the tree edge joining ``deep`` to its parent word."""

    deep: ReducedWord

    def __post_init__(self) -> None:
        if self.deep.is_identity:
            raise ValueError("a tree wall needs a nonempty deep endpoint")

    @property
    def shallow(self) -> ReducedWord:
        return self.deep.parent()

    def sort_key(self) -> tuple:
        return self.deep.sort_key()

    def __str__(self) -> str:
        return f"wall({self.deep})"


_SIDE_ORDER = {Side.CONE: 0, Side.COCONE: 1}


@dataclass(frozen=True)
class TreeHalfSpace:
    """One of the two classes of a tree wall.

    CONE is the set of words with the wall's deep endpoint as a prefix;
    COCONE is its complement. The two sides partition F_n.
    """

    wall: TreeWall
    side: Side

    def contains(self, word: ReducedWord) -> bool:
        on_cone_side = word.starts_with(self.wall.deep)
        return on_cone_side if self.side is Side.CONE else not on_cone_side

    def complement(self) -> "TreeHalfSpace":
        return TreeHalfSpace(self.wall, self.side.flipped)

    def sort_key(self) -> tuple:
        return (self.wall.sort_key(), _SIDE_ORDER[self.side])

    def __str__(self) -> str:
        return f"{self.side.value}({self.wall.deep})"


def spanned_edges(*words: ReducedWord) -> set[tuple[int, ...]]:
    """The deep endpoints, as letter tuples, of the edges of the subtree the words span.

    They are the words' prefixes longer than their longest common prefix, the
    one the lexicographically least and greatest words share. Two words x and
    y give the ``len(x.inverse() * y)`` edges of their geodesic.
    """
    if not words:
        return set()
    least, greatest = min(w.letters for w in words), max(w.letters for w in words)
    common = next((i for i, (p, q) in enumerate(zip(least, greatest)) if p != q), len(least))
    return {w.letters[:i] for w in words for i in range(common + 1, len(w.letters) + 1)}


def separating_tree_walls(*words: ReducedWord) -> tuple[TreeWall, ...]:
    """The walls separating some two of the words: the :func:`spanned_edges`.

    Returned sorted by deep endpoint.
    """
    if len({w.rank for w in words}) > 1:
        raise ValueError(f"rank mismatch: {sorted({w.rank for w in words})}")
    deeps = spanned_edges(*words)
    walls = [TreeWall(ReducedWord(letters, words[0].rank)) for letters in deeps]
    walls.sort(key=TreeWall.sort_key)
    return tuple(walls)


def translate_half_space(g: ReducedWord, half: TreeHalfSpace) -> TreeHalfSpace:
    """The image of a half-space under left multiplication by g, canonicalized.

    The image edge joins g*deep and g*parent; whichever image word is longer
    becomes the new deep endpoint, and the side is chosen so that membership
    is equivariant: the result contains g*x exactly when ``half`` contains x.
    """
    deep_image = g * half.wall.deep
    shallow_image = g * half.wall.shallow
    assert abs(len(deep_image) - len(shallow_image)) == 1
    if len(deep_image) > len(shallow_image):
        new_wall, cone_holds_image = TreeWall(deep_image), True
    else:
        new_wall, cone_holds_image = TreeWall(shallow_image), False
    # The image of the CONE side is the component containing g*deep.
    side_of_image = Side.CONE if cone_holds_image else Side.COCONE
    side = side_of_image if half.side is Side.CONE else side_of_image.flipped
    return TreeHalfSpace(new_wall, side)
