"""Cayley-tree walls on free groups: the base wall family of the wreath construction.

A wall on a set is a partition into two half-spaces. The concrete walls used
here are the edges of the Cayley tree of F_n: cutting the edge between a
nonempty reduced word ``p`` and its parent splits the group into the cone of
words extending ``p`` and everything else. One wall per tree edge, and the
wall is its deep endpoint ``p``; the resulting wall distance is the word metric.
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


_SIDE_ORDER = {Side.CONE: 0, Side.COCONE: 1}


@dataclass(frozen=True)
class TreeHalfSpace:
    """One of the two classes of the tree wall cut by the edge joining ``deep`` to its parent.

    CONE is the set of words with ``deep`` as a prefix; COCONE is its
    complement. The two sides partition F_n.
    """

    deep: ReducedWord
    side: Side

    def __post_init__(self) -> None:
        if self.deep.is_identity:
            raise ValueError("a tree wall needs a nonempty deep endpoint")

    def contains(self, word: ReducedWord) -> bool:
        on_cone_side = word.starts_with(self.deep)
        return on_cone_side if self.side is Side.CONE else not on_cone_side

    def sort_key(self) -> tuple:
        return (self.deep.sort_key(), _SIDE_ORDER[self.side])

    def __str__(self) -> str:
        return f"{self.side.value}({self.deep})"


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


def separating_tree_walls(*words: ReducedWord) -> tuple[ReducedWord, ...]:
    """The walls separating some two of the words: the :func:`spanned_edges`.

    Each wall is its deep endpoint; returned in shortlex order.
    """
    if len({w.rank for w in words}) > 1:
        raise ValueError(f"rank mismatch: {sorted({w.rank for w in words})}")
    deeps = [ReducedWord(letters, words[0].rank) for letters in spanned_edges(*words)]
    deeps.sort(key=ReducedWord.sort_key)
    return tuple(deeps)


def translate_half_space(g: ReducedWord, half: TreeHalfSpace) -> TreeHalfSpace:
    """The image of a half-space under left multiplication by g, canonicalized.

    The image edge joins g*deep and g*parent; whichever image word is longer
    becomes the new deep endpoint, and the side is chosen so that membership
    is equivariant: the result contains g*x exactly when ``half`` contains x.
    """
    deep_image = g * half.deep
    shallow_image = g * half.deep.parent()
    assert abs(len(deep_image) - len(shallow_image)) == 1
    cone_holds_image = len(deep_image) > len(shallow_image)
    new_deep = deep_image if cone_holds_image else shallow_image
    # The image of the CONE side is the component containing g*deep.
    side_of_image = Side.CONE if cone_holds_image else Side.COCONE
    side = side_of_image if half.side is Side.CONE else side_of_image.flipped
    return TreeHalfSpace(new_deep, side)
