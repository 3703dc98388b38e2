"""Cayley-tree walls on free groups: the base wall family of the wreath construction.

A wall on a set is a partition into two half-spaces. The concrete walls used
here are the edges of the Cayley tree of F_n: cutting the edge between a
nonempty reduced word ``p`` and its parent splits the group into the cone of
words extending ``p`` and everything else. One wall per tree edge, and the
wall is its deep endpoint ``p``; the resulting wall distance is the word metric.
"""

from __future__ import annotations

from .groups import Frozen, ReducedWord


class TreeHalfSpace(Frozen):
    """One of the two classes of the tree wall cut by the edge joining ``deep`` to its parent.

    With ``cone`` true it is the set of words with ``deep`` as a prefix (the
    CONE side), otherwise its complement (COCONE). The two sides partition F_n.
    """

    __slots__ = ("deep", "cone")

    def __init__(self, deep: ReducedWord, cone: bool) -> None:
        if deep.is_identity:
            raise ValueError("a tree wall needs a nonempty deep endpoint")
        object.__setattr__(self, "deep", deep)
        object.__setattr__(self, "cone", cone)

    def contains(self, word: ReducedWord) -> bool:
        return word.starts_with(self.deep) == self.cone

    def sort_key(self) -> tuple:
        return (self.deep.sort_key(), not self.cone)

    @property
    def side(self) -> str:
        """The printed name of the side, CONE or COCONE."""
        return "CONE" if self.cone else "COCONE"

    def __str__(self) -> str:
        return f"{self.side}({self.deep})"


def spanned_edges(*words: ReducedWord) -> set[str]:
    """The deep endpoints, as letter strings, of the edges of the subtree the words span.

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
    # The image of the cone is the component containing g*deep.
    return TreeHalfSpace(new_deep, half.cone == cone_holds_image)
