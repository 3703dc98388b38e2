"""The wall structure on the wreath product H wr F_n.

A half-space of the wreath product is cut out by a base half-space A of the
free group together with a decoration: the exact lamp configuration an
element must show outside A. An element (lamps, position) belongs to the
half-space when its position lies in A and its lamps, restricted to the
complement of A, equal the decoration. The walls are the partitions into
such a half-space and its complement.

:class:`WreathWallSpace` packages the closed-form wall distance, the walls
separating a sample (and the directed enumeration read off them), the induced
left action on half-spaces, an exhaustive brute-force oracle for
cross-checking, and the sub-level report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .groups import (
    DEFAULT_CAP,
    CapExceededError,
    LampConfig,
    LampGroup,
    ReducedWord,
    WreathElement,
    capped_ball_size,
    capped_power,
    check_rank,
    free_ball,
)
from .walls import (
    Side,
    TreeHalfSpace,
    TreeWall,
    separating_tree_walls,
    spanned_edges,
    translate_half_space,
)


@dataclass(frozen=True)
class WreathHalfSpace:
    """Half-space of H wr F_n: positions in ``base``, lamps outside equal to ``decoration``.

    The decoration must be supported in the complement of the base
    half-space; inside it the lamps are unconstrained.

    A wall {E, complement of E} is represented by its positive half E: for
    lamp groups of order >= 2 no such half-space is the complement of
    another, so (base, decoration) is a sound canonical identity for it.
    """

    base: TreeHalfSpace
    decoration: LampConfig

    def __post_init__(self) -> None:
        for position in self.decoration.support:
            if self.base.contains(position):
                raise ValueError(
                    f"decoration position {position} lies inside the base half-space {self.base}"
                )

    def contains(self, element: WreathElement) -> bool:
        if element.rank != self.decoration.rank:
            raise ValueError(
                f"rank mismatch: element {element.rank} vs half-space {self.decoration.rank}"
            )
        if not self.base.contains(element.position):
            return False
        outside = element.lamps.restrict(lambda p: not self.base.contains(p))
        return outside == self.decoration

    def sort_key(self) -> tuple:
        return (self.base.sort_key(), self.decoration.sort_key())

    def __str__(self) -> str:
        return f"E({self.base}, {self.decoration})"


@dataclass(frozen=True)
class SublevelReport:
    """Outcome of the sub-level properness check at wall distance ``max_wall``.

    ``sublevel`` is the full set of enumerated elements at wall distance at
    most ``max_wall`` from the identity; ``violations`` are those among them
    whose position or lamp support leaves the base-group ball of radius
    ``max_wall`` (the containment the construction promises), so a proper
    structure reports ``contained=True`` and no violations.
    """

    rank: int
    lamp_order: int
    max_wall: int
    radius: int
    box_size: int
    sublevel: tuple[WreathElement, ...]
    base_ball_size: int
    cardinality_bound: int
    contained: bool
    violations: tuple[WreathElement, ...]

    @property
    def sublevel_count(self) -> int:
        return len(self.sublevel)


class WreathWallSpace:
    """Walls on H wr F_n induced by the Cayley-tree walls of F_n.

    All methods are pure; instances hold only the lamp group, the rank, and
    an enumeration cap, and are safe to share.
    """

    def __init__(self, lamps: LampGroup, rank: int = 2, cap: int = DEFAULT_CAP):
        check_rank(rank)
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.lamps = lamps
        self.rank = rank
        self.cap = cap

    def identity(self) -> WreathElement:
        return WreathElement.identity(self.lamps, self.rank)

    def _check_elements(self, *elements: WreathElement) -> None:
        for element in elements:
            if element.rank != self.rank:
                raise ValueError(f"rank mismatch: {element.rank} vs {self.rank}")
            if element.lamps.lamps != self.lamps:
                raise ValueError("element uses a different lamp group")

    # -- separating walls ---------------------------------------------------

    def _spanning_words(self, elements: tuple[WreathElement, ...]) -> list[ReducedWord]:
        """Each position, and each site where a lamp configuration disagrees with the first."""
        self._check_elements(*elements)
        first = set(elements[0].lamps.entries) if elements else set()
        sites = {p for x in elements[1:] for p, _ in first.symmetric_difference(x.lamps.entries)}
        return [*(x.position for x in elements), *sites]

    def base_walls(self, *elements: WreathElement) -> tuple[TreeWall, ...]:
        """The base walls carrying a wall between some two of the elements.

        The edges of the subtree spanned by every position and every site
        where two lamp configurations disagree, which is where one disagrees
        with the first; any other base wall has all the elements on one side
        with equal lamps beyond it. Sorted by deep endpoint.
        """
        return separating_tree_walls(*self._spanning_words(elements))

    def separating_walls(self, *elements: WreathElement) -> list[tuple[WreathHalfSpace, list[int]]]:
        """The walls separating some two of the elements, with the indices in each positive half.

        Over each of the :meth:`base_walls`, an element lies in exactly one
        wall's positive half: its own side, decorated with its lamps beyond
        the edge. Elements are keyed by that side and those entries, and one
        half-space is built per distinct key; every key on such an edge
        separates. Returned in canonical order.
        """
        index = list(range(len(elements)))  # one int object per element, shared by every edge
        positions = [x.position.letters for x in elements]
        sites = [[(p.letters, (p, v)) for p, v in x.lamps.entries] for x in elements]
        walls = []
        for edge in self.base_walls(*elements):
            deep = edge.deep.letters
            depth = len(deep)
            members: dict[tuple, list[int]] = {}
            for i, position, entries in zip(index, positions, sites):
                inside = position[:depth] == deep
                beyond = tuple([e for w, e in entries if (w[:depth] == deep) != inside])
                members.setdefault((inside, beyond), []).append(i)
            for (inside, beyond), rows in members.items():
                base = TreeHalfSpace(edge, Side.CONE if inside else Side.COCONE)
                decoration = LampConfig(beyond, self.lamps, self.rank)
                walls.append((WreathHalfSpace(base, decoration), rows))
        walls.sort(key=lambda pair: pair[0].sort_key())
        return walls

    def directed_separating_walls(
        self, inside: WreathElement, outside: WreathElement
    ) -> tuple[WreathHalfSpace, ...]:
        """All walls whose positive half contains ``inside`` but not ``outside``.

        One per base wall between the two: the decoration is forced to be
        inside's lamps restricted to the far side. Returned in canonical
        order.
        """
        return tuple(wall for wall, rows in self.separating_walls(inside, outside) if rows == [0])

    def wall_distance(self, a: WreathElement, b: WreathElement) -> int:
        """Number of walls separating a from b; a proper pseudometric.

        Every base wall between the two carries exactly one separating wall
        in each direction, so the count is twice the number of base walls.
        """
        return 2 * len(spanned_edges(*self._spanning_words((a, b))))

    # -- group action -------------------------------------------------------

    def translate(self, element: WreathElement, half: WreathHalfSpace) -> WreathHalfSpace:
        """The half-space ``element * half``, in canonical form.

        The base half-space moves by the position; the new decoration is the
        element's own lamps outside the moved base, multiplied (on the left)
        into the shifted old decoration. Membership is equivariant:
        the result contains element*x exactly when ``half`` contains x.
        """
        self._check_elements(element)
        moved_base = translate_half_space(element.position, half.base)
        shifted_decoration = half.decoration.shifted(element.position)
        own_outside = element.lamps.restrict(lambda p: not moved_base.contains(p))
        return WreathHalfSpace(moved_base, own_outside.pointwise_mul(shifted_decoration))

    # -- exhaustive oracle ----------------------------------------------------

    def oracle_radius(self, a: WreathElement, b: WreathElement) -> int:
        """Smallest radius :meth:`brute_force_separating` accepts for a and b.

        One more than the longest word occurring as a position or lamp site
        of either element.
        """
        occurring = [len(a.position), len(b.position)]
        occurring.extend(len(p) for p in a.lamps.support)
        occurring.extend(len(p) for p in b.lamps.support)
        return max(occurring) + 1

    def brute_force_separating(
        self,
        a: WreathElement,
        b: WreathElement,
        radius: int,
        decoration_sweep: bool = False,
    ) -> tuple[WreathHalfSpace, ...]:
        """Separating walls found by exhaustive search, for cross-checking.

        Tries every base wall with deep endpoint in the radius ball, both
        sides, decorated with each element's lamps restricted to the far
        side, and keeps the walls whose membership differs on a and b. The
        radius must exceed every word length occurring in the two elements,
        which confines all separating walls (and, with the margin, witnesses
        that none live just outside).

        Membership is tested by the definition on plain entry tuples: each
        word occurring in a or b is classified once per edge as in or out of
        its cone. A kept wall is built as a :class:`WreathHalfSpace` and
        confirmed through :meth:`WreathHalfSpace.contains`.

        With ``decoration_sweep`` every decoration supported in the ball is
        tried instead of just the two restrictions; this validates that no
        other decoration can separate, at the cost of a much larger sweep.
        """
        self._check_elements(a, b)
        required = self.oracle_radius(a, b)
        if radius < required:
            raise ValueError(
                f"oracle radius {radius} too small: need >= {required} to confine all walls"
            )
        ball = free_ball(self.rank, radius, self.cap)
        occurring = {w.letters for x in (a, b) for w in (x.position, *x.lamps.support)}
        sites_a = [(p.letters, (p, v)) for p, v in a.lamps.entries]
        sites_b = [(p.letters, (p, v)) for p, v in b.lamps.entries]
        found: list[WreathHalfSpace] = []
        for deep in ball:
            prefix = deep.letters
            if not prefix:
                continue
            cone = {w for w in occurring if w[: len(prefix)] == prefix}
            for side in (Side.CONE, Side.COCONE):
                inside = side is Side.CONE
                on_side_a = (a.position.letters in cone) == inside
                on_side_b = (b.position.letters in cone) == inside
                beyond_a = tuple(e for w, e in sites_a if (w in cone) != inside)
                beyond_b = tuple(e for w, e in sites_b if (w in cone) != inside)
                if decoration_sweep:
                    candidates = self._swept_decorations(ball, deep, inside)
                elif beyond_a == beyond_b:
                    candidates = (beyond_a,)
                else:
                    candidates = (beyond_a, beyond_b)
                for decoration in candidates:
                    in_a = on_side_a and beyond_a == decoration
                    in_b = on_side_b and beyond_b == decoration
                    if in_a != in_b:
                        config = LampConfig(decoration, self.lamps, self.rank)
                        half = WreathHalfSpace(TreeHalfSpace(TreeWall(deep), side), config)
                        if half.contains(a) != in_a or half.contains(b) != in_b:
                            raise RuntimeError(f"oracle membership disagrees with {half}.contains")
                        found.append(half)
        return tuple(sorted(found, key=WreathHalfSpace.sort_key))

    def _swept_decorations(
        self, ball: list[ReducedWord], deep: ReducedWord, inside: bool
    ) -> Iterator[tuple[tuple[ReducedWord, int], ...]]:
        """Entries of every decoration supported in the ball beyond the edge at ``deep``.

        Refuses above the cap before yielding any.
        """
        positions = [p for p in ball if (p.letters[: len(deep)] == deep.letters) != inside]
        predicted = capped_power(self.lamps.order, len(positions), self.cap)
        if predicted is None or predicted > self.cap:
            raise CapExceededError(predicted, self.cap, "decoration sweep")
        return (
            tuple((p, v) for p, v in zip(positions, values) if v)
            for values in itertools.product(self.lamps.elements(), repeat=len(positions))
        )

    # -- properness ---------------------------------------------------------

    def box_size(self, radius: int) -> int:
        """Exact count of elements with position and lamp support in the radius ball.

        Refuses above the cap, without building the ball.
        """
        ball = capped_ball_size(self.rank, radius, self.cap)
        power = capped_power(self.lamps.order, ball, self.cap)
        predicted = None if power is None else power * ball
        if predicted is None or predicted > self.cap:
            raise CapExceededError(predicted, self.cap, f"box of radius {radius}")
        return predicted

    def enumerate_box(self, radius: int) -> Iterator[WreathElement]:
        """All elements whose position and lamp support lie in the radius ball.

        Deterministic order: positions shortlex, lamp values in table order.
        Refuses when the box size exceeds the cap (see :meth:`box_size`).
        """
        self.box_size(radius)
        ball = free_ball(self.rank, radius, self.cap)
        for values in itertools.product(self.lamps.elements(), repeat=len(ball)):
            config = LampConfig.from_pairs(zip(ball, values), self.lamps, self.rank)
            for position in ball:
                yield WreathElement(config, position)

    def sublevel_report(self, max_wall: int, radius: int) -> SublevelReport:
        """Exhaustively verify properness of the wall metric at level ``max_wall``.

        Enumerates the box of the given radius, collects every element at
        wall distance <= max_wall from the identity, and checks each has
        position and lamp support inside the base ball of radius max_wall.

        The box is exhaustive for the sub-level set whenever
        radius >= max_wall: every edge of the geodesic from the identity to
        the position or to a lamp is a base wall between them, so any element
        reaching outside the ball of radius max_wall already has wall
        distance > max_wall and cannot hide beyond the box.
        """
        if max_wall < 0:
            raise ValueError(f"max_wall must be >= 0, got {max_wall}")
        if radius < max_wall:
            raise ValueError(f"radius {radius} must be >= max_wall {max_wall}")
        box = self.box_size(radius)  # refuse before building either ball
        identity = self.identity()
        inner_ball = set(free_ball(self.rank, max_wall, self.cap))
        low = sorted(
            (x for x in self.enumerate_box(radius) if self.wall_distance(identity, x) <= max_wall),
            key=WreathElement.sort_key,
        )
        violations = [x for x in low if not {x.position, *x.lamps.support} <= inner_ball]
        return SublevelReport(
            rank=self.rank,
            lamp_order=self.lamps.order,
            max_wall=max_wall,
            radius=radius,
            box_size=box,
            sublevel=tuple(low),
            base_ball_size=len(inner_ball),
            cardinality_bound=self.box_size(max_wall),
            contained=not violations,
            violations=tuple(violations),
        )

    def __repr__(self) -> str:
        return f"WreathWallSpace(lamps={self.lamps!r}, rank={self.rank})"
