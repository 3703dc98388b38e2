"""The wall structure on the wreath product H wr F_n.

A half-space of the wreath product is cut out by a base half-space A of the
free group together with a decoration: the exact lamp configuration an
element must show outside A. An element (lamps, position) belongs to the
half-space when its position lies in A and its lamps, restricted to the
complement of A, equal the decoration. The walls are the partitions into
such a half-space and its complement.

:class:`WreathWallSpace` packages the fast geodesic-based enumeration of
separating walls, the induced left action on half-spaces, an exhaustive
brute-force oracle for cross-checking, and the sub-level properness report.
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
    check_rank,
    free_ball,
)
from .walls import (
    Side,
    TreeHalfSpace,
    TreeWall,
    separating_tree_walls,
    side_containing,
    translate_half_space,
)


@dataclass(frozen=True)
class WreathHalfSpace:
    """Half-space of H wr F_n: positions in ``base``, lamps outside equal to ``decoration``.

    The decoration must be supported in the complement of the base
    half-space; inside it the lamps are unconstrained.
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
class WreathWall:
    """The wall {E, complement of E} keyed by its positive half E.

    For lamp groups of order >= 2 no such half-space is the complement of
    another, so the (base, decoration) pair is a sound canonical identity
    for the wall.
    """

    positive: WreathHalfSpace

    def sort_key(self) -> tuple:
        return self.positive.sort_key()

    def __str__(self) -> str:
        return str(self.positive)


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

    def _check_element(self, element: WreathElement) -> None:
        if element.rank != self.rank:
            raise ValueError(f"rank mismatch: {element.rank} vs {self.rank}")
        if element.lamps.lamps != self.lamps:
            raise ValueError("element uses a different lamp group")

    # -- separating walls ---------------------------------------------------

    def directed_separating_walls(
        self, inside: WreathElement, outside: WreathElement
    ) -> tuple[WreathWall, ...]:
        """All walls whose positive half contains ``inside`` but not ``outside``.

        The base wall must separate inside's position from outside's
        position or from some position where the two lamp configurations
        disagree; the decoration is then forced to be inside's lamps
        restricted to the far side. Returned in canonical order.
        """
        self._check_element(inside)
        self._check_element(outside)
        disagreement = inside.lamps.left_difference(outside.lamps)
        targets = {outside.position}
        targets.update(disagreement.support)
        base_walls: set[TreeWall] = set()
        for target in targets:
            base_walls.update(separating_tree_walls(inside.position, target))
        walls = [self._wall_through(wall, inside) for wall in base_walls]
        walls.sort(key=WreathWall.sort_key)
        return tuple(walls)

    def _wall_through(self, base_wall: TreeWall, element: WreathElement) -> WreathWall:
        base_side = side_containing(base_wall, element.position)
        decoration = element.lamps.restrict(lambda p: not base_side.contains(p))
        return WreathWall(WreathHalfSpace(base_side, decoration))

    def wall_distance(self, a: WreathElement, b: WreathElement) -> int:
        """Number of walls separating a from b; a proper pseudometric.

        Each separating wall shows up in exactly one direction, so the two
        directed counts add up without overlap.
        """
        return len(self.directed_separating_walls(a, b)) + len(
            self.directed_separating_walls(b, a)
        )

    # -- group action -------------------------------------------------------

    def translate(self, element: WreathElement, half: WreathHalfSpace) -> WreathHalfSpace:
        """The half-space ``element * half``, in canonical form.

        The base half-space moves by the position; the new decoration is the
        element's own lamps outside the moved base, multiplied (on the left)
        into the shifted old decoration. Membership is equivariant:
        the result contains element*x exactly when ``half`` contains x.
        """
        self._check_element(element)
        moved_base = translate_half_space(element.position, half.base)
        shifted_decoration = half.decoration.shifted(element.position)
        own_outside = element.lamps.restrict(lambda p: not moved_base.contains(p))
        return WreathHalfSpace(moved_base, own_outside.pointwise_mul(shifted_decoration))

    def translate_wall(self, element: WreathElement, wall: WreathWall) -> WreathWall:
        return WreathWall(self.translate(element, wall.positive))

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
    ) -> tuple[WreathWall, ...]:
        """Separating walls found by exhaustive search, for cross-checking.

        Tries every base wall with deep endpoint in the radius ball, both
        sides, decorated with each element's lamps restricted to the far
        side, and keeps the walls whose membership differs on a and b. The
        radius must exceed every word length occurring in the two elements,
        which confines all separating walls (and, with the margin, witnesses
        that none live just outside).

        With ``decoration_sweep`` every decoration supported in the ball is
        tried instead of just the two restrictions; this validates that no
        other decoration can separate, at the cost of a much larger sweep.
        """
        self._check_element(a)
        self._check_element(b)
        required = self.oracle_radius(a, b)
        if radius < required:
            raise ValueError(
                f"oracle radius {radius} too small: need >= {required} to confine all walls"
            )
        ball = free_ball(self.rank, radius, self.cap)
        found: set[WreathWall] = set()
        for deep in ball:
            if deep.is_identity:
                continue
            for side in (Side.CONE, Side.COCONE):
                base_side = TreeHalfSpace(TreeWall(deep), side)
                candidates = self._candidate_decorations(
                    base_side, a, b, ball, decoration_sweep
                )
                for decoration in candidates:
                    half = WreathHalfSpace(base_side, decoration)
                    if half.contains(a) != half.contains(b):
                        found.add(WreathWall(half))
        return tuple(sorted(found, key=WreathWall.sort_key))

    def _candidate_decorations(
        self,
        base_side: TreeHalfSpace,
        a: WreathElement,
        b: WreathElement,
        ball: list[ReducedWord],
        decoration_sweep: bool,
    ) -> set[LampConfig]:
        outside = lambda p: not base_side.contains(p)
        if not decoration_sweep:
            return {a.lamps.restrict(outside), b.lamps.restrict(outside)}
        positions = [p for p in ball if outside(p)]
        predicted = self.lamps.order ** len(positions)
        if predicted > self.cap:
            raise CapExceededError(predicted, self.cap, "decoration sweep")
        configs: set[LampConfig] = set()
        for values in itertools.product(self.lamps.elements(), repeat=len(positions)):
            configs.add(LampConfig.from_pairs(zip(positions, values), self.lamps, self.rank))
        return configs

    # -- properness ---------------------------------------------------------

    def box_size(self, radius: int) -> int:
        """Exact count of elements with position and lamp support in the radius ball."""
        ball = len(free_ball(self.rank, radius, self.cap))
        return self.lamps.order**ball * ball

    def enumerate_box(self, radius: int) -> Iterator[WreathElement]:
        """All elements whose position and lamp support lie in the radius ball.

        Deterministic order: positions shortlex, lamp values in table order.
        Refuses when the exact box size exceeds the cap.
        """
        ball = free_ball(self.rank, radius, self.cap)
        predicted = self.lamps.order ** len(ball) * len(ball)
        if predicted > self.cap:
            raise CapExceededError(predicted, self.cap, f"box of radius {radius}")
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
        radius >= max_wall: the directed enumeration yields at least one
        wall per geodesic edge in each direction, so any element reaching
        outside the ball of radius max_wall already has wall distance
        > max_wall and cannot hide beyond the box.
        """
        if max_wall < 0:
            raise ValueError(f"max_wall must be >= 0, got {max_wall}")
        if radius < max_wall:
            raise ValueError(f"radius {radius} must be >= max_wall {max_wall}")
        identity = self.identity()
        inner_ball = set(free_ball(self.rank, max_wall, self.cap))
        low: list[WreathElement] = []
        violations: list[WreathElement] = []
        count = 0
        for element in self.enumerate_box(radius):
            count += 1
            if self.wall_distance(identity, element) <= max_wall:
                low.append(element)
                reach = {element.position, *element.lamps.support}
                if not reach.issubset(inner_ball):
                    violations.append(element)
        low.sort(key=WreathElement.sort_key)
        violations.sort(key=WreathElement.sort_key)
        bound = self.lamps.order ** len(inner_ball) * len(inner_ball)
        return SublevelReport(
            rank=self.rank,
            lamp_order=self.lamps.order,
            max_wall=max_wall,
            radius=radius,
            box_size=count,
            sublevel=tuple(low),
            base_ball_size=len(inner_ball),
            cardinality_bound=bound,
            contained=not violations,
            violations=tuple(violations),
        )

    def __repr__(self) -> str:
        return f"WreathWallSpace(lamps={self.lamps!r}, rank={self.rank})"
