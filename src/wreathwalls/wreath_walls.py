"""The wall structure on the wreath product H wr F_n.

A half-space of the wreath product is cut out by a base half-space A of the
free group together with a decoration: the exact lamp configuration an
element must show outside A. An element (lamps, position) belongs to the
half-space when its position lies in A and its lamps, restricted to the
complement of A, equal the decoration. The walls are the partitions into
such a half-space and its complement.

:class:`WreathWallSpace` packages the closed-form wall distance, the walls
separating a sample (built on the keys of ``columns``, imported on first use)
and the directed enumeration read off them, the induced left action, a
brute-force oracle, and the sub-level sets: generated directly, counted by the
spanned-edge series, with the exhaustive box sweep as their oracle.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from .groups import (
    DEFAULT_CAP,
    CapExceededError,
    Frozen,
    LampConfig,
    LampGroup,
    ReducedWord,
    WreathElement,
    ball_letters,
    capped_ball_size,
    capped_power,
    check_elements,
    check_rank,
    free_ball,
    predicted_ball_size,
    within_cap,
)
from .walls import TreeHalfSpace, spanned_edges, translate_half_space


class WreathHalfSpace(Frozen):
    """Half-space of H wr F_n: positions in ``base``, lamps outside equal to ``decoration``.

    The decoration must be supported in the complement of the base
    half-space; inside it the lamps are unconstrained.

    A wall {E, complement of E} is represented by its positive half E: for
    lamp groups of order >= 2 no such half-space is the complement of
    another, so (base, decoration) is a sound canonical identity for it.
    """

    __slots__ = ("base", "decoration")

    def __init__(self, base: TreeHalfSpace, decoration: LampConfig) -> None:
        for position in decoration.support:
            if base.contains(position):
                raise ValueError(
                    f"decoration position {position} lies inside the base half-space {base}"
                )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "decoration", decoration)

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


class SublevelReport(NamedTuple):
    """Outcome of the sub-level properness check at wall distance ``max_wall``.

    ``sublevel`` is the full set of elements at wall distance at most
    ``max_wall`` from the identity; ``violations`` are those among them
    whose position or lamp support leaves the base-group ball of radius
    ``max_wall`` (the containment the construction promises), so a proper
    structure reports ``contained=True`` and no violations. ``box_size``
    (the box of radius ``radius``) and ``cardinality_bound`` (the box of
    radius ``max_wall``) are None where they exceed the cap.
    """

    rank: int
    lamp_order: int
    max_wall: int
    radius: int
    box_size: int | None
    sublevel: tuple[WreathElement, ...]
    base_ball_size: int
    cardinality_bound: int | None
    contained: bool
    violations: tuple[WreathElement, ...]

    @property
    def sublevel_count(self) -> int:
        return len(self.sublevel)


def _coefficient(a: list[int], b: list[int], m: int) -> int:
    """Coefficient ``m`` of the product of two series (see :func:`spanned_edge_series`)."""
    return sum(a[j] * b[m - j] for j in range(m + 1))


def spanned_edge_series(
    rank: int, degree: int, vertex: list[int], branch: list[int], step: list[int]
) -> list[int]:
    """Elements of H wr F_rank counted by the edges of the subtree they span.

    A series is the list of its integer coefficients, truncated at
    ``degree``. ``vertex`` weighs a vertex's lamp, ``branch`` an edge into a
    side branch and ``step`` an edge of the path to the position. A nonempty
    branch below an edge is ``G = branch (V_(2n-1) - 1)``, a vertex with
    ``k`` branch slots is ``V_k = vertex (1 + G)^k``, and the elements are
    ``V_2n + W`` with ``W = 2n step V_(2n-1)^2 / (1 - (2n-1) step V_(2n-2))``
    (README, "Growth series"). Counted by word length ``z`` the weights are
    ``1 + (h-1) z``, ``z^2`` and ``z``; by spanned edges ``e``, ``h``, ``e``
    and ``e``. ``branch`` and ``step`` have no constant term, so coefficient
    ``m`` of ``G`` and ``W`` needs the others only below ``m``: one pass
    fills every series, with ``(1 + G)^(2n-2)`` from J. C. P. Miller's
    recurrence (Knuth, TAOCP vol. 2, 4.7), whose division is exact.
    """
    q, size = 2 * rank - 1, degree + 1
    vertex, branch, step = ((s + [0] * size)[:size] for s in (vertex, branch, step))
    # 1 + G, (1 + G)^(q-1), V_(2n-2), V_(2n-1), W and W / step (the paths after their first edge)
    slot, power, inner, end, paths, rest = ([0] * size for _ in range(6))
    slot[0] = power[0] = 1
    for m in range(size):
        if m:
            slot[m] = _coefficient(branch, end, m) - branch[m]
            power[m] = sum((q * j - m) * slot[j] * power[m - j] for j in range(1, m + 1)) // m
        inner[m] = _coefficient(vertex, power, m)
        end[m] = _coefficient(slot, inner, m)
        paths[m] = _coefficient(step, rest, m)
        rest[m] = 2 * rank * _coefficient(end, end, m) + q * _coefficient(inner, paths, m)
    return [_coefficient(end, slot, m) + paths[m] for m in range(size)]


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

    def check_elements(self, *elements: WreathElement) -> None:
        """Reject elements of another rank or lamp group."""
        check_elements(self.lamps, self.rank, elements)

    # -- separating walls ---------------------------------------------------

    def separating_walls(self, *elements: WreathElement) -> list[tuple[WreathHalfSpace, list[int]]]:
        """The walls separating some two of the elements, with the indices in each positive half.

        One half-space is built per key of :func:`~wreathwalls.columns.keyed_edges`,
        and one for the elements outside the cone of an edge, if there are any; a
        decoration's words are the sample's own. Returned in canonical order.
        """
        from .columns import keyed_edges
        self.check_elements(*elements)
        entry = {(p.letters, v): (p, v) for x in elements for p, v in x.lamps.entries}
        index = list(range(len(elements)))  # one int object per element, shared by every wall
        everyone = set(index)
        walls = []
        for deep, members, in_cone in keyed_edges(elements):
            if len(in_cone) < len(index):
                members[(False, ())] = sorted(everyone.difference(in_cone))
            edge = ReducedWord(deep, self.rank)
            for (inside, beyond), rows in members.items():
                entries = tuple(map(entry.__getitem__, beyond))
                decoration = LampConfig(entries, self.lamps, self.rank)
                walls.append((WreathHalfSpace(TreeHalfSpace(edge, inside), decoration), rows))
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
        self.check_elements(a, b)
        sites = {p for p, _ in set(a.lamps.entries).symmetric_difference(b.lamps.entries)}
        return 2 * len(spanned_edges(a.position, b.position, *sites))

    # -- group action -------------------------------------------------------

    def translate(self, element: WreathElement, half: WreathHalfSpace) -> WreathHalfSpace:
        """The half-space ``element * half``, in canonical form.

        The base half-space moves by the position; the new decoration is the
        element's own lamps outside the moved base, multiplied (on the left)
        into the shifted old decoration. Membership is equivariant:
        the result contains element*x exactly when ``half`` contains x.
        """
        self.check_elements(element)
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
        return max(len(w) for x in (a, b) for w in (x.position, *x.lamps.support)) + 1

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

        Membership is tested by the definition: a word is in the cone at
        ``deep`` when ``deep`` is a prefix of it. One prefix table maps each
        prefix of a word occurring in a or b (a position or lamp site) to the
        occurring words that start with it; a ball word missing from it has
        an empty cone. What an edge keeps depends only on its cone, so the
        walls kept on each distinct cone, the empty one included, are found
        once before the walk. Every ball word is still visited, as a letter
        string, and looks its walls up in the prefix table; where the empty
        cone keeps none, a word outside the table costs one membership test. A
        kept wall is built as a :class:`WreathHalfSpace`, its deep endpoint the
        only word made from the ball, and confirmed through
        :meth:`WreathHalfSpace.contains`.

        With ``decoration_sweep`` every decoration supported in the ball
        beyond each edge is tried instead of just the two restrictions, and
        :meth:`WreathHalfSpace.contains` alone decides which separate; this
        validates that no other decoration can separate, at the cost of a
        much larger sweep. Refuses above the cap before testing an edge whose
        decorations would exceed it.
        """
        self.check_elements(a, b)
        required = self.oracle_radius(a, b)
        if radius < required:
            raise ValueError(
                f"oracle radius {radius} too small: need >= {required} to confine all walls"
            )
        found: list[WreathHalfSpace] = []
        if decoration_sweep:
            ball = free_ball(self.rank, radius, self.cap)
            for deep, inside in itertools.product(ball[1:], (True, False)):
                base = TreeHalfSpace(deep, inside)
                beyond = [p for p in ball if not base.contains(p)]
                predicted = capped_power(self.lamps.order, len(beyond), self.cap)
                within_cap(predicted, self.cap, "decoration sweep")
                for values in itertools.product(self.lamps.elements(), repeat=len(beyond)):
                    config = LampConfig.from_pairs(zip(beyond, values), self.lamps, self.rank)
                    half = WreathHalfSpace(base, config)
                    if half.contains(a) != half.contains(b):
                        found.append(half)
            return tuple(sorted(found, key=WreathHalfSpace.sort_key))
        starting: dict[str, set[str]] = {}
        for x in (a, b):
            for word in (x.position, *x.lamps.support):
                for depth in range(1, len(word) + 1):
                    starting.setdefault(word.letters[:depth], set()).add(word.letters)
        cones = {prefix: frozenset(words) for prefix, words in starting.items()}
        no_cone: frozenset[str] = frozenset()
        sites_a = [(p.letters, (p, v)) for p, v in a.lamps.entries]
        sites_b = [(p.letters, (p, v)) for p, v in b.lamps.entries]

        def kept(cone) -> list[tuple[bool, tuple, bool, bool]]:
            """Cone or not, decoration and memberships of each wall kept on this cone's edges."""
            walls = []
            for inside in (True, False):
                on_side_a = (a.position.letters in cone) == inside
                on_side_b = (b.position.letters in cone) == inside
                beyond_a = tuple(e for w, e in sites_a if (w in cone) != inside)
                beyond_b = tuple(e for w, e in sites_b if (w in cone) != inside)
                for decoration in {beyond_a, beyond_b}:
                    in_a = on_side_a and beyond_a == decoration
                    in_b = on_side_b and beyond_b == decoration
                    if in_a != in_b:
                        walls.append((inside, decoration, in_a, in_b))
            return walls

        words = itertools.islice(ball_letters(self.rank, radius, self.cap), 1, None)
        by_cone = {cone: kept(cone) for cone in {no_cone, *cones.values()}}
        walls_at = {prefix: by_cone[cone] for prefix, cone in cones.items()}
        outside = by_cone[no_cone]  # the walls on each word outside the table
        hits = words if outside else [w for w in words if w in walls_at]
        for letters in hits:
            for inside, decoration, in_a, in_b in walls_at.get(letters, outside):
                base = TreeHalfSpace(ReducedWord(letters, self.rank), inside)
                half = WreathHalfSpace(base, LampConfig(decoration, self.lamps, self.rank))
                if half.contains(a) != in_a or half.contains(b) != in_b:
                    raise RuntimeError(f"oracle membership disagrees with {half}.contains")
                found.append(half)
        return tuple(sorted(found, key=WreathHalfSpace.sort_key))

    # -- properness ---------------------------------------------------------

    def box_size(self, radius: int) -> int:
        """Exact count of elements with position and lamp support in the radius ball.

        Refuses above the cap, without building the ball.
        """
        ball = capped_ball_size(self.rank, radius, self.cap)
        power = capped_power(self.lamps.order, ball, self.cap)
        predicted = None if power is None else power * ball
        return within_cap(predicted, self.cap, f"box of radius {radius}")

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

    def sublevel_size(self, max_wall: int) -> int:
        """Exact number of elements at wall distance <= max_wall from the identity.

        The spanned-edge series (:func:`spanned_edge_series`) counted by
        edges alone, summed up to ``max_wall // 2`` edges. Refuses above
        the cap, at once from the lower bound ``2 ** (max_wall // 2)``
        (lamp patterns along one ray), else from the exact count.
        """
        if max_wall < 0:
            raise ValueError(f"max_wall must be >= 0, got {max_wall}")
        edges, what = max_wall // 2, f"sub-level set at wall distance {max_wall}"
        if edges >= self.cap.bit_length():
            within_cap(None, self.cap, what)
        series = spanned_edge_series(self.rank, edges, [self.lamps.order], [0, 1], [0, 1])
        return within_cap(sum(series), self.cap, what)

    def sublevel(self, max_wall: int) -> list[WreathElement]:
        """Every element at wall distance <= max_wall from the identity, in canonical order.

        ``d(1, x)`` is twice the edge count of the subtree spanned by
        ``{1, position} ∪ support``, so each subtree with at most
        ``max_wall // 2`` edges yields the elements spanning exactly it: any
        position in it, lamps arbitrary at the root, the position and inner
        vertices, and nontrivial at every other leaf. A vertex is its shortlex
        index in the ball of radius ``max_wall // 2``, so the elements sort on
        integer tuples as by :meth:`WreathElement.sort_key`. Refuses above the
        cap (see :meth:`sublevel_size`) before building anything.
        """
        self.sublevel_size(max_wall)
        max_edges, lit = max_wall // 2, range(1, self.lamps.order)
        ball = free_ball(self.rank, max_edges, self.cap)  # the lamp-free part of the set
        index = {word.letters: i for i, word in enumerate(ball)}
        parent = [index[word.letters[:-1]] for word in ball]  # the root is its own
        children: list[list[int]] = [[] for _ in ball]
        for i in range(1, len(ball)):
            children[parent[i]].append(i)

        def configs(order, choices) -> Iterator[tuple[tuple, LampConfig]]:
            for values in itertools.product(*choices):
                key = tuple([(v, value) for v, value in zip(order, values) if value])
                entries = tuple([(ball[v], value) for v, value in key])
                yield key, LampConfig._trusted(entries, self.lamps, self.rank)

        keyed = []
        stack = [([0], children[0])]  # a subtree's vertices, root first, and its frontier
        while stack:
            vertices, frontier = stack.pop()
            if len(vertices) <= max_edges:
                for i, vertex in enumerate(frontier):  # later ones only: each subtree once
                    stack.append((vertices + [vertex], frontier[i + 1 :] + children[vertex]))
            order = sorted(vertices)
            leaves = set(order[1:]).difference(map(parent.__getitem__, order))
            choices = [lit if v in leaves else self.lamps.elements() for v in order]
            all_lit = list(configs(order, choices))
            for position in vertices:
                chosen = all_lit
                if position in leaves:
                    dark = [(0,) if v == position else c for v, c in zip(order, choices)]
                    chosen = [*all_lit, *configs(order, dark)]
                for key, config in chosen:
                    keyed.append((position, key, WreathElement(config, ball[position])))
        keyed.sort()  # (position, key) is unique, so no element is compared
        return [element for _, _, element in keyed]

    def sublevel_report(self, max_wall: int, radius: int) -> SublevelReport:
        """Verify properness of the wall metric at level ``max_wall``.

        Generates the sub-level set (:meth:`sublevel`, which refuses above
        the cap) and checks that each element has position and lamp support
        inside the base ball of radius max_wall. The generation takes no
        radius: ``radius`` only sizes the box of that radius, which holds the
        whole sub-level set whenever radius >= max_wall, since every edge of
        the geodesic from the identity to the position or to a lamp is a base
        wall between them. ``box_size`` and ``cardinality_bound`` (the box of
        radius max_wall) are exact up to the cap and None above it.
        """
        if radius < max_wall:
            raise ValueError(f"radius {radius} must be >= max_wall {max_wall}")
        low = self.sublevel(max_wall)
        violations = [x for x in low if max(map(len, (x.position, *x.lamps.support))) > max_wall]
        return SublevelReport(
            rank=self.rank,
            lamp_order=self.lamps.order,
            max_wall=max_wall,
            radius=radius,
            box_size=self._box_size_or_none(radius),
            sublevel=tuple(low),
            base_ball_size=predicted_ball_size(self.rank, max_wall),
            cardinality_bound=self._box_size_or_none(max_wall),
            contained=not violations,
            violations=tuple(violations),
        )

    def _box_size_or_none(self, radius: int) -> int | None:
        try:
            return self.box_size(radius)
        except CapExceededError:
            return None

    def __repr__(self) -> str:
        return f"WreathWallSpace(lamps={self.lamps!r}, rank={self.rank})"
