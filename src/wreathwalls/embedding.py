"""Finite-scale certification that the wall metric embeds into Hilbert space.

Walls give squared-distance-isometric coordinates for free: index one 0/1
coordinate per wall, set it to membership in the wall's positive half, and
the Hamming distance between coordinate rows equals the wall distance
exactly. Consequently every wall distance matrix is conditionally negative
definite, which is the finite-sample shadow of a proper isometric action on
a Hilbert space. This module computes the coordinates, checks the isometry,
tests conditional negative definiteness by eigenvalue, and tabulates how the
wall distance grows along word-metric spheres of the wreath product.
numpy is imported only inside the functions that compute with arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .groups import WreathElement, predicted_ball_size, within_cap
from .wreath_walls import WreathHalfSpace, WreathWallSpace, spanned_edge_series

if TYPE_CHECKING:
    import numpy as np


def validate_sample(elements: list[WreathElement]) -> None:
    """Reject empty samples and duplicate elements."""
    if not elements:
        raise ValueError("sample must contain at least one element")
    seen: set[WreathElement] = set()
    for element in elements:
        if element in seen:
            raise ValueError(f"duplicate sample element {element}")
        seen.add(element)


def distance_matrix(space: WreathWallSpace, elements: list[WreathElement]) -> np.ndarray:
    """Matrix of pairwise wall distances; symmetric with zero diagonal.

    Summed over tree nodes, not over pairs. For two elements let ``S`` be
    their positions and the sites where their lamps differ; half their wall
    distance is the edge count of the subtree ``S`` spans, ``|nonempty
    prefixes of S| - |longest common prefix of S|``. A node ``u`` is
    *occupied* by an element with its position or a lamp in the cone of ``u``;
    an element occupying ``r`` nodes is keyed at each by ``u`` and by its
    side of ``u`` with its lamps on the other side. Then half the distance is
    ``r_a + r_b`` less one for each node both occupy and one for each such
    key they share. :meth:`~WreathWallSpace.wall_distance` is the pairwise
    oracle of this sum in the tests.

    Refuses above the space's cap on the n * n entries, before allocating.
    """
    import numpy as np
    validate_sample(elements)
    space.check_elements(*elements)
    n = len(elements)
    within_cap(n * n, space.cap, f"distance matrix of {n} elements")
    occupied = np.zeros(n, dtype=np.int64)
    groups: dict[str | tuple, list[int]] = {}
    for i, x in enumerate(elements):
        position = x.position.letters
        sites = [(p.letters, v) for p, v in x.lamps.entries]
        nodes = {w[:k] for w in (position, *(w for w, _ in sites)) for k in range(1, len(w) + 1)}
        occupied[i] = len(nodes)
        for u in nodes:
            depth = len(u)
            inside = position[:depth] == u
            other_side = tuple([site for site in sites if (site[0][:depth] == u) != inside])
            groups.setdefault(u, []).append(i)
            groups.setdefault((u, inside, other_side), []).append(i)
    matrix = np.zeros((n, n), dtype=np.int64)
    for rows in groups.values():
        if len(rows) > 1:
            matrix[np.ix_(rows, rows)] -= 2
    matrix += 2 * occupied[:, None]
    matrix += 2 * occupied[None, :]
    np.fill_diagonal(matrix, 0)
    validate_distance_matrix(matrix)
    return matrix


def validate_distance_matrix(matrix: np.ndarray) -> None:
    """Check square shape, finite entries, symmetry, zero diagonal, nonnegativity and the
    triangle inequality.

    The triangle check is exact and visits every triple. An integer matrix
    runs it in the narrowest of int16 and int32 that holds twice its largest
    entry, the largest sum it forms; otherwise in its own dtype.
    """
    import numpy as np
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError("distance matrix has non-finite entries")
    if not np.array_equal(matrix, matrix.T):
        raise ValueError("distance matrix is not symmetric")
    if np.any(np.diag(matrix) != 0):
        raise ValueError("distance matrix has nonzero diagonal entries")
    if np.any(matrix < 0):
        raise ValueError("distance matrix has negative entries")
    if np.issubdtype(matrix.dtype, np.integer):
        largest = 2 * int(matrix.max(initial=0))
        narrow = next((t for t in (np.int16, np.int32) if largest <= np.iinfo(t).max), None)
        matrix = matrix if narrow is None else matrix.astype(narrow)
    for k in range(matrix.shape[0]):
        if np.any(matrix > matrix[:, k : k + 1] + matrix[k : k + 1, :]):
            raise ValueError(f"triangle inequality fails through index {k}")


def wall_coordinates(
    space: WreathWallSpace, elements: list[WreathElement]
) -> tuple[list[WreathHalfSpace], np.ndarray]:
    """0/1 wall coordinates realizing the wall distance as Hamming distance.

    Marks membership of each element in the positive half of each of its
    :meth:`~WreathWallSpace.separating_walls`, as ``uint8``; over each base
    edge an element is in exactly its own wall. Rows of the returned matrix differ in exactly
    ``wall_distance`` coordinates: walls separating the pair flip, all
    others agree. The sample is not validated (:func:`distance_matrix`
    does that): an empty sample gives no rows, and repeated elements equal rows.
    """
    import numpy as np
    walls = space.separating_walls(*elements)
    matrix = np.zeros((len(elements), len(walls)), dtype=np.uint8)
    for k, (_, rows) in enumerate(walls):
        matrix[rows, k] = 1
    return [wall for wall, _ in walls], matrix


def coordinates_csv(coordinates: np.ndarray) -> bytes:
    """The CSV text of 0/1 coordinates: one line per row, its digits separated by commas.

    Built as one ``uint8`` buffer with ``'0' + C`` in the even columns, ``,``
    in the odd ones and ``\\n`` at the end of each row, so a row with no
    columns is just ``\\n``.
    """
    import numpy as np
    rows, width = coordinates.shape
    text = np.full((rows, max(2 * width, 1)), ord(","), dtype=np.uint8)
    text[:, : 2 * width : 2] = coordinates + ord("0")
    text[:, -1] = ord("\n")
    return text.tobytes()


def hamming_distances(coordinates: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances of 0/1 rows, exact in integers.

    Uses |x| + |y| - 2<x, y>, so the work is one n x n Gram product rather
    than an n x n x walls comparison. It runs in float64, where numpy uses
    BLAS, exact while its partial sums (at most the column count) stay below 2**53.
    """
    import numpy as np
    if coordinates.shape[1] >= 2**53:
        raise ValueError(f"{coordinates.shape[1]} columns exceed the exact float64 range 2**53")
    ones = coordinates.sum(axis=1, dtype=np.int64)
    real = coordinates.astype(np.float64)
    return ones[:, None] + ones[None, :] - 2 * (real @ real.T).astype(np.int64)


@dataclass(frozen=True)
class CndReport:
    """Result of the conditional-negative-definiteness eigenvalue test."""

    passed: bool
    min_eigenvalue: float
    dimension: int
    tolerance: float


def check_tolerance(tol: float) -> None:
    """Reject an eigenvalue tolerance that is not finite and positive (NaN included)."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")


def cnd_check(matrix: np.ndarray, tol: float = 1e-9) -> CndReport:
    """Test that a symmetric kernel is conditionally negative definite.

    The kernel K passes when sum_ij c_i c_j K_ij <= 0 for every zero-sum
    vector c, equivalently when -1/2 P K P is positive semidefinite for P
    the centering projection. The eigenvalue threshold is ``tol`` scaled by
    the matrix max-norm, so integer kernels of moderate size are judged
    essentially exactly.
    """
    import numpy as np
    check_tolerance(tol)
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"kernel matrix must be square, got shape {matrix.shape}")
    if matrix.size == 0:
        raise ValueError("kernel matrix must be nonempty")
    if not np.isfinite(matrix).all():
        raise ValueError("kernel matrix has non-finite entries")
    if not np.array_equal(matrix, matrix.T):
        raise ValueError("kernel matrix is not symmetric")
    if np.any(matrix < 0):
        raise ValueError("kernel matrix has negative entries")
    n = matrix.shape[0]
    centering = np.eye(n) - np.full((n, n), 1.0 / n)
    centered = -0.5 * (centering @ matrix @ centering)
    min_eigenvalue = float(np.linalg.eigvalsh(centered)[0])
    threshold = tol * max(1.0, float(matrix.max(initial=0.0)))
    return CndReport(
        passed=min_eigenvalue >= -threshold,
        min_eigenvalue=min_eigenvalue,
        dimension=n,
        tolerance=tol,
    )


@dataclass(frozen=True)
class GrowthRow:
    """Wall-distance statistics over one word-metric sphere."""

    radius: int
    sphere_size: int
    min_wall: int
    max_wall: int


def growth_table(space: WreathWallSpace, radius: int) -> list[GrowthRow]:
    """Min/max wall distance to the identity on each word-metric sphere.

    Spheres over the standard generators, counted by the
    :func:`~wreathwalls.wreath_walls.spanned_edge_series` truncated at word
    length ``radius``. Sphere ``r`` holds wall distances from
    ``2 ceil((r - 1) / 3)`` to ``2 r``, both attained (README, "Growth series").
    Refuses exactly when the ball exceeds the cap: from the bounds
    ``2 ** (radius // 2)`` (lamp patterns along one ray) and the free ball
    (lamp-free elements), else from its size.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if radius // 2 >= space.cap.bit_length() or predicted_ball_size(space.rank, radius) > space.cap:
        within_cap(None, space.cap, "growth enumeration")
    spheres = spanned_edge_series(space.rank, radius, [1, space.lamps.order - 1], [0, 0, 1], [0, 1])
    within_cap(sum(spheres), space.cap, "growth enumeration")
    return [GrowthRow(r, size, 2 * ((r + 1) // 3), 2 * r) for r, size in enumerate(spheres)]
