"""Finite-scale certification that the wall metric embeds into Hilbert space, as numpy arrays.

Walls give squared-distance-isometric coordinates for free: one 0/1 coordinate per wall,
membership in its positive half, whose Hamming distances are the wall distances. So every
wall distance matrix is a pseudometric and conditionally negative definite, the finite-sample
shadow of a proper isometric action on a Hilbert space. This module reads the distances and
coordinates that ``embed`` exports as arrays, keeps a pseudometric check and an eigenvalue
test of CND as oracles, and tabulates growth. numpy is imported only inside functions that use it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .groups import WreathElement, predicted_ball_size, within_cap
from .wreath_walls import WreathHalfSpace, WreathWallSpace, spanned_edge_series

if TYPE_CHECKING:
    import numpy as np


def distance_matrix(space: WreathWallSpace, elements: list[WreathElement]) -> np.ndarray:
    """Matrix of pairwise wall distances, not validated (see :func:`validate_distance_matrix`).

    The int64 view of ``columns.hamming_rows`` over the sample's ``columns.wall_columns``, the
    rows ``embed`` exports; refuses as ``wall_columns`` does, before allocating.
    :meth:`~WreathWallSpace.wall_distance` is its oracle.
    """
    import numpy as np
    from .columns import hamming_rows, wall_columns
    n = len(elements)
    rows = hamming_rows(wall_columns(elements, space.lamps, space.rank, space.cap), n)
    return np.frombuffer(b"".join(rows), f"<u{len(rows[0]) // n}").reshape(n, n).astype(np.int64)


def _check_symmetric(matrix: np.ndarray, what: str) -> None:
    """Raise unless ``matrix``, named ``what`` in the message, is square, finite and symmetric."""
    import numpy as np
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{what} must be square, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError(f"{what} has non-finite entries")
    if not np.array_equal(matrix, matrix.T):
        raise ValueError(f"{what} is not symmetric")


def validate_distance_matrix(matrix: np.ndarray) -> None:
    """Check square shape, finite entries, symmetry, zero diagonal, nonnegativity and the
    triangle inequality.

    The triangle check is exact and visits every triple. An integer matrix
    runs it in the narrowest of int8, int16 and int32 that holds twice its
    largest entry, the largest sum it forms; otherwise in its own dtype.
    """
    import numpy as np
    matrix = np.asarray(matrix)
    _check_symmetric(matrix, "distance matrix")
    if np.any(np.diag(matrix) != 0):
        raise ValueError("distance matrix has nonzero diagonal entries")
    if np.any(matrix < 0):
        raise ValueError("distance matrix has negative entries")
    if np.issubdtype(matrix.dtype, np.integer):
        largest = 2 * int(matrix.max(initial=0))
        fits = (t for t in (np.int8, np.int16, np.int32) if largest <= np.iinfo(t).max)
        matrix = matrix.astype(next(fits, matrix.dtype), copy=False)
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


class CndReport(NamedTuple):
    """Result of the conditional-negative-definiteness eigenvalue test."""

    passed: bool
    min_eigenvalue: float
    dimension: int
    tolerance: float


def cnd_check(matrix: np.ndarray, tol: float = 1e-9) -> CndReport:
    """Test that a symmetric kernel is conditionally negative definite.

    The kernel K passes when sum_ij c_i c_j K_ij <= 0 for every zero-sum
    vector c, equivalently when -1/2 P K P is positive semidefinite for P
    the centering projection. The eigenvalue threshold is ``tol`` scaled by
    the matrix max-norm, so integer kernels of moderate size are judged
    essentially exactly.
    """
    import numpy as np
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    matrix = np.asarray(matrix, dtype=np.float64)
    _check_symmetric(matrix, "kernel matrix")
    if matrix.size == 0:
        raise ValueError("kernel matrix must be nonempty")
    if np.any(matrix < 0):
        raise ValueError("kernel matrix has negative entries")
    n = matrix.shape[0]
    centering = np.eye(n) - np.full((n, n), 1.0 / n)
    centered = -0.5 * (centering @ matrix @ centering)
    min_eigenvalue = float(np.linalg.eigvalsh(centered)[0]) + 0.0  # -0.0 (one element) as 0.0
    threshold = tol * max(1.0, float(matrix.max(initial=0.0)))
    return CndReport(
        passed=min_eigenvalue >= -threshold,
        min_eigenvalue=min_eigenvalue,
        dimension=n,
        tolerance=tol,
    )


class GrowthRow(NamedTuple):
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
