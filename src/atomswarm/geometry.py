"""Planar geometry for robot configurations.

Positions compare by exact coordinate equality: motion in the engine is rigid
(a mover adopts its target's exact coordinates), so co-location is
representable without tolerances. Multiplicity counting, Voronoi-cell
membership and in-cell sampling all build on that convention.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import repeat
from operator import itemgetter
from typing import Collection, Iterable, Sequence

__all__ = [
    "Point",
    "OccupancyMap",
    "multiplicities",
    "max_multiplicity_positions",
    "voronoi_cell_contains",
    "default_sampling_radius",
    "sample_point_in_cell",
    "barycenter",
]

# Attempts per radius before the in-cell sampler halves the radius.
SAMPLE_ATTEMPTS = 1000

# Radius below which a cell is reported as degenerate.
MIN_SAMPLE_RADIUS = 1e-12

# The sampler accepts a draw without the full cell test when its squared
# offset is below (nearest / 2)**2 times this margin, and only while the
# nearest distance lies in [_IN_DISK_LOW, _IN_DISK_HIGH], where every square
# involved is a normal float (proof in sample_point_in_cell).
_IN_DISK_MARGIN = 1.0 - 2.0**-40
_IN_DISK_LOW = 1e-150
_IN_DISK_HIGH = 1e150


class Point(tuple):
    """A point in the plane: an ``(x, y)`` tuple with finite coordinates.

    Ordering is the tuple's lexicographic order on (x, y) and the hash is the
    tuple hash, so a Point sorts, hashes and compares equal exactly like the
    plain tuple ``(x, y)``.
    """

    __slots__ = ()

    def __new__(cls, x: float, y: float) -> "Point":
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"coordinates must be finite, got ({x!r}, {y!r})")
        return tuple.__new__(cls, (x, y))

    x = property(itemgetter(0), doc="The x coordinate.")
    y = property(itemgetter(1), doc="The y coordinate.")

    def __getnewargs__(self) -> tuple[float, float]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Point(x={self[0]!r}, y={self[1]!r})"

    def squared_distance_to(self, other: "Point") -> float:
        dx = self[0] - other[0]
        dy = self[1] - other[1]
        return dx * dx + dy * dy


OccupancyMap = dict[Point, int]


def multiplicities(positions: Iterable[Point]) -> OccupancyMap:
    """Count robots per distinct position (exact coordinate equality)."""
    return dict(Counter(positions))


def max_multiplicity_positions(occupancy: OccupancyMap) -> set[Point]:
    """The positions whose count equals the maximum count in the map."""
    if not occupancy:
        raise ValueError("no robots")
    top = max(occupancy.values())
    return {p for p, count in occupancy.items() if count == top}


def voronoi_cell_contains(site: Point, sites: Collection[Point], q: Point) -> bool:
    """True iff q lies strictly closer to ``site`` than to every other site.

    ``sites`` is any re-iterable collection (tuple, list or set) that
    contains ``site``; it is read as given, so duplicates and order do not
    matter. Cells are open: a point equidistant to two or more sites belongs
    to no cell. A lone site owns the whole plane. The site itself always
    passes this test, so callers that need ``q != site`` must check that
    separately.
    """
    if site not in sites:
        raise ValueError("site must be one of the given sites")
    qx, qy = q
    sx, sy = site
    dx = qx - sx
    dy = qy - sy
    d_own = dx * dx + dy * dy
    for ox, oy in sites:
        if ox == sx and oy == sy:
            continue
        dx = qx - ox
        dy = qy - oy
        if not d_own < dx * dx + dy * dy:
            return False
    return True


def _nearest(site: Point, sites: Collection[Point]) -> float | None:
    """Distance from ``site`` to the nearest other site; None when there is none.

    One C-level pass: ``filter(None, ...)`` drops the zero distances, which
    are exactly the copies of ``site``. Two finite points that compare
    unequal differ in some coordinate, float subtraction of distinct values
    never gives 0, and ``math.dist`` scales before squaring, so their
    distance is nonzero; ``(-0.0, y)`` equals ``(0.0, y)`` both as a tuple
    and as a distance.
    """
    return min(filter(None, map(math.dist, repeat(site), sites)), default=None)


def default_sampling_radius(site: Point, sites: Collection[Point]) -> float:
    """Half the distance to the nearest other site; 1.0 when the site is alone.

    ``sites`` is read as given (duplicates and copies of ``site`` are
    harmless). Every point within this radius of the site lies strictly
    inside its cell, so sampling at this radius never rejects.
    """
    nearest = _nearest(site, sites)
    return 1.0 if nearest is None else nearest / 2.0


def sample_point_in_cell(site: Point, sites: Collection[Point], radius: float | None, rng) -> Point:
    """Uniform sample from the open Voronoi cell of ``site``, near the site.

    Draws uniformly from the disk of the given radius centred on the site and
    keeps the first draw that lands strictly inside the cell and is not the
    site itself. If ``SAMPLE_ATTEMPTS`` draws in a row reject, the radius is
    halved and sampling restarts; below ``MIN_SAMPLE_RADIUS`` the cell is
    reported as degenerate. ``radius=None`` means
    :func:`default_sampling_radius`.

    ``sites`` is a re-iterable collection containing ``site``; it is scanned
    once for the nearest other site, and read as given again only for draws
    that may leave the cell. ``rng`` needs a ``uniform(low, high)`` method
    (``random.Random`` works).

    A draw q != site whose computed squared offset ``dx*dx + dy*dy`` from the
    site is below ``(nearest/2)**2 * (1 - 2**-40)`` is accepted without
    :func:`voronoi_cell_contains`, which would accept it too:

    - By the triangle inequality, a point strictly within D/2 of its site,
      where D is the true distance to the nearest other site o, is strictly
      closer to the site: |q - o| >= D - |q - s| > D/2 > |q - s|.
    - Floats keep that order. Each difference, square and sum is rounded
      once, with relative error at most 2**-53, so a computed squared
      distance is within a factor 1 +- 2**-51 of the true one, and
      ``math.dist`` returns D within a factor 1 +- 2**-52. A computed offset
      below the bound therefore puts |q - s| below (D/2)(1 - 2**-42), hence
      |q - o| above (D/2)(1 + 2**-42): the true squares differ by a factor
      above 1 + 2**-40, far more than the rounding of the computed ones, so
      the cell test's ``d_own < d_other`` holds for every other site.
    - With nearest in [1e-150, 1e150], the bound is a normal float of at
      least 2.5e-301. A difference that is subnormal is exact, a square
      that falls into the subnormal range is off by at most 2**-1074, which
      is nothing against that bound, and one that overflows to inf only
      makes a far site farther. Outside that range, and for a lone site,
      every draw takes the full cell test.

    The verdict is the cell test's on every draw, so the draws and the rng
    state are the same as with the full test alone.
    """
    if site not in sites:
        raise ValueError("site must be one of the given sites")
    nearest = _nearest(site, sites)
    if radius is None:
        radius = 1.0 if nearest is None else nearest / 2.0
    if radius <= 0:
        raise ValueError("radius must be positive")
    if nearest is not None and _IN_DISK_LOW <= nearest <= _IN_DISK_HIGH:
        bound = (nearest / 2.0) ** 2 * _IN_DISK_MARGIN
    else:
        bound = -1.0  # no squared offset is below it
    sx, sy = site
    while radius >= MIN_SAMPLE_RADIUS:
        for _ in range(SAMPLE_ATTEMPTS):
            r = radius * math.sqrt(rng.uniform(0.0, 1.0))
            theta = rng.uniform(0.0, 2.0 * math.pi)
            cx = sx + r * math.cos(theta)
            cy = sy + r * math.sin(theta)
            candidate = Point(cx, cy)
            if candidate == site:
                continue
            dx = cx - sx
            dy = cy - sy
            if dx * dx + dy * dy < bound or voronoi_cell_contains(site, sites, candidate):
                return candidate
        radius /= 2.0
    raise ValueError("degenerate cell")


def barycenter(positions: Sequence[Point]) -> Point:
    """Component-wise arithmetic mean of the given positions."""
    if not positions:
        raise ValueError("barycenter of an empty position set")
    n = len(positions)
    return Point(sum(p.x for p in positions) / n, sum(p.y for p in positions) / n)
