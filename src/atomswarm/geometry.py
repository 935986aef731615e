"""Planar geometry for robot configurations.

Positions compare by exact coordinate equality: motion in the engine is rigid
(a mover adopts its target's exact coordinates), so co-location is
representable without tolerances. Multiplicity counting, Voronoi-cell
membership and in-cell sampling all build on that convention.
"""

from __future__ import annotations

import math
from collections import Counter
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


def default_sampling_radius(site: Point, sites: Collection[Point]) -> float:
    """Half the distance to the nearest other site; 1.0 when the site is alone.

    ``sites`` is read as given (duplicates and copies of ``site`` are
    harmless). Every point within this radius of the site lies strictly
    inside its cell, so sampling at this radius never rejects.
    """
    nearest = min((math.dist(site, s) for s in sites if s != site), default=None)
    return 1.0 if nearest is None else nearest / 2.0


def sample_point_in_cell(site: Point, sites: Collection[Point], radius: float, rng) -> Point:
    """Uniform sample from the open Voronoi cell of ``site``, near the site.

    Draws uniformly from the disk of the given radius centred on the site and
    keeps the first draw that lands strictly inside the cell and is not the
    site itself. If ``SAMPLE_ATTEMPTS`` draws in a row reject, the radius is
    halved and sampling restarts; below ``MIN_SAMPLE_RADIUS`` the cell is
    reported as degenerate.

    ``sites`` is a re-iterable collection containing ``site``, read as given
    on every draw. ``rng`` needs a ``uniform(low, high)`` method
    (``random.Random`` works).
    """
    if site not in sites:
        raise ValueError("site must be one of the given sites")
    if radius <= 0:
        raise ValueError("radius must be positive")
    sx, sy = site
    while radius >= MIN_SAMPLE_RADIUS:
        for _ in range(SAMPLE_ATTEMPTS):
            r = radius * math.sqrt(rng.uniform(0.0, 1.0))
            theta = rng.uniform(0.0, 2.0 * math.pi)
            candidate = Point(sx + r * math.cos(theta), sy + r * math.sin(theta))
            if candidate != site and voronoi_cell_contains(site, sites, candidate):
                return candidate
        radius /= 2.0
    raise ValueError("degenerate cell")


def barycenter(positions: Sequence[Point]) -> Point:
    """Component-wise arithmetic mean of the given positions."""
    if not positions:
        raise ValueError("barycenter of an empty position set")
    n = len(positions)
    return Point(sum(p.x for p in positions) / n, sum(p.y for p in positions) / n)
