"""Geometry primitives: exact-equality occupancy and strict cell membership."""

import math
import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from atomswarm import geometry
from atomswarm.geometry import (
    Point,
    barycenter,
    default_sampling_radius,
    max_multiplicity_positions,
    multiplicities,
    sample_point_in_cell,
    voronoi_cell_contains,
)

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)

# Integer grid sites are pairwise well separated, which keeps the rejection
# sampler fast and the strict-membership checks numerically unambiguous.
grid_points = st.builds(
    Point, st.integers(-50, 50).map(float), st.integers(-50, 50).map(float)
)

# A small integer grid: points collide often and equidistant ties are exact.
small_grid = st.integers(-4, 4).map(float)
tight_points = st.builds(Point, small_grid, small_grid)


def test_point_rejects_non_finite_coordinates():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            Point(bad, 0.0)
        with pytest.raises(ValueError):
            Point(0.0, bad)


def test_point_ordering_is_lexicographic():
    assert Point(0.0, 5.0) < Point(1.0, 0.0)
    assert Point(1.0, 0.0) < Point(1.0, 2.0)
    assert min([Point(2.0, 0.0), Point(0.0, 3.0), Point(0.0, 1.0)]) == Point(0.0, 1.0)


def test_point_is_an_xy_tuple():
    p = Point(1.5, -2.0)
    assert isinstance(p, tuple)
    assert tuple(p) == (1.5, -2.0)
    assert (p.x, p.y) == (1.5, -2.0)
    assert repr(p) == "Point(x=1.5, y=-2.0)"
    with pytest.raises(AttributeError):
        p.x = 0.0


@given(st.one_of(points, tight_points), st.one_of(points, tight_points))
def test_point_order_equality_and_hash_are_those_of_the_plain_tuple(a, b):
    ta, tb = (a.x, a.y), (b.x, b.y)
    assert (a < b) == (ta < tb)
    assert (a <= b) == (ta <= tb)
    assert (a == b) == (ta == tb)
    assert hash(a) == hash(ta)
    assert sorted([a, b]) == sorted([ta, tb])


@given(points)
def test_points_pickle_round_trip(p):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(p, protocol))
        assert type(copy) is Point
        assert copy == p
        assert repr(copy) == repr(p)


@given(points, points)
def test_distance_equals_hypot_bit_for_bit(a, b):
    assert math.dist(a, b).hex() == math.hypot(a.x - b.x, a.y - b.y).hex()


def test_distance_is_euclidean():
    assert math.dist(Point(0.0, 0.0), Point(3.0, 4.0)) == 5.0
    assert Point(1.0, 1.0).squared_distance_to(Point(2.0, 3.0)) == 5.0


@given(points, points)
def test_distance_is_symmetric(a, b):
    assert math.dist(a, b) == math.dist(b, a)


def test_multiplicities_use_exact_coordinate_equality():
    a, b = Point(0.0, 0.0), Point(1.0, 0.0)
    nearly_b = Point(1.0 + 1e-12, 0.0)
    occupancy = multiplicities([a, a, b, nearly_b])
    assert occupancy[a] == 2
    assert occupancy[b] == 1
    assert occupancy[nearly_b] == 1


def test_max_multiplicity_returns_every_tied_position():
    a, b, c = Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.0)
    occupancy = multiplicities([a, a, b, b, c])
    assert max_multiplicity_positions(occupancy) == {a, b}


def test_max_multiplicity_rejects_empty_occupancy():
    with pytest.raises(ValueError, match="no robots"):
        max_multiplicity_positions(multiplicities([]))


def test_cell_membership_is_strict():
    a, b = Point(0.0, 0.0), Point(2.0, 0.0)
    sites = {a, b}
    assert voronoi_cell_contains(a, sites, Point(0.9, 5.0))
    assert not voronoi_cell_contains(a, sites, Point(1.0, 5.0))
    assert not voronoi_cell_contains(b, sites, Point(1.0, 5.0))
    assert voronoi_cell_contains(b, sites, Point(1.1, 5.0))


def test_cell_membership_requires_a_known_site():
    with pytest.raises(ValueError, match="site must be one of the given sites"):
        voronoi_cell_contains(Point(9.0, 9.0), {Point(0.0, 0.0)}, Point(1.0, 1.0))


def test_every_site_lies_in_its_own_cell():
    sites = {Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 4.0)}
    for site in sites:
        assert voronoi_cell_contains(site, sites, site)


def reference_cell_contains(site, sites, q):
    """Cell membership as a generator over attribute reads; the tuple loop must agree."""

    def squared(a, b):
        dx = a.x - b.x
        dy = a.y - b.y
        return dx * dx + dy * dy

    site_set = set(sites)
    if site not in site_set:
        raise ValueError("site must be one of the given sites")
    d_own = squared(q, site)
    return all(d_own < squared(q, s) for s in site_set if s != site)


@given(st.sets(tight_points, min_size=1, max_size=8), st.data(), tight_points)
def test_cell_membership_matches_the_reference_including_exact_ties(sites, data, q):
    site = data.draw(st.sampled_from(sorted(sites)))
    assert voronoi_cell_contains(site, sites, q) == reference_cell_contains(site, sites, q)


@settings(deadline=None)
@given(
    st.lists(tight_points, min_size=1, max_size=8),
    st.data(),
    tight_points,
    st.sampled_from([None, 0.25, 3.0]),
    st.integers(0, 2**32 - 1),
)
def test_helpers_read_sites_as_given(sites, data, q, radius, seed):
    """A list with duplicates, a set and a sorted list of the same sites agree."""
    site = data.draw(st.sampled_from(sites))
    extra = data.draw(st.lists(st.sampled_from(sites), max_size=4))
    forms = [sites + extra, set(sites), sorted(set(sites))]
    assert len({voronoi_cell_contains(site, form, q) for form in forms}) == 1
    radii = {default_sampling_radius(site, form) for form in forms}
    assert len(radii) == 1
    radius = radius or radii.pop()
    draws = set()
    for form in forms:
        rng = random.Random(seed)
        draws.add((sample_point_in_cell(site, form, radius, rng), rng.getstate()))
    assert len(draws) == 1


def test_default_sampling_radius_is_half_the_nearest_neighbor_distance():
    sites = [Point(0.0, 0.0), Point(3.0, 0.0), Point(10.0, 0.0)]
    assert default_sampling_radius(sites[0], sites) == 1.5
    assert default_sampling_radius(sites[1], sites) == 1.5
    assert default_sampling_radius(sites[2], sites) == 3.5


def test_default_sampling_radius_for_a_lone_site_is_one():
    only = Point(5.0, 5.0)
    assert default_sampling_radius(only, [only]) == 1.0


def test_sampled_points_stay_strictly_inside_the_cell():
    rng = random.Random(42)
    sites = [Point(float(x), float(y)) for x in range(3) for y in range(3)]
    for site in sites:
        radius = default_sampling_radius(site, sites)
        for _ in range(25):
            q = sample_point_in_cell(site, sites, radius, rng)
            assert q != site
            assert voronoi_cell_contains(site, sites, q)


@settings(deadline=None)
@given(st.sets(grid_points, min_size=2, max_size=8), st.integers(0, 2**32 - 1))
def test_sampled_point_is_closer_to_its_site_than_to_any_other(sites, seed):
    sites = sorted(sites)
    site = sites[0]
    rng = random.Random(seed)
    q = sample_point_in_cell(site, sites, default_sampling_radius(site, sites), rng)
    gap = q.squared_distance_to(site)
    assert all(gap < q.squared_distance_to(other) for other in sites[1:])


def test_sampling_replays_identically_for_equal_seeds():
    sites = [Point(0.0, 0.0), Point(1.0, 0.0)]

    def draw():
        return sample_point_in_cell(sites[0], sites, 0.5, random.Random(7))

    assert draw() == draw()


def test_sampling_shrinks_the_radius_until_draws_land_in_tight_cells():
    site = Point(0.0, 0.0)
    cage = [
        site,
        Point(1e-3, 0.0),
        Point(-1e-3, 0.0),
        Point(0.0, 1e-3),
        Point(0.0, -1e-3),
    ]
    q = sample_point_in_cell(site, cage, 1000.0, random.Random(3))
    assert voronoi_cell_contains(site, cage, q)
    assert math.hypot(q.x, q.y) < 1e-3


def test_sampling_reports_degenerate_cells():
    sites = [Point(0.0, 0.0), Point(1.0, 0.0)]
    with pytest.raises(ValueError, match="degenerate cell"):
        sample_point_in_cell(sites[0], sites, 1e-13, random.Random(0))


def test_sampling_validates_its_arguments():
    sites = [Point(0.0, 0.0), Point(1.0, 0.0)]
    with pytest.raises(ValueError, match="radius must be positive"):
        sample_point_in_cell(sites[0], sites, 0.0, random.Random(0))
    with pytest.raises(ValueError, match="site must be one of the given sites"):
        sample_point_in_cell(Point(9.0, 9.0), sites, 1.0, random.Random(0))


def reference_nearest(site, sites):
    """The nearest distance as a generator over ``s != site``; ``_nearest`` must agree."""
    return min((math.dist(site, s) for s in sites if s != site), default=None)


def reference_default_sampling_radius(site, sites):
    nearest = reference_nearest(site, sites)
    return 1.0 if nearest is None else nearest / 2.0


def reference_sample_point_in_cell(site, sites, radius, rng):
    """The sampler with the full cell test on every draw; the in-disk accept must agree."""
    if site not in sites:
        raise ValueError("site must be one of the given sites")
    if radius is None:
        radius = reference_default_sampling_radius(site, sites)
    if radius <= 0:
        raise ValueError("radius must be positive")
    sx, sy = site
    while radius >= geometry.MIN_SAMPLE_RADIUS:
        for _ in range(geometry.SAMPLE_ATTEMPTS):
            r = radius * math.sqrt(rng.uniform(0.0, 1.0))
            theta = rng.uniform(0.0, 2.0 * math.pi)
            candidate = Point(sx + r * math.cos(theta), sy + r * math.sin(theta))
            if candidate != site and voronoi_cell_contains(site, sites, candidate):
                return candidate
        radius /= 2.0
    raise ValueError("degenerate cell")


def _sample_outcome(sampler, site, sites, radius, seed):
    """The sampled point (or the error) as exact text, and the rng state after it."""
    rng = random.Random(seed)
    try:
        result = repr(tuple(sampler(site, sites, radius, rng)))
    except ValueError as exc:
        result = f"ValueError: {exc}"
    return result, rng.getstate()


# Site sets on a lattice base + step * k, with steps per base chosen to reach
# subnormal offsets from 0, one-ulp neighbours near 1e16, and coordinates near
# ±1e150 and ±1e200 with nearest distances on both sides of 1e150, where the
# in-disk accept turns off; each case also draws a radius.
LATTICE_STEPS = {
    0.0: [5e-324, 3e-320, 1e-310, 0.25, 1.0],
    1.0: [math.ulp(1.0), 0.25, 1.0],
    1e16: [math.ulp(1e16), 3 * math.ulp(1e16)],
    -1e16: [math.ulp(1e16)],
    1e150: [math.ulp(1e150), 1e147, 1e150, 3e150],
    -1e150: [1e149, 2e150],
    1e200: [math.ulp(1e200), 1e197, 1e200],
    -1e200: [1e199, 1e200],
}


@st.composite
def lattice_cases(draw):
    bx = draw(st.sampled_from(sorted(LATTICE_STEPS)))
    by = draw(st.sampled_from([0.0, bx]))
    step = draw(st.sampled_from(LATTICE_STEPS[bx]))
    ks = st.integers(-3, 3)
    lattice = st.builds(lambda i, j: Point(bx + step * i, by + step * j), ks, ks)
    sites = draw(st.lists(lattice, min_size=2, max_size=6))
    # Three lattice steps: at every scale, many draws leave the cell.
    radius = draw(st.sampled_from([None, 0.25, 3.0, 1e3, 3.0 * step]))
    return draw(st.sampled_from(sites)), sites, radius


@settings(deadline=None, max_examples=150)
@given(lattice_cases(), st.integers(0, 2**32 - 1))
def test_sampler_draws_what_the_full_cell_test_draws(case, seed):
    site, sites, radius = case
    # Ten draws per radius keep unresolvable cells (about 40 halvings down to
    # MIN_SAMPLE_RADIUS) cheap; both samplers read the constant at call time.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "SAMPLE_ATTEMPTS", 10)
        assert _sample_outcome(sample_point_in_cell, site, sites, radius, seed) == _sample_outcome(
            reference_sample_point_in_cell, site, sites, radius, seed
        )


class ScriptedUniform:
    """An rng whose ``uniform`` calls return the given values in order."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, low, high):
        return self.values.pop(0)


def test_a_draw_just_past_half_the_nearest_distance_is_rejected():
    """Offsets a hair above (nearest/2)**2 must take the full test, which rejects
    them here: the first draw lies past the bisector with the neighbour at (2, 0)."""
    site, sites = Point(0.0, 0.0), [Point(0.0, 0.0), Point(2.0, 0.0), Point(0.0, 5.0)]
    r = 1.0 + 4e-8
    rng = ScriptedUniform([(r / 3.0) ** 2, 0.0, 0.01, math.pi / 2])
    q = sample_point_in_cell(site, sites, 3.0, rng)
    assert q.x < 1e-9 and 0.29 < q.y < 0.31
    assert rng.values == []


def _in_disk_bound(site, sites):
    """The sampler's in-disk bound, or None where it does not apply."""
    nearest = reference_nearest(site, sites)
    if nearest is None or not geometry._IN_DISK_LOW <= nearest <= geometry._IN_DISK_HIGH:
        return None
    return (nearest / 2.0) ** 2 * geometry._IN_DISK_MARGIN


# Nearest distances at both ends of the range where the in-disk accept applies.
RANGE_ENDS = [math.nextafter(1e-150, math.inf), 1.000001e-150, math.nextafter(1e150, 0.0), 0.999999e150]


@settings(deadline=None)
@given(
    st.one_of(st.sampled_from(RANGE_ENDS), st.floats(1e-150, 1e150)),
    st.lists(st.tuples(st.floats(1.0, 3.0), st.floats(0.0, 2.0 * math.pi)), min_size=1, max_size=6),
    st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    st.floats(0.0, 2.0 * math.pi),
    st.one_of(st.floats(0.0, 1.0), st.floats(1.0 - 2.0**-30, 1.0)),
    st.booleans(),
)
def test_draws_below_the_in_disk_bound_lie_in_the_cell(d, polar, offset, theta, t, toward_nearest):
    """Soundness of the sampler's shortcut: below the bound, the full test accepts."""
    site = Point(d * offset[0], d * offset[1])
    sites = [site] + [Point(site.x + d * m * math.cos(phi), site.y + d * m * math.sin(phi)) for m, phi in polar]
    bound = _in_disk_bound(site, sites)
    assume(bound is not None)
    if toward_nearest:
        # The hardest direction: straight at the nearest other site.
        nearest_site = min((s for s in sites if s != site), key=lambda s: math.dist(site, s))
        theta = math.atan2(nearest_site.y - site.y, nearest_site.x - site.x)
    rho = math.sqrt(bound) * t
    q = Point(site.x + rho * math.cos(theta), site.y + rho * math.sin(theta))
    dx, dy = q.x - site.x, q.y - site.y
    if q != site and dx * dx + dy * dy < bound:
        assert voronoi_cell_contains(site, sites, q)


@pytest.mark.parametrize("d", RANGE_ENDS)
def test_draws_just_inside_the_bound_lie_in_the_cell_at_the_range_ends(d):
    rng = random.Random(2024)
    site = Point(0.0, 0.0)
    sites = [site] + [Point(d * math.cos(a), d * math.sin(a)) for a in (0.0, 2.0, 4.0)]
    bound = _in_disk_bound(site, sites)
    assert bound is not None
    hits = 0
    for _ in range(3000):
        rho = math.sqrt(bound) * (1.0 - rng.random() * 2.0**-38)
        theta = rng.choice((0.0, 2.0, 4.0)) + rng.uniform(-1e-6, 1e-6)
        q = Point(rho * math.cos(theta), rho * math.sin(theta))
        if q.x * q.x + q.y * q.y < bound:
            hits += 1
            assert voronoi_cell_contains(site, sites, q)
    assert hits > 1000


@pytest.mark.parametrize(
    "sites",
    [
        [Point(0.0, 0.0), Point(-0.0, 0.0)],
        [Point(0.0, 0.0), Point(0.0, -0.0), Point(-0.0, -0.0), Point(3.0, 4.0)],
        [Point(0.0, 0.0), Point(5e-324, 0.0)],
        [Point(0.0, 0.0), Point(0.0, 5e-324), Point(1e-300, 0.0)],
        [Point(0.0, 0.0), Point(0.0, 0.0), Point(0.0, 0.0)],
        [Point(0.0, 0.0), Point(0.0, 0.0), Point(-0.0, 0.0), Point(2.0, 0.0), Point(2.0, 0.0)],
        # A neighbour whose distance overflows to inf is still a neighbour.
        [Point(0.0, 0.0), Point(1.7e308, 1.7e308)],
    ],
)
def test_default_radius_excludes_exactly_the_copies_of_the_site(sites):
    site = Point(0.0, 0.0)
    expected = reference_default_sampling_radius(site, sites)
    assert default_sampling_radius(site, sites).hex() == expected.hex()
    assert geometry._nearest(site, sites) == reference_nearest(site, sites)


def test_barycenter_is_the_coordinate_mean():
    pts = [Point(0.0, 0.0), Point(2.0, 0.0), Point(1.0, 3.0)]
    assert barycenter(pts) == Point(1.0, 1.0)


@given(st.lists(points, min_size=1, max_size=12))
def test_barycenter_stays_in_the_bounding_box(pts):
    center = barycenter(pts)
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    pad = 1e-6
    assert min(xs) - pad <= center.x <= max(xs) + pad
    assert min(ys) - pad <= center.y <= max(ys) + pad
