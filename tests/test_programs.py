"""Robot decision rules: move targets, tie handling, coin calibration."""

import functools
import pickle
import random
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from atomswarm.engine import RandomSource
from atomswarm.geometry import Point, multiplicities, voronoi_cell_contains
from atomswarm.programs import (
    PROGRAMS,
    baseline_gather_step,
    barycenter_converge_step,
    flip_flop_step,
    make_program,
    multiplicity_gather_step,
    random_bit,
    voronoi_scatter_step,
)


def source_with(bits=None, seed=0):
    return RandomSource(random.Random(seed), bits=bits)


def observe(*positions):
    """The read-only occupancy map a program receives for these robots."""
    return MappingProxyType(multiplicities(positions))


# A small integer grid: robots share positions often and distance ties are exact.
grid = st.integers(-3, 3).map(float)
views = st.lists(st.builds(Point, grid, grid), min_size=1, max_size=8)

ORDER_CHECKED = {
    **PROGRAMS,
    "flip-flop-nearest": functools.partial(flip_flop_step, tie_break="nearest"),
}


@pytest.mark.parametrize("name", sorted(ORDER_CHECKED))
@given(obs=views, data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_programs_do_not_depend_on_observation_order(name, obs, data, seed):
    program = ORDER_CHECKED[name]
    me = data.draw(st.sampled_from(obs))
    counts = multiplicities(obs)
    shuffled = {p: counts[p] for p in data.draw(st.permutations(list(counts)))}
    outcomes = set()
    for view in (counts, shuffled):
        rng = random.Random(seed)
        outcomes.add((program(MappingProxyType(view), me, RandomSource(rng)), rng.getstate()))
    assert len(outcomes) == 1


def test_random_bit_is_zero_three_quarters_of_the_time():
    rng = random.Random(13)
    draws = 100_000
    zeros = sum(random_bit(RandomSource(rng)) == 0 for _ in range(draws))
    assert abs(zeros / draws - 0.75) < 0.01


def test_scripted_coin_success_forces_the_zero_bit():
    assert random_bit(source_with(bits=(1,))) == 0
    assert random_bit(source_with(bits=(0,))) == 1


def test_baseline_mover_targets_another_robot_never_itself():
    a, b, c = Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.0)
    dest = baseline_gather_step(observe(a, b, c), a, source_with(bits=(1,)))
    assert dest in (b, c)


def test_baseline_failure_coin_keeps_the_robot_in_place():
    a, b = Point(0.0, 0.0), Point(1.0, 0.0)
    assert baseline_gather_step(observe(a, b), a, source_with(bits=(0,))) == a


def test_a_lone_baseline_robot_never_moves():
    a = Point(0.0, 0.0)
    assert baseline_gather_step(observe(a), a, source_with()) == a


def test_baseline_requires_the_observer_in_the_observation():
    with pytest.raises(ValueError, match="observer's position"):
        baseline_gather_step(observe(Point(1.0, 0.0)), Point(0.0, 0.0), source_with())


def test_baseline_decisions_ignore_observation_order():
    view = [Point(2.0, 0.0), Point(0.0, 0.0), Point(1.0, 0.0)]
    me = Point(1.0, 0.0)
    a = baseline_gather_step(observe(*view), me, source_with(seed=77))
    b = baseline_gather_step(observe(*reversed(view)), me, source_with(seed=77))
    assert a == b


def test_baseline_move_frequency_is_one_over_n():
    rng = random.Random(29)
    draws = 40_000
    for n in (2, 4):
        positions = [Point(float(i), 0.0) for i in range(n)]
        view = observe(*positions)
        moves = sum(
            baseline_gather_step(view, positions[0], RandomSource(rng)) != positions[0]
            for _ in range(draws)
        )
        assert abs(moves / draws - 1 / n) < 0.01


def test_multiplicity_moves_straight_to_the_unique_crowd():
    a, b = Point(0.0, 0.0), Point(3.0, 0.0)
    assert multiplicity_gather_step(observe(a, a, b), b, source_with()) == a


def test_multiplicity_tie_move_targets_the_other_crowd():
    a, b = Point(0.0, 0.0), Point(3.0, 0.0)
    view = observe(a, a, b, b)
    assert multiplicity_gather_step(view, a, source_with(bits=(1,))) == b
    assert multiplicity_gather_step(view, a, source_with(bits=(0,))) == a


def test_singleton_ties_move_with_one_over_positions_by_default():
    a, b, c = Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.0)
    rng = random.Random(17)
    draws = 30_000
    moves = sum(
        multiplicity_gather_step(observe(a, b, c), a, RandomSource(rng)) != a
        for _ in range(draws)
    )
    assert abs(moves / draws - 1 / 3) < 0.02


def test_crowded_ties_divide_by_tied_positions_not_robots():
    a, b = Point(0.0, 0.0), Point(3.0, 0.0)
    rng = random.Random(23)
    draws = 30_000
    moves = sum(
        multiplicity_gather_step(observe(a, a, b, b), a, RandomSource(rng)) != a
        for _ in range(draws)
    )
    assert abs(moves / draws - 1 / 2) < 0.02


def test_scatter_moves_land_strictly_inside_the_cell():
    a, b = Point(0.0, 0.0), Point(2.0, 0.0)
    dest = voronoi_scatter_step(observe(a, b), a, source_with(bits=(1,), seed=3))
    assert dest != a
    assert voronoi_cell_contains(a, {a, b}, dest)


def test_scatter_stays_put_on_the_one_bit():
    a, b = Point(0.0, 0.0), Point(2.0, 0.0)
    assert voronoi_scatter_step(observe(a, b), a, source_with(bits=(0,))) == a


def test_scatter_is_blind_to_multiplicities():
    a, b = Point(0.0, 0.0), Point(2.0, 0.0)
    lone = voronoi_scatter_step(observe(a, b), a, source_with(bits=(1,), seed=9))
    stacked = voronoi_scatter_step(observe(a, a, a, b), a, source_with(bits=(1,), seed=9))
    assert lone == stacked


def test_scatter_honors_an_explicit_radius():
    a, b = Point(0.0, 0.0), Point(2.0, 0.0)
    dest = voronoi_scatter_step(observe(a, b), a, source_with(bits=(1,), seed=5), radius=0.01)
    assert a.distance_to(dest) <= 0.01


def test_barycenter_program_moves_to_the_mean():
    view = observe(Point(0.0, 0.0), Point(2.0, 0.0), Point(1.0, 3.0))
    assert barycenter_converge_step(view, Point(0.0, 0.0), source_with()) == Point(1.0, 1.0)


def test_flip_flop_scatters_when_two_positions_are_crowded():
    a, b = Point(0.0, 0.0), Point(10.0, 0.0)
    dest = flip_flop_step(observe(a, a, b, b), a, source_with(bits=(1,), seed=2))
    assert dest != a
    assert voronoi_cell_contains(a, {a, b}, dest)


def test_flip_flop_gathers_on_the_unique_crowd():
    a, b = Point(0.0, 0.0), Point(10.0, 0.0)
    assert flip_flop_step(observe(a, a, b), b, source_with()) == a


def test_flip_flop_singleton_ties_break_to_the_smallest_position():
    a, b, c = Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.0)
    assert flip_flop_step(observe(a, b, c), c, source_with()) == a


def test_flip_flop_nearest_tie_break_targets_the_closest_other_robot():
    me = Point(0.0, 0.0)
    view = observe(me, Point(3.0, 0.0), Point(-1.0, 0.0))
    dest = flip_flop_step(view, me, source_with(), tie_break="nearest")
    assert dest == Point(-1.0, 0.0)


def test_flip_flop_nearest_distance_ties_prefer_the_smaller_point():
    me = Point(0.0, 0.0)
    view = observe(me, Point(1.0, 0.0), Point(-1.0, 0.0))
    dest = flip_flop_step(view, me, source_with(), tie_break="nearest")
    assert dest == Point(-1.0, 0.0)


def test_flip_flop_rejects_unknown_tie_breaks():
    a = Point(0.0, 0.0)
    with pytest.raises(ValueError, match="tie_break"):
        flip_flop_step(observe(a), a, source_with(), tie_break="random")


def test_program_registry_names():
    assert set(PROGRAMS) == {
        "baseline-gather",
        "multiplicity-gather",
        "voronoi-scatter",
        "barycenter",
        "flip-flop",
    }


def test_make_program_validates_names_and_parameters():
    with pytest.raises(ValueError, match="unknown program"):
        make_program("teleport")
    with pytest.raises(ValueError, match="does not accept"):
        make_program("baseline-gather", radius=2.0)


def test_made_programs_survive_pickling():
    program = make_program("flip-flop", tie_break="nearest", radius=1.0)
    clone = pickle.loads(pickle.dumps(program))
    me = Point(0.0, 0.0)
    view = observe(me, Point(3.0, 0.0), Point(-1.0, 0.0))
    assert clone(view, me, source_with()) == program(view, me, source_with())
