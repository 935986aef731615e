"""Oblivious robot programs.

Each program is a pure rule mapping (observation, own position, randomness)
to a destination point. No state survives between activations. The
observation is a read-only occupancy map: each occupied position with the
number of robots on it, the observer included, and no robot ids. Its key
order is arbitrary, so a program's output must not depend on it: a program
sorts positions only to index into them or to sum floats over them; counting,
membership and minima under a total key are order-free as they are.

The ``source`` argument needs ``coin(p)``, ``choose(seq)`` and
``uniform(low, high)`` methods; the run's ``engine.RandomSource``, which
every program call of a run shares, satisfies this.
"""

from __future__ import annotations

import functools
import inspect
import math

from .geometry import (
    Point,
    barycenter,
    default_sampling_radius,
    max_multiplicity_positions,
    multiplicities,
    sample_point_in_cell,
)

__all__ = [
    # No program calls these; the perfbench span recorder wraps them here by name.
    "multiplicities",
    "default_sampling_radius",
    "random_bit",
    "baseline_gather_step",
    "multiplicity_gather_step",
    "voronoi_scatter_step",
    "barycenter_converge_step",
    "flip_flop_step",
    "PROGRAMS",
    "make_program",
]


TIE_BREAKS = ("lexmin", "nearest")  # flip-flop's rules when every position is a singleton


def random_bit(source) -> int:
    """Biased bit: 0 with probability 3/4, 1 with probability 1/4."""
    return 0 if source.coin(0.75) else 1


def _sorted_positions(obs) -> list[Point]:
    """Every visible robot's position, sorted, with one entry per robot."""
    return [p for p in sorted(obs) for _ in range(obs[p])]


def baseline_gather_step(obs, self_pos: Point, source) -> Point:
    """Gathering without multiplicity knowledge.

    Pick a uniformly random other robot from the observation, then move onto
    it with probability 1/n where n is the number of visible robots;
    otherwise stay. A lone robot never moves. With two robots this moves with
    probability 1/2, so a pair meets after 2 activations in expectation.
    """
    # Sorted because ``choose`` indexes into the robots' positions.
    view = _sorted_positions(obs)
    try:
        view.remove(self_pos)
    except ValueError:
        raise ValueError("observation must contain the observer's position") from None
    if not view:
        return self_pos
    target = source.choose(view)
    if source.coin(1.0 / (len(view) + 1)):
        return target
    return self_pos


def multiplicity_gather_step(obs, self_pos: Point, source) -> Point:
    """Gathering with multiplicity knowledge.

    Let M be the set of observed positions of maximal multiplicity. A robot
    standing on one of several tied maxima moves, with probability 1/|M|, to
    a uniformly chosen other position of M and otherwise stays. Any other
    robot moves straight to a uniformly chosen position of M, which is a
    deterministic move when the maximum is unique. |M| counts the tied
    positions, not the robots standing on them.
    """
    tops = max_multiplicity_positions(obs)
    # Sorted only just before ``choose`` indexes into them.
    if self_pos in tops and len(tops) > 1:
        if source.coin(1.0 / len(tops)):
            return source.choose(sorted(p for p in tops if p != self_pos))
        return self_pos
    return source.choose(sorted(tops))


def voronoi_scatter_step(obs, self_pos: Point, source, *, radius: float | None = None) -> Point:
    """Scattering by in-cell retreat.

    Draw the biased bit; on 1 stay put. On 0 move to a random point strictly
    inside the robot's own Voronoi cell (sites are the distinct occupied
    positions, the keys of the observation). The rule never inspects
    multiplicity, so an already isolated robot keeps wandering inside its
    cell.

    ``radius`` caps how far the sampled point may be from the current
    position; by default half the distance to the nearest other occupied
    point, which makes every draw land inside the cell. The sampler finds
    that distance in its one scan of the sites.
    """
    if random_bit(source) == 1:
        return self_pos
    return sample_point_in_cell(self_pos, obs, radius, source)


def barycenter_converge_step(obs, self_pos: Point, source) -> Point:
    """Move to the barycenter of all visible robots."""
    # Sorted because float sums depend on the order of their terms.
    return barycenter(_sorted_positions(obs))


def flip_flop_step(
    obs,
    self_pos: Point,
    source,
    *,
    tie_break: str = "lexmin",
    radius: float | None = None,
) -> Point:
    """Composite rule alternating between scattering and gathering.

    If at least two distinct positions hold more than one robot, run the
    scattering step. Otherwise gather deterministically: move to the unique
    maximal-multiplicity position when there is one; on a tie (which here
    means all positions are singletons) fall back to ``tie_break``:

    - ``"lexmin"``: the lexicographically smallest observed position;
    - ``"nearest"``: the nearest other occupied position, ties broken
      lexicographically. A lone robot stays put.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be 'lexmin' or 'nearest', got {tie_break!r}")
    crowded = [p for p, count in obs.items() if count >= 2]
    if len(crowded) >= 2:
        return voronoi_scatter_step(obs, self_pos, source, radius=radius)
    tops = max_multiplicity_positions(obs)
    if len(tops) == 1:
        return next(iter(tops))
    if tie_break == "lexmin":
        return min(obs)
    others = [p for p in obs if p != self_pos]
    if not others:
        return self_pos
    return min(others, key=lambda p: (self_pos.squared_distance_to(p), p))


PROGRAMS = {
    "baseline-gather": baseline_gather_step,
    "multiplicity-gather": multiplicity_gather_step,
    "voronoi-scatter": voronoi_scatter_step,
    "barycenter": barycenter_converge_step,
    "flip-flop": flip_flop_step,
}


def make_program(name: str, **params):
    """Look up a program by name, binding keyword parameters if given.

    Unknown names and parameters, a ``radius`` that is not a positive finite
    number and an unknown ``tie_break`` raise ValueError immediately rather
    than at the first activation. The returned callable is picklable (a
    module-level function or a partial of one), so it can cross process
    boundaries.
    """
    base = PROGRAMS.get(name) if isinstance(name, str) else None
    if base is None:
        raise ValueError(f"unknown program {name!r}; available: {', '.join(sorted(PROGRAMS))}")
    if not params:
        return base
    allowed = {
        p.name
        for p in inspect.signature(base).parameters.values()
        if p.kind is inspect.Parameter.KEYWORD_ONLY
    }
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(
            f"program {name!r} does not accept {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    radius = params.get("radius")
    if radius is not None and not (type(radius) in (int, float) and 0 < radius < math.inf):
        raise ValueError(f"program {name!r}: radius must be a positive finite number, got {radius!r}")
    if params.get("tie_break", TIE_BREAKS[0]) not in TIE_BREAKS:
        raise ValueError(f"program {name!r}: tie_break must be one of {TIE_BREAKS}, got {params['tie_break']!r}")
    return functools.partial(base, **params)
