"""Atomic observe-compute-move execution engine.

Robots are oblivious: a program is a pure function of the observed snapshot,
the robot's own position and fresh randomness. Every robot activated in the
same step observes the same pre-step snapshot, and motion is rigid (the robot
is placed exactly at the destination it computed). Crash-frozen robots stay
observable but never move; crash-removed robots disappear from every later
observation.
"""

from __future__ import annotations

import json
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Mapping, Protocol, Sequence

from .geometry import Point

RobotId = int


class RobotStatus(Enum):
    CORRECT = "correct"
    CRASHED_FROZEN = "crashed_frozen"
    CRASHED_REMOVED = "crashed_removed"
    BYZANTINE = "byzantine"


# What a robot sees: the positions of every non-removed robot, its own included.
Observation = tuple[Point, ...]


class RandomSource:
    """Randomness handed to a robot program for a single activation.

    Binary decisions go through :meth:`coin`, which consumes scripted override
    bits first when any are present (bit 1 means the coin succeeds, i.e. the
    guarded branch is taken). Continuous draws are never scripted.
    """

    __slots__ = ("_rng", "_bits")

    def __init__(self, rng: random.Random, bits: Sequence[int] | None = None):
        self._rng = rng
        self._bits = deque(bits) if bits else None

    def coin(self, p_true: float) -> bool:
        if self._bits:
            return bool(self._bits.popleft())
        return self._rng.random() < p_true

    def choose(self, items: Sequence):
        """Uniform choice; a single-item sequence consumes no randomness."""
        if not items:
            raise ValueError("choose from an empty sequence")
        if len(items) == 1:
            return items[0]
        return items[self._rng.randrange(len(items))]

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)


RobotProgram = Callable[[Observation, Point, RandomSource], Point]


class MotionStrategy(Protocol):
    """Destination rule for a Byzantine robot (sees the full configuration)."""

    def destination(self, config: "Configuration", robot: RobotId) -> Point: ...


@dataclass(frozen=True)
class Configuration:
    """World state: robot id -> (position, status), plus the step counter.

    ``robots`` is in id order: ``configuration_from_positions`` enumerates
    and every later configuration copies its predecessor's dict.
    """

    robots: Mapping[RobotId, tuple[Point, RobotStatus]]
    step_index: int = 0
    # visible_items() at construction (so robots must not change afterwards),
    # shared by the step, the predicate, crash triggers and Byzantine strategies.
    view: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "view", self.visible_items())

    def position_of(self, robot: RobotId) -> Point:
        return self.robots[robot][0]

    def status_of(self, robot: RobotId) -> RobotStatus:
        return self.robots[robot][1]

    def visible_items(self) -> list[tuple[RobotId, Point, RobotStatus]]:
        """(id, position, status) for every non-removed robot, in the order
        of ``robots`` (id order for every configuration built here)."""
        return [
            (rid, pos, status)
            for rid, (pos, status) in self.robots.items()
            if status is not RobotStatus.CRASHED_REMOVED
        ]

    def snapshot(self) -> Observation:
        """Positions of all non-removed robots: what any observer sees."""
        return tuple(pos for _, pos, _ in self.view)

    def eligible(self) -> frozenset[RobotId]:
        """Robots a scheduler may activate (everything not removed)."""
        return frozenset(rid for rid, _, _ in self.view)


def configuration_from_positions(
    positions: Iterable,
    byzantine_ids: Iterable[RobotId] = (),
    frozen_ids: Iterable[RobotId] = (),
) -> Configuration:
    """Build a step-0 configuration from positions (Points or (x, y) pairs)."""
    byzantine_ids = frozenset(byzantine_ids)
    frozen_ids = frozenset(frozen_ids)
    robots: dict[RobotId, tuple[Point, RobotStatus]] = {}
    for rid, pos in enumerate(positions):
        if not isinstance(pos, Point):
            pos = Point(*pos)
        status = RobotStatus.CORRECT
        if rid in byzantine_ids:
            status = RobotStatus.BYZANTINE
        elif rid in frozen_ids:
            status = RobotStatus.CRASHED_FROZEN
        robots[rid] = (pos, status)
    if not robots:
        raise ValueError("a configuration needs at least one robot")
    return Configuration(robots, 0)


def step(
    config: Configuration,
    activated: Iterable[RobotId],
    program: RobotProgram,
    byzantine: Mapping[RobotId, MotionStrategy] | None = None,
    rng: random.Random | None = None,
    coin_overrides: Mapping[tuple[int, RobotId], Sequence[int]] | None = None,
) -> Configuration:
    """Execute one atomic activation step.

    Every activated robot observes the same pre-step snapshot. Correct robots
    run ``program``; Byzantine robots follow their strategy; crash-frozen
    robots are legal to activate but do nothing. Activating a crash-removed
    robot violates the scheduler contract and raises.

    ``coin_overrides`` maps ``(step index, robot id)`` to scripted coin bits
    for that activation; the step index is ``config.step_index`` before the
    step executes.
    """
    activated = sorted(set(activated))
    if not activated:
        raise ValueError("activated set must be nonempty")
    byzantine = byzantine or {}
    rng = rng if rng is not None else random.Random()
    view = config.snapshot()
    new_robots = dict(config.robots)
    for rid in activated:
        if rid not in config.robots:
            raise ValueError(f"unknown robot id {rid}")
        pos, status = config.robots[rid]
        if status is RobotStatus.CRASHED_REMOVED:
            raise ValueError("scheduler contract violation: removed robot activated")
        if status is RobotStatus.CRASHED_FROZEN:
            continue
        if status is RobotStatus.BYZANTINE:
            strategy = byzantine.get(rid)
            dest = strategy.destination(config, rid) if strategy is not None else pos
        else:
            bits = coin_overrides.get((config.step_index, rid)) if coin_overrides else None
            dest = program(view, pos, RandomSource(rng, bits))
        if not isinstance(dest, Point):
            dest = Point(*dest)
        new_robots[rid] = (dest, status)
    return Configuration(new_robots, config.step_index + 1)


def is_gathered(config: Configuration, weak: bool = False) -> bool:
    """Strong: all non-removed robots co-located. Weak: correct robots only."""
    if weak:
        return len({pos for _, pos, status in config.view if status is RobotStatus.CORRECT}) <= 1
    return len(set(config.snapshot())) <= 1


def is_scattered(config: Configuration, weak: bool = False) -> bool:
    """Strong: no two non-removed robots share a position.

    Weak: no correct robot shares its position with any other non-removed
    robot; co-located faulty robots are exempt.
    """
    counts = Counter(config.snapshot())
    if not weak:
        return all(c == 1 for c in counts.values())
    return all(counts[pos] == 1 for _, pos, status in config.view if status is RobotStatus.CORRECT)


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one execution: convergence flag, cost metrics, final state."""

    converged: bool
    steps: int
    rounds: int
    final: Configuration


def trace_record(config: Configuration, activated: Iterable[RobotId]) -> dict:
    """One trace line as a dict: step, activated ids, positions, statuses."""
    positions = {}
    statuses = {}
    for rid, (pos, status) in config.robots.items():
        statuses[str(rid)] = status.value
        if status is not RobotStatus.CRASHED_REMOVED:
            positions[str(rid)] = [pos.x, pos.y]
    return {
        "step": config.step_index,
        "activated": sorted(activated),
        "positions": positions,
        "statuses": statuses,
    }


class _TraceLines:
    """``json.dumps(trace_record(config, activated), sort_keys=True)``, joined
    from per-robot JSON fragments kept in the sorted order of the id strings
    ("10" before "2"). ``update`` re-encodes only the robots that changed."""

    def __init__(self, config: Configuration):
        ids = sorted(config.robots, key=str)
        self._slots = {rid: (i, json.dumps(str(rid)) + ": ") for i, rid in enumerate(ids)}
        self._positions, self._statuses = [""] * len(ids), [""] * len(ids)
        self.update(config, ids)

    def update(self, config: Configuration, robots: Iterable[RobotId]) -> None:
        for rid in robots:
            pos, status = config.robots[rid]
            i, key = self._slots[rid]
            self._positions[i] = "" if status is RobotStatus.CRASHED_REMOVED else key + json.dumps(pos)
            self._statuses[i] = key + json.dumps(status.value)

    def line(self, config: Configuration, activated: Iterable[RobotId]) -> str:
        return (
            f'{{"activated": {json.dumps(sorted(activated))}, '
            f'"positions": {{{", ".join(filter(None, self._positions))}}}, '
            f'"statuses": {{{", ".join(self._statuses)}}}, "step": {config.step_index}}}'
        )


def run(
    initial: Configuration,
    policy,
    program: RobotProgram,
    plan=None,
    predicate: Callable[[Configuration], bool] = is_gathered,
    max_steps: int = 10_000,
    seed: int = 0,
    *,
    on_step: Callable[[str], None] | None = None,
) -> TrialRecord:
    """Drive a full execution until the predicate holds or the horizon ends.

    Per iteration: query the policy, execute the step, evaluate the predicate,
    then fire any due crash triggers from the fault plan (so condition
    triggers see the post-step configuration before the next scheduler
    query). Crashes scheduled for step 0 and Byzantine statuses from the plan
    are applied before the initial predicate check. ``steps`` counts scheduler
    activations consumed. A policy that carries ``coin_overrides`` (a scripted
    one) has its coins applied to the programs it activates.

    ``rounds`` counts completed rounds. A round closes after the first step
    by which every robot that is still eligible (not crash-removed) has been
    activated at least once since the previous round closed; a partial round
    at the end does not count. A robot removed mid-round stops holding that
    round open, so the remaining robots can close it without it. Frozen
    robots stay eligible, so a round still waits for their no-op turn. Only
    the fault plan changes statuses, and it fires after the round check, so
    the eligible set a step was drawn from is also the one that closes it.

    ``on_step`` receives the start line, then one trace line per step whose
    ``activated`` field is the scheduler's choice at that step: the trace is
    the run's only activation record, as ``trace_record`` JSON text.
    """
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    rng = random.Random(seed)
    coin_overrides = getattr(policy, "coin_overrides", None)
    byzantine = dict(plan.byzantine) if plan is not None else {}
    robots = dict(initial.robots)
    for rid in byzantine:
        if rid not in robots:
            raise ValueError(f"byzantine robot {rid} not in the configuration")
        robots[rid] = (robots[rid][0], RobotStatus.BYZANTINE)
    config = Configuration(robots, initial.step_index)
    fault_state = plan.new_state() if plan is not None else None
    if plan is not None:
        config = plan.fire(config, fault_state)

    rounds = 0
    seen: set[RobotId] = set()
    start = config.step_index
    trace = None if on_step is None else _TraceLines(config)
    if trace is not None:
        on_step(trace.line(config, ()))
    if predicate(config):
        return TrialRecord(True, 0, 0, config)

    converged = False
    eligible = config.eligible()
    while config.step_index - start < max_steps:
        if not eligible:
            raise RuntimeError("no robots left to activate")
        activated = frozenset(policy.next_activation(eligible, rng))
        config = step(config, activated, program, byzantine, rng, coin_overrides)
        seen |= activated
        if eligible <= seen:
            rounds += 1
            seen = set()
        if trace is not None:
            trace.update(config, activated)
            on_step(trace.line(config, activated))
        if predicate(config):
            converged = True
            break
        if plan is not None and (fired := plan.fire(config, fault_state)) is not config:
            config, eligible = fired, fired.eligible()
            if trace is not None:
                trace.update(config, config.robots)
    return TrialRecord(converged, config.step_index - start, rounds, config)
