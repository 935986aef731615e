"""Atomic observe-compute-move execution engine.

Robots are oblivious: a program is a pure function of the observation, the
robot's own position and fresh randomness. The observation is the read-only
occupancy map of the pre-step configuration (position -> number of robots
there, no ids), and every robot activated in the same step observes the same
one. Motion is rigid (the robot is placed exactly at the destination it
computed). Crash-frozen robots stay observable but never move; crash-removed
robots disappear from every later observation.

Each configuration carries its occupancy counts, and ``step`` derives the
next counts from the previous ones by shifting the robots that moved, so a
step's Python work grows with the movers, not with n.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Protocol, Sequence

from .geometry import Point

RobotId = int


class RobotStatus(Enum):
    CORRECT = "correct"
    CRASHED_FROZEN = "crashed_frozen"
    CRASHED_REMOVED = "crashed_removed"
    BYZANTINE = "byzantine"


# What a robot sees: position -> number of non-removed robots there, its own
# included. Read-only, and its key order is arbitrary.
Observation = Mapping[Point, int]


class RandomSource(random.Random):
    """A run's randomness: a ``random.Random`` that ``run`` seeds once and
    hands to the policy and to every program call.

    Binary decisions go through :meth:`coin`, which consumes scripted bits
    from ``bits`` first (bit 1 means the coin succeeds, i.e. the guarded
    branch is taken). Continuous draws are never scripted.
    """

    def __init__(self, seed=None):
        super().__init__(seed)
        self.bits: deque[int] = deque()

    def coin(self, p_true: float) -> bool:
        if self.bits:
            return bool(self.bits.popleft())
        return self.random() < p_true

    def choose(self, items: Sequence):
        """Uniform choice; a single-item sequence consumes no randomness."""
        if not items:
            raise ValueError("choose from an empty sequence")
        if len(items) == 1:
            return items[0]
        return items[self.randrange(len(items))]


# A program maps (observation, own position, randomness) to a destination.
RobotProgram = Callable[[Observation, Point, RandomSource], Point]


class MotionStrategy(Protocol):
    """Destination rule for a Byzantine robot (sees the full configuration)."""

    def destination(self, config: "Configuration", robot: RobotId) -> Point: ...


@dataclass(frozen=True)
class Configuration:
    """World state: robot id -> (position, status), plus the step counter.

    ``robots`` is in id order: ``configuration_from_positions`` enumerates
    and every later configuration copies its predecessor's dict.

    ``occupancy`` counts the robots per position over every robot that is not
    crash-removed, ``correct`` over correct robots only; positions with no
    robot are absent. They are counted from ``robots`` at construction unless
    both are passed in (``step`` passes counts it derived from the previous
    configuration). Neither ``robots`` nor the counts change afterwards.
    """

    robots: Mapping[RobotId, tuple[Point, RobotStatus]]
    step_index: int = 0
    occupancy: dict[Point, int] = field(default=None, repr=False, compare=False)
    correct: dict[Point, int] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.occupancy is None or self.correct is None:
            occupancy: dict[Point, int] = {}
            correct: dict[Point, int] = {}
            for _, pos, status in self.visible_items():
                occupancy[pos] = occupancy.get(pos, 0) + 1
                if status is RobotStatus.CORRECT:
                    correct[pos] = correct.get(pos, 0) + 1
            object.__setattr__(self, "occupancy", occupancy)
            object.__setattr__(self, "correct", correct)

    def position_of(self, robot: RobotId) -> Point:
        return self.robots[robot][0]

    def visible_items(self) -> list[tuple[RobotId, Point, RobotStatus]]:
        """(id, position, status) for every non-removed robot, in the order
        of ``robots`` (id order for every configuration built here)."""
        return [
            (rid, pos, status)
            for rid, (pos, status) in self.robots.items()
            if status is not RobotStatus.CRASHED_REMOVED
        ]

    def eligible(self) -> frozenset[RobotId]:
        """Robots a scheduler may activate (everything not removed)."""
        return frozenset(rid for rid, _, _ in self.visible_items())


def configuration_from_positions(positions: Iterable) -> Configuration:
    """Build a step-0 configuration of correct robots from positions (Points
    or (x, y) pairs). A fault plan's ``start`` sets the faulty statuses."""
    robots = {
        rid: (pos if isinstance(pos, Point) else Point(*pos), RobotStatus.CORRECT)
        for rid, pos in enumerate(positions)
    }
    if not robots:
        raise ValueError("a configuration needs at least one robot")
    return Configuration(robots, 0)


def step(
    config: Configuration,
    activated: Iterable[RobotId],
    program: RobotProgram,
    byzantine: Mapping[RobotId, MotionStrategy] | None = None,
    source: RandomSource | None = None,
    coin_overrides: Mapping[tuple[int, RobotId], Sequence[int]] | None = None,
) -> Configuration:
    """Execute one atomic activation step.

    Every activated robot observes the same pre-step occupancy map. Correct
    robots run ``program``; Byzantine robots follow their strategy;
    crash-frozen robots are legal to activate but do nothing. Activating a
    crash-removed robot violates the scheduler contract and raises.

    Every destination is computed against the pre-step counts; only then are
    the counts copied (when some robot moved) and the movers shifted.

    Every program call gets ``source`` itself (a fresh unseeded one when it
    is None). ``coin_overrides`` maps ``(step index, robot id)`` to the coin
    bits that replace ``source.bits`` just before that robot's program runs;
    the step index is ``config.step_index`` before the step executes.
    """
    activated = sorted(set(activated))
    if not activated:
        raise ValueError("activated set must be nonempty")
    byzantine = byzantine or {}
    source = source if source is not None else RandomSource()
    robots = config.robots
    view = MappingProxyType(config.occupancy)
    new_robots = dict(robots)
    moves = []
    for rid in activated:
        if rid not in robots:
            raise ValueError(f"unknown robot id {rid}")
        pos, status = robots[rid]
        if status is RobotStatus.CRASHED_REMOVED:
            raise ValueError("scheduler contract violation: removed robot activated")
        if status is RobotStatus.CRASHED_FROZEN:
            continue
        if status is RobotStatus.BYZANTINE:
            dest = byzantine[rid].destination(config, rid)
        else:
            if coin_overrides:
                source.bits = deque(coin_overrides.get((config.step_index, rid), ()))
            dest = program(view, pos, source)
        if not isinstance(dest, Point):
            dest = Point(*dest)
        new_robots[rid] = (dest, status)
        if dest != pos:
            moves.append((pos, dest, status is RobotStatus.CORRECT))
    occupancy, correct = config.occupancy, config.correct
    if moves:
        occupancy, correct = occupancy.copy(), correct.copy()
        for pos, dest, is_correct in moves:
            _shift(occupancy, pos, dest)
            if is_correct:
                _shift(correct, pos, dest)
    return Configuration(new_robots, config.step_index + 1, occupancy, correct)


def _shift(counts: dict[Point, int], pos: Point, dest: Point) -> None:
    """Move one robot's count from ``pos`` to ``dest``."""
    left = counts[pos] - 1
    if left:
        counts[pos] = left
    else:
        del counts[pos]
    counts[dest] = counts.get(dest, 0) + 1


def is_gathered(config: Configuration, weak: bool = False) -> bool:
    """Strong: all non-removed robots co-located. Weak: correct robots only."""
    return len(config.correct if weak else config.occupancy) <= 1


def is_scattered(config: Configuration, weak: bool = False) -> bool:
    """Strong: no two non-removed robots share a position.

    Weak: no correct robot shares its position with any other non-removed
    robot; co-located faulty robots are exempt.
    """
    occupancy = config.occupancy
    if not weak:
        return len(occupancy) == sum(occupancy.values())
    return all(occupancy[pos] == 1 for pos in config.correct)


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one execution: convergence flag, cost metrics, final state."""

    converged: bool
    steps: int
    rounds: int
    final: Configuration


def trace_record(config: Configuration, activated: Iterable[RobotId]) -> dict:
    """A full trace line as a dict: step, activated ids, positions, statuses.

    ``run`` streams it as the start line only; ``expand_trace`` rebuilds it
    for every later line."""
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
    """Delta trace lines of one run.

    The start line is ``json.dumps(trace_record(config, ()), sort_keys=True)``.
    Every later line has the same four keys, but ``positions`` lists only the
    robots whose position changed since the line before it and ``statuses``
    only those whose status changed; a robot that became crash-removed drops
    out of the positions. A step can move only the robots it activated, so a
    line compares those alone, plus every robot after a fault plan fired.
    Lines are ``json.dumps(..., sort_keys=True)`` text, assembled by hand
    because a json encoder costs microseconds per call. :func:`expand_trace`
    rebuilds the full lines.
    """

    def __init__(self, config: Configuration):
        self._last = config.robots
        self._fired: Iterable[RobotId] = ()
        self.start = json.dumps(trace_record(config, ()), sort_keys=True)

    def fired(self, config: Configuration) -> None:
        """Compare every robot at the next line: ``config`` came from a fire."""
        self._fired = config.robots

    def line(self, config: Configuration, activated: Iterable[RobotId]) -> str:
        last, robots = self._last, config.robots
        positions, statuses = {}, {}
        for rid in (*activated, *self._fired):
            pos, status = robots[rid]
            old_pos, old_status = last[rid]
            if status is not old_status:
                statuses[str(rid)] = f'"{status.value}"'
            # Equal coordinates can still print differently (0.0 and -0.0, 1 and 1.0).
            if status is not RobotStatus.CRASHED_REMOVED and pos is not old_pos and (
                pos != old_pos or repr(pos) != repr(old_pos)
            ):
                positions[str(rid)] = f"[{_json_number(pos[0])}, {_json_number(pos[1])}]"
        self._last, self._fired = robots, ()
        # Robot ids and the step are ints, whose str() is their JSON text.
        return (
            f'{{"activated": {sorted(activated)}, "positions": {{{_members(positions)}}}, '
            f'"statuses": {{{_members(statuses)}}}, "step": {config.step_index}}}'
        )


def _json_number(value) -> str:
    """``json.dumps(value)`` for a finite coordinate; floats skip the encoder."""
    return float.__repr__(value) if isinstance(value, float) else json.dumps(value)


def _members(encoded: dict[str, str]) -> str:
    """The members of a JSON object from key -> encoded value, keys sorted."""
    return ", ".join(f'"{key}": {encoded[key]}' for key in sorted(encoded))


def expand_trace(lines: Iterable[str]) -> Iterator[str]:
    """The full ``json.dumps(trace_record(...), sort_keys=True)`` text of each
    delta trace line that ``run`` streamed, in order (trailing newlines are
    ignored). The first line must be the run's start line."""
    positions = statuses = None
    for line in lines:
        record = json.loads(line)
        if positions is None:
            positions, statuses = record["positions"], record["statuses"]
        else:
            positions.update(record["positions"])
            statuses.update(record["statuses"])
            for rid, status in record["statuses"].items():
                if status == RobotStatus.CRASHED_REMOVED.value:
                    positions.pop(rid, None)
            record["positions"], record["statuses"] = positions, statuses
        yield json.dumps(record, sort_keys=True)


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
    query). The plan's ``start`` marks its Byzantine robots and fires the
    crashes due at step 0 before the initial predicate check. ``steps``
    counts scheduler activations consumed. The policy and every program call
    draw from one ``RandomSource(seed)``; a policy that carries
    ``coin_overrides`` (a scripted one) has its coins loaded into it for the
    programs it activates.

    ``rounds`` counts completed rounds. A round closes after the first step
    by which every robot that is still eligible (not crash-removed) has been
    activated at least once since the previous round closed; a partial round
    at the end does not count. A robot removed mid-round stops holding that
    round open, so the remaining robots can close it without it. Frozen
    robots stay eligible, so a round still waits for their no-op turn. Only
    the fault plan changes statuses, and it fires after the round check, so
    the eligible set a step was drawn from is also the one that closes it.

    ``on_step`` receives the start line, then one delta trace line per step
    (see ``_TraceLines``) whose ``activated`` field is the scheduler's choice
    at that step: the trace is the run's only activation record.
    ``expand_trace`` turns the lines into full ``trace_record`` JSON text.
    """
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    source = RandomSource(seed)
    coin_overrides = getattr(policy, "coin_overrides", None)
    config, fault_state = (initial, None) if plan is None else plan.start(initial)
    byzantine = {} if plan is None else plan.byzantine

    rounds = 0
    seen: set[RobotId] = set()
    start = config.step_index
    trace = None if on_step is None else _TraceLines(config)
    if trace is not None:
        on_step(trace.start)
    if predicate(config):
        return TrialRecord(True, 0, 0, config)

    converged = False
    eligible = config.eligible()
    while config.step_index - start < max_steps:
        if not eligible:
            raise RuntimeError("no robots left to activate")
        activated = frozenset(policy.next_activation(eligible, source))
        config = step(config, activated, program, byzantine, source, coin_overrides)
        seen |= activated
        if eligible <= seen:
            rounds += 1
            seen = set()
        if trace is not None:
            on_step(trace.line(config, activated))
        if predicate(config):
            converged = True
            break
        if plan is not None and (fired := plan.fire(config, fault_state)) is not config:
            config, eligible = fired, fired.eligible()
            if trace is not None:
                trace.fired(config)
    return TrialRecord(converged, config.step_index - start, rounds, config)
