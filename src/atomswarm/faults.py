"""Crash schedules and Byzantine movement strategies.

A fault plan declares a budget f, a list of crash events (each freezing or
removing one robot, at a fixed step or when a condition first holds) and a
set of Byzantine robots with their movement strategies. Plans are immutable;
a run's faulty statuses come from its plan alone, and its firing flags, a
small mutable list owned by the run, from ``FaultPlan.start``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .engine import Configuration, MotionStrategy, RobotId, RobotStatus
from .geometry import Point
from .markov import majority_threshold

__all__ = [
    "CrashMode",
    "CrashEvent",
    "FaultPlan",
    "WORST_CASE_TRIGGER",
    "worst_case_crash_trigger",
    "oscillator_move",
    "OscillatorStrategy",
    "StayPutStrategy",
    "ScriptedStrategy",
    "BYZANTINE_STRATEGIES",
]


class CrashMode(Enum):
    FREEZE = "freeze"
    REMOVE = "remove"


# Condition trigger name: fire when the largest group of correct robots
# first reaches the majority threshold.
WORST_CASE_TRIGGER = "max_group_reaches_alpha"


def worst_case_crash_trigger(config: Configuration) -> bool:
    """True when the largest co-located group of correct robots has reached
    floor(n/2) + 1, n counting every robot still physically present.

    Only correct robots are counted toward the group: a robot frozen at the
    rally point must not keep satisfying the condition on behalf of the
    group it was struck from, otherwise a budget of f would always be spent
    on the very first formation event.
    """
    correct = config.correct
    return bool(correct) and max(correct.values()) >= majority_threshold(sum(config.occupancy.values()))


def _worst_case_victim(config: Configuration) -> RobotId:
    """Lowest-id correct robot in the largest correct group (lex-smallest
    position on ties). Deterministic, so replays agree."""
    correct = config.correct
    if not correct:
        raise ValueError("no correct robot left to crash")
    top = max(correct.values())
    rally = min(pos for pos, count in correct.items() if count == top)
    return min(
        rid
        for rid, (pos, status) in config.robots.items()
        if pos == rally and status is RobotStatus.CORRECT
    )


@dataclass(frozen=True)
class CrashEvent:
    """One crash: mode, optional explicit victim, and exactly one trigger.

    ``at`` fires once the step counter reaches the given value; ``when``
    names a condition evaluated on the running configuration. With no
    explicit robot the victim is chosen adversarially at fire time.
    """

    mode: CrashMode
    robot: RobotId | None = None
    at: int | None = None
    when: str | None = None

    def __post_init__(self) -> None:
        if (self.at is None) == (self.when is None):
            raise ValueError("a crash event needs exactly one of 'at' or 'when'")
        if self.at is not None and self.at < 0:
            raise ValueError("'at' must be a non-negative step index")
        if self.when is not None and self.when != WORST_CASE_TRIGGER:
            raise ValueError(f"unknown crash trigger {self.when!r}")

    def due(self, config: Configuration) -> bool:
        if self.at is not None:
            return config.step_index >= self.at
        return worst_case_crash_trigger(config)


@dataclass(frozen=True)
class FaultPlan:
    """Declared fault budget plus the crash schedule and Byzantine roster."""

    f: int
    crashes: tuple[CrashEvent, ...] = ()
    byzantine: Mapping[RobotId, MotionStrategy] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.f < 0:
            raise ValueError("fault budget f must be >= 0")
        declared = len(self.crashes) + len(self.byzantine)
        if declared > self.f:
            raise ValueError(
                f"fault budget exceeded: {declared} fault entries declared, budget f={self.f}"
            )
        named = [e.robot for e in self.crashes if e.robot is not None]
        named.extend(self.byzantine)
        duplicates = [r for r, c in Counter(named).items() if c > 1]
        if duplicates:
            raise ValueError(f"robot {duplicates[0]} appears in more than one fault entry")

    def start(self, config: Configuration) -> tuple[Configuration, list[bool]]:
        """Set up a run's faults: mark the Byzantine robots, fire the crashes
        already due, and return that configuration with the run's firing
        flags (one per crash event) for every later :meth:`fire`."""
        if self.byzantine:
            robots = dict(config.robots)
            for rid in self.byzantine:
                if rid not in robots:
                    raise ValueError(f"byzantine robot {rid} not in the configuration")
                robots[rid] = (robots[rid][0], RobotStatus.BYZANTINE)
            config = Configuration(robots, config.step_index)
        state = [False] * len(self.crashes)
        return self.fire(config, state), state

    def fire(self, config: Configuration, state: list[bool]) -> Configuration:
        """Apply every due, not-yet-fired crash event and return the result.

        Events are considered in declaration order and each sees the
        configuration as updated by the previous one, so a condition trigger
        will not fire twice off the same formation unless it still holds
        after the first victim is struck. The step counter is unchanged:
        crashes do not consume activations.
        """
        current = config
        for index, event in enumerate(self.crashes):
            if state[index] or not event.due(current):
                continue
            victim = event.robot if event.robot is not None else _worst_case_victim(current)
            position, status = current.robots[victim]
            if status is not RobotStatus.CORRECT:
                raise ValueError(f"fault budget misuse: robot {victim} is already faulty")
            new_status = (
                RobotStatus.CRASHED_FROZEN
                if event.mode is CrashMode.FREEZE
                else RobotStatus.CRASHED_REMOVED
            )
            robots = dict(current.robots)
            robots[victim] = (position, new_status)
            current = Configuration(robots, current.step_index)
            state[index] = True
        return current


def oscillator_move(config: Configuration, robot: RobotId) -> Point:
    """Rebalancing adversary for two-group configurations.

    With exactly two occupied positions, move to the one holding fewer
    robots; on a tie, to the position farther from the mover. Any other
    shape falls back to staying put.
    """
    counts = config.occupancy
    self_pos = config.position_of(robot)
    if len(counts) != 2:
        return self_pos
    (pos_a, count_a), (pos_b, count_b) = sorted(counts.items())
    if count_a != count_b:
        return pos_a if count_a < count_b else pos_b
    return max((pos_a, pos_b), key=lambda p: (self_pos.squared_distance_to(p), p))


@dataclass(frozen=True)
class OscillatorStrategy:
    """Byzantine strategy that keeps two groups balanced forever."""

    def destination(self, config: Configuration, robot: RobotId) -> Point:
        return oscillator_move(config, robot)


@dataclass(frozen=True)
class StayPutStrategy:
    def destination(self, config: Configuration, robot: RobotId) -> Point:
        return config.position_of(robot)


@dataclass(frozen=True)
class ScriptedStrategy:
    """Byzantine strategy with fixed destinations keyed by step index.

    Steps without an entry keep the robot where it stands.
    """

    moves: Mapping[int, Point]

    def destination(self, config: Configuration, robot: RobotId) -> Point:
        return self.moves.get(config.step_index, config.position_of(robot))


BYZANTINE_STRATEGIES = {
    "oscillator": OscillatorStrategy,
    "stay-put": StayPutStrategy,
}
