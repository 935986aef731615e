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
    "fault_plan_from_dict",
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


# JSON field checks shared by every config parser; each error names its field.


def _integer(value, field: str, low: int | None = None, high: int | None = None) -> int:
    """A JSON integer in ``low..high`` (either end optional); floats and
    booleans are rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{field} must be {bounds}, got {value!r}")
    return value


def _list(value, field: str):
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field} must be a list, got {value!r}")
    return value


def _point(value, field: str) -> Point:
    try:
        x, y = value
        return Point(float(x), float(y))
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{field} must be an [x, y] pair of finite numbers, got {value!r}") from None


def fault_plan_from_dict(data: Mapping, n: int) -> FaultPlan:
    """Build a fault plan for robots ``0..n-1`` from its JSON object form.

    Schema::

        {"f": 2,
         "crashes": [{"robot": 3, "mode": "freeze", "at": 10},
                     {"mode": "freeze", "when": "max_group_reaches_alpha"}],
         "byzantine": [{"robot": 0, "strategy": "oscillator"}]}

    ``robot`` may be omitted from a crash entry to let the plan pick the
    worst-case victim at fire time.
    """
    if "f" not in data:
        raise ValueError("fault plan needs a declared budget 'f'")
    crashes = []
    for index, entry in enumerate(_list(data.get("crashes", ()), "crashes")):
        where = f"crashes[{index}]"
        if not isinstance(entry, Mapping):
            raise ValueError(f"{where} must be an object, got {entry!r}")
        try:
            mode = CrashMode(entry["mode"])
        except KeyError:
            raise ValueError("crash entry needs a 'mode'") from None
        except ValueError:
            raise ValueError(
                f"unknown crash mode {entry['mode']!r}; use 'freeze' or 'remove'"
            ) from None
        robot, at = entry.get("robot"), entry.get("at")
        crashes.append(
            CrashEvent(
                mode,
                robot=None if robot is None else _integer(robot, f"{where}.robot", 0, n - 1),
                at=None if at is None else _integer(at, f"{where}.at"),
                when=entry.get("when"),
            )
        )
    byzantine = {}
    for index, entry in enumerate(_list(data.get("byzantine", ()), "byzantine")):
        where = f"byzantine[{index}]"
        if not isinstance(entry, Mapping):
            raise ValueError(f"{where} must be an object, got {entry!r}")
        if "robot" not in entry:
            raise ValueError("byzantine entry needs a 'robot'")
        name = entry.get("strategy", "oscillator")
        if isinstance(name, str):
            try:
                strategy = BYZANTINE_STRATEGIES[name]()
            except KeyError:
                raise ValueError(
                    f"unknown byzantine strategy {name!r}; available: "
                    f"{', '.join(sorted(BYZANTINE_STRATEGIES))}"
                ) from None
        else:
            moves = name.get("moves", {}) if isinstance(name, Mapping) else None
            if not isinstance(moves, Mapping):
                raise ValueError(
                    "byzantine strategy must be a name or a "
                    f"{{\"moves\": {{step: [x, y]}}}} object, got {name!r}"
                )
            for step in moves:
                if not str(step).isdecimal():
                    raise ValueError(f"{where}.strategy.moves keys must be step numbers, got {step!r}")
            strategy = ScriptedStrategy({int(s): _point(p, f"{where}.strategy.moves[{s}]") for s, p in moves.items()})
        byzantine[_integer(entry["robot"], f"{where}.robot", 0, n - 1)] = strategy
    return FaultPlan(_integer(data["f"], "f"), tuple(crashes), byzantine)
