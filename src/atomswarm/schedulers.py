"""Activation policies and fairness auditing.

A policy picks, per step, a nonempty subset of the eligible (non-removed)
robots. Policies are stateful objects owned by a single execution; build a
fresh one per trial.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Sequence

from .engine import RobotId

__all__ = [
    "CentralizedFairPolicy",
    "ProbabilisticPolicy",
    "KBoundedPolicy",
    "ScriptedPolicy",
    "AuditReport",
    "audit",
]


class _SortedEligible:
    """``sorted(eligible)``, redone only for a new eligible set object
    (``engine.run`` passes the same frozenset until the fault plan fires)."""

    _eligible = _order = None

    def _sorted(self, eligible) -> list[RobotId]:
        if eligible is not self._eligible:
            order = sorted(eligible)
            if not order:
                raise ValueError("eligible set must be nonempty")
            self._eligible, self._order = eligible, order
        return self._order


class CentralizedFairPolicy(_SortedEligible):
    """Round-robin over robot ids; exactly one robot per step.

    Robots that leave the eligible set (crash-removed) are skipped; frozen
    robots still take their turn as no-ops.
    """

    def __init__(self) -> None:
        self._last: RobotId | None = None

    def next_activation(self, eligible, rng):
        order = self._sorted(eligible)
        i = 0 if self._last is None else bisect_right(order, self._last)
        pick = order[i] if i < len(order) else order[0]
        self._last = pick
        return frozenset((pick,))


class ProbabilisticPolicy(_SortedEligible):
    """Uniform draw over the nonempty subsets of the eligible robots.

    Equivalently, every robot flips a fair coin and the draw is repeated
    until the activated subset is nonempty.
    """

    def next_activation(self, eligible, rng):
        order = self._sorted(eligible)
        mask = rng.randrange(1, 1 << len(order))
        return frozenset(r for i, r in enumerate(order) if mask >> i & 1)


class KBoundedPolicy(_SortedEligible):
    """One robot per step, kept k-bounded by construction.

    Between two consecutive activations of any robot, no other robot may run
    more than k times. Robot r is safe to pick when fewer than k of its turns
    come after the earliest last turn among the other eligible robots (a
    robot that never ran dates from just before it was first seen), and the
    policy picks uniformly among the safe robots. That needs only a step
    clock and each robot's last turn and k most recent turns. A robot that
    waited longest is always safe, so the candidate set is never empty.

    The safe set is kept, not rescanned. A robot's oldest remembered turn
    changes only when it is picked, and the earliest last turn only rises,
    so an unpicked robot never turns unsafe. After each pick the picked
    robot is re-settled and the unsafe robots (a heap keyed by their oldest
    remembered turn) that the earliest last turn has reached become safe.
    ``_last`` is kept in turn order, so the earliest last turn is its first
    value. Robots that leave the eligible set are forgotten; that bookkeeping
    and a full rebuild of both sets are done only for a new eligible
    frozenset (``engine.run`` passes the same one until the fault plan fires).
    """

    def __init__(self, k: int):
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        self.k = k
        self._clock = 0
        self._last: dict[RobotId, int] = {}
        self._recent: dict[RobotId, deque] = {}
        self._safe: list[RobotId] = []  # sorted ids
        self._unsafe: list[tuple[int, RobotId]] = []  # heap of (oldest remembered turn, id)

    def _rebuild(self, eligible) -> None:
        now, last, recent, k = self._clock, self._last, self._recent, self.k
        order = self._sorted(eligible)
        for gone in last.keys() - eligible:
            del last[gone], recent[gone]
        # Newcomers date from the previous step, no earlier than anyone's
        # last turn, so appending them keeps ``last`` in turn order.
        for r in order:
            if r not in last:
                last[r], recent[r] = now - 1, deque(maxlen=k)
        earliest = next(iter(last.values()))
        # Only r's others count, but the robot holding the earliest last turn
        # has no turn after it, so the minimum over everyone gives the same set.
        self._safe, self._unsafe = [], []
        for r in order:
            if len(recent[r]) < k or recent[r][0] <= earliest:
                self._safe.append(r)
            else:
                self._unsafe.append((recent[r][0], r))
        heapify(self._unsafe)

    def next_activation(self, eligible, rng):
        if eligible is not self._eligible:
            self._rebuild(eligible)
        now, last, safe, unsafe = self._clock, self._last, self._safe, self._unsafe
        pick = safe[rng.randrange(len(safe))] if len(safe) > 1 else safe[0]
        del last[pick]
        last[pick] = now
        turns = self._recent[pick]
        turns.append(now)
        self._clock = now + 1
        earliest = next(iter(last.values()))
        if len(turns) == self.k and turns[0] > earliest:
            del safe[bisect_left(safe, pick)]
            heappush(unsafe, (turns[0], pick))
        while unsafe and unsafe[0][0] <= earliest:
            insort(safe, heappop(unsafe)[1])
        return frozenset((pick,))


class ScriptedPolicy:
    """Replay of a fixed activation sequence; may be unfair on purpose.

    Carries the coin overrides from its script, a ``{(step, robot): bits}``
    mapping; ``engine.run`` reads them from the policy for derandomized
    replays.
    """

    def __init__(
        self,
        activations: Sequence[Iterable[RobotId]],
        coin_overrides: Mapping[tuple[int, RobotId], Sequence[int]] | None = None,
    ):
        self._script = [frozenset(a) for a in activations]
        if any(not a for a in self._script):
            raise ValueError("scripted activation sets must be nonempty")
        self.coin_overrides = coin_overrides
        self._cursor = 0

    def next_activation(self, eligible, rng):
        if self._cursor >= len(self._script):
            raise RuntimeError("script exhausted")
        chosen = self._script[self._cursor]
        self._cursor += 1
        if not chosen <= eligible:
            raise ValueError(
                f"scripted activation {sorted(chosen)} not within eligible robots {sorted(eligible)}"
            )
        return chosen


@dataclass(frozen=True)
class AuditReport:
    fair: bool
    k_compliant: bool | None
    violations: tuple[str, ...]


def audit(
    history: Sequence[Iterable[RobotId]],
    population: Iterable[RobotId],
    k: int | None = None,
    window: int | None = None,
) -> AuditReport:
    """Check window-fairness and the k-bounded condition on a finite trace.

    Fairness uses the finite proxy: every complete sliding window of the
    given length (default ``|population| * max(k, 1) * 4``) must activate
    every robot at least once; shorter histories pass vacuously. The k
    condition requires that while any robot waits between two of its
    activations, no other robot runs more than k times; the trace start and
    end count as waiting boundaries, so a robot monopolizing the prefix
    before someone's first turn is a violation too. Robots outside the
    population are ignored, and each check reports its first violation only.

    Both checks take time linear in the history plus the population. The k
    check keeps every robot's last turn in turn order (a robot that never
    ran dates from step -1) and its k+1 most recent turns: robot x breaks
    the bound exactly when its (k+1)-th most recent turn comes after the
    earliest last turn among the other robots, which is the first entry
    once the whole activation set is recorded.
    """
    pop = sorted(set(population))
    if not pop:
        raise ValueError("population must be nonempty")
    members = set(pop)
    sets = [frozenset(s) & members for s in history]
    if window is None:
        window = len(pop) * (k if k else 1) * 4
    if window < 1:
        raise ValueError("window must be positive")

    violations: list[str] = []
    fair = True
    if len(sets) >= window:
        in_window = dict.fromkeys(pop, 0)
        for s in sets[:window]:
            for r in s:
                in_window[r] += 1
        missing = sum(1 for r in pop if in_window[r] == 0)  # robots at zero
        for start in range(len(sets) - window + 1):
            if start > 0:
                for r in sets[start - 1]:
                    in_window[r] -= 1
                    missing += in_window[r] == 0
                for r in sets[start + window - 1]:
                    missing -= in_window[r] == 0
                    in_window[r] += 1
            if missing:
                fair = False
                violations.append(
                    f"window starting at step {start} never activates robots "
                    f"{[r for r in pop if in_window[r] == 0]}"
                )
                break

    k_compliant: bool | None = None
    if k is not None:
        if k < 1:
            raise ValueError("k must be >= 1")
        k_compliant = True
        last = dict.fromkeys(pop, -1)
        recent = {r: deque(maxlen=k + 1) for r in pop}
        for t, s in enumerate(sets):
            for r in s:
                del last[r]
                last[r] = t
                recent[r].append(t)
            waiter, since = next(iter(last.items()))
            burst = next((x for x in s if len(recent[x]) > k and recent[x][0] > since), None)
            if burst is not None:
                k_compliant = False
                violations.append(
                    f"robot {burst} ran {k + 1} times in steps {recent[burst][0]}..{t} "
                    f"while robot {waiter} waited after step {since} (k={k})"
                )
                break
    return AuditReport(fair, k_compliant, tuple(violations))
