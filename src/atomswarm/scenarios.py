"""Scripted scenario replays: the Byzantine oscillation and the flip/flop witness.

Each scenario is an ordinary experiment config run once on the harness's
trial path under a scripted scheduler whose activations and coins are forced.
The replay expands the delta trace lines it streams to full records and
checks the scenario's own claims on them; a report whose ``broken`` is set
failed those checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .engine import TrialRecord, expand_trace
from .harness import ExperimentConfig, derive_trial_seeds, execute_trial
from .schedulers import audit

__all__ = [
    "CounterexampleReport",
    "FlipFlopReport",
    "build_counterexample_script",
    "replay_counterexample",
    "build_flip_flop_script",
    "run_flip_flop_witness",
]


def _replay(scenario: dict, script: dict, max_steps: int) -> tuple[TrialRecord, list[dict]]:
    """Run a scenario config under its script on the ordinary trial path."""
    config = ExperimentConfig(
        **scenario, scheduler="scripted", scheduler_params={"script": script}, max_steps=max_steps
    )
    parts = config.build()
    lines: list[str] = []
    record = execute_trial(config, parts, derive_trial_seeds(config.seed, 1)[0], lines.append)
    return record, [json.loads(line) for line in expand_trace(lines)]


def _groups(trace: dict) -> dict[tuple, list[str]]:
    """Robot ids of one trace line, grouped by position."""
    groups: dict[tuple, list[str]] = {}
    for rid, xy in trace["positions"].items():
        groups.setdefault(tuple(xy), []).append(rid)
    return groups


# --- Byzantine oscillation scenario -------------------------------------
#
# Four robots in two co-located pairs, one of them Byzantine. A bounded
# scripted scheduler alternates between one correct robot (whose tie coin is
# forced to succeed, sending it to the other group) and the Byzantine robot
# (which rebalances back to two pairs). The population cycles forever and
# weak gathering never holds.

COUNTEREXAMPLE_BYZANTINE = 3
COUNTEREXAMPLE_SCENARIO = {
    "n": 4,
    "program": "multiplicity-gather",
    "layout": "explicit",
    "layout_params": {"positions": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]},
    "weak": True,
    "faults": {
        "f": 1,
        "byzantine": [{"robot": COUNTEREXAMPLE_BYZANTINE, "strategy": "oscillator"}],
    },
}


def build_counterexample_script(cycles: int) -> dict:
    """Activation script and forced coins for the oscillation scenario.

    Each 4-activation cycle interleaves two correct movers with two
    Byzantine rebalances. The mover is always drawn from the pair not
    hosting the Byzantine robot (its roommate must stay, or the correct
    robots would accidentally gather), least recently activated first. That
    selection keeps the script fair over any window of six or more steps and
    exactly 3-bounded. The result is in the ``scripted_policy_from`` schema.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    last_activated = {0: -1, 1: -1, 2: -1}
    roommate = 2
    activations = []
    coins = []
    for half_cycle in range(2 * cycles):
        step = 2 * half_cycle
        pair = [r for r in last_activated if r != roommate]
        mover = min(pair, key=lambda r: (last_activated[r], r))
        last_activated[mover] = step
        activations.append([mover])
        coins.append({"step": step, "robot": mover, "bits": [1]})
        activations.append([COUNTEREXAMPLE_BYZANTINE])
        roommate = next(r for r in pair if r != mover)
    return {"activations": activations, "coins": coins}


def _two_pairs_with_byzantine(trace: dict) -> bool:
    """Does a trace line show two pairs, the Byzantine beside one correct robot?"""
    sizes = sorted(len(group) for group in _groups(trace).values())
    byzantine = [rid for rid in trace["positions"] if trace["statuses"][rid] == "byzantine"]
    return sizes == [2, 2] and len(byzantine) == 1


@dataclass(frozen=True)
class CounterexampleReport:
    cycles: int
    gathered: bool
    boundaries_checked: int
    boundaries_isomorphic: int
    first_divergence: int | None
    fair: bool
    k: int
    k_compliant: bool
    broken: bool


def replay_counterexample(cycles: int = 100) -> CounterexampleReport:
    """Deterministic replay of the oscillation scenario with full checking.

    Runs 4*cycles scripted activations under the weak gathering predicate,
    confirms it never holds, and verifies that at every 4-step boundary the
    configuration is isomorphic to the start: two occupied positions with
    two robots each, the Byzantine sharing with exactly one correct robot.
    The activation history is audited for fairness and 3-boundedness.
    """
    record, traces = _replay(
        COUNTEREXAMPLE_SCENARIO, build_counterexample_script(cycles), 4 * cycles
    )
    boundaries = range(4, 4 * cycles + 1, 4)
    isomorphic = 0
    first_divergence = None
    for step in boundaries:
        if step < len(traces) and _two_pairs_with_byzantine(traces[step]):
            isomorphic += 1
        elif first_divergence is None:
            first_divergence = step
    history = [trace["activated"] for trace in traces[1:]]
    report = audit(history, population=range(4), k=3)
    broken = record.converged or isomorphic < len(boundaries) or not report.k_compliant
    return CounterexampleReport(
        cycles=cycles,
        gathered=record.converged,
        boundaries_checked=len(boundaries),
        boundaries_isomorphic=isomorphic,
        first_divergence=first_divergence,
        fair=report.fair,
        k=3,
        k_compliant=bool(report.k_compliant),
        broken=broken,
    )


# --- Flip/flop oscillation witness ---------------------------------------
#
# Two far-apart pairs under the composite program. Scripted coins force a
# full scatter (two multiplicity points seen, everyone moves), after which
# activating one robot per cluster re-pairs them via the nearest tie-break,
# flipping the branch back. The branch alternates every step and gathering
# never holds.

FLIP_FLOP_SCENARIO = {
    "n": 4,
    "program": "flip-flop",
    "program_params": {"tie_break": "nearest", "radius": 1.0},
    "layout": "explicit",
    "layout_params": {"positions": [[0.0, 0.0], [0.0, 0.0], [100.0, 100.0], [100.0, 100.0]]},
    "weak": False,
}


def build_flip_flop_script(cycles: int) -> dict:
    """Activation script and forced coins for the witness, in the
    ``scripted_policy_from`` schema: a forced full scatter, then one robot
    per cluster, repeated ``cycles`` times."""
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    activations = []
    coins = []
    for cycle in range(cycles):
        activations.append([0, 1, 2, 3])
        coins.extend({"step": 2 * cycle, "robot": rid, "bits": [1]} for rid in range(4))
        activations.append([0, 2])
    return {"activations": activations, "coins": coins}


@dataclass(frozen=True)
class FlipFlopReport:
    branches: tuple[str, ...]
    oscillations: int
    gathered: bool
    broken: bool


def run_flip_flop_witness(cycles: int = 5) -> FlipFlopReport:
    """Replay the witness and count branch alternations.

    Each executed step is classified from its pre-step configuration:
    scatter when at least two positions hold several robots, gather
    otherwise. The report is broken if fewer than 3 alternations occur or
    the run gathers.
    """
    record, traces = _replay(FLIP_FLOP_SCENARIO, build_flip_flop_script(cycles), 2 * cycles)
    branches = []
    for trace in traces[: 2 * cycles]:
        crowded = sum(1 for group in _groups(trace).values() if len(group) >= 2)
        branches.append("scatter" if crowded >= 2 else "gather")
    oscillations = sum(1 for a, b in zip(branches, branches[1:]) if a != b)
    return FlipFlopReport(
        branches=tuple(branches),
        oscillations=oscillations,
        gathered=record.converged,
        broken=record.converged or oscillations < 3,
    )
