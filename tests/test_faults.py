"""Crash scheduling, adversarial victim choice, Byzantine strategies."""

import pytest

from atomswarm.engine import Configuration, RobotStatus, configuration_from_positions
from atomswarm.faults import (
    WORST_CASE_TRIGGER,
    CrashEvent,
    CrashMode,
    FaultPlan,
    OscillatorStrategy,
    ScriptedStrategy,
    StayPutStrategy,
    fault_plan_from_dict,
    oscillator_move,
    worst_case_crash_trigger,
)
from atomswarm.geometry import Point


def test_crash_events_need_exactly_one_trigger():
    with pytest.raises(ValueError, match="exactly one"):
        CrashEvent(CrashMode.FREEZE, robot=0)
    with pytest.raises(ValueError, match="exactly one"):
        CrashEvent(CrashMode.FREEZE, robot=0, at=1, when=WORST_CASE_TRIGGER)
    with pytest.raises(ValueError, match="non-negative"):
        CrashEvent(CrashMode.FREEZE, at=-1)
    with pytest.raises(ValueError, match="unknown crash trigger"):
        CrashEvent(CrashMode.FREEZE, when="random")


def test_fault_budgets_cap_declared_entries():
    with pytest.raises(ValueError, match="fault budget exceeded"):
        FaultPlan(
            f=1,
            crashes=(
                CrashEvent(CrashMode.FREEZE, at=0),
                CrashEvent(CrashMode.FREEZE, at=1),
            ),
        )
    with pytest.raises(ValueError):
        FaultPlan(f=-1)


def test_a_robot_may_appear_in_only_one_fault_entry():
    with pytest.raises(ValueError, match="more than one fault entry"):
        FaultPlan(
            f=2,
            crashes=(CrashEvent(CrashMode.FREEZE, robot=1, at=0),),
            byzantine={1: StayPutStrategy()},
        )


def test_worst_case_trigger_fires_at_the_majority_threshold():
    reaching = configuration_from_positions([(0.0, 0.0)] * 3 + [(5.0, 5.0)])
    split = configuration_from_positions([(0.0, 0.0)] * 2 + [(5.0, 5.0)] * 2)
    assert worst_case_crash_trigger(reaching)
    assert not worst_case_crash_trigger(split)


def test_frozen_robots_do_not_count_toward_the_trigger_group():
    config = configuration_from_positions(
        [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (5.0, 5.0)], frozen_ids=[0]
    )
    assert not worst_case_crash_trigger(config)


def test_firing_freezes_the_lowest_id_robot_in_the_biggest_group():
    plan = FaultPlan(
        f=1, crashes=(CrashEvent(CrashMode.FREEZE, when=WORST_CASE_TRIGGER),)
    )
    config = configuration_from_positions([(0.0, 0.0)] * 3 + [(5.0, 5.0)])
    state = plan.new_state()
    after = plan.fire(config, state)
    assert after.status_of(0) is RobotStatus.CRASHED_FROZEN
    assert state == [True]
    assert after.step_index == config.step_index


def test_adversarial_victim_choice_is_deterministic_on_group_ties():
    plan = FaultPlan(f=1, crashes=(CrashEvent(CrashMode.FREEZE, at=0),))
    config = configuration_from_positions(
        [(5.0, 5.0), (5.0, 5.0), (0.0, 0.0), (0.0, 0.0)]
    )
    after = plan.fire(config, plan.new_state())
    assert after.status_of(2) is RobotStatus.CRASHED_FROZEN


def test_events_fire_once_and_later_events_see_earlier_strikes():
    plan = FaultPlan(
        f=2,
        crashes=(
            CrashEvent(CrashMode.FREEZE, when=WORST_CASE_TRIGGER),
            CrashEvent(CrashMode.FREEZE, when=WORST_CASE_TRIGGER),
        ),
    )
    config = configuration_from_positions([(0.0, 0.0)] * 4 + [(5.0, 5.0)])
    state = plan.new_state()
    after = plan.fire(config, state)
    assert state == [True, True]
    frozen = [
        rid for rid in sorted(after.robots) if after.status_of(rid) is RobotStatus.CRASHED_FROZEN
    ]
    assert frozen == [0, 1]
    assert not worst_case_crash_trigger(after)
    again = plan.fire(after, state)
    assert again.robots == after.robots


def test_striking_an_already_faulty_robot_is_a_budget_misuse():
    plan = FaultPlan(f=1, crashes=(CrashEvent(CrashMode.FREEZE, robot=0, at=0),))
    config = configuration_from_positions([(0.0, 0.0), (1.0, 0.0)], frozen_ids=[0])
    with pytest.raises(ValueError, match="already faulty"):
        plan.fire(config, plan.new_state())


def test_removed_robots_leave_the_snapshot():
    plan = FaultPlan(f=1, crashes=(CrashEvent(CrashMode.REMOVE, robot=1, at=0),))
    config = configuration_from_positions([(0.0, 0.0), (1.0, 0.0)])
    after = plan.fire(config, plan.new_state())
    assert [pos for _, pos, _ in after.visible_items()] == [Point(0.0, 0.0)]
    assert after.occupancy == after.correct == {Point(0.0, 0.0): 1}
    assert after.eligible() == frozenset({0})


def test_oscillator_moves_to_the_smaller_group():
    config = configuration_from_positions(
        [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (9.0, 0.0)], byzantine_ids=[0]
    )
    assert oscillator_move(config, 0) == Point(9.0, 0.0)


def test_oscillator_breaks_balanced_groups_toward_the_far_side():
    config = configuration_from_positions(
        [(0.0, 0.0), (0.0, 0.0), (9.0, 0.0), (9.0, 0.0)], byzantine_ids=[0]
    )
    assert oscillator_move(config, 0) == Point(9.0, 0.0)


def test_oscillator_stays_put_outside_two_group_shapes():
    config = configuration_from_positions(
        [(0.0, 0.0), (4.0, 0.0), (9.0, 0.0)], byzantine_ids=[0]
    )
    assert oscillator_move(config, 0) == Point(0.0, 0.0)
    assert OscillatorStrategy().destination(config, 0) == Point(0.0, 0.0)


def test_scripted_byzantine_moves_follow_the_step_table():
    strategy = ScriptedStrategy({0: Point(7.0, 7.0)})
    config = configuration_from_positions([(0.0, 0.0)], byzantine_ids=[0])
    assert strategy.destination(config, 0) == Point(7.0, 7.0)
    later = Configuration(dict(config.robots), 1)
    assert strategy.destination(later, 0) == Point(0.0, 0.0)


def test_fault_plans_load_from_plain_dicts():
    plan = fault_plan_from_dict(
        {
            "f": 3,
            "crashes": [
                {"mode": "freeze", "robot": 2, "at": 0},
                {"mode": "remove", "when": "max_group_reaches_alpha"},
            ],
            "byzantine": [{"robot": 5, "strategy": "oscillator"}],
        }
    )
    assert plan.f == 3
    assert plan.crashes[0].mode is CrashMode.FREEZE
    assert plan.crashes[0].robot == 2
    assert plan.crashes[1].when == WORST_CASE_TRIGGER
    assert isinstance(plan.byzantine[5], OscillatorStrategy)


def test_scripted_byzantine_strategies_load_from_dicts():
    plan = fault_plan_from_dict(
        {"f": 1, "byzantine": [{"robot": 0, "strategy": {"moves": {"2": [5.0, 5.0]}}}]}
    )
    strategy = plan.byzantine[0]
    assert isinstance(strategy, ScriptedStrategy)
    config = Configuration(
        {0: (Point(0.0, 0.0), RobotStatus.BYZANTINE)}, step_index=2
    )
    assert strategy.destination(config, 0) == Point(5.0, 5.0)


def test_fault_plan_dicts_validate_their_fields():
    with pytest.raises(ValueError, match="budget"):
        fault_plan_from_dict({"crashes": []})
    with pytest.raises(ValueError, match="unknown crash mode"):
        fault_plan_from_dict({"f": 1, "crashes": [{"mode": "explode", "at": 0}]})
    with pytest.raises(ValueError, match="needs a 'mode'"):
        fault_plan_from_dict({"f": 1, "crashes": [{"at": 0}]})
    with pytest.raises(ValueError, match="needs a 'robot'"):
        fault_plan_from_dict({"f": 1, "byzantine": [{"strategy": "oscillator"}]})
    with pytest.raises(ValueError, match="unknown byzantine strategy"):
        fault_plan_from_dict({"f": 1, "byzantine": [{"robot": 0, "strategy": "helpful"}]})
