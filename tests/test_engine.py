"""Atomic step semantics, convergence predicates, rounds, full executions."""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomswarm.engine import (
    Configuration,
    RandomSource,
    RobotStatus,
    configuration_from_positions,
    expand_trace,
    is_gathered,
    is_scattered,
    run,
    step,
    trace_record,
)
from atomswarm.faults import (
    WORST_CASE_TRIGGER,
    CrashEvent,
    CrashMode,
    FaultPlan,
    OscillatorStrategy,
    ScriptedStrategy,
    StayPutStrategy,
    _worst_case_victim,
    worst_case_crash_trigger,
)
from atomswarm.geometry import Point
from atomswarm.markov import majority_threshold
from atomswarm.schedulers import CentralizedFairPolicy, ProbabilisticPolicy, ScriptedPolicy


def hop_to_other(view, me, source):
    """Test program: jump onto any position that is not the robot's own."""
    others = [p for p in view if p != me]
    return others[0] if others else me


def stay(view, me, source):
    return me


def test_scripted_coin_bits_override_the_probability():
    source = RandomSource(0)
    source.bits.extend((1, 0))
    assert source.coin(0.0) is True
    assert source.coin(1.0) is False


def test_exhausted_bits_fall_back_to_the_rng():
    source = RandomSource(123)
    source.bits.append(1)
    source.coin(0.5)
    expected = random.Random(123).random() < 0.5
    assert source.coin(0.5) is expected


def test_choose_from_a_single_item_consumes_no_randomness():
    source = RandomSource(9)
    assert source.choose(["only"]) == "only"
    assert source.random() == random.Random(9).random()


def test_choose_rejects_empty_sequences():
    with pytest.raises(ValueError):
        RandomSource(0).choose([])


def coin_mover(view, me, source):
    """Test program: step one unit right iff a probability-0 coin succeeds."""
    return Point(me.x + 1.0, me.y) if source.coin(0.0) else me


def test_coin_overrides_are_keyed_by_step_and_robot():
    overrides = {(3, 1): (1,)}
    start = configuration_from_positions([(0.0, 0.0)] * 3)
    for step_index, movers in ((3, [1]), (2, [])):
        config = Configuration(start.robots, step_index)
        after = step(config, {0, 1, 2}, coin_mover, source=RandomSource(0), coin_overrides=overrides)
        assert [rid for rid in after.robots if after.position_of(rid) != Point(0.0, 0.0)] == movers


def test_scripted_bits_a_robot_leaves_unused_do_not_reach_the_next_robot():
    # Robot 0 draws one of its two scripted successes; robot 1 has no bits,
    # so its probability-0 coin must fail.
    config = configuration_from_positions([(0.0, 0.0)] * 2)
    after = step(config, {0, 1}, coin_mover, source=RandomSource(0), coin_overrides={(0, 0): (1, 1)})
    assert after.position_of(0) == Point(1.0, 0.0)
    assert after.position_of(1) == Point(0.0, 0.0)


def test_step_hands_the_callers_source_itself_to_every_program_call():
    source = RandomSource(0)
    given = []

    def record(view, me, program_source):
        given.append(program_source)
        return me

    step(configuration_from_positions([(0.0, 0.0)] * 3), {0, 1, 2}, record, source=source)
    assert len(given) == 3 and all(s is source for s in given)


def test_configuration_from_positions_assigns_ids_in_order():
    config = configuration_from_positions([(0.0, 0.0), (1.0, 2.0)])
    assert sorted(config.robots) == [0, 1]
    assert config.position_of(1) == Point(1.0, 2.0)
    assert config.robots[0][1] is RobotStatus.CORRECT
    assert config.step_index == 0


def test_configurations_need_at_least_one_robot():
    with pytest.raises(ValueError):
        configuration_from_positions([])


def test_removed_robots_vanish_from_snapshots_but_keep_their_status():
    config = configuration_from_positions([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    robots = dict(config.robots)
    robots[1] = (robots[1][0], RobotStatus.CRASHED_REMOVED)
    config = Configuration(robots, 0)
    assert [pos for _, pos, _ in config.visible_items()] == [Point(0.0, 0.0), Point(2.0, 0.0)]
    assert config.occupancy == config.correct == {Point(0.0, 0.0): 1, Point(2.0, 0.0): 1}
    assert config.eligible == (0, 2)
    assert config.robots[1][1] is RobotStatus.CRASHED_REMOVED


def test_eligible_robots_are_in_id_order_whatever_the_robots_order():
    robots = {rid: (Point(float(rid), 0.0), RobotStatus.CORRECT) for rid in (3, 0, 2, 1)}
    robots[2] = (robots[2][0], RobotStatus.CRASHED_REMOVED)
    assert Configuration(robots, 0).eligible == (0, 1, 3)


def test_a_step_passes_the_eligible_tuple_through():
    config = configuration_from_positions([(0.0, 0.0), (1.0, 0.0)])
    after = step(config, {0, 1}, hop_to_other, source=RandomSource(0))
    assert after.position_of(0) != config.position_of(0)
    assert after.eligible is config.eligible


@pytest.mark.parametrize("mode, eligible", [(CrashMode.REMOVE, (0, 2)), (CrashMode.FREEZE, (0, 1, 2))])
def test_a_fired_crash_drops_a_removed_robot_from_eligible_and_keeps_a_frozen_one(mode, eligible):
    config = configuration_from_positions([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    plan = FaultPlan(f=1, crashes=(CrashEvent(mode, robot=1, at=1),))
    started, state = plan.start(config)
    assert started is config
    later = step(config, {0}, stay)
    fired = plan.fire(later, state)
    assert fired.robots[1][1] is not RobotStatus.CORRECT
    assert fired.eligible == eligible
    assert later.eligible == (0, 1, 2)


def test_simultaneously_activated_robots_see_the_same_snapshot():
    config = configuration_from_positions([(0.0, 0.0), (1.0, 0.0)])
    after = step(config, {0, 1}, hop_to_other)
    assert after.position_of(0) == Point(1.0, 0.0)
    assert after.position_of(1) == Point(0.0, 0.0)
    assert after.step_index == 1


def test_sequential_activations_do_not_swap():
    config = configuration_from_positions([(0.0, 0.0), (1.0, 0.0)])
    mid = step(config, {0}, hop_to_other)
    after = step(mid, {1}, hop_to_other)
    assert after.position_of(0) == after.position_of(1) == Point(1.0, 0.0)


def test_non_activated_robots_never_move():
    config = configuration_from_positions([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    after = step(config, {0}, hop_to_other)
    assert after.position_of(1) == Point(1.0, 0.0)
    assert after.position_of(2) == Point(2.0, 0.0)


def test_step_rejects_empty_activation_sets():
    config = configuration_from_positions([(0.0, 0.0)])
    with pytest.raises(ValueError, match="nonempty"):
        step(config, set(), stay)


def test_step_rejects_unknown_robot_ids():
    config = configuration_from_positions([(0.0, 0.0)])
    with pytest.raises(ValueError, match="unknown robot id"):
        step(config, {5}, stay)


def test_activating_a_removed_robot_breaks_the_scheduler_contract():
    config = configuration_from_positions([(0.0, 0.0), (1.0, 0.0)])
    robots = dict(config.robots)
    robots[0] = (robots[0][0], RobotStatus.CRASHED_REMOVED)
    with pytest.raises(ValueError, match="scheduler contract violation"):
        step(Configuration(robots, 0), {0}, stay)


def test_frozen_robots_take_their_turn_as_no_ops(faulty):
    config = faulty([(0.0, 0.0), (1.0, 0.0)], frozen=[0])
    after = step(config, {0, 1}, hop_to_other)
    assert after.position_of(0) == Point(0.0, 0.0)
    assert after.position_of(1) == Point(0.0, 0.0)


def test_byzantine_robots_follow_their_strategy_not_the_program(faulty):
    config = faulty([(0.0, 0.0), (1.0, 0.0)], byzantine=[1])
    after = step(config, {1}, hop_to_other, byzantine={1: StayPutStrategy()})
    assert after.position_of(1) == Point(1.0, 0.0)


def test_programs_may_return_bare_coordinate_pairs():
    config = configuration_from_positions([(0.0, 0.0)])
    after = step(config, {0}, lambda view, me, source: (4.0, 5.0))
    assert after.position_of(0) == Point(4.0, 5.0)


def test_gathering_requires_all_visible_robots_on_one_point():
    together = configuration_from_positions([(1.0, 1.0), (1.0, 1.0)])
    apart = configuration_from_positions([(1.0, 1.0), (2.0, 1.0)])
    assert is_gathered(together)
    assert not is_gathered(apart)


def test_weak_gathering_ignores_faulty_robots(faulty):
    config = faulty([(0.0, 0.0), (0.0, 0.0), (9.0, 9.0)], frozen=[2])
    assert is_gathered(config, weak=True)
    assert not is_gathered(config)


def test_scattering_requires_pairwise_distinct_positions():
    spread = configuration_from_positions([(0.0, 0.0), (1.0, 0.0)])
    stacked = configuration_from_positions([(0.0, 0.0), (0.0, 0.0)])
    assert is_scattered(spread)
    assert not is_scattered(stacked)


def test_weak_scattering_exempts_colocated_faulty_robots(faulty):
    config = faulty([(0.0, 0.0), (1.0, 0.0), (5.0, 5.0), (5.0, 5.0)], frozen=[2, 3])
    assert is_scattered(config, weak=True)
    assert not is_scattered(config)


def test_weak_scattering_fails_when_a_correct_robot_shares_with_a_frozen_one(faulty):
    config = faulty([(0.0, 0.0), (0.0, 0.0)], frozen=[1])
    assert not is_scattered(config, weak=True)


def rounds_of(history, n, plan=None):
    """Rounds ``run`` counts when n apart, motionless robots replay ``history``."""
    config = configuration_from_positions([(float(i), 0.0) for i in range(n)])
    record = run(
        config,
        ScriptedPolicy(history),
        stay,
        plan,
        predicate=lambda c: c.step_index == len(history),
        max_steps=len(history) + 1,
    )
    assert record.steps == len(history)
    return record.rounds


def test_rounds_close_as_soon_as_everyone_has_run():
    assert rounds_of([{0}, {1}, {0, 1}], 2) == 2
    assert rounds_of([{0, 1}, {0, 1}], 2) == 2
    assert rounds_of([{0}, {0}, {1}], 2) == 1
    assert rounds_of([{0}], 2) == 0
    assert rounds_of([], 2) == 0


def test_a_robot_removed_mid_round_stops_holding_it_open():
    history = [{0}, {1}] * 3
    plan = FaultPlan(f=1, crashes=(CrashEvent(CrashMode.REMOVE, robot=2, at=1),))
    assert rounds_of(history, 3) == 0
    assert rounds_of(history, 3, plan) == 3


@given(st.lists(st.sets(st.integers(0, 3), min_size=1, max_size=4), max_size=30))
def test_appending_a_full_activation_closes_exactly_one_round(history):
    population = {0, 1, 2, 3}
    base = rounds_of(history, 4)
    assert rounds_of(history + [population], 4) == base + 1


def test_trace_records_carry_positions_for_non_removed_robots_only():
    config = configuration_from_positions([(0.0, 0.0), (1.5, 2.0)])
    robots = dict(config.robots)
    robots[1] = (robots[1][0], RobotStatus.CRASHED_REMOVED)
    line = trace_record(Configuration(robots, 7), [0])
    assert line == {
        "step": 7,
        "activated": [0],
        "positions": {"0": [0.0, 0.0]},
        "statuses": {"0": "correct", "1": "crashed_removed"},
    }


def wander(view, me, source):
    """Test program: join a seen robot, or hop by a tiny (exponent-form) offset."""
    if source.coin(0.5):
        return source.choose(sorted(view))
    return Point(me.x + source.uniform(-1e-5, 1e-5), me.y)


coordinates = st.one_of(
    st.integers(-1000, 1000), st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)
)


@st.composite
def faulted_runs(draw):
    """A configuration of 11 to 16 robots (so id "10" sorts before "2") and
    a fault plan with timed and worst-case crashes of both modes plus
    oscillator and scripted Byzantine robots."""
    n = draw(st.integers(11, 16))
    positions = draw(st.lists(st.tuples(coordinates, coordinates), min_size=n, max_size=n))
    ids = draw(st.permutations(range(n)))
    modes = st.sampled_from(list(CrashMode))
    timed = [CrashEvent(draw(modes), robot=rid, at=draw(st.integers(0, 12))) for rid in ids[:2]]
    triggered = [CrashEvent(draw(modes), when=WORST_CASE_TRIGGER) for _ in range(draw(st.integers(0, 2)))]
    moves = draw(st.dictionaries(st.integers(0, 20), st.tuples(coordinates, coordinates).map(lambda p: Point(*p))))
    byzantine = {ids[2]: OscillatorStrategy(), ids[3]: ScriptedStrategy(moves)}
    plan = FaultPlan(f=len(timed) + len(triggered) + 2, crashes=(*timed, *triggered), byzantine=byzantine)
    return configuration_from_positions(positions), plan, draw(st.integers(0, 2**32))


@settings(max_examples=40, deadline=None)
@given(faulted_runs())
def test_streamed_trace_lines_equal_the_reference_encoding(case):
    initial, plan, seed = case
    chosen = [()]
    seen = []
    lines = []

    class RecordingPolicy(ProbabilisticPolicy):
        def next_activation(self, eligible, rng):
            chosen.append(super().next_activation(eligible, rng))
            return chosen[-1]

    def record_config(config):
        seen.append(config)  # the configuration each line was streamed from
        return False

    try:
        run(initial, RecordingPolicy(), wander, plan, predicate=record_config, max_steps=25, seed=seed, on_step=lines.append)
    except ValueError as exc:
        # A timed crash may name a robot a worst-case crash already struck.
        assert "already faulty" in str(exc)
    assert len(lines) == len(seen) == len(chosen)
    expanded = list(expand_trace(lines))
    for line, config, activated in zip(expanded, seen, chosen):
        assert line == json.dumps(trace_record(config, activated), sort_keys=True)
    assert lines[0] == expanded[0]
    for line, before, after in zip(lines[1:], seen, seen[1:]):
        delta = json.loads(line)
        moved = {
            str(rid)
            for rid, (pos, status) in after.robots.items()
            if status is not RobotStatus.CRASHED_REMOVED and json.dumps(pos) != json.dumps(before.position_of(rid))
        }
        restatused = {str(rid) for rid, (_, status) in after.robots.items() if status is not before.robots[rid][1]}
        assert set(delta["positions"]) == moved
        assert set(delta["statuses"]) == restatused


def reference_view(config):
    """(id, position, status) of every non-removed robot, counted afresh."""
    return [(rid, pos, status) for rid, (pos, status) in config.robots.items() if status is not RobotStatus.CRASHED_REMOVED]


# The predicates, the crash trigger and its victim rule as they were defined
# over the full view, before configurations carried occupancy counts.


def reference_is_gathered(config, weak=False):
    view = reference_view(config)
    if weak:
        return len({pos for _, pos, status in view if status is RobotStatus.CORRECT}) <= 1
    return len({pos for _, pos, _ in view}) <= 1


def reference_is_scattered(config, weak=False):
    view = reference_view(config)
    counts = Counter(pos for _, pos, _ in view)
    if not weak:
        return all(c == 1 for c in counts.values())
    return all(counts[pos] == 1 for _, pos, status in view if status is RobotStatus.CORRECT)


def reference_trigger(config):
    view = reference_view(config)
    counts = Counter([pos for _, pos, status in view if status is RobotStatus.CORRECT])
    return bool(counts) and max(counts.values()) >= majority_threshold(len(view))


def reference_victim(config):
    groups = {}
    for rid, pos, status in reference_view(config):
        if status is RobotStatus.CORRECT:
            groups.setdefault(pos, []).append(rid)
    top = max(map(len, groups.values()))
    return min(groups[min(pos for pos, ids in groups.items() if len(ids) == top)])


def check_counts_and_predicates(config):
    view = reference_view(config)
    assert config.occupancy == Counter(pos for _, pos, _ in view)
    assert config.correct == Counter(pos for _, pos, status in view if status is RobotStatus.CORRECT)
    assert 0 not in config.occupancy.values() and 0 not in config.correct.values()
    for weak in (False, True):
        assert is_gathered(config, weak) is reference_is_gathered(config, weak)
        assert is_scattered(config, weak) is reference_is_scattered(config, weak)
    assert worst_case_crash_trigger(config) is reference_trigger(config)
    if config.correct:
        assert _worst_case_victim(config) == reference_victim(config)


@settings(max_examples=60, deadline=None)
@given(faulted_runs())
def test_carried_counts_equal_a_count_from_scratch(case):
    """Multi-robot steps, timed and triggered freezes and removals, and
    oscillator and scripted Byzantine moves: the counts each step derives
    from its predecessor match a fresh count, and the predicates, the trigger
    and the victim rule agree with their definitions over the full view."""
    initial, plan, seed = case
    seen = []

    def record_config(config):
        check_counts_and_predicates(config)
        seen.append(config)
        return False

    try:
        record = run(initial, ProbabilisticPolicy(), wander, plan, predicate=record_config, max_steps=40, seed=seed)
    except ValueError as exc:
        assert "already faulty" in str(exc)
    else:
        check_counts_and_predicates(record.final)
    assert seen


def test_steps_carry_counts_without_recounting(monkeypatch):
    """A 500-step run at n=64 counts from scratch (and reads visible_items)
    at the start and after each firing only, never per step."""
    calls = []
    visible_items = Configuration.visible_items

    def counted(self):
        calls.append(self.step_index)
        return visible_items(self)

    rng = random.Random(5)
    initial = configuration_from_positions([(float(rng.randrange(8)), float(rng.randrange(8))) for _ in range(64)])
    plan = FaultPlan(
        f=3,
        crashes=(CrashEvent(CrashMode.REMOVE, robot=5, at=100), CrashEvent(CrashMode.FREEZE, robot=9, at=300)),
        byzantine={0: OscillatorStrategy()},
    )
    monkeypatch.setattr(Configuration, "visible_items", counted)
    Configuration(initial.robots, 0)
    assert calls == [0]  # a configuration built without counts counts via visible_items
    calls.clear()
    record = run(initial, CentralizedFairPolicy(), wander, plan, predicate=lambda c: False, max_steps=500, seed=3)
    assert record.steps == 500
    assert {0, 100, 300} == set(calls)
    assert len(calls) <= 6


def test_run_checks_the_predicate_before_any_step():
    config = configuration_from_positions([(2.0, 2.0), (2.0, 2.0)])
    record = run(config, CentralizedFairPolicy(), stay, predicate=is_gathered)
    assert record.converged
    assert record.steps == 0
    assert record.rounds == 0


def test_run_stops_at_the_horizon_when_nothing_converges():
    config = configuration_from_positions([(0.0, 0.0), (1.0, 0.0)])
    record = run(
        config, CentralizedFairPolicy(), stay, predicate=is_gathered, max_steps=25
    )
    assert not record.converged
    assert record.steps == 25


def test_run_counts_steps_and_rounds_consistently():
    config = configuration_from_positions([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    script = [{0}, {1, 2}, {0, 1, 2}, {1}, {2}]
    lines = []
    record = run(
        config, ScriptedPolicy(script), stay,
        predicate=is_gathered, max_steps=5, on_step=lambda line: lines.append(json.loads(line)),
    )
    assert record.steps == 5
    assert [set(line["activated"]) for line in lines[1:]] == script
    assert record.rounds == rounds_of(script, 3) == 2


def test_run_applies_step_zero_crashes_before_the_first_predicate_check():
    plan = FaultPlan(f=1, crashes=(CrashEvent(CrashMode.REMOVE, robot=1, at=0),))
    config = configuration_from_positions([(0.0, 0.0), (5.0, 5.0)])
    record = run(config, CentralizedFairPolicy(), stay, plan, predicate=is_gathered)
    assert record.converged
    assert record.steps == 0


def test_run_marks_byzantine_robots_from_the_plan():
    plan = FaultPlan(f=1, byzantine={1: StayPutStrategy()})
    config = configuration_from_positions([(0.0, 0.0), (1.0, 0.0)])
    record = run(
        config, CentralizedFairPolicy(), hop_to_other, plan,
        predicate=is_gathered, max_steps=4,
    )
    assert record.final.robots[1][1] is RobotStatus.BYZANTINE
    assert record.converged
    assert record.steps == 1


def test_run_rejects_byzantine_ids_missing_from_the_configuration():
    plan = FaultPlan(f=1, byzantine={7: StayPutStrategy()})
    config = configuration_from_positions([(0.0, 0.0)])
    with pytest.raises(ValueError, match="byzantine robot 7"):
        run(config, CentralizedFairPolicy(), stay, plan)


def test_run_requires_a_positive_horizon():
    config = configuration_from_positions([(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValueError, match="max_steps"):
        run(config, CentralizedFairPolicy(), stay, max_steps=0)


def test_run_streams_the_start_plus_one_trace_line_per_step():
    config = configuration_from_positions([(0.0, 0.0), (1.0, 0.0)])
    lines = []
    record = run(
        config, CentralizedFairPolicy(), stay,
        predicate=is_gathered, max_steps=6, on_step=lambda line: lines.append(json.loads(line)),
    )
    assert record.steps == 6
    assert len(lines) == 7
    assert lines[0]["activated"] == []
    assert [line["step"] for line in lines] == list(range(7))
