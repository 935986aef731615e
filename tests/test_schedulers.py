"""Scheduler policies and the fairness / k-bound trace audit."""

import json
import random
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomswarm.harness import load_script, scripted_policy_from
from atomswarm.schedulers import (
    CentralizedFairPolicy,
    KBoundedPolicy,
    ProbabilisticPolicy,
    ScriptedPolicy,
    audit,
)


def collect(policy, eligible, steps, seed=0):
    rng = random.Random(seed)
    pool = frozenset(eligible)
    return [policy.next_activation(pool, rng) for _ in range(steps)]


def test_centralized_fair_cycles_through_ids():
    history = collect(CentralizedFairPolicy(), {2, 0, 1}, 7)
    assert history == [frozenset({i}) for i in (0, 1, 2, 0, 1, 2, 0)]


def test_centralized_fair_skips_robots_that_left_the_pool():
    policy = CentralizedFairPolicy()
    rng = random.Random(0)
    assert policy.next_activation(frozenset({0, 1, 2}), rng) == {0}
    assert policy.next_activation(frozenset({0, 2}), rng) == {2}
    assert policy.next_activation(frozenset({0, 2}), rng) == {0}


def test_probabilistic_subsets_are_nonempty_and_eligible():
    policy = ProbabilisticPolicy()
    rng = random.Random(11)
    pool = frozenset({0, 1, 2, 3})
    for _ in range(500):
        chosen = policy.next_activation(pool, rng)
        assert chosen
        assert chosen <= pool


def test_probabilistic_draws_are_uniform_over_nonempty_subsets():
    policy = ProbabilisticPolicy()
    rng = random.Random(5)
    counts = Counter()
    draws = 30_000
    for _ in range(draws):
        counts[policy.next_activation(frozenset({1, 2}), rng)] += 1
    for subset in ({1}, {2}, {1, 2}):
        assert abs(counts[frozenset(subset)] / draws - 1 / 3) < 0.02


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_bounded_policy_passes_its_own_audit(k):
    population = {0, 1, 2, 3, 4}
    history = collect(KBoundedPolicy(k), population, 400, seed=k)
    assert all(len(s) == 1 for s in history)
    report = audit(history, population, k=k)
    assert report.fair, report.violations
    assert report.k_compliant, report.violations


def test_one_bounded_scheduling_alternates_between_two_robots():
    history = collect(KBoundedPolicy(1), {0, 1}, 10)
    flat = [next(iter(s)) for s in history]
    assert all(a != b for a, b in zip(flat, flat[1:]))


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 4),
    size=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_k_bounded_picks_uniformly_from_the_reference_safe_set(k, size, seed, data):
    """Robots may leave the eligible set or join it late, but never rejoin."""
    policy = KBoundedPolicy(k)
    rng = random.Random(seed)
    eligible = {0}
    unseen = list(range(1, size))
    first_eligible = {0: 0}
    picks = []

    def ran_since_last_turn_of(w, r):
        """Turns of r since w's last turn, or since w was first eligible."""
        turns = [t for t, who in enumerate(picks) if who == w]
        since = turns[-1] + 1 if turns else first_eligible[w]
        return picks[since:].count(r)

    for now in range(data.draw(st.integers(1, 60), label="steps")):
        if unseen and data.draw(st.booleans(), label="join"):
            eligible.add(unseen.pop(0))
        if len(eligible) > 1 and data.draw(st.booleans(), label="leave"):
            eligible.discard(data.draw(st.sampled_from(sorted(eligible)), label="leaver"))
        for r in eligible:
            first_eligible.setdefault(r, now)
        order = sorted(eligible)
        safe = [
            r
            for r in order
            if all(ran_since_last_turn_of(w, r) < k for w in order if w != r)
        ]
        rng_copy = random.Random()
        rng_copy.setstate(rng.getstate())
        expected = safe[rng_copy.randrange(len(safe))] if len(safe) > 1 else safe[0]
        assert policy.next_activation(frozenset(eligible), rng) == {expected}
        picks.append(expected)


class ScanRoundRobin:
    """Round robin as it was before the sorted order was cached: a sort and
    a scan of every robot per step."""

    def __init__(self):
        self._last = None

    def next_activation(self, eligible, rng):
        order = sorted(eligible)
        if self._last is None:
            pick = order[0]
        else:
            later = [r for r in order if r > self._last]
            pick = later[0] if later else order[0]
        self._last = pick
        return frozenset((pick,))


class ScanProbabilistic:
    """The probabilistic policy with a sort per step."""

    def next_activation(self, eligible, rng):
        order = sorted(eligible)
        mask = rng.randrange(1, 1 << len(order))
        return frozenset(r for i, r in enumerate(order) if mask >> i & 1)


class ScanKBounded:
    """The k-bounded policy as it was before the safe set was kept: a scan
    of every robot's recent turns per step."""

    def __init__(self, k):
        self.k = k
        self._clock = 0
        self._last = {}
        self._recent = {}
        self._eligible = self._order = None

    def next_activation(self, eligible, rng):
        now, last, recent = self._clock, self._last, self._recent
        if eligible is not self._eligible:
            order = sorted(eligible)
            for gone in last.keys() - eligible:
                del last[gone], recent[gone]
            for r in order:
                if r not in last:
                    last[r], recent[r] = now - 1, deque(maxlen=self.k)
            self._eligible, self._order = eligible, order
        earliest = min(last.values())
        safe = [r for r in self._order if len(recent[r]) < self.k or recent[r][0] <= earliest]
        pick = safe[rng.randrange(len(safe))] if len(safe) > 1 else safe[0]
        last[pick] = now
        recent[pick].append(now)
        self._clock = now + 1
        return frozenset((pick,))


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["k-bounded", "round-robin", "probabilistic"]),
    n=st.integers(1, 20),
    k=st.integers(1, 4),
    steps=st.integers(1, 150),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_kept_state_picks_like_the_per_step_scan(kind, n, k, steps, seed, data):
    """Same rng, same picks, same draws: robots leave mid-run, and the same
    eligible frozenset is passed until one does (sometimes an equal copy)."""
    policy, reference = {
        "k-bounded": (KBoundedPolicy(k), ScanKBounded(k)),
        "round-robin": (CentralizedFairPolicy(), ScanRoundRobin()),
        "probabilistic": (ProbabilisticPolicy(), ScanProbabilistic()),
    }[kind]
    removals = data.draw(st.dictionaries(st.integers(1, steps), st.integers(0, n - 1), max_size=n - 1), label="removals")
    copies = data.draw(st.sets(st.integers(1, steps)), label="copies")
    rng, reference_rng = random.Random(seed), random.Random(seed)
    eligible = frozenset(range(n))
    for now in range(steps):
        if removals.get(now) in eligible and len(eligible) > 1:
            eligible = eligible - {removals[now]}
        elif now in copies:
            eligible = frozenset(list(eligible))
        assert policy.next_activation(eligible, rng) == reference.next_activation(eligible, reference_rng)
        assert rng.getstate() == reference_rng.getstate()


def test_k_bounded_rejects_k_below_one():
    with pytest.raises(ValueError):
        KBoundedPolicy(0)


def test_scripted_policies_replay_exactly_and_then_refuse():
    policy = ScriptedPolicy([{0}, {1, 2}])
    rng = random.Random(0)
    pool = frozenset({0, 1, 2})
    assert policy.next_activation(pool, rng) == {0}
    assert policy.next_activation(pool, rng) == {1, 2}
    with pytest.raises(RuntimeError, match="script exhausted"):
        policy.next_activation(pool, rng)


def test_scripted_activations_must_stay_within_the_eligible_set():
    policy = ScriptedPolicy([{5}])
    with pytest.raises(ValueError, match="not within eligible"):
        policy.next_activation(frozenset({0, 1}), random.Random(0))


def test_scripted_policies_reject_empty_sets_up_front():
    with pytest.raises(ValueError, match="nonempty"):
        ScriptedPolicy([{0}, set()])


def test_monopolizing_the_prefix_violates_the_k_bound():
    report = audit([{1}, {1}, {2}], {1, 2}, k=1)
    assert report.k_compliant is False
    assert report.violations


def test_monopolizing_the_suffix_violates_the_k_bound():
    report = audit([{1}, {2}, {2}], {1, 2}, k=1)
    assert report.k_compliant is False


def test_alternating_traces_are_one_bounded():
    report = audit([{1}, {2}, {1}, {2}], {1, 2}, k=1)
    assert report.k_compliant is True


def reference_audit(history, population, k, window):
    """(fair, k_compliant) by brute force: every window, every waiting interval."""
    pop = set(population)
    sets = [set(s) for s in history]
    fair = all(pop <= set().union(*sets[i : i + window]) for i in range(len(sets) - window + 1))
    k_compliant = True
    for r in pop:
        boundaries = [-1] + [t for t, s in enumerate(sets) if r in s] + [len(sets)]
        for a, b in zip(boundaries, boundaries[1:]):
            for other in pop - {r}:
                if sum(other in s for s in sets[a + 1 : b]) > k:
                    k_compliant = False
    return fair, k_compliant


@settings(max_examples=400)
@given(
    st.lists(st.sets(st.integers(0, 5), min_size=1, max_size=4), max_size=40),
    st.sets(st.integers(0, 4), min_size=1),
    st.integers(1, 3),
    st.integers(1, 8),
)
def test_audit_agrees_with_a_brute_force_reference(history, population, k, window):
    report = audit(history, population, k=k, window=window)
    assert (report.fair, report.k_compliant) == reference_audit(history, population, k, window)
    assert len(report.violations) == (not report.fair) + (not report.k_compliant)


def test_audit_without_k_reports_none():
    report = audit([{1}, {2}], {1, 2})
    assert report.k_compliant is None


def test_round_robin_is_fair_and_one_bounded():
    history = [{0}, {1}, {2}] * 8
    report = audit(history, {0, 1, 2}, k=1, window=6)
    assert report.fair is True
    assert report.k_compliant is True


def test_fairness_fails_when_a_robot_misses_a_whole_window():
    history = [{1}, {2}] * 10
    report = audit(history, {1, 2, 3}, window=4)
    assert report.fair is False
    assert report.violations


def test_histories_shorter_than_the_window_are_vacuously_fair():
    report = audit([{1}], {1, 2}, window=4)
    assert report.fair is True


def test_audit_validates_population_and_window():
    with pytest.raises(ValueError):
        audit([{1}], set(), k=1)
    with pytest.raises(ValueError):
        audit([{1}], {1}, window=0)


def test_script_files_round_trip(tmp_path):
    data = {
        "activations": [[0], [1], [0, 1]],
        "coins": [{"step": 0, "robot": 0, "bits": [1, 0]}],
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(data))
    policy = load_script(path, 2)
    pool = frozenset({0, 1})
    assert [policy.next_activation(pool, None) for _ in range(3)] == [{0}, {1}, {0, 1}]
    with pytest.raises(RuntimeError, match="script exhausted"):
        policy.next_activation(pool, None)
    assert policy.coin_overrides == {(0, 0): (1, 0)}


def test_duplicate_coin_overrides_are_rejected():
    data = {
        "activations": [[0]],
        "coins": [
            {"step": 0, "robot": 0, "bits": [1]},
            {"step": 0, "robot": 0, "bits": [0]},
        ],
    }
    with pytest.raises(ValueError):
        scripted_policy_from(data, 1)
