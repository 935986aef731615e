"""Acceptance checks for the whole toolkit.

Each test exercises one end to end claim: analytic solvers agree with each
other and with chain simulation, simulated swarms track the analytic
predictions at the stated tolerances, fault and Byzantine scenarios behave
as designed, and the experiment harness is reproducible. Every test records
one PASS/FAIL line that the terminal summary prints as a block.
"""

import dataclasses
from fractions import Fraction
from types import MappingProxyType

from atomswarm.engine import RandomSource
from atomswarm.geometry import Point
from atomswarm.harness import ExperimentConfig, compare_to_theory, run_experiment
from atomswarm.markov import (
    centralized_fair_gathering_steps,
    gathering_chain,
    hitting_time_birth_death,
    hitting_time_general,
    scattering_chain,
    simulate_chain,
)
from atomswarm.programs import baseline_gather_step, random_bit
from atomswarm.scenarios import FLIP_FLOP_SCENARIO, replay_counterexample, run_flip_flop_witness


def gate(stats, exact, metric="steps"):
    """The 4-standard-error verdict on a batch mean, and a line describing it."""
    comparison = compare_to_theory(stats, exact, metric=metric)
    if comparison.observed_mean is None:
        return False, f"no trial converged against exact {float(exact):.4f}"
    line = (
        f"mean {metric} {comparison.observed_mean:.4f} vs exact {comparison.oracle:.4f} "
        f"(4 SE = {4 * comparison.std_error:.4f})"
    )
    return comparison.verdict == "consistent", line


def test_criterion_01_hitting_time_solvers_agree(acceptance):
    worst_gap = 0.0
    for build in (gathering_chain, scattering_chain):
        for n in range(2, 65):
            chain = build(n)
            general = hitting_time_general(
                chain.transition_matrix(), [chain.n_states - 1]
            )
            for start in range(1, chain.n_states):
                closed = hitting_time_birth_death(chain, start, chain.n_states)
                gap = abs(closed.expected_steps - general[start - 1])
                worst_gap = max(worst_gap, gap)
    four_robot = hitting_time_birth_death(gathering_chain(4), 1, 3).exact
    ok = worst_gap <= 1e-9 and four_robot == Fraction(10, 3)
    detail = (
        f"closed form vs linear solver gap {worst_gap:.2e} <= 1e-9 "
        f"over n=2..64, 4-robot majority time exactly 10/3"
    )
    assert acceptance(1, ok, detail), detail


def test_criterion_02_chain_simulation_matches_exact_values(acceptance):
    worst_z = 0.0
    for build in (gathering_chain, scattering_chain):
        for n in (4, 8, 16):
            chain = build(n)
            exact = hitting_time_birth_death(chain, 1, chain.n_states).expected_steps
            estimate = simulate_chain(chain, 1, chain.n_states, 100_000, seed=1000 + n)
            z = abs(estimate.mean - exact) / estimate.std_error
            worst_z = max(worst_z, z)
    ok = worst_z <= 4.0
    detail = f"100k-trial chain estimates within {worst_z:.2f} standard errors of exact"
    assert acceptance(2, ok, detail), detail


def test_criterion_03_scattering_time_scales_linearly(acceptance):
    def exact(n):
        chain = scattering_chain(n)
        return hitting_time_birth_death(chain, 1, chain.n_states).expected_steps

    bracketed = all(n - 1 < exact(n) < n - 0.8 for n in range(3, 65))
    worst_increment = max(abs(exact(2 * n) - exact(n) - n) for n in range(3, 33))
    ok = bracketed and worst_increment <= 0.01
    detail = (
        f"expected time in (n-1, n-0.8) for n=3..64, doubling n adds "
        f"n steps to within {worst_increment:.4f}"
    )
    assert acceptance(3, ok, detail), detail


def test_criterion_04_two_robots_gather_in_two_expected_steps(acceptance):
    config = ExperimentConfig(
        n=2,
        program="baseline-gather",
        scheduler="centralized-fair",
        layout="explicit",
        layout_params={"positions": [[0.0, 0.0], [1.0, 0.0]]},
        predicate="gathering",
        trials=100_000,
        seed=3,
        workers=4,
    )
    stats, _ = run_experiment(config)
    exact = hitting_time_birth_death(gathering_chain(2), 1, 2).exact
    consistent, line = gate(stats, exact)
    ok = exact == 2 and stats.converged_fraction == 1.0 and consistent
    detail = f"100k two-robot trials all converged, {line}, the exact value being 2"
    assert acceptance(4, ok, detail), detail


def test_criterion_05_gathering_tracks_the_chain_oracle(acceptance):
    config16 = ExperimentConfig(
        n=16,
        program="multiplicity-gather",
        scheduler="centralized-fair",
        layout="random-uniform",
        predicate="gathering",
        trials=2000,
        seed=1,
        workers=4,
    )
    stats8, _ = run_experiment(dataclasses.replace(config16, n=8, trials=20_000))
    stats16, _ = run_experiment(config16)
    consistent8, line8 = gate(stats8, centralized_fair_gathering_steps(8))
    consistent16, line16 = gate(stats16, centralized_fair_gathering_steps(16))
    monotone = stats16.mean_rounds > stats8.mean_rounds
    ok = (
        stats8.converged_fraction == 1.0
        and stats16.converged_fraction == 1.0
        and consistent8
        and consistent16
        and monotone
    )
    detail = (
        f"exact n(2n-3)/(n-1) within 4 SE: n=8 {line8}, n=16 {line16}; mean rounds "
        f"grow {stats8.mean_rounds:.3f} -> {stats16.mean_rounds:.3f}"
    )
    assert acceptance(5, ok, detail), detail


def test_criterion_06_gathering_survives_worst_case_freezes(acceptance):
    """Its exact mean is the fault-free one, 104/7 steps. The freezes fire once
    the top group holds a majority, so the top is unique, and each strikes a
    robot on it. A correct robot on the unique top stays without drawing
    randomness and a frozen robot's turn changes nothing, so every row equals
    that of the fault-free run."""
    config = ExperimentConfig(
        n=8,
        program="multiplicity-gather",
        scheduler="centralized-fair",
        layout="random-uniform",
        predicate="gathering",
        weak=True,
        faults={
            "f": 2,
            "crashes": [
                {"mode": "freeze", "when": "max_group_reaches_alpha"},
                {"mode": "freeze", "when": "max_group_reaches_alpha"},
            ],
        },
        trials=20_000,
        seed=5,
        workers=4,
    )
    stats, _ = run_experiment(config)
    consistent, line = gate(stats, centralized_fair_gathering_steps(8))
    ok = stats.converged_fraction == 1.0 and consistent
    detail = (
        f"20k trials with 2 adversarial freezes all reached weak gathering, "
        f"{line}, the fault-free exact value"
    )
    assert acceptance(6, ok, detail), detail


def test_criterion_07_byzantine_oscillation_never_gathers(acceptance):
    report = replay_counterexample(cycles=100)
    ok = (
        not report.gathered
        and report.boundaries_checked == 100
        and report.boundaries_isomorphic == 100
        and report.first_divergence is None
        and report.fair
        and report.k == 3
        and report.k_compliant
        and not report.broken
    )
    detail = (
        "100 scripted cycles under a fair 3-bounded schedule return to the "
        "start configuration every cycle without ever gathering"
    )
    assert acceptance(7, ok, detail), detail


def test_criterion_08_one_byzantine_of_four_cannot_block_weak_gathering(acceptance):
    config = ExperimentConfig(
        n=4,
        program="multiplicity-gather",
        scheduler="probabilistic",
        layout="two-groups",
        layout_params={"sizes": [2, 2], "points": [[0.0, 0.0], [1.0, 0.0]]},
        predicate="gathering",
        weak=True,
        faults={"f": 1, "byzantine": [{"robot": 3, "strategy": "oscillator"}]},
        trials=500,
        max_steps=100_000,
        seed=5,
        workers=1,
    )
    stats, _ = run_experiment(config)
    ok = stats.converged_fraction == 1.0
    detail = (
        f"500 trials against an oscillating Byzantine robot all reached weak "
        f"gathering, mean steps {stats.mean_steps:.2f}"
    )
    assert acceptance(8, ok, detail), detail


def test_criterion_09_scattering_tolerates_frozen_robots(acceptance):
    config = ExperimentConfig(
        n=10,
        program="voronoi-scatter",
        scheduler="probabilistic",
        layout="explicit",
        layout_params={
            "positions": [
                [0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0],
                [5.0, 0.0], [6.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
            ]
        },
        predicate="scattering",
        weak=True,
        faults={
            "f": 3,
            "crashes": [
                {"mode": "freeze", "robot": 7, "at": 0},
                {"mode": "freeze", "robot": 8, "at": 0},
                {"mode": "freeze", "robot": 9, "at": 0},
            ],
        },
        trials=2000,
        seed=5,
        workers=4,
    )
    stats, _ = run_experiment(config)
    ok = stats.converged_fraction == 1.0 and stats.mean_rounds <= 10.0
    detail = (
        f"2000 trials with 3 frozen robots all reached weak scattering, "
        f"mean rounds {stats.mean_rounds:.3f} <= 10"
    )
    assert acceptance(9, ok, detail), detail


def test_criterion_10_coin_frequencies_match_declared_probabilities(acceptance):
    draws = 100_000
    source = RandomSource(13)
    zero_freq = sum(random_bit(source) == 0 for _ in range(draws)) / draws
    move_freqs = {}
    for n in (2, 4):
        source = RandomSource(29)
        view = MappingProxyType({Point(float(i), 0.0): 1 for i in range(n)})
        me = Point(0.0, 0.0)
        moved = sum(
            baseline_gather_step(view, me, source) != me for _ in range(draws)
        )
        move_freqs[n] = moved / draws
    ok = abs(zero_freq - 0.75) <= 0.01 and all(
        abs(move_freqs[n] - 1.0 / n) <= 0.01 for n in (2, 4)
    )
    detail = (
        f"100k draws: zero-bit frequency {zero_freq:.4f} (target 0.75), move "
        f"frequency {move_freqs[2]:.4f} at n=2 and {move_freqs[4]:.4f} at n=4"
    )
    assert acceptance(10, ok, detail), detail


def test_criterion_11_worker_count_leaves_outputs_byte_identical(acceptance, tmp_path):
    base = dict(
        n=6,
        program="multiplicity-gather",
        scheduler="probabilistic",
        trials=300,
        seed=99,
    )
    run_experiment(ExperimentConfig(**base, out_dir=str(tmp_path / "w1"), workers=1))
    run_experiment(ExperimentConfig(**base, out_dir=str(tmp_path / "w8"), workers=8))
    same = {
        name: (tmp_path / "w1" / name).read_bytes()
        == (tmp_path / "w8" / name).read_bytes()
        for name in ("trials.csv", "summary.json")
    }
    ok = all(same.values())
    detail = "trials.csv and summary.json byte-identical under 1 and 8 workers"
    assert acceptance(11, ok, detail), detail


def test_criterion_12_flip_flop_oscillates_only_under_scripted_coins(acceptance):
    witness = run_flip_flop_witness(cycles=5)
    config = ExperimentConfig(
        **FLIP_FLOP_SCENARIO,
        scheduler="probabilistic",
        predicate="gathering",
        trials=500,
        max_steps=10_000,
        seed=21,
        workers=4,
    )
    stats, _ = run_experiment(config)
    ok = (
        witness.oscillations >= 3
        and not witness.gathered
        and not witness.broken
        and stats.converged_fraction > 0.0
    )
    detail = (
        f"scripted coins oscillate {witness.oscillations} times without gathering, "
        f"honest coins converge in {stats.converged_fraction:.3f} of 500 trials"
    )
    assert acceptance(12, ok, detail), detail
