"""Acceptance checks for the whole toolkit.

Each test exercises one end to end claim: analytic solvers agree with each
other and with chain simulation, simulated swarms track the analytic
predictions at the stated tolerances, fault and Byzantine scenarios behave
as designed, and the experiment harness is reproducible. Every test records
one PASS/FAIL line that the terminal summary prints as a block.
"""

import dataclasses
import random
from fractions import Fraction

from atomswarm.engine import RandomSource
from atomswarm.geometry import Point
from atomswarm.harness import ExperimentConfig, compare_to_theory, run_experiment
from atomswarm.markov import (
    bound_gathering_crash,
    gathering_chain,
    hitting_time_birth_death,
    hitting_time_general,
    majority_threshold,
    scattering_chain,
    simulate_chain,
)
from atomswarm.programs import baseline_gather_step, random_bit
from atomswarm.scenarios import FLIP_FLOP_SCENARIO, replay_counterexample, run_flip_flop_witness


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
    ok = stats.converged_fraction == 1.0 and abs(stats.mean_steps - 2.0) <= 0.05
    detail = (
        f"100k two-robot trials all converged, mean steps "
        f"{stats.mean_steps:.4f} within 0.05 of 2"
    )
    assert acceptance(4, ok, detail), detail


def test_criterion_05_gathering_tracks_the_chain_oracle(acceptance):
    config8 = ExperimentConfig(
        n=8,
        program="multiplicity-gather",
        scheduler="centralized-fair",
        layout="random-uniform",
        predicate="gathering",
        trials=2000,
        seed=1,
        workers=4,
    )
    stats8, _ = run_experiment(config8)
    stats16, _ = run_experiment(dataclasses.replace(config8, n=16))
    # Majority-formation time plus the final absorbing activation.
    chain = gathering_chain(8)
    oracle = hitting_time_birth_death(chain, 1, majority_threshold(8)).expected_steps + 1.0
    comparison = compare_to_theory(stats8, oracle, metric="steps")
    rounds_ratio = stats8.mean_rounds / oracle
    monotone = stats16.mean_rounds > stats8.mean_rounds
    ok = (
        stats8.converged_fraction == 1.0
        and stats16.converged_fraction == 1.0
        and comparison.verdict == "consistent"
        and monotone
    )
    detail = (
        f"n=8 steps/oracle ratio {comparison.ratio:.2f} in (0.25, 4), rounds/oracle "
        f"ratio {rounds_ratio:.2f}, mean rounds grow {stats8.mean_rounds:.3f} -> "
        f"{stats16.mean_rounds:.3f} at n=16"
    )
    assert acceptance(5, ok, detail), detail


def test_criterion_06_gathering_survives_worst_case_freezes(acceptance):
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
        trials=2000,
        seed=5,
        workers=4,
    )
    stats, _ = run_experiment(config)
    bound = bound_gathering_crash(8, 2)
    ceiling = 2.0 * bound.value
    ok = stats.converged_fraction == 1.0 and stats.mean_rounds <= ceiling
    detail = (
        f"2000 trials with 2 adversarial freezes all reached weak gathering, "
        f"mean rounds {stats.mean_rounds:.3f} <= {ceiling:.2f}"
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
    source = RandomSource(random.Random(13))
    zero_freq = sum(random_bit(source) == 0 for _ in range(draws)) / draws
    move_freqs = {}
    for n in (2, 4):
        source = RandomSource(random.Random(29))
        view = tuple(Point(float(i), 0.0) for i in range(n))
        me = view[0]
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
