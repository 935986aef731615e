"""Birth-death oracles: exact hitting times, solver agreement, exact step counts."""

from fractions import Fraction

import numpy as np
import pytest

from atomswarm.markov import (
    CHAINS,
    BirthDeathChain,
    centralized_fair_gathering_steps,
    chain_report,
    gathering_chain,
    hitting_time_birth_death,
    hitting_time_general,
    majority_threshold,
    scattering_chain,
    simulate_chain,
)


def test_majority_threshold_values():
    assert [majority_threshold(n) for n in (2, 3, 4, 5, 8, 16)] == [2, 2, 3, 3, 5, 9]


def test_gathering_chain_tracks_the_largest_group_size():
    chain = gathering_chain(8)
    assert chain.n_states == 8
    assert chain.p_stay(2) == Fraction(2, 8)
    assert chain.p_advance(2) == Fraction(6, 8)
    assert chain.p_stay(chain.n_states) == 1
    chain.validate()


def test_scattering_chain_progress_probabilities():
    chain = scattering_chain(5)
    assert chain.n_states == 5
    assert chain.p_stay(1) == Fraction(1, 4) ** 5
    assert chain.p_stay(4) == Fraction(1, 4) ** 2
    assert chain.p_stay(5) == 1
    chain.validate()


def test_transition_matrices_are_row_stochastic():
    for build in (gathering_chain, scattering_chain):
        matrix = build(6).transition_matrix()
        assert matrix.shape == (build(6).n_states,) * 2
        assert np.allclose(matrix.sum(axis=1), 1.0)


def test_four_robot_gathering_oracle_is_exactly_ten_thirds():
    result = hitting_time_birth_death(gathering_chain(4), 1, 3)
    assert result.exact == Fraction(10, 3)
    assert result.expected_steps == 10 / 3
    assert result.segments == (Fraction(4, 3), Fraction(2))


def test_three_robot_scattering_oracle_value():
    result = hitting_time_birth_death(scattering_chain(3), 1, 3)
    assert result.exact == Fraction(16, 15) + Fraction(64, 63)


def test_closed_form_matches_the_general_solver():
    for build in (gathering_chain, scattering_chain):
        for n in (2, 3, 5, 8, 13):
            chain = build(n)
            solved = hitting_time_general(
                chain.transition_matrix(), [chain.n_states - 1]
            )
            for start in range(1, chain.n_states):
                closed = hitting_time_birth_death(chain, start, chain.n_states)
                assert abs(closed.expected_steps - solved[start - 1]) <= 1e-9


def test_hitting_time_validates_state_order():
    chain = gathering_chain(4)
    with pytest.raises(ValueError):
        hitting_time_birth_death(chain, 3, 1)
    with pytest.raises(ValueError):
        hitting_time_birth_death(chain, 0, 2)


def test_stuck_states_are_reported_as_unreachable():
    chain = BirthDeathChain(n_states=2, p_advance=lambda j: Fraction(0))
    with pytest.raises(ValueError, match="unreachable"):
        hitting_time_birth_death(chain, 1, 2)


def test_general_solver_rejects_malformed_matrices():
    with pytest.raises(ValueError):
        hitting_time_general(np.ones((2, 3)), [0])
    not_stochastic = np.array([[0.5, 0.2], [0.0, 1.0]])
    with pytest.raises(ValueError):
        hitting_time_general(not_stochastic, [1])


def test_general_solver_detects_unreachable_targets():
    stuck = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 0.5, 0.5],
            [0.0, 0.0, 1.0],
        ]
    )
    with pytest.raises(ValueError, match="unreachable"):
        hitting_time_general(stuck, [2])


def test_sampled_hitting_times_agree_with_the_solver():
    chain = gathering_chain(4)
    truth = hitting_time_birth_death(chain, 1, 3).expected_steps
    estimate = simulate_chain(chain, 1, 3, 20_000, seed=404)
    assert abs(estimate.mean - truth) <= 4 * estimate.std_error
    assert estimate.ci_low < estimate.mean < estimate.ci_high
    assert estimate.trials == 20_000


def test_equal_seeds_replay_identical_estimates():
    chain = scattering_chain(5)
    assert simulate_chain(chain, 1, 5, 2_000, seed=77) == simulate_chain(
        chain, 1, 5, 2_000, seed=77
    )


def test_simulate_chain_validates_states():
    chain = gathering_chain(4)
    with pytest.raises(ValueError):
        simulate_chain(chain, 0, 3, 10)
    with pytest.raises(ValueError):
        simulate_chain(chain, 3, 1, 10)


def test_centralized_fair_gathering_steps_are_exact():
    expected = {2: 2, 3: Fraction(9, 2), 4: Fraction(20, 3), 8: Fraction(104, 7), 16: Fraction(464, 15)}
    for n, value in expected.items():
        assert centralized_fair_gathering_steps(n) == value
    # Two robots: each turn moves onto the other with probability 1/2, exactly the gathering chain.
    assert centralized_fair_gathering_steps(2) == hitting_time_birth_death(gathering_chain(2), 1, 2).exact
    for n in (1, 0, -3):
        with pytest.raises(ValueError):
            centralized_fair_gathering_steps(n)


def test_chain_reports_carry_the_exact_value_and_an_optional_estimate():
    report = chain_report("gathering", 4, from_state=1, to_state=3)
    assert set(report) == {"chain", "n", "from", "to", "exact", "mc_mean", "mc_ci"}
    assert report["exact"] == 10 / 3
    assert report["mc_mean"] is None
    assert report["mc_ci"] is None

    report = chain_report("scattering", 6, mc_trials=2_000, seed=1)
    assert report["to"] == 6
    assert report["mc_mean"] == pytest.approx(report["exact"], rel=0.1)
    assert report["mc_ci"][0] < report["mc_mean"] < report["mc_ci"][1]


def test_chain_registry_names():
    assert set(CHAINS) == {"gathering", "scattering"}
    with pytest.raises(ValueError, match="unknown chain"):
        chain_report("percolation", 4)
