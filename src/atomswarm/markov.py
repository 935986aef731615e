"""Analytic oracles: birth-death chains, hitting times, and exact step counts.

The two chains of interest track the size of the largest co-located group
(gathering) and the number of distinct occupied positions (scattering). Both
only ever stay or advance, so expected hitting times have the closed form
sum of 1/p_advance over the path. Transition probabilities are exact
fractions and the closed form is summed in exact arithmetic, converted to
float only at the end; an independent dense linear solver cross-checks it.
``centralized_fair_gathering_steps`` is the exact mean of the simulated
system itself: multiplicity-gather under the centralized-fair scheduler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

import numpy as np

__all__ = [
    "BirthDeathChain",
    "HittingTimeResult",
    "MonteCarloEstimate",
    "gathering_chain",
    "scattering_chain",
    "hitting_time_birth_death",
    "hitting_time_general",
    "simulate_chain",
    "majority_threshold",
    "centralized_fair_gathering_steps",
    "CHAINS",
    "chain_report",
]


@dataclass(frozen=True)
class BirthDeathChain:
    """States 1..n_states; from each state the walk stays or advances by one.

    ``p_advance`` maps a state to an exact Fraction; the walk stays with the
    rest. The last state is absorbing: p_stay(n) = 1.
    """

    n_states: int
    p_advance: Callable[[int], Fraction]

    def p_stay(self, j: int) -> Fraction:
        return 1 - self.p_advance(j)

    def validate(self) -> None:
        if self.n_states < 1:
            raise ValueError("a chain needs at least one state")
        for j in range(1, self.n_states):
            if not 0 <= self.p_advance(j) <= 1:
                raise ValueError(f"probabilities at state {j} outside [0, 1]")
        if self.p_stay(self.n_states) != 1:
            raise ValueError("last state must be absorbing")

    def transition_matrix(self) -> np.ndarray:
        n = self.n_states
        matrix = np.zeros((n, n))
        for j in range(1, n):
            matrix[j - 1, j - 1] = float(self.p_stay(j))
            matrix[j - 1, j] = float(self.p_advance(j))
        matrix[n - 1, n - 1] = 1.0
        return matrix


def gathering_chain(n: int) -> BirthDeathChain:
    """Chain on the size k of the largest group: stays w.p. k/n, grows w.p. (n-k)/n."""
    if n < 2:
        raise ValueError("need at least two robots")

    def p_advance(k: int) -> Fraction:
        return Fraction(0) if k >= n else Fraction(n - k, n)

    return BirthDeathChain(n, p_advance)


def scattering_chain(n: int) -> BirthDeathChain:
    """Chain on the count j of distinct occupied positions.

    From state j < n the walk stalls only when every robot of the largest
    co-located block draws the same outcome, which happens with probability
    (1/4)^(n-j+1); otherwise a new position appears.
    """
    if n < 2:
        raise ValueError("need at least two robots")

    def p_advance(j: int) -> Fraction:
        return Fraction(0) if j >= n else 1 - Fraction(1, 4) ** (n - j + 1)

    return BirthDeathChain(n, p_advance)


@dataclass(frozen=True)
class HittingTimeResult:
    """Exact expected steps from one state to a later one, path segment by segment."""

    from_state: int
    to_state: int
    segments: tuple[Fraction, ...]

    @property
    def exact(self) -> Fraction:
        return sum(self.segments, Fraction(0))

    @property
    def expected_steps(self) -> float:
        return float(self.exact)


def hitting_time_birth_death(chain: BirthDeathChain, from_state: int, to_state: int) -> HittingTimeResult:
    """Closed-form expected hitting time: sum of 1/p_advance along the path.

    Exact in rational arithmetic. Raises when a state on the path has no
    forward probability.
    """
    if not 1 <= from_state <= to_state <= chain.n_states:
        raise ValueError(
            f"need 1 <= from <= to <= {chain.n_states}, got {from_state} -> {to_state}"
        )
    segments = []
    for j in range(from_state, to_state):
        advance = chain.p_advance(j)
        if advance <= 0:
            raise ValueError(f"unreachable: state {j} has no forward probability")
        segments.append(1 / advance)
    return HittingTimeResult(from_state, to_state, tuple(segments))


def hitting_time_general(transition, targets: Iterable[int]) -> np.ndarray:
    """Expected steps to reach any target state, for every state of a finite chain.

    ``transition`` is a row-stochastic matrix; ``targets`` are row indices.
    Solves the first-step system E[i] = 1 + sum_j P[i, j] E[j] with E fixed
    to 0 on targets. Independent of the closed form above, so the two can
    cross-check each other.
    """
    matrix = np.asarray(transition, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("transition matrix must be square")
    n = matrix.shape[0]
    if not np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("transition matrix rows must sum to 1")
    target_set = set(int(t) for t in targets)
    if not target_set:
        raise ValueError("need at least one target state")
    if any(t < 0 or t >= n for t in target_set):
        raise ValueError("target index out of range")
    system = np.eye(n) - matrix
    rhs = np.ones(n)
    for t in target_set:
        system[t, :] = 0.0
        system[t, t] = 1.0
        rhs[t] = 0.0
    try:
        expected = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        raise ValueError("targets unreachable from some state (singular system)") from None
    residual = np.max(np.abs(system @ expected - rhs))
    if not math.isfinite(residual) or residual > 1e-6:
        raise ValueError("targets unreachable from some state (ill-conditioned system)")
    return expected


class MonteCarloEstimate(NamedTuple):
    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    trials: int


def simulate_chain(
    chain: BirthDeathChain, from_state: int, to_state: int, trials: int, seed: int = 0
) -> MonteCarloEstimate:
    """Sampled hitting times with a normal-approximation 95% interval.

    All walkers advance in lockstep through a vectorized loop; the draw
    order is a pure function of the seed, so results replay exactly.
    """
    if not 1 <= from_state <= to_state <= chain.n_states:
        raise ValueError(
            f"need 1 <= from <= to <= {chain.n_states}, got {from_state} -> {to_state}"
        )
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    advance_probs = np.array(
        [float(chain.p_advance(j)) for j in range(1, chain.n_states + 1)]
    )
    states = np.full(trials, from_state, dtype=np.int64)
    steps = np.zeros(trials, dtype=np.int64)
    while True:
        walking = np.flatnonzero(states < to_state)
        if walking.size == 0:
            break
        draws = rng.random(walking.size)
        moved = draws < advance_probs[states[walking] - 1]
        states[walking] += moved.astype(np.int64)
        steps[walking] += 1
    mean = float(steps.mean())
    spread = float(steps.std(ddof=1)) if trials > 1 else 0.0
    std_error = spread / math.sqrt(trials)
    return MonteCarloEstimate(
        mean, std_error, mean - 1.96 * std_error, mean + 1.96 * std_error, trials
    )


def majority_threshold(n: int) -> int:
    """Group size from which gathering finishes: floor(n/2) + 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n // 2 + 1


def centralized_fair_gathering_steps(n: int) -> Fraction:
    """Exact expected steps of multiplicity-gather under centralized-fair
    activation from n distinct points: n(2n-3)/(n-1).

    Each activated robot stands on one of n tied tops and moves with
    probability 1/n, so the first pair forms after n steps on average. The
    top is then unique and the run ends once every other robot has had its
    turn: n-1 more steps, or n-2 when the robot joined was the mover's
    predecessor in the order, which has probability 1/(n-1).
    """
    if n < 2:
        raise ValueError("need at least two robots")
    return Fraction(n * (2 * n - 3), n - 1)


CHAINS = {
    "gathering": gathering_chain,
    "scattering": scattering_chain,
}


def chain_report(
    chain_name: str,
    n: int,
    from_state: int = 1,
    to_state: int | None = None,
    mc_trials: int = 0,
    seed: int = 0,
) -> dict:
    """Oracle summary for one chain query, JSON-ready: the exact hitting
    time between the requested states and an optional Monte Carlo estimate."""
    try:
        chain = CHAINS[chain_name](n)
    except KeyError:
        raise ValueError(f"unknown chain {chain_name!r}; available: {', '.join(sorted(CHAINS))}") from None
    if to_state is None:
        to_state = chain.n_states
    result = hitting_time_birth_death(chain, from_state, to_state)
    report = {
        "chain": chain_name,
        "n": n,
        "from": from_state,
        "to": to_state,
        "exact": result.expected_steps,
        "mc_mean": None,
        "mc_ci": None,
    }
    if mc_trials > 0:
        estimate = simulate_chain(chain, from_state, to_state, mc_trials, seed)
        report["mc_mean"] = estimate.mean
        report["mc_ci"] = [estimate.ci_low, estimate.ci_high]
    return report
