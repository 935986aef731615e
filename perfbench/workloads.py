"""The benchmark's workloads, each driven through atomswarm's public API.

Every workload derives all of its inputs from the run seed. ``call(i)`` runs
the i-th timed unit of work and returns a :class:`Call`; only the atomswarm
calls inside it are timed, and its correctness checks run after the clock
stops. Index 0 is the fixed unit the traced run repeats; negative indices
are warm-up inputs that no timed call uses.
"""

from __future__ import annotations

import filecmp
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from atomswarm import harness, markov, schedulers
from atomswarm.harness import ExperimentConfig


@dataclass
class Call:
    """One timed unit: its counts, wall time, failures and per-trial records."""

    trials: int
    activations: int
    seconds: float
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # Per-trial (converged, steps, rounds) or the oracle values, for the
    # traced-versus-untraced neutrality check.
    records: tuple = ()
    trace_bytes: int = 0

    def fail_all(self, problem: str) -> None:
        self.failed = self.trials
        self.problems.append(problem)


def _sub_seed(seed: int, index: int) -> int:
    """Distinct experiment seed per (run seed, unit index), warm-up included."""
    return seed * 1_000_003 + index + 1_000


def _outcomes(records: list[dict]) -> tuple:
    return tuple((r["converged"], r["steps"], r["rounds"]) for r in records)


def _batch_call(records: list[dict], seconds: float) -> Call:
    """A run_experiment batch: error rows and non-converged trials fail."""
    call = Call(
        trials=len(records),
        activations=sum(r["steps"] or 0 for r in records),
        seconds=seconds,
        records=_outcomes(records),
    )
    bad = [r for r in records if r.get("error") or not r["converged"]]
    call.failed = len(bad)
    if bad:
        call.problems.append(f"{len(bad)} trials errored or did not converge")
    return call


class PairsBatch:
    """Two robots at distance 1, baseline-gather, centralized-fair, a pool of 2.

    About two activations per trial, so the fixed per-trial costs (seed
    derivation, config/policy/program construction, ``engine.run`` set-up,
    the process pool) dominate and anything that scales with n is bypassed.
    """

    name = "pairs-batch"
    trials_per_call = 10_000

    def __init__(self, seed: int, out_dir: Path, workers: int):
        self.seed = seed
        self.out_dir = out_dir
        self.workers = workers
        # Exact expected meeting time of the pair (one activation moves w.p. 1/2).
        self.exact = markov.hitting_time_birth_death(markov.gathering_chain(2), 1, 2).expected_steps
        self.config(0).validate()

    def config(self, index: int, workers: int | None = None, trials: int | None = None) -> ExperimentConfig:
        workers = self.workers if workers is None else workers
        return ExperimentConfig(
            n=2,
            program="baseline-gather",
            scheduler="centralized-fair",
            layout="explicit",
            layout_params={"positions": [[0.0, 0.0], [1.0, 0.0]]},
            predicate="gathering",
            trials=trials or self.trials_per_call,
            seed=_sub_seed(self.seed, index),
            out_dir=str(self.out_dir / f"w{workers}"),
            workers=workers,
        )

    def warm(self) -> None:
        harness.run_experiment(self.config(-1, trials=200))

    def call(self, index: int, workers: int | None = None) -> Call:
        config = self.config(index, workers)
        start = perf_counter()
        stats, records = harness.run_experiment(config)
        call = _batch_call(records, perf_counter() - start)
        if stats.converged and stats.std_steps is not None:
            std_error = stats.std_steps / math.sqrt(stats.converged)
            if abs(stats.mean_steps - self.exact) > 4 * std_error:
                call.fail_all(
                    f"mean steps {stats.mean_steps:.4f} not within 4 SE ({std_error:.4f}) of exact {self.exact}"
                )
        return call

    def once_check(self) -> list[str]:
        """Outputs of the timed call 0 (pooled) must equal a one-worker run byte for byte."""
        pooled = self.call(0)
        single = self.call(0, workers=1)
        problems = pooled.problems + single.problems
        for name in ("trials.csv", "summary.json"):
            a = self.out_dir / f"w{self.workers}" / name
            b = self.out_dir / "w1" / name
            if not filecmp.cmp(a, b, shallow=False):
                problems.append(f"{name} differs between {self.workers} workers and 1 worker")
        return problems


FAULTS = {
    "f": 2,
    "byzantine": [{"robot": 0, "strategy": "oscillator"}],
    "crashes": [{"mode": "freeze", "when": "max_group_reaches_alpha"}],
}


class KBoundedFaultedTraced:
    """One traced multiplicity-gather run per seed, n=64, k-bounded k=2, faulted.

    The only workload with the O(n^2) k-bounded safe-set test, per-step fault
    firing, a Byzantine strategy and JSONL trace writing; one robot per step.
    """

    name = "kbounded-faulted-traced"
    n = 64
    k = 2
    # Seeds validated at set-up; timed calls cycle through them in order.
    seed_list_length = 256
    # Seeds in the fixed unit that the traced run repeats.
    unit_trials = 8

    def __init__(self, seed: int, out_dir: Path, workers: int):
        self.seed = seed
        self.trace_path = out_dir / "trace.jsonl"
        self.configs = [self.config(i).validate() for i in range(self.seed_list_length)]

    def config(self, index: int) -> ExperimentConfig:
        return ExperimentConfig(
            n=self.n,
            program="multiplicity-gather",
            scheduler="k-bounded",
            scheduler_params={"k": self.k},
            layout="random-uniform",
            predicate="gathering",
            weak=True,
            faults=FAULTS,
            max_steps=10_000,
            seed=_sub_seed(self.seed, index),
        )

    def warm(self) -> None:
        harness.simulate_once(self.config(-1), self.trace_path)

    def _one(self, config: ExperimentConfig) -> Call:
        start = perf_counter()
        try:
            record = harness.simulate_once(config, self.trace_path)
        except Exception as exc:  # a failed trial is counted, not fatal
            call = Call(1, 0, perf_counter() - start)
            call.fail_all(f"seed {config.seed}: {type(exc).__name__}: {exc}")
            return call
        call = Call(1, record.steps, perf_counter() - start)
        # Stream the trace so the check adds little to the peak memory.
        digest = hashlib.sha256()
        history = []
        try:
            with open(self.trace_path, "rb") as fh:
                for line in fh:
                    digest.update(line)
                    call.trace_bytes += len(line)
                    history.append(json.loads(line)["activated"])
        except ValueError as exc:
            call.fail_all(f"seed {config.seed}: trace line does not parse: {exc}")
            return call
        call.records = ((record.converged, record.steps, record.rounds, digest.hexdigest()),)
        if not record.converged:
            call.fail_all(f"seed {config.seed}: weak gathering not reached in {record.steps} steps")
            return call
        history = history[1:]  # the first line is the initial configuration
        if len(history) != record.steps:
            call.fail_all(f"seed {config.seed}: trace has {len(history)} steps, run reports {record.steps}")
            return call
        report = schedulers.audit(history, range(self.n), k=self.k)
        if not report.k_compliant:
            call.fail_all(f"seed {config.seed}: activation history not {self.k}-bounded: {report.violations[:1]}")
        return call

    def call(self, index: int) -> Call:
        """Index 0 is the fixed unit of ``unit_trials`` seeds; others are single seeds."""
        if index == 0:
            parts = [self._one(c) for c in self.configs[: self.unit_trials]]
        else:
            parts = [self._one(self.configs[(self.unit_trials + index - 1) % self.seed_list_length])]
        return _merge(parts)


def _merge(parts: list[Call]) -> Call:
    merged = Call(0, 0, 0.0)
    for part in parts:
        merged.trials += part.trials
        merged.activations += part.activations
        merged.seconds += part.seconds
        merged.failed += part.failed
        merged.problems += part.problems
        merged.records += part.records
        merged.trace_bytes += part.trace_bytes
    return merged


class ScatterProb:
    """voronoi-scatter from one point, n=32, probabilistic scheduler, one worker.

    About half the robots move each step, each re-sorting the same view and
    sampling in its Voronoi cell: many movers per snapshot, so programs and
    geometry dominate and the scheduler is cheap.
    """

    name = "scatter-prob"
    trials_per_call = 40

    def __init__(self, seed: int, out_dir: Path, workers: int):
        self.seed = seed
        self.config(0).validate()

    def config(self, index: int, trials: int | None = None) -> ExperimentConfig:
        return ExperimentConfig(
            n=32,
            program="voronoi-scatter",
            scheduler="probabilistic",
            layout="all-at-one-point",
            predicate="scattering",
            weak=False,
            trials=trials or self.trials_per_call,
            seed=_sub_seed(self.seed, index),
            workers=1,
        )

    def warm(self) -> None:
        harness.run_experiment(self.config(-1, trials=4))

    def call(self, index: int) -> Call:
        config = self.config(index)
        start = perf_counter()
        _, records = harness.run_experiment(config)
        return _batch_call(records, perf_counter() - start)


class ChainOracle:
    """Exact, linear-solve and Monte Carlo hitting times of both chains, n=64 and 256.

    The only workload that runs markov: exact rational sums, a dense linear
    solve and vectorised numpy Monte Carlo. No robot is simulated.
    """

    name = "chain-oracle"
    sizes = (64, 256)
    walkers = 50_000

    def __init__(self, seed: int, out_dir: Path, workers: int):
        self.seed = seed
        self.queries = []
        for n in self.sizes:
            for chain, target in (
                (markov.gathering_chain(n), markov.majority_threshold(n)),
                (markov.scattering_chain(n), n),
            ):
                chain.validate()
                self.queries.append((chain, target))

    def warm(self) -> None:
        for chain, target in self.queries:
            markov.simulate_chain(chain, 1, target, 1_000, _sub_seed(self.seed, -1))
            markov.hitting_time_general(chain.transition_matrix(), range(target - 1, chain.n_states))

    def call(self, index: int) -> Call:
        results = []
        start = perf_counter()
        for q, (chain, target) in enumerate(self.queries):
            exact = markov.hitting_time_birth_death(chain, 1, target).expected_steps
            solved = markov.hitting_time_general(chain.transition_matrix(), range(target - 1, chain.n_states))
            estimate = markov.simulate_chain(chain, 1, target, self.walkers, _sub_seed(self.seed, index) * 8 + q)
            results.append((exact, float(solved[0]), estimate))
        seconds = perf_counter() - start
        walker_steps = sum(round(est.mean * est.trials) for _, _, est in results)
        call = Call(len(results) * self.walkers, walker_steps, seconds)
        call.records = tuple((exact, solved, tuple(est)) for exact, solved, est in results)
        for (chain, target), (exact, solved, est) in zip(self.queries, results):
            label = f"chain n={chain.n_states} to {target}"
            if abs(exact - solved) > 1e-9 * abs(exact):
                call.fail_all(f"{label}: closed form {exact!r} and linear solve {solved!r} disagree")
            if abs(est.mean - exact) > 4 * est.std_error:
                call.fail_all(f"{label}: Monte Carlo {est.mean} not within 4 SE ({est.std_error}) of {exact}")
        return call


WORKLOADS = {w.name: w for w in (PairsBatch, KBoundedFaultedTraced, ScatterProb, ChainOracle)}
