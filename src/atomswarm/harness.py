"""Experiment harness: configs, batch trial running, statistics.

An experiment is described by a plain-data config (JSON friendly). Its
parsers live here, fault plans and scripts included, and every JSON object
they read passes one rule: a key it does not know is a ConfigError.
``ExperimentConfig.build()`` parses it once per batch, layout and scheduler
included, into the parts every trial uses; trials run in contiguous chunks
that all receive those parts. A fixed layout is one shared configuration, and
each trial gets a fresh policy from the parsed scheduler. Trial seeds are
derived from the experiment seed through independent substreams, so a batch
replays identically for any worker count and trial order.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import operator
import random
import statistics
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import engine
from .engine import Configuration, TrialRecord, configuration_from_positions, is_gathered, is_scattered
from .faults import BYZANTINE_STRATEGIES, CrashEvent, CrashMode, FaultPlan, ScriptedStrategy
from .geometry import Point
from .programs import make_program
from .schedulers import CentralizedFairPolicy, KBoundedPolicy, ProbabilisticPolicy, ScriptedPolicy

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "TrialStats",
    "TheoryComparison",
    "build_initial",
    "build_policy",
    "build_predicate",
    "fault_plan_from_dict",
    "scripted_policy_from",
    "load_script",
    "derive_trial_seeds",
    "execute_trial",
    "run_single_trial",
    "run_experiment",
    "aggregate_trials",
    "write_outputs",
    "read_trials_csv",
    "compare_to_theory",
    "simulate_once",
]


class ConfigError(ValueError):
    """An experiment configuration that cannot be run."""


# Schedulers by name, each with its class (None: read a script instead) and
# its scheduler_params keys, required then optional; each required key is an
# integer >= 1.
SCHEDULERS = {
    "centralized-fair": (CentralizedFairPolicy, (), ()),
    "probabilistic": (ProbabilisticPolicy, (), ()),
    "k-bounded": (KBoundedPolicy, ("k",), ()),
    "scripted": (None, (), ("path", "script")),
}
# Layouts by name, each with its layout_params keys, required then optional.
LAYOUTS = {
    "all-at-one-point": ((), ("point",)),
    "two-groups": ((), ("sizes", "points")),
    "random-uniform": ((), ("box",)),
    "explicit": (("positions",), ()),
}
PREDICATE_NAMES = ("gathering", "scattering")
# Integer fields and their least values.
INTEGER_FIELDS = {"n": 1, "trials": 1, "max_steps": 1, "seed": 0, "workers": 1}


# JSON field checks shared by every config parser; each error names its field.


def _object(value, field: str, required=(), optional=()) -> dict:
    """A JSON object with every ``required`` key and no key outside
    ``required`` and ``optional``: any other key is a config error."""
    if not isinstance(value, dict):
        raise ConfigError(f"{field} must be a JSON object, got {value!r}")
    unknown = [key for key in value if key not in required and key not in optional]
    if unknown:
        raise ConfigError(f"unknown {field} fields: {', '.join(sorted(map(str, unknown)))}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ConfigError(f"missing {field} fields: {', '.join(missing)}")
    return value


def _integer(value, field: str, low: int | None = None, high: int | None = None) -> int:
    """A JSON integer in ``low..high`` (either end optional); floats and
    booleans are rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise ConfigError(f"{field} must be {bounds}, got {value!r}")
    return value


def _list(value, field: str):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{field} must be a list, got {value!r}")
    return value


def _point(value, field: str) -> Point:
    try:
        x, y = value
        return Point(float(x), float(y))
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{field} must be an [x, y] pair of finite numbers, got {value!r}") from None


@dataclass
class ExperimentConfig:
    """Plain-data description of a batch of trials.

    ``out_dir`` and ``workers`` only affect where results land and how fast
    they are produced, never their content; they are stripped from the
    summary echo so reruns compare byte for byte.
    """

    n: int
    program: str = "multiplicity-gather"
    program_params: dict = field(default_factory=dict)
    scheduler: str = "centralized-fair"
    scheduler_params: dict = field(default_factory=dict)
    layout: str = "random-uniform"
    layout_params: dict = field(default_factory=dict)
    predicate: str = "gathering"
    weak: bool = False
    faults: dict | None = None
    trials: int = 1
    max_steps: int = 10_000
    seed: int = 0
    out_dir: str | None = None
    workers: int = 1

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return cls(**_object(data, "config", ("n",), [f.name for f in fields(cls)]))

    def build(self) -> tuple:
        """Parse the config once into the picklable parts every trial uses.

        Returns ``(plan, program, predicate, new_policy, layout)``: the fault
        plan or None, the robot program, the convergence predicate,
        ``new_policy()`` for a fresh (stateful) scheduler per trial, and
        ``layout(rng)`` for a trial's initial Configuration. This is where
        outside input becomes a ConfigError: every field is checked here, once
        per batch, so a bad value fails here and not in a trial.
        """
        for name, low in INTEGER_FIELDS.items():
            _integer(getattr(self, name), name, low)
        if not isinstance(self.program_params, dict):
            raise ConfigError(f"program_params must be a JSON object, got {self.program_params!r}")
        if self.faults is not None and not isinstance(self.faults, dict):
            raise ConfigError(f"faults must be a JSON object or null, got {self.faults!r}")
        if not isinstance(self.weak, bool):
            raise ConfigError(f"weak must be true or false, got {self.weak!r}")
        predicate = build_predicate(self.predicate, self.weak)
        try:
            program = make_program(self.program, **self.program_params)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        new_policy = build_policy(self)
        try:
            plan = None if self.faults is None else fault_plan_from_dict(self.faults, self.n)
        except ValueError as exc:
            raise ConfigError(f"bad fault plan: {exc}") from None
        return plan, program, predicate, new_policy, build_initial(self)

    def validate(self) -> "ExperimentConfig":
        """Check the config as ``build()`` does and return it."""
        self.build()
        return self


def _fixed_layout(initial: Configuration, rng: random.Random) -> Configuration:
    return initial


def _uniform_layout(n: int, box: tuple, rng: random.Random) -> Configuration:
    xmin, ymin, xmax, ymax = box
    return configuration_from_positions([Point(rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)) for _ in range(n)])


def build_initial(config: ExperimentConfig):
    """Check the layout once; returns ``layout(rng)``, a trial's initial Configuration.

    A fixed layout returns one shared configuration (``engine.run`` copies it
    before changing anything); ``random-uniform`` makes 2n draws from ``rng``.
    """
    name, params, n = config.layout, config.layout_params, config.n
    if not isinstance(name, str) or name not in LAYOUTS:
        raise ConfigError(f"unknown layout {name!r}; available: {', '.join(LAYOUTS)}")
    _object(params, "layout_params", *LAYOUTS[name])
    if name == "random-uniform":
        box = params.get("box", (0.0, 0.0, 1.0, 1.0))
        try:
            bounds = xmin, ymin, xmax, ymax = tuple(map(float, box))
            # Finite widths keep every uniform draw finite.
            valid = 0 < xmax - xmin < math.inf and 0 < ymax - ymin < math.inf
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            raise ConfigError(
                f"layout_params.box must be (xmin, ymin, xmax, ymax) with xmin < xmax and ymin < ymax, got {box!r}"
            )
        return partial(_uniform_layout, n, bounds)
    if name == "all-at-one-point":
        positions = [_point(params.get("point", (0.0, 0.0)), "layout_params.point")] * n
    elif name == "two-groups":
        sizes = _list(params.get("sizes", (n - n // 2, n // 2)), "layout_params.sizes")
        points = _list(params.get("points", ((0.0, 0.0), (1.0, 0.0))), "layout_params.points")
        if len(sizes) != 2 or len(points) != 2:
            raise ConfigError("two-groups layout needs two sizes and two points")
        try:
            sizes = [_integer(size, "layout_params.sizes", 0) for size in sizes]
        except ConfigError:
            raise ConfigError(f"layout_params.sizes must be non-negative integers, got {list(sizes)}") from None
        if sum(sizes) != n:
            raise ConfigError(f"two-groups sizes {sizes} must sum to n={n}")
        first, second = (_point(p, f"layout_params.points[{i}]") for i, p in enumerate(points))
        positions = [first] * sizes[0] + [second] * sizes[1]
    else:
        positions = _list(params["positions"], "layout_params.positions")
        if len(positions) != n:
            raise ConfigError(f"explicit layout has {len(positions)} positions for n={n}")
        positions = [_point(p, f"layout_params.positions[{i}]") for i, p in enumerate(positions)]
    return partial(_fixed_layout, configuration_from_positions(positions))


def build_policy(config: ExperimentConfig):
    """Check the scheduler once; returns ``new_policy()``, a fresh scheduler per trial.

    A script is read and checked here; each trial gets a new ScriptedPolicy
    over the same activations and coins.
    """
    name, params = config.scheduler, config.scheduler_params
    if not isinstance(name, str) or name not in SCHEDULERS:
        raise ConfigError(f"unknown scheduler {name!r}; available: {', '.join(SCHEDULERS)}")
    policy, required, optional = SCHEDULERS[name]
    _object(params, "scheduler_params", required, optional)
    if policy is None:
        try:
            if "path" in params and "script" in params:
                raise ValueError("give 'script' or 'path', not both")
            if "path" in params:
                if not isinstance(params["path"], str):
                    raise ValueError(f"path must be a string, got {params['path']!r}")
                script = load_script(params["path"], config.n)
            elif "script" in params:
                script = scripted_policy_from(params["script"], config.n)
            else:
                raise ValueError("needs 'script' (inline) or 'path'")
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad scripted scheduler: {exc}") from None
        return partial(copy.copy, script)
    try:
        for key in required:
            _integer(params[key], key, 1)
    except ValueError as exc:
        raise ConfigError(f"bad {name} scheduler parameters: {exc}") from None
    return partial(policy, **params)


def build_predicate(name: str, weak: bool):
    if name == "gathering":
        base = is_gathered
    elif name == "scattering":
        base = is_scattered
    else:
        raise ConfigError(f"unknown predicate {name!r}; available: {', '.join(PREDICATE_NAMES)}")
    return partial(base, weak=True) if weak else base


def fault_plan_from_dict(data: dict, n: int) -> FaultPlan:
    """Build a fault plan for robots ``0..n-1`` from its JSON object form.

    Schema::

        {"f": 2,
         "crashes": [{"robot": 3, "mode": "freeze", "at": 10},
                     {"mode": "freeze", "when": "max_group_reaches_alpha"}],
         "byzantine": [{"robot": 0, "strategy": "oscillator"}]}

    ``robot`` may be omitted from a crash entry to let the plan pick the
    worst-case victim at fire time.
    """
    _object(data, "faults", ("f",), ("crashes", "byzantine"))
    crashes = []
    for index, entry in enumerate(_list(data.get("crashes", ()), "crashes")):
        where = f"crashes[{index}]"
        _object(entry, where, ("mode",), ("robot", "at", "when"))
        try:
            mode = CrashMode(entry["mode"])
        except ValueError:
            raise ConfigError(f"unknown crash mode {entry['mode']!r}; use 'freeze' or 'remove'") from None
        robot, at = entry.get("robot"), entry.get("at")
        crashes.append(
            CrashEvent(
                mode,
                robot=None if robot is None else _integer(robot, f"{where}.robot", 0, n - 1),
                at=None if at is None else _integer(at, f"{where}.at", 0),
                when=entry.get("when"),
            )
        )
    byzantine = {}
    for index, entry in enumerate(_list(data.get("byzantine", ()), "byzantine")):
        where = f"byzantine[{index}]"
        name = _object(entry, where, ("robot",), ("strategy",)).get("strategy", "oscillator")
        if isinstance(name, str):
            try:
                strategy = BYZANTINE_STRATEGIES[name]()
            except KeyError:
                raise ConfigError(
                    f"unknown byzantine strategy {name!r}; available: {', '.join(sorted(BYZANTINE_STRATEGIES))}"
                ) from None
        else:
            moves = _object(name, f"{where}.strategy", (), ("moves",)).get("moves", {})
            if not isinstance(moves, dict):
                raise ConfigError(f"{where}.strategy.moves must be a JSON object, got {moves!r}")
            for step in moves:
                if not str(step).isdecimal():
                    raise ConfigError(f"{where}.strategy.moves keys must be step numbers, got {step!r}")
            strategy = ScriptedStrategy({int(s): _point(p, f"{where}.strategy.moves[{s}]") for s, p in moves.items()})
        byzantine[_integer(entry["robot"], f"{where}.robot", 0, n - 1)] = strategy
    return FaultPlan(_integer(data["f"], "f"), tuple(crashes), byzantine)


def scripted_policy_from(data: dict, n: int) -> ScriptedPolicy:
    """Build a scripted policy from its JSON object form.

    Schema: ``{"activations": [[ids...], ...], "coins": [{"step": s,
    "robot": r, "bits": [...]}, ...]}``. Robot ids, steps and bits must be
    integers; a float or a boolean is rejected, not truncated, and a value
    of the wrong shape is a ConfigError naming its field. Robot ids must be
    in 0..n-1. Coin bits are consumed in order by the program's binary
    decisions at that activation; bit 1 means the coin succeeds (the guarded
    branch is taken).
    """
    coins = _object(data, "script", ("activations",), ("coins",)).get("coins")
    overrides = {}
    for i, entry in enumerate(_list(() if coins is None else coins, "coins")):
        _object(entry, f"coins[{i}]", ("step", "robot", "bits"))
        key = (_integer(entry["step"], f"coins[{i}].step"), _integer(entry["robot"], f"coins[{i}].robot", 0, n - 1))
        if key in overrides:
            raise ConfigError(f"duplicate coin override for step {key[0]}, robot {key[1]}")
        bits = _list(entry["bits"], f"coins[{i}].bits")
        overrides[key] = tuple(_integer(b, f"coins[{i}].bits[{j}]") for j, b in enumerate(bits))
    activations = []
    for i, ids in enumerate(_list(data["activations"], "activations")):
        ids = _list(ids, f"activations[{i}]")
        activations.append(frozenset(_integer(r, f"activations[{i}][{j}]", 0, n - 1) for j, r in enumerate(ids)))
    return ScriptedPolicy(activations, overrides)


def load_script(path, n: int) -> ScriptedPolicy:
    """Read a scripted policy (activations plus coin overrides) for n robots from a JSON file."""
    with open(Path(path)) as fh:
        return scripted_policy_from(json.load(fh), n)


# numpy's SeedSequence constants (pool size 4, 32-bit words).
_POOL_SIZE = 4
_INIT_A, _MULT_A = np.uint32(0x43B0D7E5), np.uint32(0x931E8875)
_INIT_B, _MULT_B = np.uint32(0x8B51F9DD), np.uint32(0x58F38DED)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def derive_trial_seeds(seed: int, trials: int) -> list[int]:
    """Independent 64-bit seeds, one per trial, from spawned substreams.

    Trial i gets ``SeedSequence(seed).spawn(trials)[i].generate_state(1,
    np.uint64)[0]``. The children differ only in their spawn key ``(i,)``,
    the last entropy word, so they share the parent's pool and the hash
    constant reached after the seed's words: numpy mixes the pool once, and
    the rest of its uint32 hash runs vectorised over all keys here.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if trials > 2**32:
        raise ConfigError(f"trials must be at most 2**32 (one 32-bit spawn key word), got {trials}")
    pool = list(np.random.SeedSequence(seed).pool)
    # Filling and cross-mixing the pool took 4 + 4 * 3 hashes, and each seed
    # word past the pool size 4 more; every hash multiplied the constant once.
    words = max(1, -(-seed.bit_length() // 32))
    hashes = 16 + 4 * max(0, words - _POOL_SIZE)
    keys = np.arange(trials, dtype=np.uint32)
    with np.errstate(over="ignore"):
        const = _INIT_A * np.uint32(pow(int(_MULT_A), hashes, 2**32))
        for dst in range(_POOL_SIZE):
            # SeedSequence's hashmix of the key, then its mix into the pool word.
            value = keys ^ const
            const = const * _MULT_A
            value = value * const
            value = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * (value ^ (value >> _XSHIFT))
            pool[dst] = value ^ (value >> _XSHIFT)
        const = _INIT_B
        halves = []
        for word in pool[:2]:
            value = word ^ const
            const = const * _MULT_B
            value = value * const
            halves.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    return (halves[0] | (halves[1] << np.uint64(32))).tolist()


def execute_trial(config: ExperimentConfig, parts: tuple, trial_seed: int, on_step=None) -> TrialRecord:
    """One run of a built config: ``parts`` is what ``config.build()`` returned."""
    plan, program, predicate, new_policy, layout = parts
    rng = random.Random(trial_seed)
    initial = layout(rng)
    engine_seed = rng.randrange(2**63)
    return engine.run(
        initial,
        new_policy(),
        program,
        plan,
        predicate,
        config.max_steps,
        engine_seed,
        on_step=on_step,
    )


def run_single_trial(config: ExperimentConfig, parts: tuple, trial_index: int, trial_seed: int) -> dict:
    """One trial of a built config as a flat record; failures are recorded, not raised."""
    try:
        record = execute_trial(config, parts, trial_seed)
    except Exception as exc:
        return {
            "trial_id": trial_index,
            "seed": trial_seed,
            "converged": False,
            "steps": None,
            "rounds": None,
            "error": str(exc),
        }
    return {
        "trial_id": trial_index,
        "seed": trial_seed,
        "converged": record.converged,
        "steps": record.steps,
        "rounds": record.rounds,
    }


@dataclass(frozen=True)
class TrialStats:
    """Batch summary. Step/round moments cover converged trials only."""

    trials: int
    converged: int
    errors: int
    converged_fraction: float
    mean_steps: float | None
    std_steps: float | None
    ci95_steps: tuple[float, float] | None
    mean_rounds: float | None
    std_rounds: float | None
    ci95_rounds: tuple[float, float] | None
    rounds_histogram: dict


def _moments(values: list) -> tuple:
    if not values:
        return None, None, None
    mean = statistics.fmean(values)
    spread = statistics.stdev(values) if len(values) > 1 else 0.0
    half = 1.96 * spread / math.sqrt(len(values))
    return mean, spread, (mean - half, mean + half)


def aggregate_trials(records: list[dict]) -> TrialStats:
    clean = [r for r in records if not r.get("error")]
    converged = [r for r in clean if r["converged"]]
    mean_steps, std_steps, ci_steps = _moments([r["steps"] for r in converged])
    mean_rounds, std_rounds, ci_rounds = _moments([r["rounds"] for r in converged])
    histogram = dict(sorted(Counter(r["rounds"] for r in converged).items()))
    total = len(records)
    return TrialStats(
        trials=total,
        converged=len(converged),
        errors=total - len(clean),
        converged_fraction=len(converged) / total if total else 0.0,
        mean_steps=mean_steps,
        std_steps=std_steps,
        ci95_steps=ci_steps,
        mean_rounds=mean_rounds,
        std_rounds=std_rounds,
        ci95_rounds=ci_rounds,
        rounds_histogram=histogram,
    )


# Chunks per worker: enough to even out the workers' loads, few enough that
# each chunk's start-up (pickling the config and its built parts) is small.
CHUNKS_PER_WORKER = 8


def _run_chunk(config: ExperimentConfig, parts: tuple, chunk: tuple[int, list[int]]) -> list[dict]:
    """Records of the trials ``first, first + 1, ...`` with the given seeds, in order."""
    first, seeds = chunk
    return [run_single_trial(config, parts, first + i, seed) for i, seed in enumerate(seeds)]


def run_experiment(config: ExperimentConfig) -> tuple[TrialStats, list[dict]]:
    """Run the whole batch, aggregate, and write outputs if requested.

    Results depend only on the config content and seed: each trial runs from
    its derived seed alone, in contiguous chunks of trial ids that come back
    in order, so any worker count produces the same records.
    """
    parts = config.build()
    seeds = derive_trial_seeds(config.seed, config.trials)
    size = -(-config.trials // (config.workers * CHUNKS_PER_WORKER))
    chunks = [(first, seeds[first : first + size]) for first in range(0, config.trials, size)]
    run_chunk = partial(_run_chunk, config, parts)
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            done = list(pool.map(run_chunk, chunks))
    else:
        done = map(run_chunk, chunks)
    records = [record for chunk in done for record in chunk]
    stats = aggregate_trials(records)
    if config.out_dir is not None:
        write_outputs(config, stats, records, config.out_dir)
    return stats, records


def _fresh(path) -> Path:
    """``path``, ready to be written as a new file.

    Creating a file is far cheaper than truncating an existing one in place,
    so an existing regular file is removed first; a device, FIFO or symlink
    (such as /dev/stdout) is left to be opened as it is.
    """
    path = Path(path)
    if path.is_file() and not path.is_symlink():
        path.unlink()
    return path


def write_outputs(
    config: ExperimentConfig, stats: TrialStats, records: list[dict], out_dir
) -> tuple[Path, Path]:
    """Write trials.csv and summary.json; returns both paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "trials.csv"
    with open(_fresh(csv_path), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trial_id", "seed", "converged", "steps", "rounds"])
        for r in records:
            failed = bool(r.get("error"))
            writer.writerow(
                [
                    r["trial_id"],
                    r["seed"],
                    "true" if r["converged"] else "false",
                    "" if failed else r["steps"],
                    "" if failed else r["rounds"],
                ]
            )
    echo = asdict(config)
    del echo["out_dir"], echo["workers"]
    summary = {
        "config": echo,
        "stats": asdict(stats),
        "errors": [
            {"trial_id": r["trial_id"], "message": r["error"]}
            for r in records
            if r.get("error")
        ],
    }
    summary_path = out / "summary.json"
    _fresh(summary_path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return csv_path, summary_path


def read_trials_csv(path) -> list[dict]:
    """Parse a trials.csv back into trial records."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    records = []
    for row in rows:
        failed = row["steps"] == ""
        record = {
            "trial_id": int(row["trial_id"]),
            "seed": int(row["seed"]),
            "converged": row["converged"] == "true",
            "steps": None if failed else int(row["steps"]),
            "rounds": None if failed else int(row["rounds"]),
        }
        if failed:
            record["error"] = "recorded in summary"
        records.append(record)
    return records


@dataclass(frozen=True)
class TheoryComparison:
    """Observed batch mean against an exact value, with the mean's standard error.

    ``metric`` states explicitly whether rounds or steps were compared; the
    two differ by roughly the robot count under one-robot-per-step
    schedulers, so a comparison that omitted it would be meaningless.
    """

    metric: str
    observed_mean: float | None
    oracle: float
    std_error: float | None
    verdict: str


def compare_to_theory(stats: TrialStats, oracle: float, metric: str = "rounds") -> TheoryComparison:
    """Verdict on whether a batch mean is within 4 standard errors of ``oracle``.

    The standard error is std/sqrt(converged), so a batch without spread is
    consistent only when its mean equals the oracle. With no converged trials
    the verdict is "no convergence".
    """
    oracle_value = float(oracle)
    if not math.isfinite(oracle_value):
        raise ValueError(f"oracle must be finite, got {oracle_value}")
    if metric not in ("rounds", "steps"):
        raise ValueError(f"metric must be 'rounds' or 'steps', got {metric!r}")
    if stats.converged == 0:
        return TheoryComparison(metric, None, oracle_value, None, "no convergence")
    observed = getattr(stats, f"mean_{metric}")
    std_error = getattr(stats, f"std_{metric}") / math.sqrt(stats.converged)
    verdict = "consistent" if abs(observed - oracle_value) <= 4 * std_error else "inconsistent"
    return TheoryComparison(metric, observed, oracle_value, std_error, verdict)


def simulate_once(config: ExperimentConfig, trace_path=None) -> TrialRecord:
    """Single seeded run, optionally exporting a JSONL trace of delta lines
    (``engine.expand_trace`` turns them into full ``trace_record`` lines)."""
    parts = config.build()  # before the trace file exists, so a bad config leaves none
    trial_seed = derive_trial_seeds(config.seed, 1)[0]
    if trace_path is None:
        return execute_trial(config, parts, trial_seed)
    with open(_fresh(trace_path), "w") as fh:
        return execute_trial(config, parts, trial_seed, lambda line: fh.write(line + "\n"))
