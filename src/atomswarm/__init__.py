"""Simulator and analytic toolkit for probabilistic robot agreement.

Oblivious robots on the plane execute atomic observe-compute-move cycles
under an adversarial scheduler, optionally with crashed or Byzantine
members. The package pairs a seeded Monte Carlo engine with exact
birth-death chain oracles so simulated gathering and scattering times can be
checked against analytic values.

Modules: :mod:`~atomswarm.geometry` (points, multiplicity, Voronoi cells),
:mod:`~atomswarm.engine` (configurations and execution),
:mod:`~atomswarm.schedulers` (activation policies and auditing),
:mod:`~atomswarm.programs` (robot decision rules), :mod:`~atomswarm.faults`
(crash plans and Byzantine strategies), :mod:`~atomswarm.markov` (chains,
hitting times, exact step counts), :mod:`~atomswarm.harness` (configs and their parsers, trials, stats)
and :mod:`~atomswarm.scenarios` (scripted scenario replays), with
:mod:`~atomswarm.cli` on top.
"""

from . import engine, faults, geometry, harness, markov, programs, scenarios, schedulers
from .engine import (
    Configuration,
    RandomSource,
    RobotStatus,
    TrialRecord,
    configuration_from_positions,
    is_gathered,
    is_scattered,
    run,
    step,
)
from .faults import CrashEvent, CrashMode, FaultPlan, OscillatorStrategy
from .geometry import Point, barycenter, multiplicities
from .harness import ConfigError, ExperimentConfig, compare_to_theory, run_experiment
from .markov import (
    BirthDeathChain,
    gathering_chain,
    hitting_time_birth_death,
    hitting_time_general,
    majority_threshold,
    scattering_chain,
    simulate_chain,
)
from .programs import make_program
from .scenarios import replay_counterexample
from .schedulers import (
    CentralizedFairPolicy,
    KBoundedPolicy,
    ProbabilisticPolicy,
    ScriptedPolicy,
    audit,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Point",
    "barycenter",
    "multiplicities",
    "Configuration",
    "RandomSource",
    "RobotStatus",
    "TrialRecord",
    "configuration_from_positions",
    "is_gathered",
    "is_scattered",
    "run",
    "step",
    "CentralizedFairPolicy",
    "ProbabilisticPolicy",
    "KBoundedPolicy",
    "ScriptedPolicy",
    "audit",
    "make_program",
    "CrashMode",
    "CrashEvent",
    "FaultPlan",
    "OscillatorStrategy",
    "BirthDeathChain",
    "gathering_chain",
    "scattering_chain",
    "hitting_time_birth_death",
    "hitting_time_general",
    "simulate_chain",
    "majority_threshold",
    "ConfigError",
    "ExperimentConfig",
    "run_experiment",
    "compare_to_theory",
    "replay_counterexample",
]
