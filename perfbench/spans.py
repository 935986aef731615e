"""Span recording around atomswarm's public calls, and the per-layer split.

A :class:`Tracer` keeps its spans in flat in-memory lists (name, start, end,
parent span, trial id). :func:`installed` swaps wrappers in at the exact
bindings atomswarm's own callers look up at call time, and puts every
original object back on exit. Nothing here changes arguments or draws
randomness, so a traced run executes the same program as an untraced one.

Span names are ``<layer>.<call>``; the layer is the atomswarm module whose
code the span measures (the trace sink is the JSONL writer that
``harness.simulate_once`` hands to the engine, so it counts as harness).
"""

from __future__ import annotations

import contextlib
import csv
import functools
from collections import defaultdict
from time import perf_counter

LAYERS = ("schedulers", "engine", "programs", "geometry", "faults", "harness", "markov")

# Spans that stand for one trial: a harness trial call.
TRIAL_SPANS = ("harness.run_single_trial", "harness.simulate_once")


class Tracer:
    """In-memory span store. Spans are indices into parallel lists."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.trials: list[int] = []
        self._stack: list[int] = [-1]
        self._trial = -1
        self._trial_count = 0
        self.crash_firings = 0

    def wrap(self, fn, name: str, *, on_return=None, wrap_kwargs=None):
        """``fn`` recording one span per call.

        ``on_return(args, result)`` runs after the call for counters that
        need the result; ``wrap_kwargs`` maps keyword names whose callable
        values get wrapped too (for callbacks handed down the stack).
        """
        names, starts, ends, parents, trials, stack = (
            self.names, self.starts, self.ends, self.parents, self.trials, self._stack
        )
        is_trial = name in TRIAL_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if wrap_kwargs:
                for key, child_name in wrap_kwargs.items():
                    if kwargs.get(key) is not None:
                        kwargs[key] = self.wrap(kwargs[key], child_name)
            if is_trial:
                self._trial = self._trial_count
                self._trial_count += 1
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            trials.append(self._trial)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
                if is_trial:
                    self._trial = -1
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def count_firings(self, args, result) -> None:
        """``FaultPlan.fire(config, state)`` hook: robots whose status changed."""
        config = args[1]
        if result is not config:
            self.crash_firings += sum(
                1 for rid, (_, status) in result.robots.items() if config.robots[rid][1] is not status
            )

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span", "name", "start", "end", "parent", "trial"])
            for i, row in enumerate(zip(self.names, self.starts, self.ends, self.parents, self.trials)):
                writer.writerow((i, *row))


class SpanTotals:
    """Aggregates of one or more span trees.

    ``count``/``total``/``self_time`` are keyed by span name; ``child_total``
    by (parent name, child name) and holds the children's summed durations.
    Self time is a span's duration minus its direct children's durations
    (children always nest inside their parent's interval).
    """

    def __init__(self) -> None:
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.child_total: dict[tuple[str, str], float] = defaultdict(float)
        self.trial_durations: list[float] = []

    def add(self, names, starts, ends, parents) -> None:
        durations = [e - s for s, e in zip(starts, ends)]
        own = list(durations)
        for name, dur, parent in zip(names, durations, parents):
            self.count[name] += 1
            self.total[name] += dur
            if parent >= 0:
                own[parent] -= dur
                self.child_total[(names[parent], name)] += dur
            if name in TRIAL_SPANS:
                self.trial_durations.append(dur)
        for name, value in zip(names, own):
            self.self_time[name] += value

    def add_tracer(self, tracer: Tracer) -> None:
        self.add(tracer.names, tracer.starts, tracer.ends, tracer.parents)

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_time.items():
            out[name.split(".", 1)[0]] += value
        return out


def _targets(tracer: Tracer):
    """(owner, attribute, span name, wrap options) for every wrapped binding."""
    from atomswarm import engine, faults, geometry, harness, markov, programs, schedulers

    targets = [
        (engine, "run", "engine.run", {"wrap_kwargs": {"on_step": "harness.trace_sink"}}),
        (engine, "step", "engine.step", {}),
        (engine, "trace_record", "engine.trace_record", {}),
        (engine.Configuration, "visible_items", "engine.visible_items", {}),
        # build_predicate binds these names from harness' own namespace.
        (harness, "is_gathered", "engine.predicate", {}),
        (harness, "is_scattered", "engine.predicate", {}),
        (faults.FaultPlan, "fire", "faults.fire", {"on_return": tracer.count_firings}),
        # sample_point_in_cell looks voronoi_cell_contains up in geometry itself.
        (geometry, "voronoi_cell_contains", "geometry.voronoi_cell_contains", {}),
    ]
    for cls in (
        schedulers.CentralizedFairPolicy,
        schedulers.ProbabilisticPolicy,
        schedulers.KBoundedPolicy,
        schedulers.ScriptedPolicy,
    ):
        targets.append((cls, "next_activation", "schedulers.next_activation", {}))
    for name in programs.PROGRAMS:
        targets.append((programs.PROGRAMS, name, "programs.program", {}))
    # Programs import the geometry helpers by name, so wrap them there.
    for name in (
        "multiplicities",
        "max_multiplicity_positions",
        "default_sampling_radius",
        "sample_point_in_cell",
        "barycenter",
    ):
        targets.append((programs, name, f"geometry.{name}", {}))
    for cls in (faults.OscillatorStrategy, faults.StayPutStrategy, faults.ScriptedStrategy):
        targets.append((cls, "destination", "faults.byzantine", {}))
    for name in (
        "run_experiment",
        "simulate_once",
        "run_single_trial",
        "derive_trial_seeds",
        "aggregate_trials",
        "write_outputs",
    ):
        targets.append((harness, name, f"harness.{name}", {}))
    for name in (
        "gathering_chain",
        "scattering_chain",
        "hitting_time_birth_death",
        "hitting_time_general",
        "simulate_chain",
    ):
        targets.append((markov, name, f"markov.{name}", {}))
    targets.append((markov.BirthDeathChain, "transition_matrix", "markov.transition_matrix", {}))
    # The exact Fraction sum happens when this property is read.
    targets.append((markov.HittingTimeResult, "expected_steps", "markov.exact_sum", {}))
    return targets


def _get(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def bindings() -> list[tuple[object, str]]:
    """Every (owner, attribute) that :func:`installed` replaces."""
    return [(owner, attr) for owner, attr, _, _ in _targets(Tracer())]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap span-recording wrappers in; restore every original on exit."""
    saved = []
    try:
        for owner, attr, name, options in _targets(tracer):
            original = _get(owner, attr)
            if isinstance(original, property):
                wrapped = property(tracer.wrap(original.fget, name), original.fset, original.fdel, original.__doc__)
            else:
                wrapped = tracer.wrap(original, name, **options)
            saved.append((owner, attr, original))
            _set(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            _set(owner, attr, original)
