"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, names.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from atomswarm import harness, markov  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_a_synthetic_span_tree():
    # trial [0, 10] > run [1, 9] > step [2, 6] > program [3, 5]
    #                           > step [6, 8]
    names = [
        "harness.run_single_trial",
        "engine.run",
        "engine.step",
        "programs.program",
        "engine.step",
    ]
    starts = [0.0, 1.0, 2.0, 3.0, 6.0]
    ends = [10.0, 9.0, 6.0, 5.0, 8.0]
    parents = [-1, 0, 1, 2, 1]
    totals = spans.SpanTotals()
    totals.add(names, starts, ends, parents)

    assert totals.count["engine.step"] == 2
    assert totals.total["engine.step"] == pytest.approx(6.0)
    assert totals.self_time["harness.run_single_trial"] == pytest.approx(2.0)
    assert totals.self_time["engine.run"] == pytest.approx(2.0)
    assert totals.self_time["engine.step"] == pytest.approx(4.0)
    assert totals.self_time["programs.program"] == pytest.approx(2.0)
    assert totals.child_total[("engine.step", "programs.program")] == pytest.approx(2.0)
    assert totals.child_total[("harness.run_single_trial", "engine.run")] == pytest.approx(8.0)
    assert totals.trial_durations == [pytest.approx(10.0)]
    split = totals.layer_self()
    assert split["engine"] == pytest.approx(6.0)
    assert split["harness"] == pytest.approx(2.0)
    assert split["programs"] == pytest.approx(2.0)
    # Self times partition the root span.
    assert sum(split.values()) == pytest.approx(10.0)


def test_tail_needs_ten_samples_beyond_it():
    assert layers.tail([]) == (0.0, 0.0, 0.0)
    few = [float(i) for i in range(1, 11)]
    assert layers.tail(few) == (5.0, 5.0, 50.0)
    hundred = [float(i) for i in range(1, 101)]
    assert layers.tail(hundred) == (50.0, 90.0, 90.0)
    thousand = [float(i) for i in range(1, 1001)]
    assert layers.tail(thousand) == (500.0, 990.0, 99.0)


def _current(owner, attr):
    return spans._get(owner, attr)


def test_traced_run_restores_every_binding(tmp_path):
    bindings = spans.bindings()
    originals = [_current(owner, attr) for owner, attr in bindings]
    tracer = spans.Tracer()
    config = harness.ExperimentConfig(
        n=6,
        program="multiplicity-gather",
        scheduler="k-bounded",
        scheduler_params={"k": 2},
        layout="random-uniform",
        weak=True,
        faults=workloads.FAULTS,
        seed=3,
    )
    scatter = harness.ExperimentConfig(
        n=4, program="voronoi-scatter", scheduler="probabilistic", layout="all-at-one-point",
        predicate="scattering", trials=2, seed=1,
    )
    with spans.installed(tracer):
        assert all(_current(o, a) is not orig for (o, a), orig in zip(bindings, originals))
        traced = harness.simulate_once(config, tmp_path / "trace.jsonl")
        harness.run_experiment(scatter)
        markov.hitting_time_birth_death(markov.gathering_chain(4), 1, 3).expected_steps
    assert all(_current(o, a) is orig for (o, a), orig in zip(bindings, originals))
    assert traced == harness.simulate_once(config, tmp_path / "untraced.jsonl")
    recorded = set(tracer.names)
    for layer in spans.LAYERS:
        assert any(name.startswith(layer + ".") for name in recorded), layer
    assert "harness.trace_sink" in recorded
    # The worst-case freeze fires exactly once in this run.
    assert tracer.crash_firings == 1


def test_bindings_are_restored_when_the_traced_call_raises():
    bindings = spans.bindings()
    originals = [_current(owner, attr) for owner, attr in bindings]
    with pytest.raises(ValueError):
        with spans.installed(spans.Tracer()):
            markov.gathering_chain(1)
    assert all(_current(o, a) is orig for (o, a), orig in zip(bindings, originals))


def test_names_are_well_formed_and_agree_with_the_code():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


def test_interaction_map_covers_every_per_layer_metric():
    spec = _spec()
    interactions = json.loads((BENCH / "metrics_map.json").read_text())["interactions"]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workload_names = {w["name"] for w in spec["workloads"]}
    assert set(interactions) == {m["name"] for m in spec["per_layer"]}
    for entry in interactions.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) | set(entry["not_on"]) <= workload_names
