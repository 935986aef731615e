"""Experiment configs, seed derivation, batches, outputs, scenario replays."""

import dataclasses
import json
import os
import pickle
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomswarm import harness
from atomswarm.geometry import Point
from atomswarm.harness import (
    CHUNKS_PER_WORKER,
    ConfigError,
    ExperimentConfig,
    aggregate_trials,
    build_initial,
    compare_to_theory,
    derive_trial_seeds,
    load_script,
    read_trials_csv,
    run_experiment,
    run_single_trial,
    scripted_policy_from,
    simulate_once,
    write_outputs,
)
from atomswarm.markov import gathering_chain, hitting_time_birth_death
from atomswarm.scenarios import build_counterexample_script, replay_counterexample, run_flip_flop_witness
from atomswarm.schedulers import audit


def baseline_pair_config(**overrides):
    """Small deterministic batch: two robots gathering under fair activation."""
    data = {
        "n": 2,
        "program": "baseline-gather",
        "scheduler": "centralized-fair",
        "layout": "explicit",
        "layout_params": {"positions": [[0.0, 0.0], [1.0, 0.0]]},
        "predicate": "gathering",
        "trials": 40,
        "seed": 11,
    }
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


def test_unknown_config_fields_are_rejected():
    with pytest.raises(ConfigError, match="unknown config fields"):
        ExperimentConfig.from_dict({"n": 2, "colour": "red"})


def test_configs_require_a_robot_count():
    with pytest.raises(ConfigError, match="missing config fields: n"):
        ExperimentConfig.from_dict({"trials": 5})


def test_runtime_fields_stay_out_of_the_summary_echo(tmp_path):
    config = ExperimentConfig(n=2, out_dir="/tmp/anywhere", workers=8)
    _, summary_path = write_outputs(config, aggregate_trials([]), [], tmp_path)
    echo = json.loads(summary_path.read_text())["config"]
    assert "out_dir" not in echo
    assert "workers" not in echo
    assert echo["n"] == 2
    assert config.workers == 8


def test_validation_checks_component_names_and_fault_targets():
    with pytest.raises(ConfigError):
        ExperimentConfig(n=2, program="teleport").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(n=2, scheduler="psychic").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(n=2, predicate="sorted").validate()
    with pytest.raises(ConfigError, match=r"byzantine\[0\]\.robot must be in 0\.\.1"):
        ExperimentConfig(
            n=2, faults={"f": 1, "byzantine": [{"robot": 9, "strategy": "oscillator"}]}
        ).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(n=0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(n=2, trials=0).validate()


@pytest.mark.parametrize("name", ["n", "trials", "max_steps", "seed", "workers"])
def test_integer_fields_must_be_integers(name):
    for bad in ("3", 3.0, True, None):
        config = ExperimentConfig.from_dict({"n": 2, name: bad})
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            config.validate()


@pytest.mark.parametrize("name", ["program_params", "scheduler_params", "layout_params"])
def test_parameter_fields_must_be_json_objects(name):
    for bad in ("x", [1], None, 3):
        config = ExperimentConfig.from_dict({"n": 2, name: bad})
        with pytest.raises(ConfigError, match=f"{name} must be a JSON object"):
            config.validate()


def test_weak_must_be_a_bool():
    for bad in ("false", 0, 1, None):
        config = ExperimentConfig.from_dict({"n": 2, "weak": bad})
        with pytest.raises(ConfigError, match="weak must be true or false"):
            config.validate()


def test_negative_seeds_are_config_errors():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        ExperimentConfig(n=2, seed=-1).validate()


def test_parameterless_components_reject_parameters_at_config_time():
    with pytest.raises(ConfigError, match="unknown scheduler_params fields: bias"):
        ExperimentConfig(
            n=2, scheduler="probabilistic", scheduler_params={"bias": 0.5}
        ).validate()
    with pytest.raises(ConfigError, match="does not accept"):
        ExperimentConfig(n=2, program_params={"denominator": "robots"}).validate()


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"scheduler": "k-bounded", "scheduler_params": {"k": 2.5}}, "k must be an integer"),
        ({"program": "voronoi-scatter", "program_params": {"radius": -1}}, "radius must be"),
        ({"program": "voronoi-scatter", "program_params": {"radius": 0}}, "radius must be"),
        ({"program": "voronoi-scatter", "program_params": {"radius": "x"}}, "radius must be"),
        ({"program": "flip-flop", "program_params": {"radius": float("inf")}}, "radius must be"),
        ({"program": "flip-flop", "program_params": {"radius": True}}, "radius must be"),
        ({"program": "flip-flop", "program_params": {"tie_break": "bogus"}}, "tie_break must be"),
        (
            {"faults": {"f": 1, "crashes": [{"mode": "freeze", "robot": 1.7, "at": 0}]}},
            r"crashes\[0\]\.robot must be an integer",
        ),
        (
            {"faults": {"f": 1, "crashes": [{"mode": "freeze", "robot": True, "at": 0}]}},
            r"crashes\[0\]\.robot must be an integer",
        ),
        (
            {"faults": {"f": 1, "byzantine": [{"robot": 0.5}]}},
            r"byzantine\[0\]\.robot must be an integer",
        ),
        ({"faults": {"f": 1.5}}, "f must be an integer"),
        (
            {"faults": {"f": 1, "crashes": [{"mode": "freeze", "robot": 0, "at": 2.5}]}},
            r"crashes\[0\]\.at must be an integer",
        ),
        (
            {"faults": {"f": 1, "crashes": [{"mode": "freeze", "robot": 0, "at": True}]}},
            r"crashes\[0\]\.at must be an integer",
        ),
        (
            {"scheduler": "scripted", "scheduler_params": {"script": {"activations": [[1.7], [True]]}}},
            r"activations\[0\]\[0\] must be an integer",
        ),
        (
            {"scheduler": "scripted", "scheduler_params": {"script": {"activations": [[1], [True]]}}},
            r"activations\[1\]\[0\] must be an integer",
        ),
        (
            {
                "scheduler": "scripted",
                "scheduler_params": {
                    "script": {"activations": [[0]], "coins": [{"step": 0.5, "robot": 0, "bits": [1]}]}
                },
            },
            r"coins\[0\]\.step must be an integer",
        ),
        (
            {
                "scheduler": "scripted",
                "scheduler_params": {
                    "script": {"activations": [[0]], "coins": [{"step": 0, "robot": False, "bits": [1]}]}
                },
            },
            r"coins\[0\]\.robot must be an integer",
        ),
        (
            {
                "scheduler": "scripted",
                "scheduler_params": {
                    "script": {"activations": [[0]], "coins": [{"step": 0, "robot": 0, "bits": [1, 0.5]}]}
                },
            },
            r"coins\[0\]\.bits\[1\] must be an integer",
        ),
        (
            {"scheduler": "scripted", "scheduler_params": {"script": {"activations": [[0], [1, 5]]}}},
            r"activations\[1\]\[1\] must be in 0\.\.3, got 5",
        ),
        (
            {
                "scheduler": "scripted",
                "scheduler_params": {
                    "script": {"activations": [[0]], "coins": [{"step": 0, "robot": 9, "bits": [1]}]}
                },
            },
            r"coins\[0\]\.robot must be in 0\.\.3, got 9",
        ),
    ],
)
def test_parameter_values_are_checked_at_config_time(fields, message):
    config = ExperimentConfig.from_dict({"n": 4, "trials": 2, "max_steps": 50, **fields})
    with pytest.raises(ConfigError, match=message):
        config.validate()


def test_a_scripted_batch_reads_its_script_once(tmp_path, monkeypatch):
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"activations": [[0], [1]]}))
    reads = []

    def counting_load_script(*args):
        reads.append(args)
        return load_script(*args)

    monkeypatch.setattr(harness, "load_script", counting_load_script)
    config = baseline_pair_config(
        trials=5, max_steps=2, scheduler="scripted", scheduler_params={"path": str(path)}
    )
    stats, _ = run_experiment(config)
    assert stats.errors == 0
    assert len(reads) == 1


@pytest.mark.parametrize(
    "fields",
    [
        {},
        {"scheduler": "probabilistic", "layout": "two-groups", "layout_params": {}},
        {"scheduler": "k-bounded", "scheduler_params": {"k": 1}, "layout": "all-at-one-point", "layout_params": {}},
        {"scheduler": "scripted", "scheduler_params": {"script": {"activations": [[0], [1]]}}},
        {"layout": "random-uniform", "layout_params": {}},
    ],
)
def test_built_parts_pickle_and_give_each_trial_a_fresh_policy(fields):
    config = baseline_pair_config(**fields)
    parts = config.build()
    _, _, _, new_policy, layout = parts
    assert new_policy() is not new_policy()
    shared = layout(random.Random(1)) is layout(random.Random(2))
    assert shared is (config.layout != "random-uniform")
    copied = pickle.loads(pickle.dumps(parts))
    assert run_single_trial(config, copied, 0, 77) == run_single_trial(config, parts, 0, 77)


def positions(config, rng):
    """The initial positions of one trial of ``config``."""
    return [pos for _, pos, _ in build_initial(config)(rng).visible_items()]


def test_layouts_produce_the_requested_positions():
    rng = random.Random(0)
    stacked = ExperimentConfig(
        n=3, layout="all-at-one-point", layout_params={"point": [2.0, 2.0]}
    )
    assert positions(stacked, rng) == [Point(2.0, 2.0)] * 3

    pairs = ExperimentConfig(
        n=5,
        layout="two-groups",
        layout_params={"sizes": [3, 2], "points": [[0.0, 0.0], [4.0, 0.0]]},
    )
    pts = positions(pairs, rng)
    assert pts.count(Point(0.0, 0.0)) == 3
    assert pts.count(Point(4.0, 0.0)) == 2

    box = ExperimentConfig(
        n=40, layout="random-uniform", layout_params={"box": [0, 0, 2, 1]}
    )
    pts = positions(box, rng)
    assert len(pts) == 40
    assert all(0 <= p.x <= 2 and 0 <= p.y <= 1 for p in pts)

    explicit = ExperimentConfig(
        n=2, layout="explicit", layout_params={"positions": [[0, 0], [1, 1]]}
    )
    assert positions(explicit, rng) == [Point(0.0, 0.0), Point(1.0, 1.0)]


def test_layout_validation_errors():
    with pytest.raises(ConfigError, match="sum to n"):
        build_initial(
            ExperimentConfig(
                n=4,
                layout="two-groups",
                layout_params={"sizes": [1, 2], "points": [[0, 0], [1, 0]]},
            )
        )
    with pytest.raises(ConfigError, match="positions"):
        build_initial(
            ExperimentConfig(
                n=3, layout="explicit", layout_params={"positions": [[0, 0]]}
            )
        )
    with pytest.raises(ConfigError, match="unknown layout"):
        build_initial(ExperimentConfig(n=3, layout="spiral"))
    with pytest.raises(ConfigError, match="box"):
        build_initial(
            ExperimentConfig(
                n=3, layout="random-uniform", layout_params={"box": [1, 0, 0, 1]}
            )
        )


@pytest.mark.parametrize(
    "layout, params, message",
    [
        ("all-at-one-point", {"point": 5}, "layout_params.point must be an [x, y] pair"),
        ("two-groups", {"sizes": [-1, 3]}, "layout_params.sizes must be non-negative integers"),
        ("two-groups", {"sizes": [1.0, 1]}, "layout_params.sizes must be non-negative integers"),
        ("two-groups", {"points": [[0, 0], "ab"]}, "layout_params.points[1] must be"),
        ("random-uniform", {"box": [0, 0, "x", 1]}, "layout_params.box must be"),
        ("random-uniform", {"box": [0, 0, float("inf"), 1]}, "layout_params.box must be"),
        ("random-uniform", {"box": [0, 0, 10**400, 1]}, "layout_params.box must be"),
        ("random-uniform", {"box": [-1e308, 0, 1e308, 1]}, "layout_params.box must be"),
        ("explicit", {"positions": [[0, 0], [10**400, 0]]}, "layout_params.positions[1] must be"),
    ],
)
def test_layout_params_of_the_wrong_shape_are_config_errors(layout, params, message):
    config = ExperimentConfig(n=2, layout=layout, layout_params=params)
    with pytest.raises(ConfigError, match=re.escape(message)):
        config.validate()


def test_trial_seeds_are_deterministic_and_distinct():
    seeds = derive_trial_seeds(42, 500)
    assert seeds == derive_trial_seeds(42, 500)
    assert len(set(seeds)) == 500
    assert derive_trial_seeds(43, 10) != derive_trial_seeds(42, 10)
    # Trial indices past 2**32 - 1 would need a two-word spawn key.
    with pytest.raises(ConfigError, match="trials must be at most"):
        derive_trial_seeds(42, 2**32 + 1)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2**256), st.integers(min_value=1, max_value=700))
def test_trial_seeds_are_numpy_seed_sequence_spawn_states(seed, trials):
    children = np.random.SeedSequence(seed).spawn(trials)
    expected = [int(child.generate_state(1, np.uint64)[0]) for child in children]
    assert derive_trial_seeds(seed, trials) == expected


def test_single_trials_replay_identically():
    config = baseline_pair_config(trials=1)
    parts = config.build()
    first = run_single_trial(config, parts, 0, 12345)
    second = run_single_trial(config, parts, 0, 12345)
    assert first == second
    assert first["converged"] is True
    assert "error" not in first


def script_exhausted_config(trials):
    """A pair whose one-step script runs out before it gathers: every trial errors."""
    return baseline_pair_config(
        trials=trials,
        scheduler="scripted",
        scheduler_params={
            "script": {
                "activations": [[0]],
                "coins": [{"step": 0, "robot": 0, "bits": [0]}],
            }
        },
    )


def test_trial_failures_are_recorded_not_raised():
    config = script_exhausted_config(trials=1)
    record = run_single_trial(config, config.build(), 0, 1)
    assert record["converged"] is False
    assert "script exhausted" in record["error"]


def _records_at_each_worker_count(config):
    """The batch's records at 1, 2 and 3 workers; all three must be equal."""
    for workers in (1, 2, 3):
        # A ragged last chunk must come back in place too.
        assert config.trials % -(-config.trials // (workers * CHUNKS_PER_WORKER))
    runs = [run_experiment(dataclasses.replace(config, workers=w))[1] for w in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]
    return runs[0]


def test_chunked_batches_return_the_same_records_at_any_worker_count():
    records = _records_at_each_worker_count(baseline_pair_config(trials=37))
    assert [r["trial_id"] for r in records] == list(range(37))
    assert [r["seed"] for r in records] == derive_trial_seeds(11, 37)
    assert all(r["converged"] for r in records)


def test_chunked_batches_keep_each_error_row_at_its_trial():
    records = _records_at_each_worker_count(script_exhausted_config(trials=37))
    assert [r["trial_id"] for r in records] == list(range(37))
    assert all(not r["converged"] and "script exhausted" in r["error"] for r in records)


def test_experiments_aggregate_and_order_their_records():
    stats, records = run_experiment(baseline_pair_config())
    assert stats.trials == 40
    assert stats.converged == 40
    assert stats.converged_fraction == 1.0
    assert [r["trial_id"] for r in records] == list(range(40))
    assert stats.mean_steps is not None and stats.mean_steps >= 1.0
    assert sum(stats.rounds_histogram.values()) == 40


def test_worker_count_never_changes_results(tmp_path):
    base = baseline_pair_config(trials=60, seed=9)
    solo = dataclasses.replace(base, out_dir=str(tmp_path / "solo"), workers=1)
    pooled = dataclasses.replace(base, out_dir=str(tmp_path / "pool"), workers=4)
    run_experiment(solo)
    run_experiment(pooled)
    for name in ("trials.csv", "summary.json"):
        assert (tmp_path / "solo" / name).read_bytes() == (
            tmp_path / "pool" / name
        ).read_bytes()


def test_written_outputs_read_back(tmp_path):
    config = baseline_pair_config(trials=12, out_dir=str(tmp_path))
    stats, _ = run_experiment(config)
    rows = read_trials_csv(tmp_path / "trials.csv")
    assert len(rows) == 12
    assert aggregate_trials(rows).converged_fraction == stats.converged_fraction
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["n"] == 2
    assert "out_dir" not in summary["config"]
    assert summary["stats"]["trials"] == 12
    assert summary["errors"] == []


def test_aggregation_counts_errors_and_uses_converged_trials_only():
    records = [
        {"trial_id": 0, "seed": 1, "converged": True, "steps": 2, "rounds": 1},
        {"trial_id": 1, "seed": 2, "converged": True, "steps": 4, "rounds": 3},
        {"trial_id": 2, "seed": 3, "converged": False, "steps": 50, "rounds": 25},
        {
            "trial_id": 3,
            "seed": 4,
            "converged": False,
            "steps": None,
            "rounds": None,
            "error": "boom",
        },
    ]
    stats = aggregate_trials(records)
    assert stats.trials == 4
    assert stats.converged == 2
    assert stats.errors == 1
    assert stats.converged_fraction == 0.5
    assert stats.mean_steps == 3.0
    assert stats.mean_rounds == 2.0
    assert stats.rounds_histogram == {1: 1, 3: 1}


def _batch(metric_values, converged=True):
    return aggregate_trials(
        [
            {"trial_id": i, "seed": i, "converged": converged, "steps": v, "rounds": v}
            for i, v in enumerate(metric_values)
        ]
    )


def test_theory_comparison_bands():
    # Mean 3, std sqrt(2), so the standard error over two trials is 1 and the
    # band is 3 +- 4.
    stats = _batch([2, 4])
    inside = compare_to_theory(stats, 6.9, metric="rounds")
    assert inside.verdict == "consistent"
    assert inside.std_error == pytest.approx(1.0)
    assert inside.observed_mean == 3.0
    assert inside.metric == "rounds"
    assert compare_to_theory(stats, -0.9, metric="steps").verdict == "consistent"
    assert compare_to_theory(stats, 7.1, metric="steps").verdict == "inconsistent"
    assert compare_to_theory(stats, -1.1, metric="steps").verdict == "inconsistent"

    unconverged = compare_to_theory(_batch([9, 9], converged=False), 4.0)
    assert unconverged.verdict == "no convergence"
    assert unconverged.observed_mean is None and unconverged.std_error is None


def test_theory_comparison_validates_inputs():
    stats = _batch([5, 6])
    for oracle in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="oracle must be finite"):
            compare_to_theory(stats, oracle)
    with pytest.raises(ValueError):
        compare_to_theory(stats, 1.0, metric="minutes")
    # Zero is a finite exact value like any other.
    assert compare_to_theory(stats, 0.0).verdict == "inconsistent"


def test_oracle_objects_expose_their_expected_steps():
    # No spread: the standard error is 0, so only the exact mean is consistent.
    stats = _batch([2, 2])
    two = hitting_time_birth_death(gathering_chain(2), 1, 2)
    comparison = compare_to_theory(stats, two.exact, metric="steps")
    assert comparison.std_error == 0.0
    assert comparison.oracle == 2.0
    assert comparison.verdict == "consistent"
    ten_thirds = hitting_time_birth_death(gathering_chain(4), 1, 3).expected_steps
    assert compare_to_theory(stats, ten_thirds, metric="steps").verdict == "inconsistent"
    assert compare_to_theory(stats, 2.0 + 1e-12, metric="steps").verdict == "inconsistent"


def test_single_simulations_can_stream_traces(tmp_path):
    trace = tmp_path / "trace.jsonl"
    record = simulate_once(baseline_pair_config(trials=1, seed=4), trace_path=trace)
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert record.converged
    assert len(lines) == record.steps + 1
    assert lines[0]["activated"] == []
    assert all(
        {"step", "activated", "positions", "statuses"} <= set(line) for line in lines
    )


def test_a_bad_config_leaves_no_trace_file(tmp_path):
    trace = tmp_path / "trace.jsonl"
    config = baseline_pair_config(trials=1, faults={"f": 1, "byzantine": [{"robot": 5}]})
    with pytest.raises(ConfigError, match=r"byzantine\[0\]\.robot must be in 0\.\.1, got 5"):
        simulate_once(config, trace_path=trace)
    assert not trace.exists()


def test_an_existing_trace_file_is_replaced_not_truncated(tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("old\n")
    os.link(trace, tmp_path / "kept.jsonl")  # a second name keeps the old file
    simulate_once(baseline_pair_config(trials=1, seed=4), trace_path=trace)
    assert (tmp_path / "kept.jsonl").read_text() == "old\n"
    assert json.loads(trace.read_text().splitlines()[0])["activated"] == []


def test_a_symlinked_trace_path_is_written_through(tmp_path):
    target = tmp_path / "target.jsonl"
    target.write_text("old\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    simulate_once(baseline_pair_config(trials=1, seed=4), trace_path=link)
    assert link.is_symlink()
    assert json.loads(target.read_text().splitlines()[0])["activated"] == []


def test_counterexample_script_is_fair_and_exactly_three_bounded():
    script = build_counterexample_script(cycles=25)
    policy = scripted_policy_from(script, 4)
    pool = frozenset({0, 1, 2, 3})
    rng = random.Random(0)
    history = [policy.next_activation(pool, rng) for _ in script["activations"]]
    report = audit(history, pool, k=3)
    assert report.fair
    assert report.k_compliant
    tighter = audit(history, pool, k=2)
    assert not tighter.k_compliant


def test_counterexample_replay_recurs_forever_without_gathering():
    report = replay_counterexample(cycles=12)
    assert not report.gathered
    assert report.boundaries_checked == 12
    assert report.boundaries_isomorphic == 12
    assert report.first_divergence is None
    assert report.fair
    assert report.k == 3 and report.k_compliant
    assert not report.broken


def test_flip_flop_witness_alternates_branches_without_gathering():
    report = run_flip_flop_witness(cycles=4)
    assert len(report.branches) == 8
    assert report.oscillations >= 3
    assert not report.gathered
    assert not report.broken
