"""End to end checks of the command line entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import atomswarm
from atomswarm.cli import main

BASELINE_PAIR = [
    "--n", "2",
    "--program", "baseline-gather",
    "--scheduler", "centralized-fair",
    "--layout", "explicit",
    "--layout-params", '{"positions": [[0, 0], [1, 0]]}',
]


def test_chain_query_prints_the_exact_hitting_time(capsys):
    code = main(
        ["chain", "--chain", "gathering", "--n", "4", "--from", "1", "--to", "3"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"chain", "n", "from", "to", "exact", "mc_mean", "mc_ci"}
    assert report["chain"] == "gathering"
    assert report["exact"] == pytest.approx(10 / 3, abs=1e-15)
    assert report["mc_mean"] is None


def test_chain_query_can_add_a_monte_carlo_cross_check(capsys):
    code = main(
        ["chain", "--chain", "scattering", "--n", "3", "--mc-trials", "500", "--seed", "2"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    low, high = report["mc_ci"]
    assert low <= report["mc_mean"] <= high


def test_usage_errors_exit_with_code_one():
    with pytest.raises(SystemExit) as err:
        main(["chain", "--chain", "sorting", "--n", "4"])
    assert err.value.code == 1


def test_config_errors_exit_with_code_one(capsys):
    code = main(["simulate", "--n", "0"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_malformed_byzantine_strategies_are_config_errors(capsys):
    faults = '{"f": 1, "byzantine": [{"robot": 0, "strategy": 5}]}'
    code = main(["simulate", *BASELINE_PAIR, "--faults", faults])
    assert code == 1
    assert "config error: bad fault plan: byzantine[0].strategy must be a JSON object, got 5" in capsys.readouterr().err


def test_string_counts_in_a_config_file_are_config_errors(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": "8", "trials": "3"}))
    code = main(["experiment", "--config", str(config)])
    assert code == 1
    assert "config error: n must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"program_params": "x"}, "program_params must be a JSON object"),
        ({"layout_params": [1]}, "layout_params must be a JSON object"),
        ({"weak": "false"}, "weak must be true or false"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"program": ["x"]}, "unknown program ['x']"),
        ({"layout": "two-groups", "layout_params": {"sizes": 5}}, "layout_params.sizes"),
        (
            {"layout": "explicit", "layout_params": {"positions": [1, 2]}},
            "layout_params.positions[0]",
        ),
        ({"layout_params": {"box": "abcd"}}, "layout_params.box"),
        (
            {"layout": "explicit", "layout_params": {"positions": [[0, 0], [1, 1e400]]}},
            "layout_params.positions[1] must be an [x, y] pair of finite numbers",
        ),
        ({"faults": "f"}, "faults must be a JSON object or null"),
        (
            {"scheduler": "scripted", "scheduler_params": {"script": {"activations": [5]}}},
            "bad scripted scheduler: activations[0] must be a list",
        ),
        (
            {"scheduler": "scripted", "scheduler_params": {"script": {"activations": [[0]], "coins": [3]}}},
            "bad scripted scheduler: coins[0] must be a JSON object, got 3",
        ),
        (
            {"scheduler": "scripted", "scheduler_params": {"script": [1]}},
            "bad scripted scheduler: script must be a JSON object",
        ),
        (
            {"scheduler": "scripted", "scheduler_params": {"path": 5}},
            "bad scripted scheduler: path must be a string",
        ),
        (
            {"layout": "all-at-one-point", "layout_params": {"pointz": [5, 5]}},
            "unknown layout_params fields: pointz",
        ),
        ({"layout_params": {"bbox": [0, 0, 1, 1]}}, "unknown layout_params fields: bbox"),
        ({"layout": "two-groups", "layout_params": {"size": [1, 1]}}, "unknown layout_params fields: size"),
        ({"layout": "explicit", "layout_params": {}}, "missing layout_params fields: positions"),
        (
            {"scheduler": "scripted", "scheduler_params": {"pth": "script.json"}},
            "unknown scheduler_params fields: pth",
        ),
        (
            {"scheduler": "scripted", "scheduler_params": {"script": {"activations": [[0]], "coinz": []}}},
            "bad scripted scheduler: unknown script fields: coinz",
        ),
        (
            {
                "scheduler": "scripted",
                "scheduler_params": {
                    "script": {"activations": [[0]], "coins": [{"step": 0, "robot": 0, "bits": [1], "bit": 0}]}
                },
            },
            "bad scripted scheduler: unknown coins[0] fields: bit",
        ),
    ],
)
def test_malformed_config_files_are_config_errors(capsys, tmp_path, fields, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 2, **fields}))
    code = main(["experiment", "--config", str(config)])
    assert code == 1
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "faults, message",
    [
        ({"f": 1, "crashes": [5]}, "crashes[0] must be a JSON object, got 5"),
        ({"f": 1, "crashes": "x"}, "crashes must be a list, got 'x'"),
        ({"f": 1, "byzantine": [5]}, "byzantine[0] must be a JSON object, got 5"),
        (
            {"f": 1, "byzantine": [{"robot": 0, "strategy": {"moves": {"a": [0, 0]}}}]},
            "byzantine[0].strategy.moves keys must be step numbers, got 'a'",
        ),
        (
            {"f": 1, "byzantine": [{"robot": 0, "strategy": {"moves": {"1": 5}}}]},
            "byzantine[0].strategy.moves[1] must be an [x, y] pair of finite numbers, got 5",
        ),
        ({"f": 1, "byzantin": [{"robot": 0}]}, "unknown faults fields: byzantin"),
        (
            {"f": 1, "crashes": [{"mode": "freeze", "robot": 0, "at": 0, "after": 3}]},
            "unknown crashes[0] fields: after",
        ),
        ({"f": 1, "crashes": [{"mode": "freeze", "at": -1}]}, "crashes[0].at must be >= 0, got -1"),
        ({"f": 1, "byzantine": [{"robot": 0, "strat": "stay-put"}]}, "unknown byzantine[0] fields: strat"),
        (
            {"f": 1, "byzantine": [{"robot": 0, "strategy": {"moves": {}, "loop": True}}]},
            "unknown byzantine[0].strategy fields: loop",
        ),
    ],
)
def test_malformed_fault_plans_name_their_field(capsys, faults, message):
    code = main(["simulate", "--n", "2", "--faults", json.dumps(faults)])
    assert code == 1
    assert f"config error: bad fault plan: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields",
    [
        {"scheduler": "k-bounded", "scheduler_params": {"k": 2.5}},
        {"program": "voronoi-scatter", "program_params": {"radius": -1}},
        {"faults": {"f": 1, "crashes": [{"mode": "freeze", "robot": 1.7, "at": 0}]}},
    ],
)
def test_bad_parameter_values_fail_before_any_trial_runs(capsys, tmp_path, fields):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 4, "trials": 2, "max_steps": 50, **fields}))
    code = main(["experiment", "--config", str(config)])
    assert code == 1
    assert "config error: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["chain", "--chain", "gathering", "--n", "4"],
        ["counterexample", "--scenario", "flip-flop", "--cycles", "5"],
    ],
)
def test_module_entry_point_runs_without_warnings(args):
    src = str(Path(atomswarm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "atomswarm.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_simulate_prints_convergence_and_final_positions(capsys, tmp_path):
    trace = tmp_path / "trace.jsonl"
    code = main(["simulate", *BASELINE_PAIR, "--seed", "3", "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("converged=true steps=")
    assert "robot 0:" in out and "robot 1:" in out
    assert f"trace written to {trace}" in out
    assert trace.exists()


def test_experiment_writes_outputs_and_prints_stats(capsys, tmp_path):
    out_dir = tmp_path / "batch"
    code = main(
        [
            "experiment", *BASELINE_PAIR,
            "--trials", "25",
            "--seed", "6",
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    stats = json.loads(captured.out)["stats"]
    assert stats["trials"] == 25
    assert stats["converged"] == 25
    assert str(out_dir) in captured.err
    assert (out_dir / "trials.csv").exists()
    assert (out_dir / "summary.json").exists()


def test_report_compares_written_trials_to_an_oracle(capsys, tmp_path):
    out_dir = tmp_path / "batch"
    main(
        [
            "experiment", *BASELINE_PAIR,
            "--trials", "40",
            "--seed", "6",
            "--out", str(out_dir),
        ]
    )
    capsys.readouterr()
    code = main(
        [
            "report",
            "--csv", str(out_dir / "trials.csv"),
            "--oracle", "2.0",
            "--metric", "steps",
        ]
    )
    assert code == 0
    table = json.loads(capsys.readouterr().out)
    assert len(table) == 1
    assert table[0]["comparison"]["verdict"] == "consistent"
    assert table[0]["stats"]["trials"] == 40


def test_byzantine_scenario_replays_clean(capsys):
    code = main(["counterexample", "--cycles", "3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["broken"] is False
    assert report["gathered"] is False


def test_flip_flop_scenario_replays_clean(capsys):
    code = main(["counterexample", "--scenario", "flip-flop", "--cycles", "4"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["oscillations"] >= 3


def test_failed_scenario_checks_exit_with_code_two(capsys):
    code = main(["counterexample", "--scenario", "flip-flop", "--cycles", "1"])
    assert code == 2
    assert "failed its checks" in capsys.readouterr().err


def test_flag_overrides_beat_config_file_fields(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "n": 2,
                "program": "baseline-gather",
                "scheduler": "centralized-fair",
                "layout": "explicit",
                "layout_params": {"positions": [[0, 0], [1, 0]]},
                "trials": 5,
                "seed": 11,
            }
        )
    )
    code = main(["experiment", "--config", str(config), "--trials", "8"])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["trials"] == 8


def test_inline_fault_plans_parse_and_run(capsys):
    code = main(
        [
            "simulate",
            "--n", "3",
            "--program", "voronoi-scatter",
            "--scheduler", "probabilistic",
            "--layout", "all-at-one-point",
            "--predicate", "scattering",
            "--weak",
            "--faults", '{"f": 1, "crashes": [{"mode": "freeze", "robot": 2, "at": 0}]}',
            "--seed", "8",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("converged=true")
    assert "[crashed_frozen]" in out


EXHAUSTED_SCRIPT_CONFIG = {
    "n": 3,
    "program": "multiplicity-gather",
    "layout": "explicit",
    "layout_params": {"positions": [[0, 0], [5, 0], [9, 9]]},
    "scheduler": "scripted",
    "scheduler_params": {"script": {"activations": [[1]]}},
    "trials": 3,
}


def test_experiments_with_errored_trials_exit_with_code_one(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(EXHAUSTED_SCRIPT_CONFIG))
    assert main(["experiment", "--config", str(config)]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["stats"]["errors"] == 3
    assert "error: 3 of 3 trials errored" in err


@pytest.mark.parametrize("faults", ["[5]", "5", '"x"'])
def test_fault_plans_that_are_json_but_not_objects_are_config_errors(capsys, faults):
    assert main(["simulate", "--n", "2", "--faults", faults]) == 1
    assert "config error: faults must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("body", ["[1]", "5", '"abc"'])
def test_config_files_that_are_json_but_not_objects_are_config_errors(capsys, tmp_path, body):
    config = tmp_path / "config.json"
    config.write_text(body)
    assert main(["experiment", "--config", str(config), "--n", "2"]) == 1
    assert f"config error: config must be a JSON object, got {json.loads(body)!r}" in capsys.readouterr().err


def test_a_null_fault_plan_means_no_faults_as_in_a_config_file(capsys):
    assert main(["simulate", *BASELINE_PAIR, "--faults", "null"]) == 0
    assert "crashed" not in capsys.readouterr().out


def test_fault_plans_can_be_read_from_a_file(capsys, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text('{"f": 1, "crashes": [{"mode": "freeze", "robot": 1, "at": 0}]}')
    assert main(["simulate", *BASELINE_PAIR, "--faults", str(plan)]) == 0
    assert "[crashed_frozen]" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--program-params", "--scheduler-params", "--layout-params"])
def test_parameter_flags_that_are_json_but_not_objects_are_config_errors(capsys, flag):
    assert main(["simulate", "--n", "2", flag, "[1]"]) == 1
    field = flag[2:].replace("-", "_")
    assert f"config error: {field} must be a JSON object" in capsys.readouterr().err


def test_report_compares_within_the_fixed_band_and_takes_no_band_option(capsys, tmp_path):
    trials = tmp_path / "trials.csv"
    trials.write_text("trial_id,seed,converged,steps,rounds\n0,1,true,3,2\n")
    assert main(["report", "--csv", str(trials), "--oracle", "2"]) == 0
    comparison = json.loads(capsys.readouterr().out)[0]["comparison"]
    assert comparison["verdict"] == "consistent"
    with pytest.raises(SystemExit) as err:
        main(["report", "--csv", str(trials), "--oracle", "2", "--band", "1", "2"])
    assert err.value.code == 1
    assert "unrecognized arguments: --band" in capsys.readouterr().err


@pytest.mark.parametrize("oracle", ["nan", "inf"])
def test_report_rejects_a_non_finite_oracle(capsys, tmp_path, oracle):
    trials = tmp_path / "trials.csv"
    trials.write_text("trial_id,seed,converged,steps,rounds\n0,1,true,3,2\n")
    assert main(["report", "--csv", str(trials), "--oracle", oracle]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: oracle must be finite")
