"""Command line interface.

Subcommands: ``simulate`` (one seeded run, optional trace), ``experiment``
(a batch with CSV/JSON outputs), ``chain`` (analytic oracle queries),
``counterexample`` (scripted scenario replays) and ``report`` (recompute and
compare statistics from trials.csv files).

Exit codes: 0 on success, 1 for configuration or usage errors and for an
experiment with errored trials, 2 when a scenario replay fails its own
checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .harness import (
    PREDICATE_NAMES,
    ConfigError,
    ExperimentConfig,
    aggregate_trials,
    compare_to_theory,
    read_trials_csv,
    run_experiment,
    simulate_once,
)
from .markov import CHAINS, chain_report
from .scenarios import replay_counterexample, run_flip_flop_witness


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _json_arg(text: str):
    """A JSON value; ``ExperimentConfig.build()`` checks that it is an object."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"not valid JSON: {exc}") from None


def _load_json_or_path(text: str):
    """The fault plan: inline JSON, or a path when the text is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        if text.lstrip().startswith("{"):
            raise
        return json.loads(Path(text.strip()).read_text())


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, help="robot count")
    parser.add_argument("--program", help="robot program name")
    parser.add_argument("--program-params", type=_json_arg, help="program parameters, JSON object")
    parser.add_argument("--scheduler", help="scheduler name")
    parser.add_argument("--scheduler-params", type=_json_arg, help="scheduler parameters, JSON object")
    parser.add_argument("--layout", help="initial layout name")
    parser.add_argument("--layout-params", type=_json_arg, help="layout parameters, JSON object")
    parser.add_argument("--predicate", choices=PREDICATE_NAMES)
    parser.add_argument("--weak", action=argparse.BooleanOptionalAction, help="use the weak predicate variant")
    parser.add_argument("--faults", help="fault plan: inline JSON object or a path to one")
    parser.add_argument("--max-steps", type=int, help="activation horizon per trial")
    parser.add_argument("--seed", type=int, help="experiment seed")


# Config fields set by a flag of the same name; --faults and --out are read apart.
_OVERRIDE_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.name not in ("faults", "out_dir"))


def _config_from_args(args) -> ExperimentConfig:
    data = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {data!r}")
    for name in _OVERRIDE_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            data[name] = value
    if getattr(args, "faults", None) is not None:
        data["faults"] = _load_json_or_path(args.faults)
    if getattr(args, "out", None) is not None:
        data["out_dir"] = args.out
    return ExperimentConfig.from_dict(data)


def _cmd_simulate(args) -> int:
    config = _config_from_args(args)
    config.trials = 1
    record = simulate_once(config, trace_path=args.trace)
    print(f"converged={str(record.converged).lower()} steps={record.steps} rounds={record.rounds}")
    for rid, ((x, y), status) in record.final.robots.items():
        print(f"  robot {rid}: ({x:.6g}, {y:.6g}) [{status.value}]")
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


def _cmd_experiment(args) -> int:
    config = _config_from_args(args)
    stats, _ = run_experiment(config)
    print(json.dumps({"stats": asdict(stats)}, indent=2, sort_keys=True))
    if config.out_dir:
        print(f"outputs written to {config.out_dir}", file=sys.stderr)
    if stats.errors:
        print(f"error: {stats.errors} of {stats.trials} trials errored", file=sys.stderr)
        return 1
    return 0


def _cmd_chain(args) -> int:
    report = chain_report(
        args.chain,
        args.n,
        from_state=args.from_state,
        to_state=args.to_state,
        mc_trials=args.mc_trials,
        seed=args.seed,
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_counterexample(args) -> int:
    if args.scenario == "byzantine":
        report = replay_counterexample(cycles=args.cycles)
    else:
        report = run_flip_flop_witness(cycles=args.cycles)
    print(json.dumps(asdict(report), indent=2, sort_keys=True))
    if report.broken:
        print("scenario replay failed its checks", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args) -> int:
    table = []
    for path in args.csv:
        stats = aggregate_trials(read_trials_csv(path))
        entry = {"file": str(path), "stats": asdict(stats)}
        if args.oracle is not None:
            entry["comparison"] = asdict(compare_to_theory(stats, args.oracle, metric=args.metric))
        table.append(entry)
    print(json.dumps(table, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="atomswarm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_sim = sub.add_parser("simulate", help="run one seeded execution")
    _add_run_options(p_sim)
    p_sim.add_argument("--config", help="JSON config file; flags override its fields")
    p_sim.add_argument("--trace", help="write a JSONL trace to this path")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_exp = sub.add_parser("experiment", help="run a batch of trials")
    _add_run_options(p_exp)
    p_exp.add_argument("--config", help="JSON config file; flags override its fields")
    p_exp.add_argument("--trials", type=int, help="number of trials")
    p_exp.add_argument("--workers", type=int, help="parallel worker processes")
    p_exp.add_argument("--out", help="output directory for trials.csv and summary.json")
    p_exp.set_defaults(handler=_cmd_experiment)

    p_chain = sub.add_parser("chain", help="query the analytic chain oracles")
    p_chain.add_argument("--chain", choices=CHAINS, required=True)
    p_chain.add_argument("--n", type=int, required=True)
    p_chain.add_argument("--from", dest="from_state", type=int, default=1)
    p_chain.add_argument("--to", dest="to_state", type=int, default=None)
    p_chain.add_argument("--mc-trials", type=int, default=0, help="optional Monte Carlo cross-check")
    p_chain.add_argument("--seed", type=int, default=0)
    p_chain.set_defaults(handler=_cmd_chain)

    p_ce = sub.add_parser("counterexample", help="replay a scripted scenario")
    p_ce.add_argument(
        "--scenario", choices=("byzantine", "flip-flop"), default="byzantine"
    )
    p_ce.add_argument("--cycles", type=int, default=100)
    p_ce.set_defaults(handler=_cmd_counterexample)

    p_rep = sub.add_parser("report", help="summarize trials.csv files")
    p_rep.add_argument("--csv", action="append", required=True, help="trials.csv path (repeatable)")
    p_rep.add_argument("--oracle", type=float, help="analytic value to compare against")
    p_rep.add_argument("--metric", choices=("rounds", "steps"), default="rounds")
    p_rep.set_defaults(handler=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
