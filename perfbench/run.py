"""atomswarm benchmark: one workload, end-to-end metrics or a traced layer split.

Usage, from the repository root:

    python3 perfbench/run.py --workload pairs-batch --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end metrics.
``--trace 1`` alternates an untraced and a traced pass over the workload's
fixed unit, checks that both produce the same per-trial records, and prints
the per-layer metrics. The last stdout line is the JSON result; the lines
before it record the environment and, when traced, the traffic report.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7


def _pin_threads() -> int:
    """Cap BLAS/OpenMP threads at the core count before numpy is imported."""
    cores = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= cores:
            os.environ[var] = str(cores)
    # Pool workers re-import atomswarm from the same tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return cores


def _import_from_tree():
    import atomswarm

    if Path(atomswarm.__file__).resolve().parent != SRC / "atomswarm":
        raise ImportError(f"atomswarm imported from {atomswarm.__file__}, not from {SRC}")
    return atomswarm


def _environment(cores: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "atomswarm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _setup_probe(workload: str, seed: int) -> None:
    """Import atomswarm, build and validate the workload's inputs, print the clock."""
    _import_from_tree()
    from workloads import WORKLOADS

    WORKLOADS[workload](seed, OUT / "probe", 1)
    print(time.monotonic())


def _setup_seconds(workload: str, seed: int) -> float:
    """Median time from launching a cold interpreter until its set-up is done.

    The system-wide monotonic clock is read before the launch here and at the
    end of set-up in the child, so interpreter shutdown is not counted.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for attempt in range(SETUP_PROBES + 1):
        start = time.monotonic()
        done = subprocess.run(command, check=True, timeout=120, capture_output=True, text=True)
        if attempt:  # the first one only fills the bytecode cache
            times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _untraced(bench, seconds: float) -> tuple[dict, int, int, list[str]]:
    bench.warm()
    problems = bench.once_check() if hasattr(bench, "once_check") else []
    trials = activations = failed = 0
    wall = 0.0
    index = 1
    while wall < seconds:
        call = bench.call(index)
        index += 1
        trials += call.trials
        activations += call.activations
        wall += call.seconds
        failed += call.failed
        problems += call.problems
    return (
        {
            "trials_per_s": _metric(trials / wall, "1/s"),
            "us_per_activation": _metric(wall / activations * 1e6, "us"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_fraction": _metric((trials - failed) / trials, "fraction"),
        },
        trials,
        failed,
        problems,
    )


def _traced(bench, seconds: float, spans_path: Path) -> tuple[dict, int, int, list[str], str]:
    from layers import per_layer_metrics, traffic_report
    from spans import SpanTotals, Tracer, installed

    bench.warm()
    totals = SpanTotals()
    passes = []
    problems: list[str] = []
    trials = failed = 0
    # The traced pass always runs on one worker; a pooled workload also gets
    # an untraced pooled pass, for the pool speed-up.
    pooled = getattr(bench, "workers", 1) > 1
    tracer = None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        sample = {}
        if pooled:
            untraced = [bench.call(0), bench.call(0, workers=1)]
            sample["pooled_s"] = untraced[0].seconds
        else:
            untraced = [bench.call(0)]
        tracer = Tracer()
        with installed(tracer):
            traced = bench.call(0, workers=1) if pooled else bench.call(0)
        totals.add_tracer(tracer)
        sample.update(
            untraced_s=untraced[-1].seconds,
            traced_s=traced.seconds,
            activations=traced.activations,
            trials=traced.trials,
            trace_bytes=traced.trace_bytes,
            crash_firings=tracer.crash_firings,
        )
        passes.append(sample)
        for call in untraced + [traced]:
            trials += call.trials
            failed += call.failed
            problems += call.problems
        if any(call.records != traced.records for call in untraced):
            failed += traced.trials
            problems.append("traced per-trial records differ from the untraced run")
    tracer.write_csv(spans_path)
    metrics = per_layer_metrics(totals, passes)
    return metrics, trials, failed, problems, traffic_report(totals, passes, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "atomswarm" / "__init__.py").is_file():
        print(f"perfbench: no atomswarm source under {SRC}", file=sys.stderr)
        return 2
    cores = _pin_threads()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    _import_from_tree()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    print(json.dumps({"env": _environment(cores)}, sort_keys=True))
    out_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True)
    try:
        bench = WORKLOADS[args.workload](args.seed, out_dir, min(2, cores))
        if args.trace:
            metrics, attempted, failed, problems, report = _traced(
                bench, args.seconds, out_dir.parent / f"{args.workload}-{args.seed}.spans.csv"
            )
            print(report)
        else:
            setup_s = _setup_seconds(args.workload, args.seed)
            metrics, attempted, failed, problems = _untraced(bench, args.seconds)
            metrics["setup_s"] = _metric(setup_s, "s")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
