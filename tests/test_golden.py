"""Golden-output gate: seeded batches must keep writing the same bytes.

Each config below is small and seeded. Its ``trials.csv`` and
``summary.json`` are pinned by SHA-256, so any change that alters what a
seeded experiment writes (the order programs consume randomness, round
counting, fault firing, output formatting) fails here. A change that is
meant to alter the outputs regenerates these digests and says why.
"""

import hashlib

import pytest

from atomswarm.engine import expand_trace
from atomswarm.harness import ExperimentConfig, run_experiment, simulate_once

SCRIPT = {
    "activations": [[0], [1], [2, 3], [0, 1, 2, 3], [3], [1]],
    "coins": [
        {"step": 0, "robot": 0, "bits": [1]},
        {"step": 2, "robot": 2, "bits": [0]},
        {"step": 2, "robot": 3, "bits": [1]},
        {"step": 3, "robot": 1, "bits": [1, 0]},
    ],
}

GOLDEN_CONFIGS = {
    "gather": dict(
        n=8, program="multiplicity-gather", scheduler="centralized-fair", trials=40, seed=11
    ),
    "scatter": dict(
        n=6,
        program="voronoi-scatter",
        scheduler="probabilistic",
        layout="all-at-one-point",
        predicate="scattering",
        trials=30,
        seed=12,
    ),
    "k-bounded": dict(
        n=6,
        program="multiplicity-gather",
        scheduler="k-bounded",
        scheduler_params={"k": 2},
        trials=30,
        seed=13,
    ),
    "crash": dict(
        n=8,
        program="multiplicity-gather",
        scheduler="probabilistic",
        weak=True,
        faults={
            "f": 2,
            "crashes": [
                {"mode": "freeze", "when": "max_group_reaches_alpha"},
                {"mode": "remove", "robot": 7, "at": 2},
            ],
        },
        trials=40,
        seed=14,
    ),
    "byzantine": dict(
        n=4,
        program="multiplicity-gather",
        scheduler="probabilistic",
        layout="two-groups",
        weak=True,
        faults={"f": 1, "byzantine": [{"robot": 3, "strategy": "oscillator"}]},
        trials=40,
        seed=15,
    ),
    "scripted": dict(
        n=4,
        program="multiplicity-gather",
        scheduler="scripted",
        scheduler_params={"script": SCRIPT},
        layout="explicit",
        layout_params={"positions": [[0, 0], [1, 0], [2, 0], [3, 0]]},
        max_steps=6,
        trials=10,
        seed=16,
    ),
    "k-bounded-crash": dict(
        n=8,
        program="multiplicity-gather",
        scheduler="k-bounded",
        scheduler_params={"k": 2},
        weak=True,
        faults={
            "f": 2,
            "crashes": [
                {"mode": "remove", "robot": 7, "at": 3},
                {"mode": "freeze", "when": "max_group_reaches_alpha"},
            ],
        },
        trials=30,
        seed=17,
    ),
    # The nearest tie-break measures squared distances and takes a
    # tuple-keyed min over the singleton positions.
    "flip-flop-nearest": dict(
        n=6,
        program="flip-flop",
        program_params={"tie_break": "nearest"},
        scheduler="probabilistic",
        layout="two-groups",
        trials=20,
        max_steps=200,
        seed=18,
    ),
    # Co-located robots: baseline-gather's choose indexes the sorted view
    # with its duplicates, and several robots move in one step.
    "baseline-colocated": dict(
        n=5,
        program="baseline-gather",
        scheduler="probabilistic",
        layout="explicit",
        layout_params={"positions": [[0, 0], [0, 0], [1, 0], [2, 0], [2, 0]]},
        trials=30,
        seed=19,
    ),
    # A radius above the default: most draws leave the cell, so the sampler's
    # full cell test rejects them (4,852 rejects against 685 samples here).
    "scatter-radius": dict(
        n=12,
        program="voronoi-scatter",
        program_params={"radius": 3.0},
        scheduler="probabilistic",
        layout="all-at-one-point",
        predicate="scattering",
        trials=30,
        seed=20,
    ),
}

GOLDEN_DIGESTS = {
    "gather": (
        "c049f94a9d4c431d0b8ac0447f4e2a10702fc07539a682fd5076a39883b5280e",
        "db398fa33555cbf0dbd8a5d4d06bcd903dd521a18f7aeaf4560d5dc502e57630",
    ),
    "scatter": (
        "c6a225a8fbe0a11011ddf2ee78b65161dcf373943a0cb3eead0eea95ff660b4e",
        "40305673693f23086ac2ec6d6dea2ec0c8c8ee0d8734aa8c592b4ddcbe09e294",
    ),
    "k-bounded": (
        "43b539feb83194111bfc36e6709c9c46d2bb47e4d0c9f3ef072457c7c8130ff0",
        "be0599fbb5c0bf8887f519ed4aa3e3a56f9916a1cedf7fbb92f1af63de2b57ae",
    ),
    "crash": (
        "a1941796650094ca106d88220e34b071eb1cf6f4ca50143b8b94a0da90fbb769",
        "d6343bb2a7c20f608a54d77c89a059511c92a5df17ecc2422a8fb99ad9927dfd",
    ),
    "byzantine": (
        "4da9900695ccb573385d5e7f06cc74982197316457379265bb8c42bdd8cceccb",
        "45e46e4f0ceb4b021ff6deed0c4afb455aee8b19d208b7fb2152b36f0069d337",
    ),
    "scripted": (
        "7b0e75b0cff61fc299d1318272e12cdb9e7a46e78cc93705740fb137df845aac",
        "5700735cd0ae1424a74101cf04120d83543750a577030c965cdaa82e0d3d8054",
    ),
    "k-bounded-crash": (
        "da25290049e6887d1881c47710cbb3270ec3d472deecc78c2fda180ef4f153e8",
        "887e81aa9fddf64b7cdd9ea6be3abf7c9b32a59e2a969dc0d91241cfc684f50d",
    ),
    "flip-flop-nearest": (
        "e682f24c7ccc68d945155fd43a41fd92ac1a514e68102985bd749da0301ae528",
        "6fbe13243ee61c869403730752d8c95d1d984c7ea8cc973c518e52445d6aaab7",
    ),
    "baseline-colocated": (
        "921a1289bd0a72e9d8edbd7a9f86ba5e73f53f21db03fe69737a95cc78018e00",
        "f78178d40544dfdb7c6243a6c2f1aed9619bfe77a1ddeb0e48554608b0229be2",
    ),
    "scatter-radius": (
        "8805730f2c4ba730f7990e1af7693e1531842b0df428c19d787db5270939739b",
        "80b3ffdbb644a1e6dda408766fd243b9a3a0e80e56fefec3bbb4adf78087b4da",
    ),
}


def _digests(name, out_dir):
    config = ExperimentConfig(**GOLDEN_CONFIGS[name], out_dir=str(out_dir))
    run_experiment(config)
    return tuple(
        hashlib.sha256((out_dir / filename).read_bytes()).hexdigest()
        for filename in ("trials.csv", "summary.json")
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_seeded_outputs_match_their_golden_digests(name, tmp_path):
    assert _digests(name, tmp_path) == GOLDEN_DIGESTS[name]


def _trace_digests(trace) -> tuple[str, str]:
    """SHA-256 of a trace file as written (delta lines) and as expanded to
    full ``trace_record`` lines."""
    expanded = "".join(line + "\n" for line in expand_trace(trace.read_text().splitlines()))
    return hashlib.sha256(trace.read_bytes()).hexdigest(), hashlib.sha256(expanded.encode()).hexdigest()


# One faulted k-bounded run at n=64: a Byzantine oscillator, a worst-case
# freeze and a timed removal. Its JSONL trace is pinned byte for byte, both
# as written and expanded, so a change to how trace lines are built (key
# order, number formatting, which robots a line lists) fails here. The
# expanded digest is that of the full lines written before traces listed
# only what changed.
GOLDEN_TRACE_CONFIG = dict(
    n=64,
    program="multiplicity-gather",
    scheduler="k-bounded",
    scheduler_params={"k": 2},
    layout="random-uniform",
    weak=True,
    faults={
        "f": 3,
        "byzantine": [{"robot": 0, "strategy": "oscillator"}],
        "crashes": [
            {"mode": "freeze", "when": "max_group_reaches_alpha"},
            {"mode": "remove", "robot": 11, "at": 40},
        ],
    },
    seed=2024,
)
GOLDEN_TRACE_DIGEST = "b442956f46869eb0f3ff7bfaf4f26e6f9342e6903b51f1df5602dacec43eccef"
GOLDEN_TRACE_DELTA_DIGEST = "eb82732b49f72ea7ff41d5c59b93fe5700281189442d82362cbbe82c58ef4081"


def test_seeded_trace_matches_its_golden_digest(tmp_path):
    trace = tmp_path / "trace.jsonl"
    record = simulate_once(ExperimentConfig(**GOLDEN_TRACE_CONFIG), trace_path=trace)
    assert (record.converged, record.steps) == (True, 160)
    assert _trace_digests(trace) == (GOLDEN_TRACE_DELTA_DIGEST, GOLDEN_TRACE_DIGEST)


# Voronoi scattering from two groups under the probabilistic scheduler: many
# robots move in one step, a timed freeze keeps one robot in its group and a
# timed removal takes another out of every later observation.
GOLDEN_SCATTER_TRACE_CONFIG = dict(
    n=24,
    program="voronoi-scatter",
    scheduler="probabilistic",
    layout="two-groups",
    predicate="scattering",
    faults={
        "f": 2,
        "crashes": [
            {"mode": "freeze", "robot": 9, "at": 1},
            {"mode": "remove", "robot": 4, "at": 2},
        ],
    },
    seed=2026,
)
GOLDEN_SCATTER_TRACE_DIGEST = "ab983634e6a3a615c4e7da56b998c9f4fcafb80fd7c0f959deb834c00e7ac14f"
GOLDEN_SCATTER_TRACE_DELTA_DIGEST = "5764d0471593b592d3a62d43a1a2f6a3077e35d5599d2172bd13f01b0b7edddb"


def test_seeded_scatter_trace_matches_its_golden_digest(tmp_path):
    trace = tmp_path / "trace.jsonl"
    record = simulate_once(ExperimentConfig(**GOLDEN_SCATTER_TRACE_CONFIG), trace_path=trace)
    assert (record.converged, record.steps) == (True, 13)
    assert _trace_digests(trace) == (GOLDEN_SCATTER_TRACE_DELTA_DIGEST, GOLDEN_SCATTER_TRACE_DIGEST)
