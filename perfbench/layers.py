"""Per-layer metrics and the traffic report, from traced span totals.

"Per activation" divides by the activations of the traced passes; a
layer's ``share`` is its self time over the traced wall time. A metric of a
layer that does not run on the workload reads 0.
"""

from __future__ import annotations

import math
import statistics

from spans import LAYERS, TRIAL_SPANS, SpanTotals

# Percentiles tried for the trial-time tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# name -> unit, in report order. BENCHMARK.json lists the same names.
UNITS = {
    "schedulers.next_activation_us": "us",
    "schedulers.share": "fraction",
    "engine.view_calls_per_activation": "count",
    "engine.view_us_per_activation": "us",
    "engine.step_self_us": "us",
    "engine.predicate_us": "us",
    "engine.trace_record_us": "us",
    "engine.trace_bytes_per_activation": "B",
    "engine.share": "fraction",
    "programs.calls_per_activation": "count",
    "programs.self_us": "us",
    "programs.share": "fraction",
    "geometry.multiplicities_us": "us",
    "geometry.sampler_us": "us",
    "geometry.sampler_accept_ratio": "fraction",
    "geometry.share": "fraction",
    "faults.fire_us": "us",
    "faults.byzantine_us": "us",
    "faults.crash_firings_per_trial": "count",
    "faults.share": "fraction",
    "harness.trial_overhead_us": "us",
    "harness.seed_derivation_ms": "ms",
    "harness.aggregate_ms": "ms",
    "harness.write_outputs_ms": "ms",
    "harness.trace_sink_us": "us",
    "harness.share": "fraction",
    "harness.pool_speedup": "ratio",
    "harness.trial_ms_p50": "ms",
    "harness.trial_ms_tail": "ms",
    "harness.trial_ms_tail_pct": "percentile",
    "harness.trial_samples": "count",
    "markov.exact_ms": "ms",
    "markov.linear_solve_ms": "ms",
    "markov.mc_walker_steps_per_s": "1/s",
    "markov.share": "fraction",
    "bench.trace_overhead_frac": "fraction",
    "bench.activations_per_trial": "count",
    "bench.unspanned_share": "fraction",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail(durations: list[float]) -> tuple[float, float, float]:
    """(p50, tail value, tail percentile) of the given durations.

    The tail is the highest of ``TAIL_PERCENTILES`` with at least ten samples
    above it (nearest rank); with fewer than twenty samples it is the p50.
    """
    if not durations:
        return 0.0, 0.0, 0.0
    ordered = sorted(durations)
    n = len(ordered)

    def rank(p: float) -> float:
        return ordered[max(0, math.ceil(p / 100 * n) - 1)]

    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100 * n) >= 10:
            return rank(50.0), rank(p), p
    return rank(50.0), rank(50.0), 50.0


def per_layer_metrics(totals: SpanTotals, passes: list[dict]) -> dict:
    """Every per-layer metric as ``{name: {"value", "unit"}}``."""
    acts = sum(p["activations"] for p in passes)
    trials = sum(p["trials"] for p in passes)
    wall = sum(p["traced_s"] for p in passes)
    total, count, child = totals.total, totals.count, totals.child_total
    layer_self = totals.layer_self()

    def per_act_us(seconds: float) -> float:
        return _ratio(seconds, acts) * 1e6

    def share(layer: str) -> float:
        return _ratio(layer_self[layer], wall)

    entries = count["harness.run_experiment"] + count["harness.simulate_once"]
    experiments = count["harness.run_experiment"]
    trial_time = sum(total[name] for name in TRIAL_SPANS)
    trial_engine = sum(child[(name, "engine.run")] for name in TRIAL_SPANS)
    step_self = (
        total["engine.step"]
        - child[("engine.step", "programs.program")]
        - child[("engine.step", "faults.byzantine")]
    )
    p50, tail_value, tail_pct = tail(totals.trial_durations)
    pooled = [p["untraced_s"] / p["pooled_s"] for p in passes if "pooled_s" in p]
    values = {
        "schedulers.next_activation_us": per_act_us(total["schedulers.next_activation"]),
        "schedulers.share": share("schedulers"),
        "engine.view_calls_per_activation": _ratio(count["engine.visible_items"], acts),
        "engine.view_us_per_activation": per_act_us(total["engine.visible_items"]),
        "engine.step_self_us": per_act_us(step_self),
        "engine.predicate_us": per_act_us(total["engine.predicate"]),
        "engine.trace_record_us": per_act_us(total["engine.trace_record"]),
        "engine.trace_bytes_per_activation": _ratio(sum(p["trace_bytes"] for p in passes), acts),
        "engine.share": share("engine"),
        "programs.calls_per_activation": _ratio(count["programs.program"], acts),
        "programs.self_us": per_act_us(totals.self_time["programs.program"]),
        "programs.share": share("programs"),
        "geometry.multiplicities_us": per_act_us(
            total["geometry.multiplicities"] + total["geometry.max_multiplicity_positions"]
        ),
        "geometry.sampler_us": per_act_us(total["geometry.sample_point_in_cell"]),
        "geometry.sampler_accept_ratio": _ratio(
            count["geometry.sample_point_in_cell"], count["geometry.voronoi_cell_contains"]
        ),
        "geometry.share": share("geometry"),
        "faults.fire_us": per_act_us(total["faults.fire"]),
        "faults.byzantine_us": per_act_us(total["faults.byzantine"]),
        "faults.crash_firings_per_trial": _ratio(sum(p["crash_firings"] for p in passes), trials),
        "faults.share": share("faults"),
        "harness.trial_overhead_us": _ratio(trial_time - trial_engine, trials) * 1e6,
        "harness.seed_derivation_ms": _ratio(total["harness.derive_trial_seeds"], entries) * 1e3,
        "harness.aggregate_ms": _ratio(total["harness.aggregate_trials"], experiments) * 1e3,
        "harness.write_outputs_ms": _ratio(total["harness.write_outputs"], experiments) * 1e3,
        "harness.trace_sink_us": per_act_us(total["harness.trace_sink"]),
        "harness.share": share("harness"),
        "harness.pool_speedup": statistics.median(pooled) if pooled else 0.0,
        "harness.trial_ms_p50": p50 * 1e3,
        "harness.trial_ms_tail": tail_value * 1e3,
        "harness.trial_ms_tail_pct": tail_pct,
        "harness.trial_samples": float(len(totals.trial_durations)),
        "markov.exact_ms": _ratio(total["markov.hitting_time_birth_death"] + total["markov.exact_sum"], len(passes))
        * 1e3,
        "markov.linear_solve_ms": _ratio(total["markov.hitting_time_general"], len(passes)) * 1e3,
        "markov.mc_walker_steps_per_s": _ratio(acts, total["markov.simulate_chain"])
        if count["markov.simulate_chain"]
        else 0.0,
        "markov.share": share("markov"),
        "bench.trace_overhead_frac": statistics.median(p["traced_s"] / p["untraced_s"] for p in passes) - 1,
        "bench.activations_per_trial": _ratio(acts, trials),
        "bench.unspanned_share": _ratio(wall - sum(layer_self.values()), wall),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}


def traffic_report(totals: SpanTotals, passes: list[dict], metrics: dict) -> str:
    """Human-readable layer split with the counts that justify the workload."""
    acts = sum(p["activations"] for p in passes)
    trials = sum(p["trials"] for p in passes)
    layer_self = totals.layer_self()
    lines = [f"traced passes: {len(passes)}, trials: {trials}, activations: {acts}"]
    lines.append(f"{'layer':<12}{'share':>8}{'self ms/trial':>15}")
    for layer in LAYERS:
        lines.append(f"{layer:<12}{_ratio(layer_self[layer], sum(p['traced_s'] for p in passes)):>8.3f}"
                     f"{_ratio(layer_self[layer], trials) * 1e3:>15.4f}")
    value = {name: m["value"] for name, m in metrics.items()}
    lines.append(
        "traffic: "
        f"activations/trial {value['bench.activations_per_trial']:.3f}, "
        f"program calls/activation {value['programs.calls_per_activation']:.3f}, "
        f"visible_items calls/activation {value['engine.view_calls_per_activation']:.3f}, "
        f"trace bytes/activation {value['engine.trace_bytes_per_activation']:.1f}, "
        f"crash firings/trial {value['faults.crash_firings_per_trial']:.3f}, "
        f"sampler accepts/cell tests {value['geometry.sampler_accept_ratio']:.4f}"
    )
    return "\n".join(lines)
