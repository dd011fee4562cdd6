"""Metric names, units and directions, plus the summary statistics.

``BENCHMARK.json`` at the repository root holds the same names with the
regression bound of each end-to-end metric; ``test_e2e.py`` keeps the two
lists in step.  Host time is wall or CPU time of the simulator process
tree; simulated time (``sim_lookup_us``) is what the modelled NIC and host
would take.
"""

import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: ``(name, unit, better)`` of every end-to-end metric, all host time
#: except ``sim_lookup_us``.  ``error_rate`` is reported beside these (and
#: compared with a bound of 0) but is not listed in ``BENCHMARK.json``,
#: whose metrics must never read 0.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cold_s", "s", "lower"),
    ("warm_s", "s", "lower"),
    ("lookups_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_lookup_us", "us", "lower"),
)

ERROR_RATE = ("error_rate", "ratio", "lower")

#: Per-layer metrics of the traced cold pass.  Layers are repo modules;
#: ``replay.*`` aggregates every mechanism (the per-mechanism split is
#: printed too, but a mechanism a workload never replays has no value, so
#: only the aggregate is a benchmark metric).
PER_LAYER = (
    ("synth.gen_s", "s", "lower"),
    ("synth.records", "count", "lower"),
    ("runner.fingerprint_s", "s", "lower"),
    ("runner.fingerprint_calls", "count", "lower"),
    ("runner.fingerprint_self_s", "s", "lower"),
    ("runner.cache_load_s", "s", "lower"),
    ("runner.cache_store_s", "s", "lower"),
    ("runner.cache_hit_ratio", "ratio", "higher"),
    ("runner.cache_bytes", "bytes", "lower"),
    ("runner.batches", "count", "lower"),
    ("runner.run_cells_s", "s", "lower"),
    ("runner.unattributed_s", "s", "lower"),
    ("runner.pool_spawns", "count", "lower"),
    ("runner.pool_wait_s", "s", "lower"),
    ("runner.pool_idle_frac", "ratio", "lower"),
    ("compile.s", "s", "lower"),
    ("compile.calls", "count", "lower"),
    ("compile.self_s", "s", "lower"),
    ("analytic.plan_s", "s", "lower"),
    ("analytic.solve_s", "s", "lower"),
    ("analytic.solve_calls", "count", "lower"),
    ("analytic.cell_ratio", "ratio", "higher"),
    ("stream_store.publish_s", "s", "lower"),
    ("stream_store.publish_bytes", "bytes", "lower"),
    ("replay.s", "s", "lower"),
    ("replay.calls", "count", "lower"),
    ("replay.lookups_per_s", "1/s", "higher"),
    ("replay.p50_ms", "ms", "lower"),
    ("replay.tail_ms", "ms", "lower"),
    ("experiments.outside_runner_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

#: The per-mechanism replay split: ``replay.<mechanism>.<quantity>``.
REPLAY_QUANTITIES = (
    ("s", "s"),
    ("calls", "count"),
    ("lookups_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
)


def load_benchmark_json():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def bounds():
    """``{metric: (bound, better)}`` for every compared end-to-end metric."""
    spec = load_benchmark_json()
    out = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    out[ERROR_RATE[0]] = (0.0, ERROR_RATE[2])
    return out


def summarize(values):
    """Median, quartiles and count, quartiles as ``statistics.quantiles``
    gives them (its default method; both quartiles equal the value when
    there is one sample)."""
    values = [float(v) for v in values]
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def percentile(values, p):
    """Linear-interpolated ``p``-th percentile of a non-empty sequence."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values):
    """``(label, value)``: the highest of p99 or p90 with at least ten
    samples beyond it, else the maximum (too few samples for either)."""
    for p in (99, 90):
        if len(values) * (100 - p) / 100.0 >= 10:
            return "p%d" % p, percentile(values, p)
    return "max", max(values)
