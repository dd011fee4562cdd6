"""The three benchmark workloads, each a call into a product entry point.

Every workload runs inside a pass subprocess against a ``SweepRunner``
the pass built, and returns ``(text, findings)``: the rendered report
and the shape criteria as ``(name, passed)`` pairs.  ``smoke`` shrinks
the traces (scale 0.05, 2 nodes) for the test suite.
"""

from repro import params
from repro.sim import compare, experiments
from repro.sim.config import SimConfig
from repro.sim.mechanisms import mechanism_names
from repro.sim.report import format_table
from repro.sim.runner import SweepCell
from repro.sim.sweep import generate_traces
from repro.traces.synth import make_workload

#: Paper geometry for the two SPLASH-2 workloads; smoke runs shrink it.
SCALE, NODES = 1.0, 4
SMOKE_SCALE, SMOKE_NODES = 0.05, 2

#: zipf-kv at 10x its defaults: 2 M lookups on one node.
ZIPF_SCALE = 10.0
ZIPF_INTR_ENTRIES = 8192


def paper_eval(runner, seed, smoke=False):
    """Tables 1-8 and Figures 7-8: the evaluation users actually run."""
    scale, nodes = (SMOKE_SCALE, SMOKE_NODES) if smoke else (SCALE, NODES)
    text = experiments.run_all(scale=scale, nodes=nodes, seed=seed, runner=runner)
    return text, []


def mechanism_compare(runner, seed, smoke=False):
    """7 apps x 2 cache sizes x every registered mechanism."""
    scale, nodes = (SMOKE_SCALE, SMOKE_NODES) if smoke else (SCALE, NODES)
    findings, text = compare.compare_mechanisms(
        scale=scale,
        nodes=nodes,
        seed=seed,
        mechanisms=mechanism_names(),
        runner=runner,
    )
    return text, findings


def zipf_scale(runner, seed, smoke=False):
    """One batch on a 2 M-lookup zipf-kv node: the utlb cache-size axis
    (answered analytically) plus one intr replay."""
    scale = ZIPF_SCALE * SMOKE_SCALE if smoke else ZIPF_SCALE
    traces = generate_traces(make_workload("zipf-kv"), nodes=1, seed=seed, scale=scale)
    sizes = params.CACHE_SIZE_SWEEP
    cells = [
        SweepCell(("zipf-kv", size, "utlb"), traces, SimConfig(cache_entries=size))
        for size in sizes
    ]
    cells.append(
        SweepCell(
            ("zipf-kv", ZIPF_INTR_ENTRIES, "intr"),
            traces,
            SimConfig(cache_entries=ZIPF_INTR_ENTRIES, mechanism="intr"),
        )
    )
    results = runner.run_cells(cells)
    utlb_miss = [r.stats.ni_miss_rate for r in results[: len(sizes)]]
    intr = results[-1].stats
    rows = [
        [c.label[2], c.label[1], r.stats.ni_miss_rate, r.stats.avg_lookup_cost_us]
        for c, r in zip(cells, results)
    ]
    text = format_table(
        ["mechanism", "entries", "NI miss rate", "lookup cost (us)"],
        rows,
        title="zipf-kv: NI miss rate and lookup cost per cache size",
    )
    findings = [
        (
            "utlb NI miss rate falls (or stays flat) with cache size",
            all(a >= b - 1e-9 for a, b in zip(utlb_miss, utlb_miss[1:])),
        ),
        (
            "utlb and intr NI miss rates identical at %d entries" % ZIPF_INTR_ENTRIES,
            abs(utlb_miss[sizes.index(ZIPF_INTR_ENTRIES)] - intr.ni_miss_rate) < 1e-9,
        ),
    ]
    return text, findings


#: Workload name -> entry point; why each exists is in ``BENCHMARK.json``
#: and ``README.md``.
WORKLOADS = {
    "paper-eval": paper_eval,
    "mechanism-compare": mechanism_compare,
    "zipf-scale": zipf_scale,
}
