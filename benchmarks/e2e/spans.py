"""Pipeline spans recorded from outside the program, and their analysis.

:func:`install` wraps the layers' public call points — the names as
bound in ``repro.sim.runner``, ``ResultCache``, ``SharedStreamStore``,
each registered mechanism's ``simulate``, ``SweepRunner.run_cells`` and
``multiprocessing.pool.Pool`` — so no source file changes.  Pool workers
fork after the wrappers are installed and inherit them; each process
appends its spans to its own ``spans-<pid>.jsonl``.  A span is
``{name, id, parent, pid, start_ns, end_ns, attrs}`` on the
``time.monotonic_ns`` clock, which all processes share; a worker's
``pool.task`` span names the parent's ``pool.map`` span as its parent,
so parentage crosses processes.

A span's self time is its duration minus the part of it that its
children cover.  ``runner.run_cells`` self time is the batch time no
wrapped call covers: ``runner.unattributed_s``.
"""

import glob
import json
import os
import time
from collections import defaultdict

from benchmarks.e2e.metrics import REPLAY_QUANTITIES, summarize, tail

#: The recorder :func:`install` wired in; pool tasks unpickled in a
#: forked worker find it here.
_RECORDER = None


class SpanRecorder:
    """Spans of one process tree, kept in memory and flushed per process.

    A forked child starts with an empty stack and buffer of its own (the
    parent's open spans and unflushed records are not its to write).
    """

    def __init__(self, directory):
        self.directory = directory
        self._pid = None
        self._seq = 0
        self._stack = []
        self._pending = []

    def _own_process(self):
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._seq = 0
            self._stack = []
            self._pending = []
        return pid

    def start(self, name, parent=None, **attrs):
        """Open a span; its parent defaults to the innermost open span."""
        pid = self._own_process()
        self._seq += 1
        if parent is None and self._stack:
            parent = self._stack[-1]["id"]
        span = {
            "name": name,
            "id": "%d:%d" % (pid, self._seq),
            "parent": parent,
            "pid": pid,
            "attrs": attrs,
            "start_ns": time.monotonic_ns(),
        }
        self._stack.append(span)
        return span

    def end(self, span):
        span["end_ns"] = time.monotonic_ns()
        self._stack.pop()
        self._pending.append(span)

    def flush(self):
        """Append this process's finished spans to its own file."""
        pid = self._own_process()
        if not self._pending:
            return
        path = os.path.join(self.directory, "spans-%d.jsonl" % pid)
        with open(path, "a", encoding="ascii") as handle:
            for span in self._pending:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
        self._pending = []

    def wrap(self, name, func, attrs=None):
        """``func`` inside a span; ``attrs(result, *args, **kwargs)``
        returns extra attributes to record once the call returns."""

        def traced(*args, **kwargs):
            span = self.start(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(span)
            if attrs is not None:
                span["attrs"].update(attrs(result, *args, **kwargs))
            return result

        return traced


class _PoolTask:
    """A pool task run as a ``pool.task`` span of the worker process,
    parented by the ``pool.map`` span that submitted it; the worker
    flushes its spans after every task, so no exit hook is needed."""

    def __init__(self, func, parent):
        self.func = func
        self.parent = parent

    def __call__(self, arg):
        span = _RECORDER.start("pool.task", parent=self.parent)
        try:
            return self.func(arg)
        finally:
            _RECORDER.end(span)
            _RECORDER.flush()


def source_key(records):
    """A trace source's identity: the generator's repr for a streaming
    source (workload, node, seed, scale), else the object's id."""
    if hasattr(records, "app"):
        return repr(records)
    return "id:%d" % id(records)


def install(recorder):
    """Wrap every layer call point; returns ``{source key: source}``,
    filled as the fingerprint and compile layers see trace sources."""
    global _RECORDER
    from multiprocessing.pool import Pool

    from repro.sim import runner
    from repro.sim.mechanisms import REGISTRY
    from repro.sim.stream_store import SharedStreamStore

    _RECORDER = recorder
    sources = {}

    def source_attrs(result, records, *args, **kwargs):
        key = source_key(records)
        sources.setdefault(key, records)
        return {"source": key}

    def lookups(result, *args, **kwargs):
        return {"lookups": result.stats.lookups}

    wrap = recorder.wrap
    runner.trace_fingerprint = wrap(
        "runner.fingerprint", runner.trace_fingerprint, source_attrs
    )
    runner.compile_streams = wrap("compile", runner.compile_streams, source_attrs)
    runner.count_lookups = wrap("runner.count_lookups", runner.count_lookups)
    runner.plan_axes = wrap("analytic.plan", runner.plan_axes)
    runner.solve_axis_node = wrap("analytic.solve", runner.solve_axis_node)
    runner.ResultCache.load = wrap(
        "runner.cache_load",
        runner.ResultCache.load,
        lambda result, *args: {"hit": result is not None},
    )
    runner.ResultCache.store = wrap("runner.cache_store", runner.ResultCache.store)
    SharedStreamStore.publish = wrap(
        "stream_store.publish",
        SharedStreamStore.publish,
        lambda published, *args: {"bytes": published},
    )
    for name, mechanism in REGISTRY.items():
        mechanism.simulate = wrap("replay." + name, mechanism.simulate, lookups)
    runner.SweepRunner.run_cells = wrap(
        "runner.run_cells", runner.SweepRunner.run_cells
    )
    Pool.__init__ = wrap("pool.spawn", Pool.__init__)
    pool_map = Pool.map

    def traced_map(pool, func, iterable, chunksize=None):
        # ``_processes`` is the pool's worker count, needed for idle time.
        span = recorder.start("pool.map", processes=pool._processes)
        try:
            return pool_map(pool, _PoolTask(func, span["id"]), iterable, chunksize)
        finally:
            recorder.end(span)

    Pool.map = traced_map
    return sources


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def load_spans(directory):
    """Every span of every process that wrote under ``directory``."""
    spans = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.jsonl"))):
        with open(path, encoding="ascii") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def _covered_ns(intervals):
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """``{span id: self seconds}``: duration minus the union of its
    children's intervals clipped to it, children in any process."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        clipped = [
            (max(start, c["start_ns"]), min(end, c["end_ns"]))
            for c in children[span["id"]]
            if c["start_ns"] < end and c["end_ns"] > start
        ]
        out[span["id"]] = (end - start - _covered_ns(clipped)) / 1e9
    return out


def _seconds(span):
    return (span["end_ns"] - span["start_ns"]) / 1e9


def _replay_summary(spans):
    """The replay quantities of a set of ``replay.*`` spans."""
    seconds = [_seconds(s) for s in spans]
    total = sum(seconds)
    looked_up = sum(s["attrs"]["lookups"] for s in spans)
    millis = [1e3 * s for s in seconds]
    label, tail_ms = tail(millis) if millis else ("none", 0.0)
    return {
        "s": total,
        "calls": len(spans),
        "lookups_per_s": looked_up / total if total > 0 else 0.0,
        "p50_ms": summarize(millis)["median"] or 0.0,
        "tail_ms": tail_ms,
        "tail_label": label,
    }


def layer_metrics(spans, drains, call_s, untraced_cold_s, cache_bytes, totals):
    """Per-layer metrics of one traced pass.

    ``drains`` is ``{source key: [seconds, records]}`` from draining each
    distinct trace source once; the fingerprint and compile layers
    regenerate their source lazily, so their ``self_s`` subtracts one
    drain per call.  ``call_s`` is the traced pass's experiment call,
    ``untraced_cold_s`` the untraced median beside it, ``cache_bytes``
    the result cache's size after the pass, and ``totals`` the pass's
    ``SweepMetrics.to_dict()["totals"]``.

    Returns ``(per_layer, detail, notes)``: benchmark metrics, the
    breakdowns beside them as ``{name: (unit, value)}``, and notes
    (which tail percentile a ``tail_ms`` is).
    """
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    own = self_times(spans)

    def total(name):
        return sum(_seconds(s) for s in by_name[name])

    def self_minus_drain(name):
        return sum(
            own[s["id"]] - drains[s["attrs"]["source"]][0] for s in by_name[name]
        )

    loads = by_name["runner.cache_load"]
    capacity = busy = 0
    for map_span in by_name["pool.map"]:
        capacity += map_span["attrs"]["processes"] * (
            map_span["end_ns"] - map_span["start_ns"]
        )
    for task in by_name["pool.task"]:
        busy += task["end_ns"] - task["start_ns"]
    replays = [s for s in spans if s["name"].startswith("replay.")]
    replay = _replay_summary(replays)
    run_cells_s = total("runner.run_cells")
    per_layer = {
        "synth.gen_s": sum(seconds for seconds, _ in drains.values()),
        "synth.records": sum(records for _, records in drains.values()),
        "runner.fingerprint_s": total("runner.fingerprint"),
        "runner.fingerprint_calls": len(by_name["runner.fingerprint"]),
        "runner.fingerprint_self_s": self_minus_drain("runner.fingerprint"),
        "runner.cache_load_s": total("runner.cache_load"),
        "runner.cache_store_s": total("runner.cache_store"),
        "runner.cache_hit_ratio": (
            sum(1 for s in loads if s["attrs"]["hit"]) / len(loads) if loads else 0.0
        ),
        "runner.cache_bytes": cache_bytes,
        "runner.batches": len(by_name["runner.run_cells"]),
        "runner.run_cells_s": run_cells_s,
        "runner.unattributed_s": sum(own[s["id"]] for s in by_name["runner.run_cells"]),
        "runner.pool_spawns": len(by_name["pool.spawn"]),
        "runner.pool_wait_s": total("pool.map"),
        "runner.pool_idle_frac": 1.0 - busy / capacity if capacity else 0.0,
        "compile.s": total("compile"),
        "compile.calls": len(by_name["compile"]),
        "compile.self_s": self_minus_drain("compile"),
        "analytic.plan_s": total("analytic.plan"),
        "analytic.solve_s": total("analytic.solve"),
        "analytic.solve_calls": len(by_name["analytic.solve"]),
        "analytic.cell_ratio": (
            totals["analytic_cells"] / totals["cache_misses"]
            if totals["cache_misses"]
            else 0.0
        ),
        "stream_store.publish_s": total("stream_store.publish"),
        "stream_store.publish_bytes": sum(
            s["attrs"]["bytes"] for s in by_name["stream_store.publish"]
        ),
        "replay.s": replay["s"],
        "replay.calls": replay["calls"],
        "replay.lookups_per_s": replay["lookups_per_s"],
        "replay.p50_ms": replay["p50_ms"],
        "replay.tail_ms": replay["tail_ms"],
        "experiments.outside_runner_s": call_s - run_cells_s,
        "trace.overhead_s": call_s - untraced_cold_s,
    }
    # Breakdowns printed beside the benchmark metrics: the runner's
    # size probe (it regenerates every record-shipped unit's trace to
    # schedule it) and each mechanism's replay.  A workload that never
    # runs one has no value for it, so none is a benchmark metric.
    detail = {
        "runner.count_lookups_s": ("s", total("runner.count_lookups")),
        "runner.count_lookups_calls": ("count", len(by_name["runner.count_lookups"])),
    }
    calls = "%s of %d calls"
    notes = {"replay.tail_ms": calls % (replay["tail_label"], replay["calls"])}
    for mechanism in sorted({s["name"][len("replay.") :] for s in replays}):
        name = "replay." + mechanism
        summary = _replay_summary([s for s in replays if s["name"] == name])
        for quantity, unit in REPLAY_QUANTITIES:
            detail["%s.%s" % (name, quantity)] = (unit, summary[quantity])
        notes[name + ".tail_ms"] = calls % (summary["tail_label"], summary["calls"])
    return per_layer, detail, notes


def write_chrome_trace(spans, path):
    """Chrome trace-event JSON with one lane per process, so idle pool
    workers and stragglers show as gaps and long bars."""
    origin = min((s["start_ns"] for s in spans), default=0)
    parent_pid = next(
        (s["pid"] for s in spans if s["name"] == "runner.run_cells"), None
    )
    events = []
    for pid in sorted({s["pid"] for s in spans}):
        role = "pass" if pid == parent_pid else "worker"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": pid,
                "args": {"name": "%s %d" % (role, pid)},
            }
        )
    for span in spans:
        events.append(
            {
                "name": span["name"],
                "cat": span["name"].split(".")[0],
                "ph": "X",
                "ts": (span["start_ns"] - origin) / 1e3,
                "dur": (span["end_ns"] - span["start_ns"]) / 1e3,
                "pid": span["pid"],
                "tid": span["pid"],
                "args": span["attrs"],
            }
        )
    with open(path, "w", encoding="ascii") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
