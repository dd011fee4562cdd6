"""The closed-loop driver: cold and warm pass subprocesses, checks, metrics.

One driver process runs one pass subprocess at a time.  A *repeat* of a
workload is a cold pass over a fresh result-cache directory followed by
a warm pass over the same directory.  The driver reads each pass's CPU
time and peak RSS with ``os.wait4``, so the numbers cover the pass's
whole process tree, pool workers included (the pass joins them before it
exits).  Everything the driver writes goes under its work directory.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

from benchmarks.e2e import metrics, spans
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, ROOT, summarize

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
DEFAULT_WORK_DIR = os.path.join(ROOT, ".e2e-work")

#: A run, with all its passes, must end well inside three minutes.
RUN_DEADLINE_S = 170.0

#: Failed checks listed by name in a report; the count covers the rest.
LISTED_FAILURES = 20


class PassError(RuntimeError):
    """A pass subprocess failed, timed out or wrote no record."""


def require_source():
    """Raise :class:`PassError` unless the program's source is present."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise PassError("no program source at %s" % os.path.join(ROOT, "src"))


def workload_names():
    return [w["name"] for w in metrics.load_benchmark_json()["workloads"]]


def _pass_env(work_dir):
    """The pass environment: the program and this package importable, and
    every default cache or temp location inside the work directory."""
    env = dict(os.environ)
    # The runner is built explicitly; stale settings must not leak in.
    env.pop("REPRO_WORKERS", None)
    env.pop("REPRO_CACHE_DIR", None)
    env["XDG_CACHE_HOME"] = os.path.join(work_dir, "xdg-cache")
    env["TMPDIR"] = os.path.join(work_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    paths = [os.path.join(ROOT, "src"), ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_with_usage(proc, timeout):
    """``(exit code, rusage)`` of ``proc``; its process group is killed
    if it outlives ``timeout`` seconds."""
    timer = threading.Timer(max(timeout, 0.0), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_pass(
    workload, seed, cache_dir, work_dir, deadline, smoke=False, spans_dir=None
):
    """One pass subprocess; returns its record plus ``cpu_s``/``peak_rss_mb``."""
    fd, out = tempfile.mkstemp(prefix="pass-", suffix=".json", dir=work_dir)
    os.close(fd)
    log = out[: -len(".json")] + ".log"
    command = [
        sys.executable,
        "-m",
        "benchmarks.e2e.passrun",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--cache-dir",
        cache_dir,
        "--out",
        out,
    ]
    if smoke:
        command.append("--smoke")
    if spans_dir is not None:
        command += ["--spans", spans_dir]
    try:
        with open(log, "wb") as handle:
            proc = subprocess.Popen(
                command,
                cwd=ROOT,
                env=_pass_env(work_dir),
                stdout=handle,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            code, usage = _wait_with_usage(proc, deadline - time.monotonic())
        if code != 0:
            with open(log, encoding="utf-8", errors="replace") as handle:
                output = handle.read()[-2000:]
            raise PassError("%s pass exited with %d:\n%s" % (workload, code, output))
        with open(out, encoding="utf-8") as handle:
            record = json.load(handle)
    finally:
        for path in (out, log):
            if os.path.exists(path):
                os.remove(path)
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KB
    return record


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class Checks:
    """Checks attempted and failed; ``error_rate`` is their ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.notes = []

    def check(self, passed, what):
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.failures.append(what)

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def to_dict(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.error_rate,
            "failures": self.failures[:LISTED_FAILURES],
            "notes": self.notes,
        }


def golden_path(workload, seed):
    return os.path.join(GOLDEN_DIR, "%s-seed%d.json" % (workload, seed))


def make_golden(record):
    """The golden form of a pass record: per-cell and text digests."""
    return {
        "workload": record["workload"],
        "seed": record["seed"],
        "cells": [
            {k: cell[k] for k in ("ordinal", "label", "mechanism", "digest")}
            for cell in record["cells"]
        ],
        "text_digest": record["text_digest"],
    }


def load_golden(workload, seed, smoke):
    """The golden for this workload and seed, or None (smoke runs use
    other trace sizes, so no golden applies to them)."""
    path = golden_path(workload, seed)
    if smoke or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_golden(record, golden, checks):
    """One check per golden cell, plus one for the rendered text."""
    cells = record["cells"]
    for expected in golden["cells"]:
        ordinal = expected["ordinal"]
        got = cells[ordinal]["digest"] if ordinal < len(cells) else None
        what = "cell %d %s differs from its golden" % (ordinal, expected["label"])
        checks.check(got == expected["digest"], what)
    checks.check(
        len(cells) == len(golden["cells"]),
        "%d cells, golden has %d" % (len(cells), len(golden["cells"])),
    )
    checks.check(
        record["text_digest"] == golden["text_digest"],
        "rendered text differs from its golden",
    )


def check_repeat(cold, warm, golden, checks):
    """Every check one cold/warm repeat earns."""
    for record in (cold, warm):
        checks.check(record["error"] is None, "pass raised: %s" % record["error"])
    for name, passed in cold["findings"]:
        checks.check(passed, "[FAIL] %s" % name)
    if golden is not None:
        check_golden(cold, golden, checks)
    for c, w in zip(cold["cells"], warm["cells"]):
        what = "cell %d %s" % (c["ordinal"], c["label"])
        checks.check(w["digest"] == c["digest"], what + ": warm differs from cold")
        checks.check(w["cache_hit"], what + ": warm pass missed the cache")
    checks.check(len(warm["cells"]) == len(cold["cells"]), "warm cell count differs")
    checks.check(warm["text_digest"] == cold["text_digest"], "warm text differs")
    checks.check(warm["findings"] == cold["findings"], "warm findings differ")


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


def _replayed_lookups(record):
    return sum(cell["lookups"] for cell in record["cells"] if not cell["cache_hit"])


def _dir_bytes(directory):
    total = 0
    for base, _dirs, files in os.walk(directory):
        total += sum(os.path.getsize(os.path.join(base, name)) for name in files)
    return total


class WorkloadReport:
    """Samples, checks and per-layer values of one workload's run."""

    def __init__(self, workload, seed, smoke):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.samples = {name: [] for name, _, _ in END_TO_END}
        self.checks = Checks()
        self.repeats = 0
        self.per_layer = None
        self.detail = None
        self.layer_notes = {}

    def add_repeat(self, cold, warm):
        self.repeats += 1
        samples = self.samples
        samples["setup_s"] += [cold["setup_s"], warm["setup_s"]]
        samples["cold_s"].append(cold["call_s"])
        samples["warm_s"].append(warm["call_s"])
        samples["lookups_per_s"].append(_replayed_lookups(cold) / cold["call_s"])
        samples["cpu_s"].append(cold["cpu_s"])
        samples["peak_rss_mb"].append(cold["peak_rss_mb"])
        samples["sim_lookup_us"].append(cold["sim_lookup_us"])

    def end_to_end(self):
        out = {}
        for name, unit, _ in END_TO_END:
            samples = self.samples[name]
            out[name] = dict(summarize(samples), unit=unit, samples=samples)
        return out

    def to_dict(self):
        out = {
            "seed": self.seed,
            "smoke": self.smoke,
            "repeats": self.repeats,
            "end_to_end": self.end_to_end(),
            "checks": self.checks.to_dict(),
        }
        if self.per_layer is not None:
            out["per_layer"] = {
                name: {"unit": unit, "value": self.per_layer[name]}
                for name, unit, _ in PER_LAYER
            }
            out["detail"] = {
                name: {"unit": unit, "value": value}
                for name, (unit, value) in self.detail.items()
            }
            out["layer_notes"] = self.layer_notes
        return out


def run_workload(
    workload,
    seed,
    work_dir,
    repeats=None,
    seconds=None,
    trace_dir=None,
    smoke=False,
    record_golden=False,
    deadline=None,
):
    """Run ``repeats`` cold/warm repeats (or as many as fit in ``seconds``,
    at least one), then one traced cold pass when ``trace_dir`` is set."""
    report = WorkloadReport(workload, seed, smoke)
    os.makedirs(work_dir, exist_ok=True)
    if deadline is None:
        deadline = time.monotonic() + RUN_DEADLINE_S
    golden = None if record_golden else load_golden(workload, seed, smoke)
    if golden is None and not record_golden:
        report.checks.notes.append(
            "no golden for %s seed %d%s: only cold-vs-warm checks run"
            % (workload, seed, " (smoke)" if smoke else "")
        )
    started = time.monotonic()
    while True:
        begin = time.monotonic()
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work_dir)
        try:
            cold = run_pass(workload, seed, cache_dir, work_dir, deadline, smoke)
            warm = run_pass(workload, seed, cache_dir, work_dir, deadline, smoke)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if record_golden and report.repeats == 0:
            golden = make_golden(cold)
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(golden_path(workload, seed), "w", encoding="utf-8") as handle:
                json.dump(golden, handle, indent=1, sort_keys=True)
                handle.write("\n")
        check_repeat(cold, warm, golden, report.checks)
        report.add_repeat(cold, warm)
        took = time.monotonic() - begin
        if repeats is not None:
            if report.repeats >= repeats:
                break
        elif time.monotonic() - started + took > seconds:
            break
    if trace_dir is not None:
        _traced_pass(report, trace_dir, work_dir, deadline)
    return report


def _traced_pass(report, trace_dir, work_dir, deadline):
    """One traced cold pass; fills the report's per-layer values and
    writes ``chrome-trace.json`` beside the span files."""
    os.makedirs(trace_dir, exist_ok=True)
    for name in os.listdir(trace_dir):
        if name.startswith("spans-") or name == "chrome-trace.json":
            os.remove(os.path.join(trace_dir, name))
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work_dir)
    try:
        record = run_pass(
            report.workload,
            report.seed,
            cache_dir,
            work_dir,
            deadline,
            report.smoke,
            spans_dir=trace_dir,
        )
        cache_bytes = _dir_bytes(cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    error = record["error"]
    report.checks.check(error is None, "traced pass raised: %s" % error)
    recorded = spans.load_spans(trace_dir)
    spans.write_chrome_trace(recorded, os.path.join(trace_dir, "chrome-trace.json"))
    untraced = summarize(report.samples["cold_s"])["median"]
    report.per_layer, report.detail, report.layer_notes = spans.layer_metrics(
        recorded,
        record["drains"],
        record["call_s"],
        untraced,
        cache_bytes,
        record["totals"],
    )


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return "%.6g" % value


def print_report(report, stream=sys.stdout):
    """Every metric with its unit; end-to-end rows add quartiles and n."""

    def row(name, unit, value, q1="", q3="", n="", note=""):
        cells = (name, unit, value, q1, q3, n, note)
        stream.write(("%-34s %-6s %12s %12s %12s %4s  %s" % cells).rstrip() + "\n")

    smoke = "  (smoke)" if report.smoke else ""
    stream.write(
        "== %s  seed %d  repeats %d%s ==\n"
        % (report.workload, report.seed, report.repeats, smoke)
    )
    row("end-to-end", "unit", "median", "q1", "q3", "n")
    for name, s in report.end_to_end().items():
        row(name, s["unit"], _fmt(s["median"]), _fmt(s["q1"]), _fmt(s["q3"]), s["n"])
    checks = report.checks
    note = "%d checks, %d failed" % (checks.attempted, checks.failed)
    row("error_rate", "ratio", _fmt(checks.error_rate), note=note)
    for note in checks.notes:
        stream.write("  note: %s\n" % note)
    for failure in checks.failures[:LISTED_FAILURES]:
        stream.write("  FAILED: %s\n" % failure)
    if report.per_layer is not None:
        row("per-layer (one traced cold pass)", "unit", "value")
        values = [(name, unit, report.per_layer[name]) for name, unit, _ in PER_LAYER]
        values += [(name, unit, value) for name, (unit, value) in report.detail.items()]
        for name, unit, value in values:
            row(name, unit, _fmt(value), note=report.layer_notes.get(name, ""))
    stream.write("\n")
    stream.flush()
