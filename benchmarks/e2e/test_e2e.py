"""Tests of the end-to-end benchmark.

Run ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` from the repository root.
"""

import copy
import glob
import io
import json
import os
import subprocess
import sys

import pytest

from benchmarks.e2e import compare, driver, metrics, spans
from benchmarks.e2e.metrics import ROOT

SKIPPED_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def _tree(root):
    """``{relative path: (size, mtime_ns)}`` of the repository's files."""
    out = {}
    for base, dirs, files in os.walk(root):
        dirs[:] = [d for d in dirs if d not in SKIPPED_DIRS]
        for name in files:
            path = os.path.join(base, name)
            stat = os.stat(path)
            out[os.path.relpath(path, root)] = (stat.st_size, stat.st_mtime_ns)
    return out


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` run with a traced pass, under a private HOME."""
    tmp = tmp_path_factory.mktemp("smoke")
    home = tmp / "home"
    home.mkdir()
    env = dict(os.environ, HOME=str(home))
    env.pop("XDG_CACHE_HOME", None)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    before = _tree(ROOT)
    out = tmp / "out.json"
    command = [
        sys.executable,
        "-m",
        "benchmarks.e2e",
        "run",
        "--smoke",
        "--repeats",
        "1",
        "--trace",
        str(tmp / "trace"),
        "--work-dir",
        str(tmp / "work"),
        "--out",
        str(out),
    ]
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    return {
        "report": report,
        "stdout": done.stdout,
        "home": home,
        "trace": tmp / "trace",
        "before": before,
        "after": _tree(ROOT),
    }


def test_smoke_emits_exactly_the_benchmark_metrics(smoke):
    spec = metrics.load_benchmark_json()
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    workloads = smoke["report"]["workloads"]
    assert set(workloads) == {w["name"] for w in spec["workloads"]}
    for name, report in workloads.items():
        assert set(report["end_to_end"]) == end_to_end, name
        assert set(report["per_layer"]) == per_layer, name
        assert report["checks"]["error_rate"] == 0, report["checks"]
        assert report["checks"]["attempted"] > 0
        for metric in end_to_end:
            assert report["end_to_end"][metric]["median"] > 0, (name, metric)
        assert glob.glob(str(smoke["trace"] / name / "spans-*.jsonl"))
        with open(smoke["trace"] / name / "chrome-trace.json", encoding="ascii") as fh:
            lanes = {e["pid"] for e in json.load(fh)["traceEvents"]}
        assert len(lanes) >= 3  # the pass and its two pool workers
    for _, unit, _ in metrics.END_TO_END + metrics.PER_LAYER:
        assert unit in smoke["stdout"]
    assert "only cold-vs-warm checks run" in smoke["stdout"]


def test_smoke_touches_neither_the_user_cache_nor_the_repo(smoke):
    assert list(smoke["home"].iterdir()) == []
    assert smoke["after"] == smoke["before"]


def test_benchmark_json_matches_the_definitions():
    spec = metrics.load_benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        metrics.PER_LAYER
    )
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bound["setup_s"] == max(bound.values()) <= 0.25
    from benchmarks.e2e.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _record(cells, text="text"):
    return {
        "workload": "w",
        "seed": 1,
        "error": None,
        "findings": [["criterion", True]],
        "text_digest": text,
        "cells": [
            {
                "ordinal": i,
                "label": "cell-%d" % i,
                "mechanism": "utlb",
                "cache_hit": False,
                "lookups": 10,
                "digest": digest,
            }
            for i, digest in enumerate(cells)
        ],
    }


def test_golden_files_pass_their_own_check_and_catch_tampering():
    paths = sorted(glob.glob(os.path.join(driver.GOLDEN_DIR, "*-seed1.json")))
    assert len(paths) == len(driver.workload_names())
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            golden = json.load(handle)
        record = dict(golden, cells=golden["cells"])
        checks = driver.Checks()
        driver.check_golden(record, golden, checks)
        assert checks.failed == 0 and checks.attempted == len(golden["cells"]) + 2
        tampered = copy.deepcopy(golden)
        tampered["cells"][-1]["digest"] = "0" * 64
        checks = driver.Checks()
        driver.check_golden(record, tampered, checks)
        assert checks.failed == 1, path


def test_tampered_text_missing_cells_and_warm_drift_are_caught():
    cold = _record(["a", "b", "c"])
    golden = driver.make_golden(cold)
    golden["text_digest"] = "other"
    checks = driver.Checks()
    driver.check_golden(_record(["a", "b"]), golden, checks)
    assert checks.failed == 3  # cell 2 missing, the cell count, the text

    warm = _record(["a", "x", "c"])
    for cell in warm["cells"]:
        cell["cache_hit"] = True
    warm["cells"][2]["cache_hit"] = False
    warm["findings"] = [["criterion", False]]
    checks = driver.Checks()
    driver.check_repeat(cold, warm, driver.make_golden(cold), checks)
    assert checks.failed == 3  # cell 1 differs, cell 2 missed, findings differ
    assert 0 < checks.error_rate < 1


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def _span(name, sid, parent, pid, start, end, **attrs):
    ms = 1_000_000
    return {
        "name": name,
        "id": sid,
        "parent": parent,
        "pid": pid,
        "start_ns": start * ms,
        "end_ns": end * ms,
        "attrs": attrs,
    }


def test_self_time_subtracts_the_union_of_nested_children():
    recorded = [
        _span("a", "1:1", None, 1, 0, 100),
        _span("b", "1:2", "1:1", 1, 10, 30),
        _span("c", "1:3", "1:1", 1, 20, 50),
        _span("d", "1:4", "1:2", 1, 12, 15),
    ]
    own = spans.self_times(recorded)
    assert own["1:1"] == pytest.approx(0.060)
    assert own["1:2"] == pytest.approx(0.017)
    assert own["1:3"] == pytest.approx(0.030)
    assert own["1:4"] == pytest.approx(0.003)


def test_self_time_across_processes_follows_parent_links_only():
    recorded = [
        _span("pool.map", "1:1", None, 1, 0, 100),
        _span("pool.task", "2:1", "1:1", 2, 5, 60),
        _span("pool.task", "3:1", "1:1", 3, 50, 120),  # clipped at 100
        _span("replay.utlb", "4:1", None, 4, 0, 100),  # overlaps, unlinked
    ]
    own = spans.self_times(recorded)
    assert own["1:1"] == pytest.approx(0.005)
    assert own["3:1"] == pytest.approx(0.070)


def test_layer_metrics_attribute_batch_time_and_pool_idle():
    source = "StreamingNodeTrace(fft, node=0, seed=1, scale=1.0)"
    recorded = [
        _span("runner.run_cells", "1:1", None, 1, 0, 100),
        _span("runner.fingerprint", "1:2", "1:1", 1, 0, 10, source=source),
        _span("pool.map", "1:3", "1:1", 1, 20, 90, processes=2),
        _span("pool.task", "2:1", "1:3", 2, 20, 90),
        _span("replay.utlb", "2:2", "2:1", 2, 20, 90, lookups=700),
        _span("pool.task", "3:1", "1:3", 3, 20, 55),
        _span("replay.intr", "3:2", "3:1", 3, 20, 55, lookups=350),
    ]
    totals = {"analytic_cells": 1, "cache_misses": 4}
    per_layer, detail, notes = spans.layer_metrics(
        recorded, {source: (0.004, 100)}, 0.105, 0.1, 123, totals
    )
    assert set(per_layer) == {name for name, _, _ in metrics.PER_LAYER}
    assert per_layer["runner.unattributed_s"] == pytest.approx(0.020)
    assert per_layer["runner.pool_idle_frac"] == pytest.approx(0.25)
    assert per_layer["runner.fingerprint_self_s"] == pytest.approx(0.006)
    assert per_layer["experiments.outside_runner_s"] == pytest.approx(0.005)
    assert per_layer["replay.calls"] == 2
    assert per_layer["replay.lookups_per_s"] == pytest.approx(1050 / 0.105)
    assert per_layer["analytic.cell_ratio"] == 0.25
    assert detail["replay.intr.s"] == ("s", pytest.approx(0.035))
    assert notes["replay.tail_ms"] == "max of 2 calls"


def test_recorder_links_nested_and_pool_task_spans(tmp_path):
    recorder = spans.SpanRecorder(str(tmp_path))
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    recorder.flush()
    recorded = {s["name"]: s for s in spans.load_spans(str(tmp_path))}
    assert recorded["inner"]["parent"] == recorded["outer"]["id"]
    assert recorded["outer"]["parent"] is None
    assert recorded["inner"]["pid"] == os.getpid()


def test_tail_uses_the_highest_percentile_with_ten_samples_beyond():
    assert metrics.tail(list(range(1000)))[0] == "p99"
    assert metrics.tail(list(range(999)))[0] == "p90"
    assert metrics.tail(list(range(99))) == ("max", 98)


# ---------------------------------------------------------------------------
# Compare
# ---------------------------------------------------------------------------


def _summary(*samples):
    return dict(metrics.summarize(samples), samples=list(samples))


@pytest.mark.parametrize(
    "base, new, bound, better, expected",
    [
        ((10.0, 10.1, 9.9), (10.5, 10.4, 10.6), 0.1, "lower", "within"),
        ((10.0, 10.1, 9.9), (12.0, 12.1, 11.9), 0.1, "lower", "worse"),
        ((10.0, 10.1, 9.9), (8.0, 8.1, 7.9), 0.1, "lower", "better"),
        ((8.0, 10.0, 12.0, 14.0), (9.0, 11.0, 13.0), 0.1, "lower", "unresolved"),
        ((8.0, 10.0, 12.0, 14.0), (5.0, 6.0, 7.0), 0.1, "lower", "better"),
        ((100.0, 101.0, 99.0), (80.0, 81.0, 79.0), 0.1, "higher", "worse"),
        ((100.0, 101.0, 99.0), (105.0, 104.0, 106.0), 0.1, "higher", "within"),
        ((0.0,), (0.01,), 0.0, "lower", "worse"),
        ((0.0,), (0.0,), 0.0, "lower", "within"),
    ],
)
def test_compare_verdicts(base, new, bound, better, expected):
    assert compare.verdict(_summary(*base), _summary(*new), bound, better) == expected


def _run_file(path, cold, rate=0.0):
    report = {
        "end_to_end": {"cold_s": dict(_summary(*cold), unit="s")},
        "checks": {"error_rate": rate},
    }
    path.write_text(json.dumps({"workloads": {"w": report}}))
    return str(path)


def test_compare_tool_prints_rows_and_fails_on_a_regression(tmp_path):
    base = _run_file(tmp_path / "a.json", (10.0, 10.1, 9.9))
    same = _run_file(tmp_path / "b.json", (10.2, 10.1, 10.3))
    slow = _run_file(tmp_path / "c.json", (10.0, 10.1, 9.9), rate=0.5)
    out = io.StringIO()
    assert compare.main(base, same, out) == 0
    rows = out.getvalue().splitlines()[1:]
    assert [row.split()[1] for row in rows] == ["cold_s", "error_rate"]
    assert all(row.endswith("within") for row in rows)
    out = io.StringIO()
    assert compare.main(base, slow, out) == 1
    assert out.getvalue().splitlines()[-1].endswith("worse")
