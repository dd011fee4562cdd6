"""Compare two ``run --out`` files: one row per workload and end-to-end metric.

Each row shows both medians with their quartiles, the ratio of the new
median to its base, and a verdict under the bound ``BENCHMARK.json``
fixes (``error_rate`` has a bound of 0):

* ``unresolved`` - either side's spread (quartile distance over median)
  exceeds the bound, and not every new sample beats every base sample;
* ``worse`` / ``better`` - the new median moved by more than the bound;
* ``within`` - otherwise.
"""

import json
import math

from benchmarks.e2e import metrics


def _spread(summary):
    median = summary["median"]
    width = summary["q3"] - summary["q1"]
    if median == 0:
        return 0.0 if width == 0 else math.inf
    return width / abs(median)


def verdict(base, new, bound, better):
    """The verdict for two summaries (``median``, ``q1``, ``q3``, ``samples``)."""
    lower = better == "lower"
    if max(_spread(base), _spread(new)) > bound:
        if lower:
            all_better = max(new["samples"]) < min(base["samples"])
        else:
            all_better = min(new["samples"]) > max(base["samples"])
        return "better" if all_better else "unresolved"
    old, now = base["median"], new["median"]
    moved = now - old if lower else old - now  # positive means worse
    if old:
        worse_by = moved / abs(old)
    else:
        worse_by = math.copysign(math.inf, moved) if moved else 0.0
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "within"


def _rows(report):
    """``{metric: summary}`` of one workload, ``error_rate`` included."""
    rows = dict(report["end_to_end"])
    rate = report["checks"]["error_rate"]
    rows[metrics.ERROR_RATE[0]] = dict(
        metrics.summarize([rate]), unit=metrics.ERROR_RATE[1], samples=[rate]
    )
    return rows


def compare(base, new, bounds):
    """``[(workload, metric, unit, base, new, ratio, verdict)]`` for every
    workload and bounded metric present in both runs."""
    out = []
    for workload, base_report in base["workloads"].items():
        new_report = new["workloads"].get(workload)
        if new_report is None:
            continue
        base_rows, new_rows = _rows(base_report), _rows(new_report)
        for name, (bound, better) in bounds.items():
            if name not in base_rows or name not in new_rows:
                continue
            b, n = base_rows[name], new_rows[name]
            ratio = n["median"] / b["median"] if b["median"] else None
            out.append(
                (workload, name, b["unit"], b, n, ratio, verdict(b, n, bound, better))
            )
    return out


def _cell(summary):
    return "%.5g [%.5g, %.5g]" % (summary["median"], summary["q1"], summary["q3"])


ROW = "%-18s %-14s %-6s %-38s %-38s %-22s %s\n"
HEADER = (
    "workload",
    "metric",
    "unit",
    "base median [q1, q3]",
    "new median [q1, q3]",
    "new/base",
    "verdict",
)


def main(base_path, new_path, stream):
    with open(base_path, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)
    rows = compare(base, new, metrics.bounds())
    stream.write(ROW % HEADER)
    for workload, name, unit, b, n, ratio, result in rows:
        shown = "-" if ratio is None else "%.4f of %.5g" % (ratio, b["median"])
        stream.write(ROW % (workload, name, unit, _cell(b), _cell(n), shown, result))
    return 1 if any(row[-1] == "worse" for row in rows) else 0
