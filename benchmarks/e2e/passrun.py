"""One benchmark pass: a workload's experiment call in a fresh process.

Run as ``python -m benchmarks.e2e.passrun --workload NAME --seed N
--cache-dir DIR --out FILE [--spans DIR] [--smoke]`` with ``src`` and the
repository root on ``PYTHONPATH``.  The pass builds its own
``SweepRunner(workers=2)`` over ``--cache-dir`` (``REPRO_WORKERS`` is not
read), times set-up and the experiment call, and writes a JSON record:
timings, per-cell digests, the rendered text's digest, the shape
criteria, the runner's metric totals and the simulated lookup cost.
With ``--spans`` the layers' call points are wrapped first, and each
distinct trace source is drained once after the call to time generation.
"""

import time

# Set-up time starts here, before anything of the program is imported.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402

#: Worker processes of the pass's runner (the benchmark host has 2 cores).
WORKERS = 2


def digest(value):
    """sha256 of a value's canonical JSON form."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cell_records(cells):
    """``(ordinal, label, mechanism, stats)`` digests of finished cells."""
    return [
        {
            "ordinal": ordinal,
            "label": cell["label"],
            "mechanism": cell["mechanism"],
            "cache_hit": cell["cache_hit"],
            "lookups": cell["lookups"],
            "digest": digest(
                [ordinal, cell["label"], cell["mechanism"], cell["stats"]]
            ),
        }
        for ordinal, cell in enumerate(cells)
    ]


def sim_lookup_us(cells):
    """Lookup-weighted mean simulated cost per lookup over the cells."""
    lookups = sum(cell["stats"]["lookups"] for cell in cells)
    total_us = sum(
        cell["stats"]["avg_lookup_cost_us"] * cell["stats"]["lookups"] for cell in cells
    )
    return total_us / lookups if lookups else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    sources = None
    if args.spans:
        from benchmarks.e2e import spans

        recorder = spans.SpanRecorder(args.spans)
        sources = spans.install(recorder)
    from benchmarks.e2e.workloads import WORKLOADS
    from repro.sim.runner import SweepRunner

    runner = SweepRunner(workers=WORKERS, cache_dir=args.cache_dir)
    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    error = None
    text, findings = "", []
    try:
        text, findings = workload(runner, args.seed, smoke=args.smoke)
    except Exception:  # the pass reports the failure; the driver counts it
        error = traceback.format_exc()
    finally:
        call_s = time.perf_counter() - start
        runner.close()

    metrics = runner.metrics.to_dict()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "setup_s": start - _T0,
        "call_s": call_s,
        "error": error,
        "text_digest": digest(text),
        "findings": [[name, bool(passed)] for name, passed in findings],
        "cells": cell_records(metrics["cells"]),
        "totals": metrics["totals"],
        "sim_lookup_us": sim_lookup_us(metrics["cells"]),
    }
    if sources is not None:
        recorder.flush()
        drains = {}
        for key, source in sources.items():
            begin = time.perf_counter()
            count = sum(1 for _ in source)
            drains[key] = [time.perf_counter() - begin, count]
        record["drains"] = drains
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
