"""Time-boxed entry point: one workload, one seed, one JSON result line.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs cold/warm repeats of the workload while the next one is expected to
end within ``--seconds`` (at least one), checks every output, and prints
as its last line ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end medians with ``--trace 0``, or the per-layer values of one
extra traced cold pass with ``--trace 1``.  Work files go under
``.e2e-work/`` in the checkout.  Exits non-zero, printing no result,
when the program's source is missing or a pass crashes.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from benchmarks.e2e import driver  # noqa: E402
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        driver.require_source()
        if args.workload not in driver.workload_names():
            raise driver.PassError("unknown workload %r" % args.workload)
        trace_dir = None
        if args.trace:
            trace_dir = os.path.join(
                driver.DEFAULT_WORK_DIR, "trace-%s-seed%d" % (args.workload, args.seed)
            )
        report = driver.run_workload(
            args.workload,
            args.seed,
            driver.DEFAULT_WORK_DIR,
            seconds=args.seconds,
            trace_dir=trace_dir,
        )
    except driver.PassError as exc:
        print(exc, file=sys.stderr)
        return 1
    driver.print_report(report, sys.stderr)
    if args.trace:
        values = {name: (unit, report.per_layer[name]) for name, unit, _ in PER_LAYER}
    else:
        rows = report.end_to_end()
        values = {name: (unit, rows[name]["median"]) for name, unit, _ in END_TO_END}
    checks = report.checks
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (unit, value) in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
