"""``python -m benchmarks.e2e run|compare``.

``run`` drives every workload (or ``--workloads``) through cold/warm
repeats, prints each metric with its unit, median, quartiles and sample
count, checks the outputs, and with ``--out`` writes the whole report as
JSON.  ``--trace DIR`` adds one traced cold pass per workload (spans,
Chrome trace and per-layer metrics under ``DIR/<workload>``).
``--record-golden`` rewrites ``golden/<workload>-seed<N>.json`` from the
first cold pass.  ``compare A.json B.json`` prints one verdict row per
workload and end-to-end metric.  Run from the repository root with
``PYTHONPATH=src``.
"""

import argparse
import json
import os
import sys
import time

from benchmarks.e2e import compare, driver

#: Passes of an interactive run may take this long in total before the
#: driver kills them.
CLI_DEADLINE_S = 3600.0


def _run(args):
    driver.require_source()
    names = args.workloads or driver.workload_names()
    deadline = time.monotonic() + CLI_DEADLINE_S
    out = {"seed": args.seed, "smoke": args.smoke, "workloads": {}}
    failed = 0
    for name in names:
        report = driver.run_workload(
            name,
            args.seed,
            args.work_dir,
            repeats=args.repeats,
            trace_dir=os.path.join(args.trace, name) if args.trace else None,
            smoke=args.smoke,
            record_golden=args.record_golden,
            deadline=deadline,
        )
        driver.print_report(report)
        out["workloads"][name] = report.to_dict()
        failed += report.checks.failed
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(out, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end sweep benchmark.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the workloads")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--repeats", type=int, default=5)
    run.add_argument("--workloads", nargs="+", choices=driver.workload_names())
    run.add_argument("--out", help="write the report as JSON here")
    run.add_argument("--trace", metavar="DIR", help="add one traced cold pass")
    run.add_argument("--smoke", action="store_true", help="scale 0.05, 2 nodes")
    run.add_argument("--record-golden", action="store_true")
    run.add_argument("--work-dir", default=driver.DEFAULT_WORK_DIR)
    cmp = commands.add_parser("compare", help="compare two run --out files")
    cmp.add_argument("base")
    cmp.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "run" and args.smoke and args.record_golden:
        parser.error("goldens hold full-size runs; drop --smoke")
    if args.command == "compare":
        return compare.main(args.base, args.new, sys.stdout)
    try:
        return _run(args)
    except driver.PassError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
