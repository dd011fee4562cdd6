"""End-to-end sweep benchmark: workloads through ``SweepRunner``, cold and warm.

Run ``python -m benchmarks.e2e run`` (see ``README.md`` in this directory).
"""
