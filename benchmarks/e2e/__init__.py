"""End-to-end benchmark: six named workloads measured through one command.

Run ``python3 benchmarks/e2e/run.py --seed S`` from the repository root;
see ``benchmarks/e2e/README.md`` for the workloads, the metrics and how
to trace and compare runs.
"""
