"""The end-to-end benchmark's command line.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload traffic-burst --seed 7
    python3 benchmarks/e2e/run.py --seed 7 --out results/  # all six
    python3 benchmarks/e2e/run.py --seed 7 --trace 1 --out traced/
    python3 benchmarks/e2e/run.py --compare parent/result.json change/result.json

With ``--workload`` the workload runs in this process and the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: every ``end_to_end`` metric of
``BENCHMARK.json`` untraced, every ``per_layer`` metric with
``--trace 1``.  Without ``--workload`` each workload runs in a fresh
subprocess of its own, one after another.  ``--out DIR`` writes result
files that carry their provenance, and with ``--trace 1`` each
workload's exported telemetry and folded layer times.  The exit code is
non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
SCRATCH = ROOT / ".bench_tmp"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Any single workload run finishes well inside this many seconds.
CHILD_TIMEOUT = 600


def bootstrap() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import repro

    source = Path(repro.__file__).resolve()
    if (ROOT / "src") not in source.parents:
        raise ImportError(f"repro was imported from {source}, not {ROOT / 'src'}")


def load_benchmark() -> dict[str, Any]:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def provenance(args: argparse.Namespace) -> dict[str, Any]:
    """Where and how a result was measured."""
    import numpy

    commit = dirty = None
    if (ROOT / ".git").exists():
        def git(*argv: str) -> str:
            return subprocess.run(
                ["git", *argv], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()

        try:
            commit = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.CalledProcessError):
            commit = dirty = None
    return {
        "commit": commit,
        "dirty": dirty,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _print_metrics(workload: str, metrics: dict[str, dict[str, Any]]) -> None:
    print(f"== {workload}")
    for name, entry in metrics.items():
        print(
            f"  {name:<28} {entry['unit']:<6} {entry['value']:<13.6g}"
            f" median {entry['median']:<12.6g} q1 {entry['q1']:<12.6g}"
            f" q3 {entry['q3']:<12.6g} n={entry['n']}"
        )


def run_workload(args: argparse.Namespace, benchmark: dict[str, Any]) -> int:
    """Measure ``args.workload`` here; print its metrics and the JSON line."""
    from benchmarks.e2e.measure import measure_traced, measure_untraced, stats
    from benchmarks.e2e.workloads import make_workload

    section = benchmark["per_layer" if args.trace else "end_to_end"]
    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, args.scale, scratch)
        if args.trace:
            names = [entry["name"] for entry in section]
            measured = measure_traced(workload, args.seconds, names)
        else:
            measured = measure_untraced(workload, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {
        entry["name"]: {
            "unit": entry["unit"],
            **stats(entry["name"], measured.samples[entry["name"]]),
        }
        for entry in section
    }
    failed = measured.failed + len(measured.failures)
    row = {
        "workload": args.workload,
        "pid": os.getpid(),
        "reps": measured.reps,
        "correct": failed == 0,
        "attempted": measured.ops + len(measured.failures),
        "failed": failed,
        "failures": measured.failures,
        "metrics": metrics,
    }
    _print_metrics(args.workload, metrics)
    for failure in measured.failures:
        print(f"  CHECK FAILED: {failure}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        record = {"provenance": provenance(args), "rows": [row]}
        (out / f"{args.workload}.json").write_text(
            json.dumps(record, indent=2) + "\n", encoding="utf-8"
        )
        if args.trace:
            from repro.obs.export import export_directory

            target = out / args.workload
            export_directory(measured.telemetry, target)
            (target / "layers.json").write_text(
                json.dumps(measured.layers, indent=2) + "\n", encoding="utf-8"
            )
    print(
        json.dumps(
            {
                "correct": row["correct"],
                "attempted": row["attempted"],
                "failed": row["failed"],
                "metrics": {
                    name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()
                },
            }
        )
    )
    return 0 if row["correct"] else 1


def run_all(
    jobs: list[tuple[str, str]], args: argparse.Namespace, out: Path
) -> list[dict[str, Any]]:
    """Run each ``(workload, scale)`` job in a fresh subprocess, in order.

    Each job's row comes from its own process, so ``pid`` and
    ``peak_rss_mb`` describe that workload alone.  A job that exits
    non-zero yields a row with ``correct`` false.
    """
    rows = []
    for workload, scale in jobs:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", scale, "--out", str(out),
        ]
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT,
        )
        sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
        result = out / f"{workload}.json"
        if done.returncode not in (0, 1) or not result.exists():
            sys.stderr.write(done.stderr)
            rows.append({"workload": workload, "scale": scale, "correct": False,
                         "failures": [f"exit code {done.returncode}"]})
            continue
        row = json.loads(result.read_text(encoding="utf-8"))["rows"][0]
        rows.append({**row, "scale": scale})
    return rows


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from benchmarks.e2e.workloads import SCALES, WORKLOADS

    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (BENCHMARK.json "
                             "run_seconds by default)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full")
    parser.add_argument("--out", help="directory for result files")
    parser.add_argument("--compare", nargs=2,
                        metavar=("PARENT.json", "CHANGE.json"))
    args = parser.parse_args(argv)
    if args.compare is None and args.seed is None:
        parser.error("--seed is required")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        bootstrap()
    except ImportError as error:
        print(f"error: cannot import the program: {error}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    benchmark = load_benchmark()
    if args.compare:
        from benchmarks.e2e.compare import compare_files

        return compare_files(*args.compare, benchmark)
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    if args.workload:
        return run_workload(args, benchmark)

    from benchmarks.e2e.workloads import WORKLOADS

    out = Path(args.out) if args.out else SCRATCH / f"all-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        rows = run_all([(name, args.scale) for name in WORKLOADS], args, out)
        if args.out:
            record = {"provenance": provenance(args), "rows": rows}
            (out / "result.json").write_text(
                json.dumps(record, indent=2) + "\n", encoding="utf-8"
            )
    finally:
        if not args.out:
            shutil.rmtree(out, ignore_errors=True)
    bad = [row["workload"] for row in rows if not row["correct"]]
    print(f"{len(rows) - len(bad)}/{len(rows)} workloads passed their checks"
          + (f"; failed: {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
