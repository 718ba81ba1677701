"""Command-line interface: design and run broadcast disks from a shell.

Nine subcommands mirror the library's main entry points::

    python -m repro run scenario.json
    python -m repro traffic scenario.json --clients 1000 --duration 50000
    python -m repro server scenario.json --script mutations.json
    python -m repro sweep sweep.json --workers 8 --resume
    python -m repro obs summarize out.telemetry
    python -m repro schedulers
    python -m repro design --file pos:4:2:2 --file map:6:5:1
    python -m repro generalized --file F:2:5,6,6 --file H:1:9,12
    python -m repro delay-table --file A:5:10 --file B:3:6 --errors 5

``run`` executes declarative :class:`repro.api.Scenario` files (JSON,
see ``examples/scenario_awacs.json``) end to end - design, broadcast
program, fault-channel simulation, delay analysis - and prints a summary
(or a machine-readable record with ``--json``).  Scenarios with a
``"temporal"`` block (see ``examples/scenario_awacs_temporal.json``)
derive their catalogue from real-time database items - temporal
constraints become slot budgets, the active mode selects fault budgets -
and their traffic runs report the freshness dimension: consistency
rate, read-age quantiles, torn-read discards, and deadline-miss rate.  Several scenario files
may be given at once; ``--workers N`` fans the batch out over a process
pool (results are identical to the serial run).  ``traffic`` runs the
open-loop population simulator (:mod:`repro.traffic`) against one
scenario's designed program: the scenario's ``"traffic"`` block (or the
defaults, when absent) with any of ``--clients``, ``--duration``,
``--requests-per-client``, ``--think``, ``--arrival``, ``--popularity``,
and ``--seed`` overridden from the flags; ``--workers N`` shards the
population across processes.  ``server`` runs the *online* broadcast
server (:mod:`repro.server`): the scenario goes on the air, a JSON
mutation timeline (``--script``) applies runtime mode changes / file
edits / budget bumps, each re-solve is warm-started from the solve
cache (``--cache-dir`` persists it), the new program is spliced in at a
safe data-cycle boundary, and a JSONL as-run log (``--log``) records
planned-vs-aired divergence, mutations, and re-solve provenance.
``sweep`` expands a
:class:`repro.sweep.SweepSpec` file (a base scenario crossed with axes
over any dotted scenario field) and runs the whole grid on one shared
pool, memoizing solved schedules in a content-addressed solve-cache and
streaming rows to a resumable JSONL run store (``--resume`` skips
completed cells).  ``schedulers`` lists the live scheduler registry.
``run``, ``traffic``, ``sweep``, and ``server`` all accept
``--telemetry DIR``: the invocation runs with the unified telemetry
layer (:mod:`repro.obs`) active - counters, histograms, and trace
spans from the solver, cache, sweep orchestrator, traffic engines, and
server, merged exactly across worker processes - and exports
``telemetry.json`` / ``trace.jsonl`` / ``metrics.prom`` into ``DIR``.
``obs summarize DIR`` renders an export as tables plus the aggregated
span tree.  Telemetry never perturbs results: outputs are bit-identical
with and without the flag.  ``--workers`` everywhere must be a positive
integer; 0 or negative is rejected with an argument error (exit status
2) rather than a pool traceback.

File syntax for the piecewise subcommands:

* ``design``      - ``name:blocks:latency[:fault_budget]``
* ``generalized`` - ``name:blocks:d0,d1,...`` (latency vector in slots)
* ``delay-table`` - ``name:m:n_total`` (AIDA dispersal parameters)

All output is plain text on stdout; exit status 0 on success, 2 on
argument errors, 1 when the design is infeasible or the scenario file is
invalid.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.errors import ReproError
from repro.obs import telemetry as obs
from repro.obs.export import embed, export_directory
from repro.api.engine import BroadcastEngine, run_scenarios
from repro.api.scenario import Scenario
from repro.core.registry import registered_schedulers
from repro.traffic.arrivals import ARRIVAL_KINDS, POPULARITY_KINDS
from repro.traffic.simulate import ENGINES as TRAFFIC_ENGINES
from repro.traffic.spec import TrafficSpec
from repro.bdisk.builder import design_generalized_program, design_program
from repro.bdisk.file import FileSpec, GeneralizedFileSpec
from repro.bdisk.flat import build_aida_flat_program, build_flat_program
from repro.sim.delay import worst_case_delay_table


def _workers_flag(raw: str) -> int:
    """``--workers`` argument type: a positive integer.

    Rejecting 0/negative here turns a process-pool traceback into a
    one-line argparse error (exit status 2) uniformly across ``run``,
    ``traffic``, and ``sweep``.
    """
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer worker count, got {raw!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"worker count must be >= 1, got {value}"
        )
    return value


def _add_shared_flags(
    parser: argparse.ArgumentParser,
    *,
    workers: str | None = None,
    cache_dir: str | None = None,
    telemetry: bool = True,
) -> None:
    """Attach the flags shared across ``run``/``traffic``/``sweep``/
    ``server`` in one place.

    ``workers`` and ``cache_dir`` are the per-command help strings
    (``None`` omits the flag); every ``--workers`` goes through
    :func:`_workers_flag`, so the "positive integer or exit 2"
    validation cannot diverge between subcommands.  ``--telemetry`` is
    attached by default: it names a directory that receives the full
    telemetry export (``telemetry.json``, ``trace.jsonl``,
    ``metrics.prom``) for ``repro obs summarize``.
    """
    if workers is not None:
        parser.add_argument(
            "--workers",
            type=_workers_flag,
            default=None,
            metavar="N",
            help=workers,
        )
    if cache_dir is not None:
        parser.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help=cache_dir,
        )
    if telemetry:
        parser.add_argument(
            "--telemetry",
            default=None,
            metavar="DIR",
            help=(
                "export telemetry to DIR: counters/gauges/histograms "
                "(telemetry.json), the trace span ring (trace.jsonl), "
                "and a Prometheus textfile (metrics.prom); inspect "
                "with 'repro obs summarize DIR'"
            ),
        )


@contextmanager
def _telemetry_capture(
    args: argparse.Namespace,
) -> Iterator[obs.Telemetry | None]:
    """Activate telemetry for one CLI invocation when requested.

    Yields the active :class:`~repro.obs.Telemetry` when the command
    was given ``--telemetry DIR`` (exporting to ``DIR`` on the way
    out, even when the command fails mid-run) and ``None`` otherwise -
    the instrumented library paths then stay on their no-op branches.
    """
    path = getattr(args, "telemetry", None)
    if path is None:
        yield None
        return
    with obs.capture() as tel:
        try:
            yield tel
        finally:
            export_directory(tel, path)


def _parse_design_file(raw: str) -> FileSpec:
    parts = raw.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(
            f"expected name:blocks:latency[:fault_budget], got {raw!r}"
        )
    try:
        name = parts[0]
        blocks = int(parts[1])
        latency = int(parts[2])
        budget = int(parts[3]) if len(parts) == 4 else 0
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from error
    return FileSpec(name, blocks, latency, fault_budget=budget)


def _parse_generalized_file(raw: str) -> GeneralizedFileSpec:
    parts = raw.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected name:blocks:d0,d1,..., got {raw!r}"
        )
    try:
        vector = tuple(int(x) for x in parts[2].split(","))
        return GeneralizedFileSpec(parts[0], int(parts[1]), vector)
    except (ValueError, ReproError) as error:
        raise argparse.ArgumentTypeError(str(error)) from error


def _parse_dispersal_file(raw: str) -> tuple[str, int, int]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected name:m:n_total, got {raw!r}"
        )
    try:
        return parts[0], int(parts[1]), int(parts[2])
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from error


def _build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Pinwheel scheduling for fault-tolerant broadcast disks "
            "(Baruah & Bestavros, ICDE 1997)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run declarative scenario JSON files end to end"
    )
    run.add_argument(
        "scenarios",
        nargs="+",
        metavar="scenario",
        help="path(s) to Scenario JSON files",
    )
    run.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit a machine-readable JSON result record",
    )
    _add_shared_flags(
        run,
        workers=(
            "run scenarios over a process pool of N workers "
            "(default: serial; results are identical either way)"
        ),
    )

    traffic = sub.add_parser(
        "traffic",
        help="run an open-loop client population against a scenario",
    )
    traffic.add_argument(
        "scenario", help="path to a Scenario JSON file"
    )
    traffic.add_argument(
        "--clients", type=int, default=None, metavar="N",
        help="population size (overrides the scenario's traffic block)",
    )
    traffic.add_argument(
        "--duration", type=int, default=None, metavar="SLOTS",
        help="arrival horizon in slots",
    )
    traffic.add_argument(
        "--requests-per-client", type=int, default=None, metavar="R",
        help="requests each session issues before leaving",
    )
    traffic.add_argument(
        "--think", type=int, default=None, metavar="SLOTS",
        help="mean think time between a session's requests",
    )
    traffic.add_argument(
        "--arrival", choices=ARRIVAL_KINDS, default=None,
        help="arrival process",
    )
    traffic.add_argument(
        "--popularity", choices=POPULARITY_KINDS, default=None,
        help="file popularity law",
    )
    traffic.add_argument(
        "--seed", type=int, default=None,
        help="master traffic seed",
    )
    _add_shared_flags(
        traffic,
        workers=(
            "shard the population over a process pool of N workers "
            "(default: in-process; results are identical either way)"
        ),
    )
    traffic.add_argument(
        "--engine", choices=TRAFFIC_ENGINES, default="soa",
        help=(
            "shard engine: the vectorized structure-of-arrays engine "
            "('soa', the default) or one plain loop per client "
            "('object', the executable spec); results are bit-identical"
        ),
    )
    traffic.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit a machine-readable JSON result record",
    )

    sweep = sub.add_parser(
        "sweep",
        help=(
            "expand a sweep spec (base scenario x axes) and run every "
            "cell, with a schedule solve-cache and a resumable run store"
        ),
    )
    sweep.add_argument("spec", help="path to a SweepSpec JSON file")
    _add_shared_flags(
        sweep,
        workers=(
            "run cells and traffic shards on one shared process pool "
            "of N workers (default: serial; results are identical "
            "either way)"
        ),
        cache_dir="solve-cache directory (default: <spec>.solve-cache)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already completed in the run store",
    )
    sweep.add_argument(
        "--store", default=None, metavar="PATH",
        help="JSONL run store (default: <spec>.runs.jsonl)",
    )
    sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the schedule solve-cache (every cell re-solves)",
    )
    sweep.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit a machine-readable JSON summary + tidy records",
    )

    server = sub.add_parser(
        "server",
        help=(
            "run the online broadcast server: live re-solves, splices "
            "at data-cycle boundaries, and a JSONL as-run log"
        ),
    )
    server.add_argument(
        "scenario", help="path to a Scenario JSON file"
    )
    server.add_argument(
        "--script", default=None, metavar="PATH",
        help=(
            "JSON mutation timeline: a list of "
            '{"at_slot": N, "mutation": {...}} entries'
        ),
    )
    server.add_argument(
        "--until", type=int, default=None, metavar="SLOT",
        help=(
            "serve clients up to SLOT and stop (default: serve every "
            "request)"
        ),
    )
    server.add_argument(
        "--log", default=None, metavar="PATH",
        help="stream the JSONL as-run log to PATH",
    )
    _add_shared_flags(
        server,
        cache_dir=(
            "persistent solve-cache directory (default: in-memory; "
            "a warm directory makes mutation re-solves warm starts)"
        ),
    )
    server.add_argument(
        "--window", type=int, default=None, metavar="SLOTS",
        help="planned-vs-aired slots logged around each splice",
    )
    server.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit a machine-readable JSON result record",
    )

    sub.add_parser(
        "schedulers", help="list the registered pinwheel schedulers"
    )

    obs_cmd = sub.add_parser(
        "obs",
        help="inspect telemetry exported with --telemetry",
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize",
        help=(
            "render the counters, histograms, and aggregated span tree "
            "of a telemetry export"
        ),
    )
    summarize.add_argument(
        "path",
        help=(
            "a --telemetry export directory (or its telemetry.json "
            "file directly)"
        ),
    )

    design = sub.add_parser(
        "design", help="design a regular fault-tolerant broadcast disk"
    )
    design.add_argument(
        "--file",
        dest="files",
        action="append",
        required=True,
        type=_parse_design_file,
        metavar="NAME:BLOCKS:LATENCY[:FAULTS]",
    )
    design.add_argument(
        "--bandwidth", type=int, default=None,
        help="force a bandwidth instead of the Equation 1/2 bound",
    )
    design.add_argument(
        "--periods", type=int, default=1,
        help="broadcast periods of the program to print",
    )

    generalized = sub.add_parser(
        "generalized",
        help="design a generalized (latency-vector) broadcast disk",
    )
    generalized.add_argument(
        "--file",
        dest="files",
        action="append",
        required=True,
        type=_parse_generalized_file,
        metavar="NAME:BLOCKS:D0,D1,...",
    )

    delay = sub.add_parser(
        "delay-table",
        help="regenerate a Figure-7-style delay table for a catalogue",
    )
    delay.add_argument(
        "--file",
        dest="files",
        action="append",
        required=True,
        type=_parse_dispersal_file,
        metavar="NAME:M:N",
    )
    delay.add_argument("--errors", type=int, default=5)
    return parser


def _run_scenario(args: argparse.Namespace) -> int:
    scenarios = [Scenario.from_file(path) for path in args.scenarios]
    with _telemetry_capture(args) as tel:
        results = run_scenarios(scenarios, max_workers=args.workers)
        if args.as_json:
            # One file keeps the historical single-object record; a
            # batch emits a JSON array in input order.
            payload: object = (
                results[0].to_dict()
                if len(results) == 1
                else [result.to_dict() for result in results]
            )
            if tel is not None and isinstance(payload, dict):
                embed(tel, payload)
            print(json.dumps(payload, indent=2))
        else:
            print("\n\n".join(result.summary() for result in results))
    return 0


def _run_traffic(args: argparse.Namespace) -> int:
    from dataclasses import replace

    scenario = Scenario.from_file(args.scenario)
    spec = scenario.traffic if scenario.traffic is not None else TrafficSpec()
    overrides = {
        key: value
        for key, value in (
            ("clients", args.clients),
            ("duration", args.duration),
            ("requests_per_client", args.requests_per_client),
            ("think_time", args.think),
            ("arrival", args.arrival),
            ("popularity", args.popularity),
            ("seed", args.seed),
        )
        if value is not None
    }
    if overrides:
        spec = replace(spec, **overrides)
    engine = BroadcastEngine(replace(scenario, traffic=spec))
    with _telemetry_capture(args) as tel:
        result = engine.run_traffic(
            max_workers=args.workers, engine=args.engine
        )
        assert result is not None  # the spec was just attached
        if args.as_json:
            payload = {"scenario": scenario.name, **result.to_dict()}
            if tel is not None:
                embed(tel, payload)
            print(json.dumps(payload, indent=2))
        else:
            print(f"scenario  : {scenario.name}")
            print(result.report())
    return 0


def _run_server(args: argparse.Namespace) -> int:
    from repro.server import MutationScript, run_script
    from repro.server.asrun import ASRUN_WINDOW
    from repro.sweep.cache import SolveCache

    scenario = Scenario.from_file(args.scenario)
    script = (
        MutationScript.from_file(args.script)
        if args.script is not None
        else MutationScript(())
    )
    cache = SolveCache(args.cache_dir)
    with _telemetry_capture(args) as tel:
        result = run_script(
            scenario,
            script,
            cache=cache,
            log_path=args.log,
            until=args.until,
            window=(
                args.window if args.window is not None else ASRUN_WINDOW
            ),
        )
        if args.as_json:
            payload = result.to_dict()
            if tel is not None:
                embed(tel, payload)
            print(json.dumps(payload, indent=2))
        else:
            print(result.report())
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.sweep import SweepSpec, run_sweep

    spec_path = Path(args.spec)
    spec = SweepSpec.from_file(spec_path)
    store = (
        args.store
        if args.store is not None
        else str(spec_path.with_suffix(".runs.jsonl"))
    )
    cache_dir = None
    if not args.no_cache:
        cache_dir = (
            args.cache_dir
            if args.cache_dir is not None
            else str(spec_path.with_suffix(".solve-cache"))
        )
    with _telemetry_capture(args) as tel:
        result = run_sweep(
            spec,
            max_workers=args.workers,
            store_path=store,
            cache_dir=cache_dir,
            use_cache=not args.no_cache,
            resume=args.resume,
        )
        if args.as_json:
            payload = result.to_dict()
            if tel is not None:
                embed(tel, payload)
            print(json.dumps(payload, indent=2))
            return 0
    axes = ", ".join(axis.field for axis in spec.axes) or "(no axes)"
    print(f"sweep     : {spec.name} ({result.cells} cells over {axes})")
    print(f"store     : {result.store_path}")
    print(
        f"cells     : {result.executed} executed, "
        f"{result.resumed} resumed"
    )
    if args.resume:
        print(
            f"re-run    : {result.rerun_drift} fingerprint drift "
            f"(stored scenario changed), "
            f"{result.rerun_missing} missing key (never completed)"
        )
    print(
        f"designs   : {result.distinct_designs} distinct, "
        f"{result.solves} solved, {result.cache_hits} cell cache hits"
    )
    print(
        f"elapsed   : {result.elapsed:.2f}s "
        f"({result.workers} worker{'s' if result.workers != 1 else ''})"
    )
    print()
    print(result.table())
    return 0


def _run_obs(args: argparse.Namespace) -> int:
    from repro.obs.summarize import render_summary

    # ``required=True`` on the subparser guarantees obs_command is set;
    # "summarize" is the only verb today.
    print(render_summary(args.path))
    return 0


def _run_schedulers(args: argparse.Namespace) -> int:
    print("name | cost | kind | description")
    for entry in registered_schedulers():
        kind = "complete" if entry.complete else "heuristic"
        print(
            f"{entry.name} | {entry.cost} | {kind} | {entry.description}"
        )
    return 0


def _run_design(args: argparse.Namespace) -> int:
    design = design_program(args.files, bandwidth=args.bandwidth)
    plan = design.bandwidth_plan
    print(f"bandwidth : {plan.bandwidth} blocks/s "
          f"(necessary >= {float(plan.necessary):.3f}, "
          f"eq-bound {plan.eq_bound})")
    print(f"density   : {float(plan.density):.4f}")
    print(f"scheduler : {plan.report.method}")
    print(f"period    : {design.program.broadcast_period} slots; "
          f"data cycle {design.program.data_cycle_length}")
    print(f"program   : {design.program.render(periods=args.periods)}")
    return 0


def _run_generalized(args: argparse.Namespace) -> int:
    design = design_generalized_program(args.files)
    print(f"density   : {float(design.density):.4f}")
    for candidate in design.candidates:
        print(f"transform : {candidate}")
    print(f"period    : {design.program.broadcast_period} slots; "
          f"data cycle {design.program.data_cycle_length}")
    print(f"program   : {design.program.render()}")
    return 0


def _run_delay_table(args: argparse.Namespace) -> int:
    aida = build_aida_flat_program(args.files)
    flat = build_flat_program([(n, m) for n, m, _ in args.files])
    sizes = {name: m for name, m, _ in args.files}
    rows = worst_case_delay_table(aida, flat, sizes, args.errors)
    print("errors | with IDA | without IDA | r*Delta | r*Pi")
    for row in rows:
        print(row)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _run_scenario,
        "traffic": _run_traffic,
        "server": _run_server,
        "sweep": _run_sweep,
        "obs": _run_obs,
        "schedulers": _run_schedulers,
        "design": _run_design,
        "generalized": _run_generalized,
        "delay-table": _run_delay_table,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
