"""Sweep orchestration: whole parameter studies as one command.

The paper's quantitative results are parameter sweeps - worst-case delay
vs. error count (Figure 7), AIDA width vs. bandwidth overhead (Lemmas
1-2) - and the related fault-tolerance literature evaluates *spaces* of
configurations, not points.  This subpackage makes such studies
one-command cheap:

* :mod:`repro.sweep.spec` - :class:`SweepSpec`: a base
  :class:`~repro.api.Scenario` crossed with axes over any dotted
  scenario field, JSON-round-trippable;
* :mod:`repro.sweep.expand` - dotted-field overrides with eager
  validation of every expanded cell;
* :mod:`repro.sweep.cache` - :class:`SolveCache`: solved broadcast
  programs memoized under canonical design fingerprints, so a grid that
  varies only fault/traffic knobs pays the pinwheel solver once;
* :mod:`repro.sweep.store` - :class:`RunStore`: a resumable JSONL
  stream of finished cells, and the one rule that decides which stored
  rows a resumed sweep reuses;
* :mod:`repro.sweep.orchestrate` - :func:`run_sweep`: a serial loop
  or one shared process pool over cells and traffic shards,
  submit-order-stable, streaming to the store; its ``run_cell`` runs
  every sweep cell;
* :mod:`repro.sweep.aggregate` - tidy per-cell records, per-axis
  marginals (batch and streaming), and plain-text tables for
  EXPERIMENTS.md.

A killed sweep is finished by running it again with ``resume=True``:
every cell the store holds a row for from the same scenario is reused,
and only the rest run.

Quickstart::

    from repro.sweep import SweepAxis, SweepSpec, run_sweep

    sweep = SweepSpec(
        name="fault-grid",
        base=scenario,
        axes=(
            SweepAxis("faults.probability", (0.0, 0.02, 0.05, 0.1)),
            SweepAxis("workload.zipf_skew", (0.0, 0.5, 1.0)),
        ),
    )
    result = run_sweep(
        sweep,
        max_workers=8,
        store_path="fault-grid.runs.jsonl",
        cache_dir="fault-grid.solve-cache",
        resume=True,
    )
    print(result.table())

The CLI equivalent is ``repro sweep spec.json --workers 8 --resume``.
"""

from repro.sweep.spec import SweepAxis, SweepCell, SweepSpec
from repro.sweep.expand import apply_overrides, set_dotted
from repro.sweep.cache import SolveCache
from repro.sweep.store import RunStore
from repro.sweep.aggregate import (
    MarginalAccumulator,
    marginals,
    render_table,
    tidy_row,
    tidy_rows,
)
from repro.sweep.orchestrate import SweepResult, run_sweep

__all__ = [
    "MarginalAccumulator",
    "RunStore",
    "SolveCache",
    "SweepAxis",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "apply_overrides",
    "marginals",
    "render_table",
    "run_sweep",
    "set_dotted",
    "tidy_row",
    "tidy_rows",
]
