"""The online broadcast server: live re-scheduling on one channel or a set.

Everything else in this repository solves offline; this subpackage is
the paper's motivating scenario made operational - an AWACS broadcast
station that must switch operating modes (surveillance to combat and
back), add and retire files, and retune fault budgets *while on air*,
without violating the temporal constraints of retrievals already in
flight.

The moving parts:

* :mod:`~repro.server.mutations` - the runtime deltas a server accepts
  (mode changes, file add/remove, fault-budget bumps, temporal edits),
  each a JSON-able value producing the successor
  :class:`~repro.api.Scenario`;
* :mod:`~repro.server.airing` - :class:`AirSchedule`, the spliced
  timeline of broadcast programs, with cross-segment retrieval walkers;
* :mod:`~repro.server.splice` - the explicit splice-safety predicate
  over the outgoing/incoming occurrence indexes, and the boundary
  search;
* :mod:`~repro.server.asrun` - the JSONL as-run log (planned vs aired,
  mutations, splice points, re-solve provenance);
* :mod:`~repro.server.server` - :class:`BroadcastServer` itself, with
  programmatic ``apply()`` / ``advance()`` / ``close()``; one channel
  is a channel set of one, so every mutation takes one path that
  splices each channel's timeline; its live clients (single channel
  only) are one record each, served one client at a time, and a
  splice re-walks the in-flight reads it reaches;
* :mod:`~repro.server.script` - scripted JSON mutation timelines (the
  ``repro server`` CLI driver).
"""

from repro.server.airing import AirSchedule, Segment, SplicedRetrieval
from repro.server.asrun import (
    ASRUN_WINDOW,
    AsRunLog,
    planned_vs_aired,
    read_asrun,
)
from repro.server.mutations import (
    AddFile,
    FaultBudgetBump,
    ModeChange,
    Mutation,
    MUTATION_KINDS,
    RemoveFile,
    TemporalEdit,
    mutation_from_dict,
)
from repro.server.script import MutationScript, ScriptEntry, run_script
from repro.server.server import BroadcastServer, ServerResult
from repro.server.splice import (
    SpliceRequirement,
    SpliceViolation,
    check_splice,
    critical_starts,
    find_splice_slot,
    splice_is_safe,
)

__all__ = [
    "AirSchedule",
    "Segment",
    "SplicedRetrieval",
    "ASRUN_WINDOW",
    "AsRunLog",
    "planned_vs_aired",
    "read_asrun",
    "AddFile",
    "FaultBudgetBump",
    "ModeChange",
    "Mutation",
    "MUTATION_KINDS",
    "RemoveFile",
    "TemporalEdit",
    "mutation_from_dict",
    "MutationScript",
    "ScriptEntry",
    "run_script",
    "BroadcastServer",
    "ServerResult",
    "SpliceRequirement",
    "SpliceViolation",
    "check_splice",
    "critical_starts",
    "find_splice_slot",
    "splice_is_safe",
]
