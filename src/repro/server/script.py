"""Scripted mutation timelines: JSON in, a full server run out.

A timeline is a JSON list of ``{"at_slot": N, "mutation": {...}}``
entries - the ``repro server scenario.json --script mutations.json``
format.  :class:`MutationScript` parses and validates it eagerly through
the declared fields of its entries and mutations (:mod:`repro.fields`):
unknown mutation kinds, wrong-typed or missing fields and negative slots
fail before anything airs, naming the entry and field
(``mutations[1].mutation.update_period must be an integer``).  A
mutation that cannot apply to the scenario airing at its slot - a
``temporal_edit`` on a catalogue without temporal items, a file added
twice, a temporal item or file whose shape the airing scenario rejects
- fails before anything airs too: :func:`run_script` applies every
entry at the spec level first, then stands a
:class:`~repro.server.server.BroadcastServer` up, drives it through the
entries, and returns the :class:`~repro.server.server.ServerResult`.

Determinism note: a run is the ``advance(until=at_slot);
apply(mutation)`` loop over the entries, so the mutation at slot ``t``
is applied after every client event at or before ``t`` - issues and
finishes alike - and a scripted run equals the same loop driven by
hand.  A read issued at ``t`` is therefore in flight when the mutation
lands, and is re-walked if it reaches the splice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.errors import SpecificationError
from repro.fields import Int, ListOf, Spec, check_fields, check_int, spec_field
from repro.api.scenario import Scenario
from repro.sweep.cache import SolveCache
from repro.server.asrun import ASRUN_WINDOW
from repro.server.mutations import MUTATION, Mutation
from repro.server.server import BroadcastServer, ServerResult, successor


@dataclass(frozen=True)
class ScriptEntry(Spec):
    """One timeline entry: apply ``mutation`` at slot ``at_slot``."""

    at_slot: int = spec_field(Int(0))
    mutation: Mutation = spec_field(MUTATION)


@dataclass(frozen=True)
class MutationScript(Spec):
    """A validated, slot-ordered mutation timeline."""

    entries: tuple[ScriptEntry, ...] = spec_field(
        ListOf(ScriptEntry), default=(), key="mutations"
    )

    def __post_init__(self) -> None:
        check_fields(self)
        slots = [entry.at_slot for entry in self.entries]
        if slots != sorted(slots):
            raise SpecificationError(
                f"script entries must be in slot order, got {slots}"
            )

    @classmethod
    def from_payload(cls, payload: Any) -> "MutationScript":
        """Build from a parsed JSON timeline: a list of entries, or a
        ``{"mutations": [...]}`` envelope around one."""
        if not isinstance(payload, Mapping):
            payload = {"mutations": payload}
        return cls.from_dict(payload)

    @classmethod
    def from_file(cls, path: str | Path) -> "MutationScript":
        """Parse a timeline JSON file."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as error:
            raise SpecificationError(
                f"cannot read mutation script {path}: {error}"
            ) from error
        except json.JSONDecodeError as error:
            raise SpecificationError(
                f"mutation script {path} is not valid JSON: {error}"
            ) from error
        return cls.from_payload(payload)

    def to_payload(self) -> list[dict[str, Any]]:
        """The JSON timeline this script round-trips to."""
        return self.to_dict()["mutations"]

    def __len__(self) -> int:
        return len(self.entries)


def run_script(
    scenario: Scenario,
    script: MutationScript,
    *,
    cache: SolveCache | None = None,
    log_path: str | Path | None = None,
    until: int | None = None,
    window: int = ASRUN_WINDOW,
    max_boundaries: int = 64,
) -> ServerResult:
    """Run ``scenario`` through the online server under ``script``.

    Every entry the run will reach (``at_slot <= until`` when ``until``
    is given) is first applied at the spec level, in slot order
    (:func:`~repro.server.server.successor`): one that cannot apply
    raises :class:`~repro.errors.SpecificationError` naming
    ``mutations[i]`` before the server signs on, so nothing airs and no
    log is written.  Then the server serves every client up to each
    entry's slot and applies the entry there, serves the rest (up to
    ``until``, or to the last request), and signs off.  The returned
    :class:`~repro.server.server.ServerResult` carries per-epoch
    metrics, mutation provenance, splice slots, and the solve-cache
    counters.  A negative or non-integer ``until`` is rejected before
    anything airs too.
    """
    if until is not None:
        check_int(until, "until", minimum=0)
    airing = scenario
    for index, entry in enumerate(script.entries):
        if until is not None and entry.at_slot > until:
            break
        try:
            airing = successor(airing, entry.mutation)
        except SpecificationError as error:
            raise SpecificationError(f"mutations[{index}]: {error}") from None
    server = BroadcastServer(
        scenario,
        cache=cache,
        log_path=log_path,
        window=window,
        max_boundaries=max_boundaries,
    )
    for entry in script.entries:
        if until is not None and entry.at_slot > until:
            break
        server.advance(until=entry.at_slot)
        server.apply(entry.mutation)
    server.advance(until=until)
    return server.close()
