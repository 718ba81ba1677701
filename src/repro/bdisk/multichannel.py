"""Multi-channel broadcast programs: ``k`` pinwheels aired in parallel.

The paper designs one fault-tolerant broadcast channel; production
broadcast-disk deployments stripe hot data over several parallel
channels and replicate critical items across them.  This module is the
design half of that generalization:

* :func:`resolve_assignment` turns an assignment policy (striped /
  replicated / explicit) into a concrete ``file -> channels`` map, using
  the partitioner registry (:mod:`repro.core.partition`) for stripes -
  the *partition* step of partition-then-solve multiprocessor pinwheel
  scheduling.
* :func:`design_multichannel_program` then solves each channel as an
  ordinary single-channel instance through the existing scheduler
  portfolio (the *solve* step), applies per-channel fault budgets, and
  harmonizes regular-model bandwidths so all channels share one slot
  clock.
* :class:`ChannelSet` packages the per-channel
  :class:`~repro.bdisk.program.BroadcastProgram` objects with the
  assignment map and the client-side runtime knobs (tuning cost, quorum
  size); every program reuses :class:`~repro.bdisk.index.ProgramIndex`
  unchanged, so all single-channel walkers and tables work per channel.

A one-channel set is the bit-identical degenerate case: channel 0 gets
the same files, budgets, bandwidth, and scheduler routing the
single-channel designer would use, so its program - and everything
downstream of it - is equal to the classic design.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, Sequence, TYPE_CHECKING

from repro import obs
from repro.errors import SpecificationError
from repro.bdisk.builder import (
    ProgramDesign,
    design_generalized_program,
    design_program,
)
from repro.bdisk.file import FileSpec, GeneralizedFileSpec
from repro.bdisk.program import BroadcastProgram
from repro.core.partition import partition_files

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.scenario import ChannelSpec

AnyFile = FileSpec | GeneralizedFileSpec


@dataclass(frozen=True)
class ChannelSet:
    """``k`` parallel broadcast programs plus the client-facing contract.

    Attributes
    ----------
    programs:
        One verified :class:`BroadcastProgram` per channel.
    assignment:
        File name -> sorted tuple of channel indices airing it.
    tuning_cost:
        Slots a client pays to re-tune to a different channel.
    quorum:
        Copies a versioned read must assemble with a consistent version.
    """

    programs: tuple[BroadcastProgram, ...]
    assignment: Mapping[str, tuple[int, ...]]
    tuning_cost: int = 0
    quorum: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "programs", tuple(self.programs))
        if not self.programs:
            raise SpecificationError(
                "a ChannelSet needs at least one channel program"
            )
        normalized = {
            name: tuple(sorted(ids))
            for name, ids in dict(self.assignment).items()
        }
        count = len(self.programs)
        for name, ids in normalized.items():
            if not ids:
                raise SpecificationError(
                    f"file {name!r} is assigned to no channel"
                )
            if ids[0] < 0 or ids[-1] >= count:
                raise SpecificationError(
                    f"file {name!r} is assigned to channel(s) "
                    f"{list(ids)}, but the set has {count}"
                )
            for channel in ids:
                if name not in self.programs[channel].files:
                    raise SpecificationError(
                        f"file {name!r} is assigned to channel "
                        f"{channel}, whose program does not carry it"
                    )
        object.__setattr__(self, "assignment", normalized)
        if self.tuning_cost < 0:
            raise SpecificationError(
                f"tuning_cost must be >= 0: {self.tuning_cost}"
            )
        if not 1 <= self.quorum <= count:
            raise SpecificationError(
                f"quorum must be in 1..{count}: {self.quorum}"
            )

    @property
    def count(self) -> int:
        """Number of channels ``k``."""
        return len(self.programs)

    def channels_for(self, file: str) -> tuple[int, ...]:
        """The channels airing ``file`` (sorted ascending)."""
        try:
            return self.assignment[file]
        except KeyError:
            known = ", ".join(sorted(self.assignment))
            raise SpecificationError(
                f"file {file!r} is not in the channel set "
                f"(files: {known})"
            ) from None

    def listen_start(self, start: int, tuned: int, channel: int) -> int:
        """The first slot a client tuned to ``tuned`` hears ``channel``.

        Re-tuning costs ``tuning_cost`` slots; staying costs nothing.
        """
        if channel == tuned:
            return start
        return start + self.tuning_cost

    def __getstate__(self) -> dict[str, Any]:
        # Mirror BroadcastProgram.__getstate__: plain field dict (the
        # programs drop their lazily built indexes themselves).
        return {
            "programs": self.programs,
            "assignment": dict(self.assignment),
            "tuning_cost": self.tuning_cost,
            "quorum": self.quorum,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)


@dataclass(frozen=True)
class MultiChannelDesign:
    """The outcome of a partition-then-solve multi-channel design.

    Attributes
    ----------
    channel_set:
        The aired programs plus runtime contract.
    designs:
        The per-channel single-channel :class:`ProgramDesign` records
        (scheduler reports, bandwidth plans, densities).
    partition:
        Per-channel tuples of file names, catalogue order - the
        partition step's provenance.
    assignment_policy:
        ``"striped"``, ``"replicated"``, or ``"explicit"``.
    partitioner:
        The registered partitioner used (``None`` unless striped).
    """

    channel_set: ChannelSet
    designs: tuple[ProgramDesign, ...]
    partition: tuple[tuple[str, ...], ...]
    assignment_policy: str = "explicit"
    partitioner: str | None = None

    @property
    def count(self) -> int:
        """Number of channels ``k``."""
        return len(self.designs)

    @property
    def densities(self) -> tuple[Fraction, ...]:
        """Per-channel scheduled densities (the utilization profile)."""
        return tuple(design.density for design in self.designs)

    def __str__(self) -> str:
        lines = [
            f"MultiChannelDesign(k={self.count}, "
            f"policy={self.assignment_policy}"
            + (f", partitioner={self.partitioner}" if self.partitioner else "")
            + f", tuning_cost={self.channel_set.tuning_cost}"
            f", quorum={self.channel_set.quorum})"
        ]
        for channel, design in enumerate(self.designs):
            files = ", ".join(self.partition[channel])
            lines.append(f"  channel {channel} [{files}]: {design}")
        return "\n".join(lines)


def resolve_assignment(
    files: Sequence[AnyFile], spec: "ChannelSpec"
) -> dict[str, tuple[int, ...]]:
    """File name -> sorted channel indices under ``spec``'s policy.

    The single source of truth shared by the design step and
    :meth:`repro.api.Scenario.channel_assignment` - the two must never
    disagree, or cached designs would stop matching their scenarios.
    """
    if spec.explicit is not None:
        return {file.name: tuple(spec.explicit[file.name]) for file in files}
    if spec.assignment == "replicated":
        everywhere = tuple(range(spec.count))
        return {file.name: everywhere for file in files}
    bins = partition_files(files, spec.count, partitioner=spec.partitioner)
    assignment: dict[str, tuple[int, ...]] = {}
    for channel, bin_ in enumerate(bins):
        for idx in bin_:
            assignment[files[idx].name] = (channel,)
    return assignment


def _budgeted(spec: AnyFile, extra: int) -> AnyFile:
    """``spec`` with ``extra`` per-channel fault budget folded in."""
    if extra == 0:
        return spec
    if isinstance(spec, GeneralizedFileSpec):
        raise SpecificationError(
            f"file {spec.name!r}: per-channel fault budgets apply to "
            f"regular files only"
        )
    return FileSpec(
        spec.name,
        spec.blocks,
        spec.latency,
        fault_budget=spec.fault_budget + extra,
        data=spec.data,
    )


def design_multichannel_program(
    files: Sequence[AnyFile],
    spec: "ChannelSpec",
    *,
    bandwidth: int | None = None,
    policy: str | Sequence[str] = "auto",
) -> MultiChannelDesign:
    """Design ``spec.count`` parallel channels for ``files``.

    Partition-then-solve: resolve the assignment policy, then design
    every channel through the ordinary single-channel pipeline (so each
    channel gets the full scheduler portfolio, including exact-first
    fallbacks, under ``policy``).  Per-channel ``fault_budgets`` add
    redundant blocks to the regular files a channel carries before its
    solve.  Channels with the same files, extra budget and forced
    bandwidth are solved once and share the design.

    Regular-model channels designed without a forced ``bandwidth`` may
    choose different Equation 1/2 bounds; since clients hop between
    channels on one slot clock, lagging channels are re-designed at the
    set-wide maximum (extra bandwidth never hurts feasibility).  With
    ``k=1`` no harmonization happens and the sole channel's design is
    exactly the single-channel one.
    """
    files = tuple(files)
    if not files:
        raise SpecificationError("at least one file is required")
    generalized = isinstance(files[0], GeneralizedFileSpec)
    assignment = resolve_assignment(files, spec)
    partition = tuple(
        tuple(
            file.name
            for file in files
            if channel in assignment[file.name]
        )
        for channel in range(spec.count)
    )
    for channel, names in enumerate(partition):
        if not names:
            raise SpecificationError(
                f"channel {channel} carries no files under "
                f"{spec.assignment!r} assignment"
            )

    # Channels that carry the same files with the same extra budget at
    # the same forced bandwidth - every channel of a replicated set
    # without per-channel budgets - share one solve: one ProgramDesign,
    # one program, one index.
    solved: dict[tuple, ProgramDesign] = {}

    def _solve(channel: int, forced: int | None) -> ProgramDesign:
        extra = spec.budget_for(channel)
        key = (partition[channel], extra, forced)
        design = solved.get(key)
        if design is not None:
            return design
        channel_files = [
            _budgeted(file, extra)
            for file in files
            if channel in assignment[file.name]
        ]
        obs.inc("design.channel.solves", channel=channel)
        if generalized:
            design = design_generalized_program(channel_files, policy=policy)
        else:
            design = design_program(
                channel_files, bandwidth=forced, policy=policy
            )
        solved[key] = design
        return design

    with obs.span(
        "design.multichannel",
        channels=spec.count,
        assignment=spec.assignment,
    ):
        designs = [
            _solve(channel, bandwidth) for channel in range(spec.count)
        ]
        if not generalized and bandwidth is None and spec.count > 1:
            chosen = [
                design.bandwidth_plan.bandwidth for design in designs
            ]
            peak = max(chosen)
            designs = [
                design
                if chosen[channel] == peak
                else _solve(channel, peak)
                for channel, design in enumerate(designs)
            ]
    channel_set = ChannelSet(
        programs=tuple(design.program for design in designs),
        assignment=assignment,
        tuning_cost=spec.tuning_cost,
        quorum=spec.quorum,
    )
    return MultiChannelDesign(
        channel_set=channel_set,
        designs=tuple(designs),
        partition=partition,
        assignment_policy=spec.assignment,
        partitioner=(
            spec.partitioner if spec.assignment == "striped" else None
        ),
    )
