"""Cohort batching and retrieval tables for the vectorized engine.

The structure-of-arrays engine (:mod:`repro.traffic.engine_soa`) never
visits one client at a time: it advances whole *cohorts* - every client
with requests left, each at its own next slot - per numpy batch.
This module provides the batching primitives and the precomputed
retrieval tables the engine resolves requests against:

* :func:`cohort_waves` - the wave iterator over the population's
  request budgets;
* :class:`RetrievalTables` - the per-``(file, phase)`` fault-free
  retrieval lookup derived from :class:`~repro.bdisk.program_index.ProgramIndex`:
  flat occurrence arrays plus, per occurrence, the slot at which a
  retrieval starting there collects its ``m``-th distinct block.  The
  arrays are flat ``int64``, so pooled runs ship them to workers as a
  plain pickle;
* vectorized mirrors of the scalar arrival / popularity / think-time
  draws, bit-identical to :mod:`repro.traffic.arrivals` by construction
  (same uniforms, same float expressions).

Everything here requires numpy; the object engine never imports this
module.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.errors import SpecificationError
from repro.bdisk.program import BroadcastProgram
from repro.sim.client import listen_horizon
from repro.traffic.arrivals import think_quantiles
from repro.traffic.spec import TrafficSpec
from repro.traffic.substreams import TAG_ARRIVAL, uniform_matrix

#: Ceiling (in entries) on the dense ``(file, phase) -> latency`` table;
#: programs with a bigger ``files x data-cycle`` product fall back to
#: per-file searchsorted lookups, which are O(log occurrences) instead
#: of O(1) but never materialize the product.
DENSE_LUT_CAP = 1 << 22


class RetrievalTables:
    """Fault-free retrieval outcomes for every ``(file, phase)``.

    Flat numpy arrays over a catalogue of ``n`` files (ids are catalogue
    positions):

    ``occ_offsets``
        ``(n + 1,)`` - slices of the concatenated occurrence arrays.
    ``occ_slots`` / ``occ_blocks``
        concatenated per-file occurrence slot / block-index arrays (one
        data cycle, slot-sorted - exactly ``ProgramIndex``'s tables).
    ``finish_rel``
        aligned with ``occ_slots``: for occurrence ``j`` of a file, the
        slot (relative to that occurrence's cycle base) at which a
        retrieval beginning at occurrence ``j`` collects its ``m``-th
        distinct block; ``-1`` when the file's occurrence set never
        yields ``m`` distinct blocks (the index's cached
        :meth:`~repro.bdisk.program_index.ProgramIndex.finish_table`).
    ``horizons`` / ``m_needed`` / ``counts``
        per-file listening horizon, blocks required, occurrences per
        data cycle.
    ``sched_total`` + ``period``
        the schedule-level quantities PIX frequencies derive from.

    The tables are a pure function of ``(program, catalogue, sizes,
    max_slots)`` and hold nothing but flat arrays, so a pool worker
    receives them pickled and never touches the program or its index.
    """

    __slots__ = (
        "cycle", "period", "occ_offsets", "occ_slots", "occ_blocks",
        "finish_rel", "horizons", "m_needed", "counts", "sched_total",
        "_dense",
    )

    def __init__(
        self,
        *,
        cycle: int,
        period: int,
        occ_offsets: np.ndarray,
        occ_slots: np.ndarray,
        occ_blocks: np.ndarray,
        finish_rel: np.ndarray,
        horizons: np.ndarray,
        m_needed: np.ndarray,
        counts: np.ndarray,
        sched_total: np.ndarray,
    ) -> None:
        self.cycle = int(cycle)
        self.period = int(period)
        self.occ_offsets = occ_offsets
        self.occ_slots = occ_slots
        self.occ_blocks = occ_blocks
        self.finish_rel = finish_rel
        self.horizons = horizons
        self.m_needed = m_needed
        self.counts = counts
        self.sched_total = sched_total
        self._dense: np.ndarray | None = None

    @property
    def n_files(self) -> int:
        return len(self.horizons)

    @property
    def dense(self) -> np.ndarray | None:
        """The O(1) gather form: ``dense[file, phase] -> latency``
        (``-1`` for an abort), horizon already applied; built on first
        use, so populations that only resolve walks (single-channel
        temporal ones) never pay for it, and ``None`` past
        :data:`DENSE_LUT_CAP`."""
        if self._dense is None and self.n_files * self.cycle <= DENSE_LUT_CAP:
            phases = np.arange(self.cycle, dtype=np.int64)
            dense = np.empty((self.n_files, self.cycle), dtype=np.int64)
            for fid in range(self.n_files):
                dense[fid] = self._latency_for_file(fid, phases)
            self._dense = dense
        return self._dense

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        program: BroadcastProgram,
        catalogue: Sequence[str],
        file_sizes: Mapping[str, int],
        max_slots: int | None,
    ) -> "RetrievalTables":
        """Derive the tables from a program's occurrence index."""
        index = program.index
        cycle = index.data_cycle_length
        offsets = [0]
        all_slots: list[int] = []
        all_blocks: list[int] = []
        finish: list[int] = []
        horizons: list[int] = []
        m_needed: list[int] = []
        counts: list[int] = []
        sched_total: list[int] = []
        for file in catalogue:
            slots = index.occurrence_slots(file)
            blocks = index.occurrence_blocks(file)
            size = file_sizes[file]
            all_slots.extend(slots)
            all_blocks.extend(blocks)
            offsets.append(len(all_slots))
            finish.extend(index.finish_table(file, size))
            horizons.append(listen_horizon(program, size, max_slots))
            m_needed.append(size)
            counts.append(len(slots))
            sched_total.append(program.schedule.total(file))
        return cls(
            cycle=cycle,
            period=program.broadcast_period,
            occ_offsets=np.asarray(offsets, dtype=np.int64),
            occ_slots=np.asarray(all_slots, dtype=np.int64),
            occ_blocks=np.asarray(all_blocks, dtype=np.int64),
            finish_rel=np.asarray(finish, dtype=np.int64),
            horizons=np.asarray(horizons, dtype=np.int64),
            m_needed=np.asarray(m_needed, dtype=np.int64),
            counts=np.asarray(counts, dtype=np.int64),
            sched_total=np.asarray(sched_total, dtype=np.int64),
        )

    def _latency_for_file(
        self, fid: int, phases: np.ndarray
    ) -> np.ndarray:
        """Fault-free latency per phase for one file (``-1`` = abort)."""
        lo, hi = self.occ_offsets[fid], self.occ_offsets[fid + 1]
        slots = self.occ_slots[lo:hi]
        finish = self.finish_rel[lo:hi]
        j = np.searchsorted(slots, phases, side="left")
        wrapped = j == len(slots)
        j = np.where(wrapped, 0, j)
        extra = np.where(wrapped, self.cycle, 0)
        fin = finish[j]
        latency = extra + fin - phases + 1
        abort = (fin < 0) | (latency > self.horizons[fid])
        return np.where(abort, -1, latency)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(
        self, file_ids: np.ndarray, starts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fault-free outcomes for a batch of ``(file, start)`` requests.

        Returns ``(latency, finish)``: ``latency`` is ``-1`` on an abort
        (horizon exhausted); ``finish`` is the last slot listened to
        either way - ``start + latency - 1`` on completion, ``start +
        horizon - 1`` on an abort.  Bit-identical to
        :func:`repro.sim.client.retrieve` over the fault-free channel
        (pinned by ``tests/traffic/test_engine_soa.py``).
        """
        phases = starts % self.cycle
        dense = self.dense
        if dense is not None:
            latency = dense[file_ids, phases]
        else:
            latency = np.empty(len(file_ids), dtype=np.int64)
            for fid in np.unique(file_ids):
                member = file_ids == fid
                latency[member] = self._latency_for_file(
                    int(fid), phases[member]
                )
        aborted = latency < 0
        finish = np.where(
            aborted,
            starts + self.horizons[file_ids] - 1,
            starts + latency - 1,
        )
        return latency, finish


class MultiChannelTables:
    """Per-channel retrieval tables plus the channel-choice rule.

    One :class:`RetrievalTables` per channel, each built over the
    *channel-local* catalogue (the files that channel carries, in global
    catalogue order), with a ``(channels, files)`` local-id map joining
    global file ids to per-channel table rows (``-1`` where a channel
    does not carry the file).  :meth:`choose` is the deterministic
    choice rule of :func:`repro.sim.client.best_channel` over a whole
    batch, scored from the fault-free tables; both the multichannel
    wave step and every copy step of a quorum read use it, so the
    vectorized engine is bit-identical to the object engine's oracles.

    Like :class:`RetrievalTables`, the whole structure is a pure
    function of ``(channel_set, catalogue, sizes, max_slots)`` that
    pickles without the programs themselves.
    """

    __slots__ = ("tables", "candidates", "tuning_cost", "local_ids")

    def __init__(
        self,
        tables: Sequence[RetrievalTables],
        candidates: Sequence[Sequence[int]],
        tuning_cost: int,
    ) -> None:
        self.tables = tuple(tables)
        self.candidates = tuple(
            tuple(int(c) for c in channels) for channels in candidates
        )
        self.tuning_cost = int(tuning_cost)
        # Channel-local catalogues preserve global order, so local ids
        # are the running rank of each file among a channel's carries.
        local_ids = np.full(
            (len(self.tables), len(self.candidates)), -1, dtype=np.int64
        )
        next_local = [0] * len(self.tables)
        for fid, channels in enumerate(self.candidates):
            for channel in channels:
                local_ids[channel, fid] = next_local[channel]
                next_local[channel] += 1
        self.local_ids = local_ids

    @property
    def count(self) -> int:
        return len(self.tables)

    @classmethod
    def build(
        cls,
        channel_set,  # ChannelSet (kept untyped: bdisk must not need numpy)
        catalogue: Sequence[str],
        file_sizes: Mapping[str, int],
        max_slots: int | None,
    ) -> "MultiChannelTables":
        """Derive per-channel tables from a channel set's programs."""
        candidates = [
            channel_set.channels_for(file) for file in catalogue
        ]
        # Channels airing one program object over one local catalogue
        # (a replicated set's) share one read-only table.
        built: dict[tuple, RetrievalTables] = {}
        tables = []
        for channel, program in enumerate(channel_set.programs):
            local = tuple(
                file
                for file, channels in zip(catalogue, candidates)
                if channel in channels
            )
            key = (id(program), local)
            if key not in built:
                built[key] = RetrievalTables.build(
                    program, local, file_sizes, max_slots
                )
            tables.append(built[key])
        return cls(tables, candidates, channel_set.tuning_cost)

    def choose(
        self,
        file_ids: np.ndarray,
        starts: np.ndarray,
        tuned: np.ndarray,
        among: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The channel-choice rule: ``(channel, listen, latency, finish)``
        per request.

        Request ``i`` considers the channels carrying ``file_ids[i]``,
        or only those set in row ``i`` of the ``(requests, channels)``
        mask ``among``, and listens from ``starts[i]`` plus the tuning
        cost on any channel but ``tuned[i]``.  Fault-free lookups only
        (faults never steer tuning); ``latency`` is ``-1`` when even
        the best channel aborts, and ``finish`` is the slot the client
        is busy until either way.  Channels are scanned in index order
        and one replaces the best so far only on a strictly smaller
        ``(aborted, busy-until)``, so ties keep the lower channel,
        exactly like :func:`repro.sim.client.best_channel`.
        """
        n = len(file_ids)
        channel = np.full(n, -1, dtype=np.int64)
        listen = np.zeros(n, dtype=np.int64)
        latency = np.zeros(n, dtype=np.int64)
        finish = np.zeros(n, dtype=np.int64)
        for candidate, table in enumerate(self.tables):
            local = self.local_ids[candidate, file_ids]
            rows = np.flatnonzero(
                local >= 0 if among is None else among[:, candidate]
            )
            if not rows.size:
                continue
            at = starts[rows] + np.where(
                tuned[rows] == candidate, 0, self.tuning_cost
            )
            got, busy = table.lookup(local[rows], at)
            aborted = got < 0
            best_aborted = latency[rows] < 0
            better = (
                (channel[rows] < 0)
                | (best_aborted & ~aborted)
                | ((best_aborted == aborted) & (busy < finish[rows]))
            )
            rows = rows[better]
            channel[rows] = candidate
            listen[rows] = at[better]
            latency[rows] = got[better]
            finish[rows] = busy[better]
        return channel, listen, latency, finish


def cohort_waves(remaining: np.ndarray) -> Iterator[np.ndarray]:
    """Yield cohorts: index arrays of every client with requests left.

    The caller owns ``remaining`` and decrements the served clients'
    budgets between waves; the iterator re-reads it each round, so a
    wave serves each live client's next request wherever its slot lies.
    Event *order across clients is irrelevant* because clients are
    independent and the metrics accumulators are order-independent -
    that is the whole trick.
    """
    while True:
        members = np.flatnonzero(remaining > 0)
        if members.size == 0:
            return
        yield members


# ----------------------------------------------------------------------
# Vectorized mirrors of the scalar per-client draws
# ----------------------------------------------------------------------


def arrival_vector(spec: TrafficSpec, lo: int, hi: int) -> np.ndarray:
    """Arrival slots of clients ``[lo, hi)`` - the vectorized
    :func:`repro.traffic.arrivals.arrival_slot`, bit-identical by
    construction (same uniforms, same float expressions)."""
    indices = np.arange(lo, hi, dtype=np.int64)
    if spec.arrival == "deterministic":
        return indices * spec.duration // spec.clients
    if spec.arrival == "poisson":
        u = uniform_matrix(spec.seed, TAG_ARRIVAL, lo, hi, 1)[:, 0]
        return (u * spec.duration).astype(np.int64)
    u = uniform_matrix(spec.seed, TAG_ARRIVAL, lo, hi, 2)
    burst = np.minimum(
        spec.bursts - 1, (u[:, 0] * spec.bursts).astype(np.int64)
    )
    centre = (burst + 0.5) * spec.duration / spec.bursts
    offset = (u[:, 1] - 0.5) * spec.burst_width
    raw = (centre + offset).astype(np.int64)  # trunc toward zero = int()
    return np.minimum(spec.duration - 1, np.maximum(0, raw))


def file_draw(
    cum_weights: np.ndarray, total: float, u: np.ndarray
) -> np.ndarray:
    """Popularity picks from uniforms - the vectorized
    ``choices(cum_weights=...)`` draw (bisect on the running totals)."""
    picks = np.searchsorted(cum_weights, u * total, side="right")
    return np.minimum(picks, len(cum_weights) - 1)


class ThinkSampler:
    """Vectorized think-time draws matching
    :func:`repro.traffic.arrivals.think_slots` bit-for-bit."""

    __slots__ = ("_mean", "_table")

    def __init__(self, mean: int) -> None:
        if mean < 0:
            raise SpecificationError(
                f"mean think time must be >= 0: {mean}"
            )
        self._mean = mean
        self._table = (
            None if mean == 0 else think_quantiles(mean)
        )
        if self._table is not None:
            self._table = np.asarray(self._table, dtype=np.float64)

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Think times for a batch of uniforms."""
        if self._mean == 0:
            return np.zeros(len(u), dtype=np.int64)
        if self._table is None:
            # Huge means fall back to the closed form; evaluated with
            # math.log exactly like the scalar path (numpy's log can
            # differ in the last ulp, which would break bit-identity).
            import math

            return np.asarray(
                [int(-self._mean * math.log(1.0 - x)) for x in u],
                dtype=np.int64,
            )
        return np.searchsorted(self._table, u, side="right").astype(
            np.int64
        )
