"""The vectorized structure-of-arrays traffic engine.

:func:`simulate_shard_soa` is a drop-in replacement for the object
engine's shard runner (``repro.traffic.simulate._simulate_shard``):
same inputs, same :class:`~repro.traffic.metrics.TrafficMetrics` out,
bit-identical - but client state lives in flat numpy arrays (next-event
slot, remaining requests) instead of loop locals, and whole *cohorts*
advance per batch instead of one client's request at a time.

One cohort loop serves every population kind.  It owns what the kinds
share: uniforms pre-drawn from the counter-based substreams
(:func:`repro.traffic.substreams.uniform_matrix` - request ``r`` of
client ``i`` reads a fixed matrix cell, exactly the draw the object
engine's client loop makes), each wave member's pick and think time, and
recording through :meth:`TrafficMetrics.record_many` - the accumulator
is order-independent, which is what makes any-order batch accumulation
legal.  Each kind adds only its per-block state and a wave step:

* :class:`_SingleChannel` - fault-free table lookups or the batched
  :class:`_FaultResolver`, behind :class:`_VectorCache` client rows;
* :class:`_MultiChannel` - the fault-free channel choice, then each
  faulty channel's resolver;
* :class:`_Temporal` - item position ``p`` of every member's
  transaction as one batch: versioned reads through the resolver's
  versioned mode, and quorum reads as at most k copy steps of the
  array channel choice plus one resolve per chosen channel.

Every faulty path of every kind decides its losses in the resolver, one
:func:`~repro.sim.faults.lost_in` call per round: the raw int64 array of
queried slots in, a bool array out.

The equivalence is pinned by ``tests/traffic/test_engine_soa.py``:
per-shard metrics equal the object engine's field for field across
arrival x popularity x cache x fault-model grids and random temporal
and quorum populations.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.bdisk.multichannel import ChannelSet
from repro.bdisk.program import BroadcastProgram
from repro.errors import SimulationError
from repro.obs import telemetry as obs
from repro.rtdb.spec import TemporalSpec
from repro.rtdb.updates import versioned_listen_horizon
from repro.sim.faults import FaultModel, NoFaults, lost_in
from repro.traffic.arrivals import popularity_cdf, popularity_weights
from repro.traffic.cohorts import (
    MultiChannelTables,
    RetrievalTables,
    ThinkSampler,
    arrival_vector,
    cohort_waves,
    file_draw,
)
from repro.traffic.metrics import TrafficMetrics
from repro.traffic.simulate import (
    RequestRecord,
    _build_fault_model,
    _channel_fault_models,
    _popularity,
    _record_shard_metrics,
    _temporal_mix,
)
from repro.traffic.spec import TrafficSpec
from repro.traffic.substreams import TAG_CLIENT, uniform_matrix

#: Uniform draws budgeted per client block (bounds peak memory).
_BLOCK_BUDGET = 1 << 22
_BLOCK_MIN = 4096
_BLOCK_MAX = 1 << 20
#: Faulty channels bound the per-round ``lost_in`` batch (and the
#: resolver's candidate matrices) with a smaller block.
_BLOCK_FAULTY = 1 << 16

#: Candidate occurrences per member in the resolver's first round; each
#: later round doubles the width up to ``_FAULT_CHUNK``.  Most requests
#: finish within a few candidates, so narrow early rounds gather and
#: decide little beyond what is heard.
_FAULT_FIRST = 4
_FAULT_CHUNK = 64


def _block_size(clients: int, per_client: int, faulty: bool) -> int:
    """Clients per processing block, sized to the draw budget."""
    block = max(
        1,
        min(
            clients,
            _BLOCK_MAX,
            max(_BLOCK_MIN, _BLOCK_BUDGET // max(1, per_client)),
        ),
    )
    if faulty:
        block = min(block, _BLOCK_FAULTY)
    return block


def _lexical_rank(catalogue: Sequence[str]) -> np.ndarray:
    """``rank[fid]`` = position of the file's name in sorted order."""
    order = sorted(range(len(catalogue)), key=lambda i: catalogue[i])
    rank = np.empty(len(catalogue), dtype=np.int64)
    for position, fid in enumerate(order):
        rank[fid] = position
    return rank


def _pix_rank(
    catalogue: Sequence[str],
    weights: Sequence[float],
    tables: RetrievalTables,
) -> np.ndarray:
    """``rank[fid]`` = the file's position in PIX eviction order.

    Reproduces ``PixCache.for_program`` + ``PixCache.victim`` exactly:
    frequency is ``schedule total / max(1, size) / period`` (that float
    expression order), the score is ``probability / frequency``, and
    ties break on the name.  The score order is static, so the whole
    policy collapses to one precomputed rank per file.
    """
    n = len(catalogue)
    totals = tables.sched_total.tolist()
    sizes = tables.m_needed.tolist()
    scores = [
        weights[i] / (totals[i] / max(1, sizes[i]) / tables.period)
        for i in range(n)
    ]
    order = sorted(range(n), key=lambda i: (scores[i], catalogue[i]))
    rank = np.empty(n, dtype=np.int64)
    for position, fid in enumerate(order):
        rank[fid] = position
    return rank


class _FaultResolver:
    """Batched retrievals over a stochastic channel.

    Each round materializes the next candidate occurrences of every
    unresolved member (broadcasting over the tables' flat occurrence
    arrays), decides every queried slot in one ``lost_in`` call - the
    raw int64 slot array, duplicates included (a model that decides
    slot by slot dedupes them itself), answered with a bool array - and
    resolves every member with array operations alone: held blocks are
    ``uint64`` bitset words, a running OR along the candidates marks
    each surviving occurrence that adds a new block, and the first
    candidate whose running distinct count reaches ``m`` is the finish -
    exactly the occurrence walk :func:`repro.sim.client.retrieve`
    performs.  Members still short of ``m`` carry their bitset and count
    into the next, wider round.  Decisions are deterministic per
    ``(seed, slot)``, so neither query batching nor round width can
    change an outcome.  A clean channel (``None`` or :class:`NoFaults`)
    hears every candidate and decides nothing.

    :meth:`resolve_versioned` walks the same rounds for
    :func:`repro.rtdb.updates.retrieve_versioned`: a member stops its
    round at the first *heard* candidate of another version
    (``slot // period``) than the blocks it holds, counts those blocks
    as torn and restarts holding that candidate's block alone, so each
    round still moves it past at least one occurrence.
    """

    __slots__ = ("_tables", "_model", "_keys", "_words")

    def __init__(
        self, tables: RetrievalTables, model: FaultModel | None
    ) -> None:
        self._tables = tables
        self._model = None if isinstance(model, NoFaults) else model
        # Composite keys ``file * cycle + slot`` are globally sorted
        # (files in id order, each file's slots sorted inside one
        # cycle), so one searchsorted finds every member's first
        # candidate.
        files = np.repeat(
            np.arange(tables.n_files, dtype=np.int64), tables.counts
        )
        self._keys = files * tables.cycle + tables.occ_slots
        self._words = int(tables.occ_blocks.max(initial=0)) // 64 + 1

    def resolve(
        self, file_ids: np.ndarray, starts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(latency, finish)`` per request; latency ``-1`` on abort."""
        latency, finish, _, _ = self._walk(
            file_ids, starts, self._tables.horizons[file_ids], None
        )
        return latency, finish

    def resolve_versioned(
        self,
        file_ids: np.ndarray,
        starts: np.ndarray,
        horizons: np.ndarray,
        periods: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(latency, finish, version, torn)`` per versioned request.

        Request ``i`` listens ``horizons[i]`` slots to an item updated
        every ``periods[i]`` slots.  ``version`` is the version held at
        the end (``-1`` if nothing was heard) and ``torn`` the blocks
        discarded to newer versions, as in
        :func:`repro.rtdb.updates.retrieve_versioned`.
        """
        return self._walk(file_ids, starts, horizons, periods)

    def _walk(
        self,
        file_ids: np.ndarray,
        starts: np.ndarray,
        horizons: np.ndarray,
        periods: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, Any, Any]:
        t = self._tables
        cycle = t.cycle
        m = len(file_ids)
        end = starts + horizons
        latency = np.full(m, -1, dtype=np.int64)
        finish = end - 1  # the abort default
        need = np.maximum(1, t.m_needed[file_ids])
        count = t.counts[file_ids]
        offset = t.occ_offsets[file_ids]
        version = torn = None
        if periods is not None:
            version = np.full(m, -1, dtype=np.int64)
            torn = np.zeros(m, dtype=np.int64)

        # Occurrence pointer: candidate k of member i is occurrence
        # g[i] + k of its file, counted from the base of the start's
        # cycle copy (divmod recovers cycle copy + index within).
        quotient, phase = np.divmod(starts, cycle)
        base = quotient * cycle
        g = np.searchsorted(self._keys, file_ids * cycle + phase) - offset

        held = np.zeros((m, self._words), dtype=np.uint64)
        have = np.zeros(m, dtype=np.int64)
        word_ids = np.arange(self._words, dtype=np.int64)
        idx = np.arange(m)
        width = _FAULT_FIRST
        while idx.size:
            ks = np.arange(width, dtype=np.int64)
            candidates = g[idx, None] + ks
            copies, within = np.divmod(candidates, count[idx, None])
            flat = offset[idx, None] + within
            slots = base[idx, None] + copies * cycle + t.occ_slots[flat]
            valid = slots < end[idx, None]
            heard = valid.copy()
            if self._model is not None and valid.any():
                heard[valid] = ~lost_in(self._model, slots[valid])
            if version is not None:
                # The version a row holds this round: its held blocks',
                # else that of the first candidate it hears.  The round
                # stops at the first heard candidate of another one.
                epochs = slots // periods[idx, None]
                rows = np.arange(len(idx))
                current = np.where(
                    have[idx] > 0,
                    version[idx],
                    epochs[rows, heard.argmax(axis=1)],
                )
                changed = heard & (epochs != current[:, None])
                cut = np.where(
                    changed.any(axis=1), changed.argmax(axis=1), width
                )
                heard_any = heard.any(axis=1)
                heard &= ks < cut[:, None]
            blocks = t.occ_blocks[flat, None]
            # Column 0 carries the held bitset; column k + 1 is the bit
            # candidate k adds if heard.  A candidate adds a new block
            # exactly when the running OR changes at its column.
            bits = np.empty((len(idx), width + 1, self._words), np.uint64)
            bits[:, 0] = held[idx]
            on = heard[..., None] & (word_ids == blocks >> 6)
            bits[:, 1:] = on.astype(np.uint64) << (blocks & 63).astype(
                np.uint64
            )
            prefix = np.bitwise_or.accumulate(bits, axis=1)
            new = (prefix[:, 1:] != prefix[:, :-1]).any(axis=2)
            total = np.cumsum(new, axis=1) + have[idx, None]
            reached = total >= need[idx, None]
            done = reached.any(axis=1)
            finished = idx[done]
            finish[finished] = slots[done, reached[done].argmax(axis=1)]
            latency[finished] = finish[finished] - starts[finished] + 1
            # Rows whose last candidate lies past the horizon keep the
            # abort defaults; the rest carry their state forward.
            carry = ~done & valid[:, -1]
            advance = carry
            if version is not None:
                version[idx[heard_any]] = current[heard_any]
                # A row cut short discards what it held and restarts
                # holding the cut candidate's block (it cannot finish
                # there: a row holding anything needs two or more).
                restart = ~done & (cut < width)
                rows, at, over = rows[restart], cut[restart], idx[restart]
                torn[over] += total[restart, -1]
                version[over] = epochs[rows, at]
                block = t.occ_blocks[flat[rows, at], None]
                held[over] = (word_ids == block >> 6).astype(
                    np.uint64
                ) << (block & 63).astype(np.uint64)
                have[over] = 1
                g[over] += at + 1
                advance = carry & ~restart
                carry = carry | restart
            moved = idx[advance]
            held[moved] = prefix[advance, -1]
            have[moved] = total[advance, -1]
            g[moved] += width
            idx = idx[carry]
            width = min(2 * width, _FAULT_CHUNK)
        return latency, finish, version, torn


class _VectorCache:
    """Per-client file caches as matrix rows.

    ``resident[i, c]`` holds a file id (or ``-1``); ``last_use[i, c]``
    the LRU clock.  Victim selection reproduces the scalar policies'
    ``min(resident, key=...)`` exactly: LRU's key ``(last_use, name)``
    becomes ``last_use * n + name_rank`` (a strictly order-preserving
    collapse - ``name_rank < n``), PIX's static ``(score, name)`` order
    is the precomputed ``victim_rank``.  As in the scalar
    ``CachingClient``: the policy sees the access *before* the hit
    check, only completed retrievals insert, and eviction happens only
    on insertion into a full row.
    """

    __slots__ = (
        "resident", "last_use", "lru", "victim_rank", "n_files",
        "hits", "misses", "evictions",
    )

    def __init__(
        self,
        clients: int,
        capacity: int,
        lru: bool,
        victim_rank: np.ndarray,
        n_files: int,
    ) -> None:
        self.resident = np.full((clients, capacity), -1, dtype=np.int64)
        self.last_use = (
            np.zeros((clients, capacity), dtype=np.int64) if lru else None
        )
        self.lru = lru
        self.victim_rank = victim_rank
        self.n_files = n_files
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def access(
        self,
        members: np.ndarray,
        file_ids: np.ndarray,
        now: np.ndarray,
        resolve: Callable[[np.ndarray, np.ndarray], tuple],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(hit, latency, finish)`` per member; hits cost zero slots."""
        rows = self.resident[members]
        matches = rows == file_ids[:, None]
        hit = matches.any(axis=1)
        if self.lru and hit.any():
            # on_access for hits: stamp the hit slot's clock.  Misses
            # stamp at insertion (same slot, same clock value); a miss
            # that never completes leaves no resident entry, and the
            # scalar policy's phantom last-use entry for it can never
            # be consulted - victims come from resident files only.
            slot = matches.argmax(axis=1)
            self.last_use[members[hit], slot[hit]] = now[hit]
        n_hits = int(np.count_nonzero(hit))
        self.hits += n_hits
        miss = ~hit
        latency = np.zeros(len(members), dtype=np.int64)
        finish = now.copy()
        if n_hits < len(members):
            self.misses += len(members) - n_hits
            miss_files = file_ids[miss]
            miss_now = now[miss]
            miss_latency, miss_finish = resolve(miss_files, miss_now)
            latency[miss] = miss_latency
            finish[miss] = miss_finish
            completed = miss_latency >= 0
            if completed.any():
                self._insert(
                    members[miss][completed],
                    miss_files[completed],
                    miss_now[completed],
                )
        return hit, latency, finish

    def _insert(
        self, members: np.ndarray, file_ids: np.ndarray, now: np.ndarray
    ) -> None:
        rows = self.resident[members]
        occupied = rows >= 0
        full = occupied.all(axis=1)
        # First empty slot where there is one...
        slot = np.where(full, 0, (~occupied).argmax(axis=1))
        if full.any():
            # ...victim slot (policy-order argmin) where there is not.
            full_members = members[full]
            full_rows = rows[full]
            if self.lru:
                key = (
                    self.last_use[full_members] * self.n_files
                    + self.victim_rank[full_rows]
                )
            else:
                key = self.victim_rank[full_rows]
            slot[full] = key.argmin(axis=1)
            self.evictions += int(np.count_nonzero(full))
        self.resident[members, slot] = file_ids
        if self.lru:
            self.last_use[members, slot] = now


def _retrievals(tel: Any, kind: str) -> Any:
    """The shard's ``traffic.retrievals`` counter of ``kind``, if traced."""
    if tel is None:
        return None
    return tel.counter(
        "traffic.retrievals", stability="shape", oracle="soa", kind=kind
    )


class _Population:
    """One population kind's share of the cohort driver.

    A request for pick ``k`` records under ``names[k]`` against
    ``deadlines[k]``; picks bisect the running weight totals, as the
    object engine's ``choices`` draw does.  By default the picks are
    the catalogue's files under the spec's popularity law.  ``step``
    resolves one wave to ``(latency, finish, cache_hit)``: ``latency``
    is ``-1`` on an abort, ``finish`` the last slot listened to either
    way, and ``cache_hit`` ``None`` without client caches.
    """

    #: Some channel loses slots (narrows the client block).
    faulty = False
    #: Client cache slots (each costs the block budget two draws).
    cache_capacity = 0

    def __init__(
        self,
        metrics: TrafficMetrics,
        spec: TrafficSpec,
        catalogue: tuple[str, ...],
        deadlines: Mapping[str, int],
    ) -> None:
        self.metrics = metrics
        self._pick_from(
            catalogue,
            _popularity(popularity_cdf, spec, len(catalogue)),
            [deadlines[file] for file in catalogue],
        )

    def _pick_from(
        self,
        names: Sequence[str],
        cdf: Sequence[float],
        deadlines: Sequence[int],
    ) -> None:
        self.names = names
        self.cum_weights = np.asarray(cdf, dtype=np.float64)
        self.total_weight = cdf[-1] + 0.0
        self.deadlines = np.asarray(deadlines, dtype=np.int64)

    def begin_block(self, n: int) -> None:
        """Fresh per-client state for a block of ``n`` clients."""

    def end_block(self) -> None:
        """Fold the finished block's state into the metrics."""


class _SingleChannel(_Population):
    """Files on one channel: fault-free retrievals gather from the
    per-``(file, phase)`` tables and faulty ones go to the
    :class:`_FaultResolver`, both behind optional :class:`_VectorCache`
    rows."""

    def __init__(
        self,
        metrics: TrafficMetrics,
        spec: TrafficSpec,
        catalogue: tuple[str, ...],
        deadlines: Mapping[str, int],
        tables: RetrievalTables,
        fault_model: FaultModel,
        tel: Any,
    ) -> None:
        super().__init__(metrics, spec, catalogue, deadlines)
        self.faulty = not isinstance(fault_model, NoFaults)
        self._tables = tables
        self._resolver = (
            _FaultResolver(tables, fault_model) if self.faulty else None
        )
        lut, walker = _retrievals(tel, "lut"), _retrievals(tel, "walker")
        self._counter = walker if self.faulty else lut
        self._lru = spec.cache != "pix"
        self._victim_rank: np.ndarray | None = None
        if spec.cache == "pix":
            weights = _popularity(popularity_weights, spec, len(catalogue))
            self._victim_rank = _pix_rank(catalogue, weights, tables)
        elif spec.cache is not None:
            self._victim_rank = _lexical_rank(catalogue)
        if spec.cache is not None:
            self.cache_capacity = spec.cache_capacity
        self._cache: _VectorCache | None = None

    def _resolve(
        self, file_ids: np.ndarray, starts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if self._counter is not None:
            self._counter.add(len(file_ids))
        if self._resolver is None:
            return self._tables.lookup(file_ids, starts)
        return self._resolver.resolve(file_ids, starts)

    def begin_block(self, n: int) -> None:
        if self._victim_rank is not None:
            self._cache = _VectorCache(
                n, self.cache_capacity, self._lru, self._victim_rank,
                len(self.names),
            )

    def step(
        self, members: np.ndarray, picks: np.ndarray, now: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        if self._cache is None:
            return (*self._resolve(picks, now), None)
        hit, latency, finish = self._cache.access(
            members, picks, now, self._resolve
        )
        return latency, finish, hit

    def end_block(self) -> None:
        cache = self._cache
        if cache is not None:
            self.metrics.record_cache(
                cache.hits, cache.misses, cache.evictions
            )


class _MultiChannel(_Population):
    """Files over a channel set: :meth:`MultiChannelTables.choose`
    scores every member's candidate channels in the fault-free tables
    (faults never steer the choice, exactly as in
    :func:`repro.sim.client.retrieve_multichannel`), then each faulty
    channel's :class:`_FaultResolver` re-resolves the members tuned to
    it from their listen slots."""

    def __init__(
        self,
        metrics: TrafficMetrics,
        spec: TrafficSpec,
        catalogue: tuple[str, ...],
        deadlines: Mapping[str, int],
        mc_tables: MultiChannelTables,
        channel_faults: Sequence[FaultModel] | None,
        tel: Any,
    ) -> None:
        super().__init__(metrics, spec, catalogue, deadlines)
        self._tables = mc_tables
        self._resolvers = [
            None
            if channel_faults is None
            or isinstance(channel_faults[c], NoFaults)
            else _FaultResolver(table, channel_faults[c])
            for c, table in enumerate(mc_tables.tables)
        ]
        self.faulty = any(r is not None for r in self._resolvers)
        self._counter = _retrievals(tel, "multichannel")
        self._tuned = np.zeros(0, dtype=np.int64)

    def begin_block(self, n: int) -> None:
        self._tuned = np.zeros(n, dtype=np.int64)  # clients sign on to 0

    def step(
        self, members: np.ndarray, picks: np.ndarray, now: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        if self._counter is not None:
            self._counter.add(len(members))
        tuned = self._tuned
        chosen, listen, latency, finish = self._tables.choose(
            picks, now, tuned[members]
        )
        self.metrics.record_channel_switches(
            int(np.count_nonzero(chosen != tuned[members]))
        )
        tuned[members] = chosen
        for channel, resolver in enumerate(self._resolvers):
            rows = np.flatnonzero(chosen == channel)
            if resolver is not None and rows.size:
                latency[rows], finish[rows] = resolver.resolve(
                    self._tables.local_ids[channel, picks[rows]],
                    listen[rows],
                )
        return np.where(latency >= 0, finish - now + 1, -1), finish, None


class _Temporal(_Population):
    """Version-consistent read transactions.

    A transaction is a short sequential item chain: each item starts
    after the previous one finishes.  A wave resolves item position
    ``p`` of every member still reading as one batch.  On one program
    that is one :meth:`_FaultResolver.resolve_versioned` call.  Over a
    channel set each item is an r-of-k quorum read, as in
    :func:`repro.rtdb.updates.retrieve_versioned_quorum`, assembled in
    at most k copy steps: each step chooses among the carriers a member
    has not read yet (:meth:`MultiChannelTables.choose`), resolves the
    copies per chosen channel and extends or restarts each member's run
    of one version.  A client's tuned channel persists across its
    transactions, in one array per block.  ``faults`` is the channel's
    fault model, or the per-channel models of a channel set.
    """

    #: Copy reads always walk (narrows the client block).
    faulty = True

    def __init__(
        self,
        metrics: TrafficMetrics,
        spec: TrafficSpec,
        catalogue: tuple[str, ...],
        deadlines: Mapping[str, int],
        temporal: TemporalSpec,
        file_sizes: Mapping[str, int],
        program: BroadcastProgram | None,
        channels: ChannelSet | None,
        faults: Any,
        tel: Any,
    ) -> None:
        super().__init__(metrics, spec, catalogue, deadlines)
        mix, mix_weights = _temporal_mix(
            temporal,
            catalogue,
            deadlines,
            _popularity(popularity_weights, spec, len(catalogue)),
        )
        self._pick_from(
            [txn.name for txn in mix],
            list(accumulate(mix_weights)),
            [txn.deadline_slots for txn in mix],
        )
        # Item ids per transaction, padded with -1 past its last item.
        ids = {name: fid for fid, name in enumerate(catalogue)}
        self._items = np.full(
            (len(mix), max(len(txn.items) for txn in mix)), -1,
            dtype=np.int64,
        )
        for row, txn in enumerate(mix):
            self._items[row, : len(txn.items)] = [
                ids[item] for item in txn.items
            ]
        max_age = temporal.max_age_slots()
        server = temporal.server()
        self._max_age = np.asarray(
            [max_age[name] for name in catalogue], dtype=np.int64
        )
        self._periods = np.asarray(
            [server.period(name) for name in catalogue], dtype=np.int64
        )
        self._catalogue = catalogue
        self._sizes = [file_sizes[name] for name in catalogue]
        self._max_slots = spec.max_slots
        self._choice: MultiChannelTables | None = None
        if channels is None:
            self._programs: Sequence[BroadcastProgram] = (program,)
            tables = [
                RetrievalTables.build(program, catalogue, file_sizes, None)
            ]
            models = [faults]
        else:
            self._programs = channels.programs
            # Copies are chosen on the plain default horizon:
            # retrieve_versioned_quorum calls best_channel without
            # max_slots.  Only the copy reads listen for max_slots.
            self._choice = MultiChannelTables.build(
                channels, catalogue, file_sizes, None
            )
            tables = self._choice.tables
            models = faults or [None] * channels.count
            self._quorum = channels.quorum
        self._resolvers = [
            _FaultResolver(table, model)
            for table, model in zip(tables, models)
        ]
        # Copy horizons per (channel, file), derived on first use.
        self._horizons = np.full(
            (len(tables), len(catalogue)), -1, dtype=np.int64
        )
        self._counter = _retrievals(tel, "walker")
        self._tuned = np.zeros(0, dtype=np.int64)

    def begin_block(self, n: int) -> None:
        self._tuned = np.zeros(n, dtype=np.int64)  # clients sign on to 0

    def step(
        self, members: np.ndarray, picks: np.ndarray, now: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        items = self._items[picks]
        finish = now - 1  # each item starts the slot after the last
        failed = np.zeros(len(members), dtype=bool)
        reading = np.arange(len(members))
        # Picked per step: a bound method stored on self would make every
        # population a reference cycle, its tables and metrics freed only
        # by the cyclic collector.
        read = (
            self._single_read if self._choice is None else self._quorum_read
        )
        for position in range(items.shape[1]):
            reading = reading[items[reading, position] >= 0]
            if not reading.size:
                break
            ok, finish[reading] = read(
                members[reading],
                items[reading, position],
                finish[reading] + 1,
            )
            failed[reading[~ok]] = True
            reading = reading[ok]
        return np.where(failed, -1, finish - now + 1), finish, None

    def _copies(
        self, channel: int, fids: np.ndarray, starts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Versioned reads of ``fids`` on ``channel`` from ``starts``."""
        if self._counter is not None:
            self._counter.add(len(fids))
        horizons = self._horizons[channel]
        for fid in np.unique(fids[horizons[fids] < 0]).tolist():
            horizons[fid] = versioned_listen_horizon(
                self._programs[channel],
                self._catalogue[fid],
                self._sizes[fid],
                int(self._periods[fid]),
                max_slots=self._max_slots,
            )
        local = (
            fids
            if self._choice is None
            else self._choice.local_ids[channel, fids]
        )
        return self._resolvers[channel].resolve_versioned(
            local, starts, horizons[fids], self._periods[fids]
        )

    def _record_reads(
        self,
        fids: np.ndarray,
        ok: np.ndarray,
        finish: np.ndarray,
        version: np.ndarray,
        torn: np.ndarray,
    ) -> None:
        ages = np.where(ok, finish - version * self._periods[fids], -1)
        self.metrics.record_versioned_reads(
            ages, ok & (ages <= self._max_age[fids]), torn
        )

    def _single_read(
        self, members: np.ndarray, fids: np.ndarray, starts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(completed, finish)`` of one versioned read per member."""
        latency, finish, version, torn = self._copies(0, fids, starts)
        ok = latency >= 0
        self._record_reads(fids, ok, finish, version, torn)
        return ok, finish

    def _quorum_read(
        self, members: np.ndarray, fids: np.ndarray, starts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(assembled, finish)`` of one quorum read per member."""
        choice = self._choice
        r = self._quorum
        for fid in np.unique(fids).tolist():
            carriers = choice.candidates[fid]
            if r > len(carriers):
                raise SimulationError(
                    f"quorum {r} of {self._catalogue[fid]!r} needs {r} "
                    f"copies, but only {len(carriers)} channel(s) carry "
                    f"it (channels {list(carriers)})"
                )
        n = len(fids)
        tuned = self._tuned[members]
        remaining = choice.local_ids[:, fids].T >= 0
        finish = starts - 1  # each copy starts the slot after the last
        run = np.zeros(n, dtype=np.int64)
        run_version = np.full(n, -1, dtype=np.int64)
        torn = np.zeros(n, dtype=np.int64)
        aborted = np.zeros(n, dtype=bool)
        ok = np.zeros(n, dtype=bool)
        switches = 0
        live = np.arange(n)
        while live.size:
            channel, listen, _, _ = choice.choose(
                fids[live], finish[live] + 1, tuned[live], remaining[live]
            )
            remaining[live, channel] = False
            switches += int(np.count_nonzero(channel != tuned[live]))
            tuned[live] = channel
            for c in np.unique(channel).tolist():
                on = channel == c
                rows = live[on]
                latency, end, version, lost = self._copies(
                    c, fids[rows], listen[on]
                )
                torn[rows] += lost
                finish[rows] = end
                got = latency >= 0
                aborted[rows[~got]] = True
                rows, version = rows[got], version[got]
                run[rows] = np.where(
                    version == run_version[rows], run[rows] + 1, 1
                )
                run_version[rows] = version
                ok[rows[run[rows] >= r]] = True
            live = live[~ok[live] & remaining[live].any(axis=1)]
        self._tuned[members] = tuned
        metrics = self.metrics
        metrics.record_channel_switches(switches)
        metrics.record_quorums(
            np.where(
                ok, "ok", np.where(aborted, "incomplete", "mismatch")
            ),
            np.where(ok, finish - starts + 1, -1),
        )
        self._record_reads(fids, ok, finish, run_version, torn)
        return ok, finish


def simulate_shard_soa(
    program: BroadcastProgram | None,
    catalogue: Sequence[str],
    spec: TrafficSpec,
    file_sizes: Mapping[str, int],
    deadlines: Mapping[str, int],
    faults: Any,
    temporal: TemporalSpec | None,
    lo: int,
    hi: int,
    trace: bool,
    *,
    tables: RetrievalTables | None = None,
    channels: ChannelSet | None = None,
    mc_tables: MultiChannelTables | None = None,
) -> tuple[TrafficMetrics, list[RequestRecord]]:
    """Simulate clients ``[lo, hi)`` with the vectorized engine.

    Same contract as the object engine's shard runner.  ``temporal``
    selects version-consistent transactions and ``channels`` the
    multi-channel protocol; otherwise the shard runs on ``program``'s
    channel.  Prebuilt ``tables`` (or, unless the shard is temporal,
    ``mc_tables``) can stand in for the program (or channel set): that
    is how :func:`repro.traffic.simulate.simulate_traffic` ships a
    shard to a pool worker, which then never builds an occurrence index.

    This is the one cohort loop.  Clients run in blocks sized to the
    draw budget; each wave draws its members' picks and think times,
    lets the population kind resolve it, records it through
    :meth:`TrafficMetrics.record_many` and moves every member to its
    next event.
    """
    catalogue = tuple(catalogue)
    metrics = TrafficMetrics()
    # Instruments resolved once per shard; the per-WAVE (never
    # per-request) telemetry cost is a None check when disabled, so the
    # vectorized hot path keeps its bench floor.  Wave composition
    # depends on the shard layout, hence "shape" stability.
    tel = obs.current()
    c_waves = h_cohort = None
    if tel is not None:
        c_waves = tel.counter("soa.waves", stability="shape")
        h_cohort = tel.histogram("soa.cohort_size", stability="shape")
    common = (metrics, spec, catalogue, deadlines)
    kind: _Population
    if channels is not None or mc_tables is not None:
        count = channels.count if channels is not None else mc_tables.count
        models = _channel_fault_models(faults, count)
    else:
        models = _build_fault_model(faults)
    if temporal is not None:
        if channels is None and mc_tables is not None:
            raise ValueError(
                "temporal multichannel shards need the channel set "
                "itself, not just tables"
            )
        kind = _Temporal(
            *common, temporal, file_sizes, program, channels, models, tel
        )
    elif channels is not None or mc_tables is not None:
        if mc_tables is None:
            mc_tables = MultiChannelTables.build(
                channels, catalogue, file_sizes, spec.max_slots
            )
        kind = _MultiChannel(*common, mc_tables, models, tel)
    else:
        if tables is None:
            if program is None:
                raise ValueError(
                    "simulate_shard_soa needs a program or prebuilt tables"
                )
            tables = RetrievalTables.build(
                program, catalogue, file_sizes, spec.max_slots
            )
        kind = _SingleChannel(*common, tables, models, tel)

    think = ThinkSampler(spec.think_time) if spec.think_time > 0 else None
    requests = spec.requests_per_client
    stride = 2 if spec.think_time > 0 else 1
    block = _block_size(
        hi - lo, requests * stride + 2 * kind.cache_capacity, kind.faulty
    )
    trace_waves: list[tuple] | None = [] if trace else None

    for block_lo in range(lo, hi, block):
        block_hi = min(hi, block_lo + block)
        n = block_hi - block_lo
        draws = uniform_matrix(
            spec.seed, TAG_CLIENT, block_lo, block_hi, requests * stride
        )
        next_slot = arrival_vector(spec, block_lo, block_hi)
        left = np.full(n, requests, dtype=np.int64)
        kind.begin_block(n)
        for members in cohort_waves(left):
            if c_waves is not None:
                c_waves.add()
                h_cohort.observe(len(members))
            now = next_slot[members]
            position = (requests - left[members]) * stride
            picks = file_draw(
                kind.cum_weights, kind.total_weight, draws[members, position]
            )
            latency, finish, hit = kind.step(members, picks, now)
            metrics.record_many(kind.names, picks, latency, kind.deadlines)
            if trace_waves is not None:
                trace_waves.append(
                    (members + block_lo, picks, now, latency, hit)
                )
            left[members] -= 1
            upcoming = finish + 1
            if think is not None:
                upcoming = upcoming + think.sample(
                    draws[members, position + 1]
                )
            next_slot[members] = upcoming
        kind.end_block()

    if tel is not None:
        _record_shard_metrics(metrics, "soa")
    records = [
        RequestRecord(
            client=c,
            file=kind.names[k],
            issued=s,
            latency=None if l < 0 else l,
            deadline=int(kind.deadlines[k]),
            cache_hit=bool(h),
        )
        for clients, picks, issued, latency, hit in trace_waves or ()
        for c, k, s, l, h in zip(
            clients.tolist(), picks.tolist(), issued.tolist(),
            latency.tolist(),
            [False] * len(clients) if hit is None else hit.tolist(),
        )
    ]
    return metrics, records
