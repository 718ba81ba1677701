"""The vectorized structure-of-arrays traffic engine.

:func:`simulate_shard_soa` is a drop-in replacement for the object
engine's shard runner (``repro.traffic.simulate._simulate_shard``):
same inputs, same :class:`~repro.traffic.metrics.TrafficMetrics` out,
bit-identical - but client state lives in flat numpy arrays (next-event
slot, remaining requests, per-client cache rows) instead of one session
object per client, and whole *cohorts* advance per batch instead of one
heap event per client:

* uniforms come pre-drawn from the counter-based substreams
  (:func:`repro.traffic.substreams.uniform_matrix`) - request ``r`` of
  client ``i`` reads a fixed matrix cell, exactly the draw the scalar
  session would have made;
* fault-free retrievals gather from the precomputed per-``(file,
  phase)`` tables (:class:`~repro.traffic.cohorts.RetrievalTables`);
* faulty retrievals resolve in geometric rounds of candidate
  occurrences: one ``lost_in`` call per round over the *union* of the
  candidates' slots, then array operations over per-member held-block
  bitsets find each finishing occurrence (:class:`_FaultResolver`) -
  multichannel shards group members by chosen channel and use the
  same resolver;
* client caches (LRU / PIX) are rows of a matrix - victims come from a
  vectorized argmin over composite keys that reproduce the scalar
  policies' ``min(resident, key=...)`` orders exactly;
* metrics accumulate as numpy counters and per-wave histogram merges,
  finalized through :meth:`TrafficMetrics.from_totals` - the accumulator
  is order-independent, which is what makes any-order batch
  accumulation legal.

Temporal (version-consistent) populations batch the per-request draws
and cohort bookkeeping but retrieve items through the scalar
``_VersionedRetriever`` - transactions are short sequential item chains
whose cost is dominated by the memoized retrieval, not the loop.

The equivalence is pinned by ``tests/traffic/test_engine_soa.py``:
per-shard metrics equal the object engine's field for field across
arrival x popularity x cache x fault-model grids.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.bdisk.multichannel import ChannelSet
from repro.bdisk.program import BroadcastProgram
from repro.obs import telemetry as obs
from repro.rtdb.spec import TemporalSpec
from repro.sim.faults import FaultModel, NoFaults, lost_in
from repro.traffic.arrivals import popularity_cdf, popularity_weights
from repro.traffic.clients import RequestRecord
from repro.traffic.cohorts import (
    MultiChannelTables,
    RetrievalTables,
    ThinkSampler,
    arrival_vector,
    cohort_waves,
    file_draw,
)
from repro.traffic.metrics import TrafficMetrics
from repro.traffic.spec import TrafficSpec
from repro.traffic.substreams import TAG_CLIENT, uniform_matrix

#: Default cohort window (slots).  Correctness never depends on the
#: window - clients are independent and the accumulators are
#: order-independent - so the default is "everything", which maximizes
#: batch width; tests shrink it to exercise the wave machinery.
_DEFAULT_WINDOW = 1 << 61

#: Uniform draws budgeted per client block (bounds peak memory).
_BLOCK_BUDGET = 1 << 22
_BLOCK_MIN = 4096
_BLOCK_MAX = 1 << 20
#: Faulty channels bound the per-wave ``lost_in`` union (and the
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
    arrays), decides the *union* of their slots in one ``lost_in`` call
    and resolves every member with array operations alone: held blocks
    are ``uint64`` bitset words, a running OR along the candidates marks
    each surviving occurrence that adds a new block, and the first
    candidate whose running distinct count reaches ``m`` is the finish -
    exactly the occurrence walk :func:`repro.sim.client.retrieve`
    performs.  Members still short of ``m`` carry their bitset and count
    into the next, wider round.  Decisions are deterministic per
    ``(seed, slot)``, so neither query batching nor round width can
    change an outcome.
    """

    __slots__ = ("_tables", "_model", "_keys", "_words")

    def __init__(self, tables: RetrievalTables, model: FaultModel) -> None:
        self._tables = tables
        self._model = model
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
        t = self._tables
        cycle = t.cycle
        m = len(file_ids)
        end = starts + t.horizons[file_ids]
        latency = np.full(m, -1, dtype=np.int64)
        finish = end - 1  # the abort default
        need = np.maximum(1, t.m_needed[file_ids])
        count = t.counts[file_ids]
        offset = t.occ_offsets[file_ids]

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
            candidates = g[idx, None] + np.arange(width, dtype=np.int64)
            copies, within = np.divmod(candidates, count[idx, None])
            flat = offset[idx, None] + within
            slots = base[idx, None] + copies * cycle + t.occ_slots[flat]
            valid = slots < end[idx, None]
            heard = valid.copy()
            queried = slots[valid]
            if queried.size:
                unique, inverse = np.unique(queried, return_inverse=True)
                lost = np.asarray(
                    lost_in(self._model, unique.tolist()), dtype=bool
                )
                heard[valid] = ~lost[inverse]
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
            rows = idx[done]
            finish[rows] = slots[done, reached[done].argmax(axis=1)]
            latency[rows] = finish[rows] - starts[rows] + 1
            # Rows whose last candidate lies past the horizon keep the
            # abort defaults; the rest carry their state forward.
            carry = ~done & valid[:, -1]
            idx = idx[carry]
            held[idx] = prefix[carry, -1]
            have[idx] = total[carry, -1]
            g[idx] += width
            width = min(2 * width, _FAULT_CHUNK)
        return latency, finish


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


class _ShardAccumulator:
    """Order-independent numpy-side metric totals for one shard."""

    __slots__ = (
        "requests", "completions", "aborts", "deadline_misses",
        "latency_sum", "worst", "counts", "req_by_file", "hit_by_file",
    )

    def __init__(self, n_files: int) -> None:
        self.requests = 0
        self.completions = 0
        self.aborts = 0
        self.deadline_misses = 0
        self.latency_sum = 0
        self.worst = 0
        self.counts: dict[int, int] = {}
        self.req_by_file = np.zeros(n_files, dtype=np.int64)
        self.hit_by_file = np.zeros(n_files, dtype=np.int64)

    def record_wave(
        self,
        file_ids: np.ndarray,
        latency: np.ndarray,
        deadline_by_file: np.ndarray,
    ) -> None:
        n = len(file_ids)
        self.requests += n
        self.req_by_file += np.bincount(
            file_ids, minlength=len(self.req_by_file)
        )
        completed = latency >= 0
        n_completed = int(np.count_nonzero(completed))
        self.completions += n_completed
        self.aborts += n - n_completed
        if not n_completed:
            return
        files = file_ids[completed]
        values = latency[completed]
        self.hit_by_file += np.bincount(
            files, minlength=len(self.hit_by_file)
        )
        self.latency_sum += int(values.sum())
        worst = int(values.max())
        if worst > self.worst:
            self.worst = worst
        self.deadline_misses += int(
            np.count_nonzero(values > deadline_by_file[files])
        )
        counts = self.counts
        unique, tally = np.unique(values, return_counts=True)
        for value, n_value in zip(unique.tolist(), tally.tolist()):
            counts[value] = counts.get(value, 0) + n_value

    def finalize(
        self,
        catalogue: Sequence[str],
        cache_hits: int,
        cache_misses: int,
        cache_evictions: int,
    ) -> TrafficMetrics:
        req = self.req_by_file.tolist()
        hit = self.hit_by_file.tolist()
        return TrafficMetrics.from_totals(
            requests=self.requests,
            completions=self.completions,
            aborts=self.aborts,
            deadline_misses=self.deadline_misses,
            latency_sum=self.latency_sum,
            worst=self.worst,
            counts=self.counts,
            requests_by_file={
                catalogue[i]: n for i, n in enumerate(req) if n
            },
            hits_by_file={
                catalogue[i]: n for i, n in enumerate(hit) if n
            },
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            cache_evictions=cache_evictions,
        )


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
    cohort_window: int | None = None,
    channels: ChannelSet | None = None,
    mc_tables: MultiChannelTables | None = None,
) -> tuple[TrafficMetrics, list[RequestRecord]]:
    """Simulate clients ``[lo, hi)`` with the vectorized engine.

    Same contract as the object engine's shard runner; ``tables``
    passes in prebuilt retrieval tables (``program`` may then be
    ``None`` for non-temporal populations), and ``cohort_window``
    overrides the batching window (tests narrow it to exercise wave
    boundaries - outcomes never depend on it).

    ``channels`` switches the shard to the multi-channel retrieval
    protocol (``program`` is then ignored); ``mc_tables`` supplies
    prebuilt per-channel tables instead, so a non-temporal shard runs
    from the tables alone with ``channels=None``.  Prebuilt tables are
    how :func:`repro.traffic.simulate.simulate_traffic` ships a shard
    to a pool worker: they pickle as flat arrays, and the worker never
    builds an occurrence index.
    """
    from repro.traffic.simulate import (
        _build_fault_model,
        _channel_fault_models,
    )

    catalogue = tuple(catalogue)
    if channels is not None or mc_tables is not None:
        count = channels.count if channels is not None else mc_tables.count
        channel_faults = _channel_fault_models(faults, count)
        if temporal is not None:
            if channels is None:
                raise ValueError(
                    "temporal multichannel shards need the channel set "
                    "itself, not just tables"
                )
            return _simulate_temporal_shard(
                None, catalogue, spec, file_sizes, deadlines, None,
                temporal, lo, hi, trace, cohort_window,
                channels=channels, channel_faults=channel_faults,
            )
        return _simulate_multichannel_shard(
            channels, mc_tables, catalogue, spec, file_sizes, deadlines,
            channel_faults, lo, hi, trace, cohort_window,
        )
    fault_model = _build_fault_model(faults)
    if temporal is not None:
        return _simulate_temporal_shard(
            program, catalogue, spec, file_sizes, deadlines, fault_model,
            temporal, lo, hi, trace, cohort_window,
        )
    if tables is None:
        if program is None:
            raise ValueError(
                "simulate_shard_soa needs a program or prebuilt tables"
            )
        tables = RetrievalTables.build(
            program, catalogue, file_sizes, spec.max_slots
        )

    fault_free = isinstance(fault_model, NoFaults)
    resolver = (
        None if fault_free else _FaultResolver(tables, fault_model)
    )
    # Counter cells resolved once per shard; the per-WAVE (never
    # per-request) telemetry cost is a None check when disabled, so the
    # vectorized hot path keeps its bench floor.  Wave composition
    # depends on the shard layout, hence "shape" stability.
    tel = obs.current()
    c_waves = c_lut = c_walker = h_cohort = None
    if tel is not None:
        c_waves = tel.counter("soa.waves", stability="shape")
        h_cohort = tel.histogram("soa.cohort_size", stability="shape")
        c_lut = tel.counter(
            "traffic.retrievals", stability="shape",
            oracle="soa", kind="lut",
        )
        c_walker = tel.counter(
            "traffic.retrievals", stability="shape",
            oracle="soa", kind="walker",
        )
    cdf = popularity_cdf(
        spec.popularity,
        len(catalogue),
        zipf_skew=spec.zipf_skew,
        hot_fraction=spec.hot_fraction,
        hot_weight=spec.hot_weight,
    )
    cum_weights = np.asarray(cdf, dtype=np.float64)
    total_weight = cdf[-1] + 0.0
    deadline_by_file = np.asarray(
        [deadlines[file] for file in catalogue], dtype=np.int64
    )
    think = ThinkSampler(spec.think_time) if spec.think_time > 0 else None
    window = cohort_window if cohort_window is not None else _DEFAULT_WINDOW

    victim_rank: np.ndarray | None = None
    lru = True
    if spec.cache == "pix":
        lru = False
        weights = popularity_weights(
            spec.popularity,
            len(catalogue),
            zipf_skew=spec.zipf_skew,
            hot_fraction=spec.hot_fraction,
            hot_weight=spec.hot_weight,
        )
        victim_rank = _pix_rank(catalogue, weights, tables)
    elif spec.cache is not None:
        victim_rank = _lexical_rank(catalogue)

    def resolve(
        file_ids: np.ndarray, starts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if resolver is None:
            if c_lut is not None:
                c_lut.add(len(file_ids))
            return tables.lookup(file_ids, starts)
        if c_walker is not None:
            c_walker.add(len(file_ids))
        return resolver.resolve(file_ids, starts)

    requests = spec.requests_per_client
    stride = 2 if spec.think_time > 0 else 1
    per_client = requests * stride + 2 * (
        spec.cache_capacity if spec.cache is not None else 0
    )
    block = _block_size(hi - lo, per_client, not fault_free)

    accumulator = _ShardAccumulator(len(catalogue))
    cache_hits = cache_misses = cache_evictions = 0
    trace_waves: list[tuple] | None = [] if trace else None

    for block_lo in range(lo, hi, block):
        block_hi = min(hi, block_lo + block)
        n = block_hi - block_lo
        draws = uniform_matrix(
            spec.seed, TAG_CLIENT, block_lo, block_hi, requests * stride
        )
        next_slot = arrival_vector(spec, block_lo, block_hi)
        left = np.full(n, requests, dtype=np.int64)
        cache: _VectorCache | None = None
        if spec.cache is not None:
            cache = _VectorCache(
                n, spec.cache_capacity, lru, victim_rank, len(catalogue)
            )
        for members in cohort_waves(next_slot, left, window):
            if c_waves is not None:
                c_waves.add()
                h_cohort.observe(len(members))
            now = next_slot[members]
            position = (requests - left[members]) * stride
            file_ids = file_draw(
                cum_weights, total_weight, draws[members, position]
            )
            if cache is None:
                latency, finish = resolve(file_ids, now)
                hit = None
            else:
                hit, latency, finish = cache.access(
                    members, file_ids, now, resolve
                )
            accumulator.record_wave(file_ids, latency, deadline_by_file)
            if trace_waves is not None:
                trace_waves.append(
                    (members + block_lo, file_ids, now, latency, hit)
                )
            left[members] -= 1
            upcoming = finish + 1
            if think is not None:
                upcoming = upcoming + think.sample(
                    draws[members, position + 1]
                )
            next_slot[members] = upcoming
        if cache is not None:
            cache_hits += cache.hits
            cache_misses += cache.misses
            cache_evictions += cache.evictions

    metrics = accumulator.finalize(
        catalogue, cache_hits, cache_misses, cache_evictions
    )
    if tel is not None:
        from repro.traffic.simulate import _record_shard_metrics

        _record_shard_metrics(metrics, "soa")
    records: list[RequestRecord] = []
    if trace_waves is not None:
        for clients, file_ids, issued, latency, hit in trace_waves:
            hit_list = (
                hit.tolist() if hit is not None else [False] * len(clients)
            )
            for c, f, s, l, h in zip(
                clients.tolist(), file_ids.tolist(), issued.tolist(),
                latency.tolist(), hit_list,
            ):
                records.append(
                    RequestRecord(
                        client=c,
                        file=catalogue[f],
                        issued=s,
                        latency=None if l < 0 else l,
                        deadline=int(deadline_by_file[f]),
                        cache_hit=bool(h),
                    )
                )
    return metrics, records


def _simulate_temporal_shard(
    program: BroadcastProgram | None,
    catalogue: tuple[str, ...],
    spec: TrafficSpec,
    file_sizes: Mapping[str, int],
    deadlines: Mapping[str, int],
    fault_model: FaultModel | None,
    temporal: TemporalSpec,
    lo: int,
    hi: int,
    trace: bool,
    cohort_window: int | None,
    *,
    channels: ChannelSet | None = None,
    channel_faults: Sequence[FaultModel] | None = None,
) -> tuple[TrafficMetrics, list[RequestRecord]]:
    """The temporal population under cohort batching.

    Draws and cohort bookkeeping are vectorized; item retrievals go
    through the scalar memoized ``_VersionedRetriever`` (a transaction
    is a short sequential chain - each item's start depends on the
    previous finish - so there is nothing to batch inside it).  Metrics
    feed a real :class:`TrafficMetrics` in wave order, which is legal
    because the accumulator is order-independent.

    With ``channels`` each client gets its own quorum retriever (tuned
    state persists across that client's transactions), mirroring the
    object engine's per-session retrievers exactly.
    """
    from repro.traffic.simulate import (
        _QuorumRetriever,
        _temporal_mix,
        _VersionedRetriever,
    )

    weights = popularity_weights(
        spec.popularity,
        len(catalogue),
        zipf_skew=spec.zipf_skew,
        hot_fraction=spec.hot_fraction,
        hot_weight=spec.hot_weight,
    )
    mix, mix_weights = _temporal_mix(temporal, catalogue, deadlines, weights)
    cdf = list(accumulate(mix_weights))
    cum_weights = np.asarray(cdf, dtype=np.float64)
    total_weight = cdf[-1] + 0.0
    server = temporal.server()
    versioned = (
        None
        if channels is not None
        else _VersionedRetriever(
            program, file_sizes, server, fault_model, spec.max_slots
        )
    )
    max_age = temporal.max_age_slots()
    metrics = TrafficMetrics()
    records: list[RequestRecord] | None = [] if trace else None
    think = ThinkSampler(spec.think_time) if spec.think_time > 0 else None
    window = cohort_window if cohort_window is not None else _DEFAULT_WINDOW
    requests = spec.requests_per_client
    stride = 2 if spec.think_time > 0 else 1
    block = _block_size(hi - lo, requests * stride, False)

    for block_lo in range(lo, hi, block):
        block_hi = min(hi, block_lo + block)
        n = block_hi - block_lo
        draws = uniform_matrix(
            spec.seed, TAG_CLIENT, block_lo, block_hi, requests * stride
        )
        next_slot = arrival_vector(spec, block_lo, block_hi)
        left = np.full(n, requests, dtype=np.int64)
        retrievers: dict[int, Any] = {}
        for members in cohort_waves(next_slot, left, window):
            now = next_slot[members]
            position = (requests - left[members]) * stride
            picks = file_draw(
                cum_weights, total_weight, draws[members, position]
            )
            thinks = (
                think.sample(draws[members, position + 1])
                if think is not None
                else None
            )
            for row, member in enumerate(members.tolist()):
                start = int(now[row])
                txn = mix[picks[row]]
                clock = start
                finish = start
                aborted = False
                if channels is not None:
                    reader = retrievers.get(member)
                    if reader is None:
                        reader = retrievers[member] = _QuorumRetriever(
                            channels, file_sizes, server, channel_faults,
                            spec.max_slots, metrics,
                        )
                else:
                    reader = versioned
                for item in txn.items:
                    latency, finish, age, torn = reader(item, clock)
                    metrics.record_versioned_read(
                        age,
                        age is not None and age <= max_age[item],
                        torn,
                    )
                    if latency is None:
                        aborted = True
                        break
                    clock = finish + 1
                response = None if aborted else finish - start + 1
                metrics.record(txn.name, response, txn.deadline_slots)
                if records is not None:
                    records.append(
                        RequestRecord(
                            client=block_lo + member,
                            file=txn.name,
                            issued=start,
                            latency=response,
                            deadline=txn.deadline_slots,
                            cache_hit=False,
                        )
                    )
                next_slot[member] = finish + 1 + (
                    int(thinks[row]) if thinks is not None else 0
                )
            left[members] -= 1
    if obs.current() is not None:
        from repro.traffic.simulate import _record_shard_metrics

        _record_shard_metrics(metrics, "soa")
    return metrics, records if records is not None else []


def _simulate_multichannel_shard(
    channels: ChannelSet | None,
    mc_tables: MultiChannelTables | None,
    catalogue: tuple[str, ...],
    spec: TrafficSpec,
    file_sizes: Mapping[str, int],
    deadlines: Mapping[str, int],
    channel_faults: Sequence[FaultModel] | None,
    lo: int,
    hi: int,
    trace: bool,
    cohort_window: int | None,
) -> tuple[TrafficMetrics, list[RequestRecord]]:
    """The multi-channel population under cohort batching.

    Draws and cohort bookkeeping are vectorized; the channel choice is
    a short scalar probe per member against the per-channel fault-free
    tables (faults never steer the choice, exactly as in
    :func:`repro.sim.client.retrieve_multichannel`).  Fault-free
    outcomes come straight from the chosen channel's table; members on
    a faulty channel are grouped by channel and resolved together by
    that channel's :class:`_FaultResolver` from their listen slots.
    Metrics feed a real :class:`TrafficMetrics` in member order, so
    shards merge bit-identically with the object engine's.
    """
    if mc_tables is None:
        mc_tables = MultiChannelTables.build(
            channels, catalogue, file_sizes, spec.max_slots
        )
    resolvers = [
        None
        if channel_faults is None or isinstance(channel_faults[c], NoFaults)
        else _FaultResolver(table, channel_faults[c])
        for c, table in enumerate(mc_tables.tables)
    ]
    faulty = any(resolver is not None for resolver in resolvers)

    tel = obs.current()
    c_waves = h_cohort = c_mc = None
    if tel is not None:
        c_waves = tel.counter("soa.waves", stability="shape")
        h_cohort = tel.histogram("soa.cohort_size", stability="shape")
        c_mc = tel.counter(
            "traffic.retrievals", stability="shape",
            oracle="soa", kind="multichannel",
        )
    cdf = popularity_cdf(
        spec.popularity,
        len(catalogue),
        zipf_skew=spec.zipf_skew,
        hot_fraction=spec.hot_fraction,
        hot_weight=spec.hot_weight,
    )
    cum_weights = np.asarray(cdf, dtype=np.float64)
    total_weight = cdf[-1] + 0.0
    metrics = TrafficMetrics()
    records: list[RequestRecord] | None = [] if trace else None
    think = ThinkSampler(spec.think_time) if spec.think_time > 0 else None
    window = cohort_window if cohort_window is not None else _DEFAULT_WINDOW
    requests = spec.requests_per_client
    stride = 2 if spec.think_time > 0 else 1
    block = _block_size(hi - lo, requests * stride, faulty)

    for block_lo in range(lo, hi, block):
        block_hi = min(hi, block_lo + block)
        n = block_hi - block_lo
        draws = uniform_matrix(
            spec.seed, TAG_CLIENT, block_lo, block_hi, requests * stride
        )
        next_slot = arrival_vector(spec, block_lo, block_hi)
        left = np.full(n, requests, dtype=np.int64)
        tuned = np.zeros(n, dtype=np.int64)  # clients sign on tuned to 0
        for members in cohort_waves(next_slot, left, window):
            if c_waves is not None:
                c_waves.add()
                h_cohort.observe(len(members))
                c_mc.add(len(members))
            now = next_slot[members]
            position = (requests - left[members]) * stride
            file_ids = file_draw(
                cum_weights, total_weight, draws[members, position]
            )
            thinks = (
                think.sample(draws[members, position + 1])
                if think is not None
                else 0
            )
            chosen, listen, latency, finish = np.asarray(
                [
                    mc_tables.choose(fid, start, tune)
                    for fid, start, tune in zip(
                        file_ids.tolist(), now.tolist(),
                        tuned[members].tolist(),
                    )
                ],
                dtype=np.int64,
            ).T
            switched = chosen != tuned[members]
            metrics.record_channel_switches(int(np.count_nonzero(switched)))
            tuned[members] = chosen
            for channel, resolver in enumerate(resolvers):
                rows = np.flatnonzero(chosen == channel)
                if resolver is not None and rows.size:
                    latency[rows], finish[rows] = resolver.resolve(
                        mc_tables.local_ids[channel, file_ids[rows]],
                        listen[rows],
                    )
            response = np.where(latency >= 0, finish - now + 1, -1)
            for member, fid, start, waited in zip(
                members.tolist(), file_ids.tolist(), now.tolist(),
                response.tolist(),
            ):
                file = catalogue[fid]
                waited = None if waited < 0 else waited
                metrics.record(file, waited, deadlines[file])
                if records is not None:
                    records.append(
                        RequestRecord(
                            client=block_lo + member,
                            file=file,
                            issued=start,
                            latency=waited,
                            deadline=deadlines[file],
                            cache_hit=False,
                        )
                    )
            next_slot[members] = finish + 1 + thinks
            left[members] -= 1
    if tel is not None:
        from repro.traffic.simulate import _record_shard_metrics

        _record_shard_metrics(metrics, "soa")
    return metrics, records if records is not None else []
