"""Arrival processes and popularity laws for open-loop populations.

An open-loop traffic run is parameterized by *when* sessions arrive and
*what* they ask for.  Both are derived per client index from an
independent seeded RNG stream (``client_rng``), which is what makes
population sharding exact: a client behaves identically whichever shard
simulates it, so splitting the index range across processes cannot
change a single outcome.

The streams are counter-based (:mod:`repro.traffic.substreams`): every
draw is a pure function of ``(seed, purpose, client index, position)``,
so stream creation is O(1) and the vectorized engine can materialize
whole draw matrices that agree bit-for-bit with the object engine's
scalar draws.

Arrival kinds (``clients`` sessions over ``duration`` slots):

* ``"poisson"`` - arrival slots i.i.d. uniform over the duration, which
  is exactly a Poisson process conditioned on its arrival count;
* ``"deterministic"`` - evenly spaced arrivals (a paced load generator);
* ``"bursty"`` - each client joins one of ``bursts`` evenly spaced
  flash crowds and arrives within ``burst_width`` slots of its centre
  (mode changes, breaking news, fault storms).

Popularity kinds (catalogue ordered hottest-first):

* ``"uniform"`` - every file equally likely;
* ``"zipf"`` - :func:`repro.sim.workload.zipf_weights` with a skew;
* ``"hotcold"`` - :func:`repro.sim.workload.hot_cold_weights`: a hot
  fraction of the catalogue draws a fixed share of the accesses.

Popularity CDFs are memoized per parameter tuple
(:func:`popularity_cdf`), so population setup costs O(catalogue) once
per spec rather than O(clients x catalogue) - the bench asserts this.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate

from repro.errors import SpecificationError
from repro.sim.workload import hot_cold_weights, zipf_weights
from repro.traffic.substreams import (
    TAG_ARRIVAL,
    TAG_CLIENT,
    Substream,
    stream_base,
)

#: Arrival-process kinds a :class:`repro.api.TrafficSpec` understands.
ARRIVAL_KINDS = ("poisson", "deterministic", "bursty")

#: Popularity-law kinds a :class:`repro.api.TrafficSpec` understands.
POPULARITY_KINDS = ("uniform", "zipf", "hotcold")


def client_rng(seed: int, index: int) -> Substream:
    """The behaviour RNG stream of client ``index`` (files, think times).

    Counter-based, so the stream is stable across processes and
    interpreter runs - the property that makes sharded populations
    bit-identical to serial ones - and creation is O(1), which is what
    lets a million-client population spin up its streams in
    milliseconds.
    """
    return Substream(stream_base(seed, TAG_CLIENT, index))


def arrival_rng(seed: int, index: int) -> Substream:
    """The arrival RNG stream of client ``index``.

    Arrivals draw from their own substream because arrival kinds consume
    different draw counts (deterministic none, Poisson one, bursty two):
    feeding them from the behaviour stream would make swapping the
    arrival process silently reshuffle every client's file choices and
    think times, confounding arrival-kind comparisons at a fixed seed.
    """
    return Substream(stream_base(seed, TAG_ARRIVAL, index))


def arrival_slot(
    kind: str,
    rng: Substream,
    index: int,
    clients: int,
    duration: int,
    *,
    bursts: int = 8,
    burst_width: int = 64,
) -> int:
    """The arrival slot of client ``index`` in ``[0, duration)``.

    ``rng`` should be the client's dedicated arrival substream
    (:func:`arrival_rng`), never its behaviour stream - kinds consume
    different draw counts, and isolating them is what lets arrival
    processes swap without perturbing anything else about a client.
    """
    if kind not in ARRIVAL_KINDS:
        raise SpecificationError(
            f"unknown arrival kind {kind!r} (expected one of "
            f"{ARRIVAL_KINDS})"
        )
    if clients < 1 or duration < 1:
        raise SpecificationError("clients and duration must be >= 1")
    if not 0 <= index < clients:
        raise SpecificationError(
            f"client index must be in [0, {clients}): {index}"
        )
    if kind == "deterministic":
        return index * duration // clients
    if kind == "poisson":
        return int(rng.random() * duration)
    if bursts < 1 or burst_width < 1:
        raise SpecificationError("bursts and burst_width must be >= 1")
    # Exactly two plain uniforms (burst pick, offset): a fixed draw
    # layout is what lets the vectorized engine mirror this bit-for-bit.
    burst = min(bursts - 1, int(rng.random() * bursts))
    centre = (burst + 0.5) * duration / bursts
    offset = (rng.random() - 0.5) * burst_width
    return min(duration - 1, max(0, int(centre + offset)))


def popularity_weights(
    kind: str,
    count: int,
    *,
    zipf_skew: float = 1.0,
    hot_fraction: float = 0.1,
    hot_weight: float = 0.9,
) -> list[float]:
    """Relative access weights over a hottest-first catalogue."""
    if kind not in POPULARITY_KINDS:
        raise SpecificationError(
            f"unknown popularity kind {kind!r} (expected one of "
            f"{POPULARITY_KINDS})"
        )
    if count < 1:
        raise SpecificationError(f"count must be >= 1: {count}")
    if kind == "uniform":
        return [1.0] * count
    if kind == "zipf":
        return zipf_weights(count, zipf_skew)
    return hot_cold_weights(
        count, hot_fraction=hot_fraction, hot_weight=hot_weight
    )


@lru_cache(maxsize=256)
def _popularity_cdf(
    kind: str,
    count: int,
    zipf_skew: float,
    hot_fraction: float,
    hot_weight: float,
) -> tuple[float, ...]:
    return tuple(
        accumulate(
            popularity_weights(
                kind,
                count,
                zipf_skew=zipf_skew,
                hot_fraction=hot_fraction,
                hot_weight=hot_weight,
            )
        )
    )


def popularity_cdf(
    kind: str,
    count: int,
    *,
    zipf_skew: float = 1.0,
    hot_fraction: float = 0.1,
    hot_weight: float = 0.9,
) -> tuple[float, ...]:
    """The running-total form of :func:`popularity_weights`, memoized.

    Keyed on the full parameter tuple and computed once per distinct
    spec - population setup is O(catalogue), not O(clients x catalogue).
    The object engine passes the shared tuple straight to
    ``choices(cum_weights=)``; draws are bit-identical to accumulating
    raw weights per client.
    The returned tuple is shared and must not be mutated.
    """
    return _popularity_cdf(kind, count, zipf_skew, hot_fraction, hot_weight)


#: Longest quantile table a think-time mean may expand to (entries).
#: ``1 - exp(-k/mean)`` reaches float 1.0 near ``k ~ 37 * mean``, so the
#: cap covers means up to roughly 1700 slots; beyond it the closed-form
#: fallback applies (identically in both engines).
_THINK_TABLE_CAP = 1 << 16


@lru_cache(maxsize=64)
def think_quantiles(mean: int) -> tuple[float, ...] | None:
    """Quantile boundaries of the truncated-exponential think time.

    Entry ``k`` (0-based) is ``P[think <= k] = 1 - exp(-(k+1)/mean)``;
    a uniform draw ``u`` maps to the think time ``bisect_right(table,
    u)`` - the same computation whether done with :mod:`bisect` or
    ``numpy.searchsorted``, which is what keeps the scalar and
    vectorized engines bit-identical.  Returns ``None`` when the table
    would exceed :data:`_THINK_TABLE_CAP` entries (huge means); callers
    then use the closed form ``int(-mean * log(1 - u))``.
    """
    if mean < 1:
        raise SpecificationError(f"mean think time must be >= 1: {mean}")
    boundaries: list[float] = []
    for k in range(1, _THINK_TABLE_CAP + 1):
        boundary = 1.0 - math.exp(-k / mean)
        if boundary >= 1.0:
            return tuple(boundaries)
        boundaries.append(boundary)
    return None


def think_slots(rng: Substream, mean: int) -> int:
    """One seeded think-time draw (slots).

    Exponentially distributed with the given mean, truncated to whole
    slots; a mean of 0 is the non-thinking client (back-to-back
    requests, no draw consumed).  Every positive mean consumes exactly
    one uniform.
    """
    if mean < 0:
        raise SpecificationError(f"mean think time must be >= 0: {mean}")
    if mean == 0:
        return 0
    u = rng.random()
    table = think_quantiles(mean)
    if table is None:
        return int(-mean * math.log(1.0 - u))
    return bisect_right(table, u)
