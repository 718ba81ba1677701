"""Client-side caching for broadcast disks.

The broadcast-disk literature the paper builds on (Acharya, Franklin &
Zdonik) pairs the server's program with client cache management: a mobile
client with a small buffer should not cache what the server broadcasts
most often, but what is *valuable relative to its broadcast frequency*.
This module provides the two classic policies plus the caching client the
examples and benches use:

* :class:`LruCache` - ordinary recency-based replacement (the baseline
  Acharya et al. argue against for broadcast environments);
* :class:`PixCache` - their ``PIX`` rule: evict the page with the lowest
  ratio of access probability to broadcast frequency, so hot-but-
  frequently-rebroadcast items make way for warm-but-rare ones;
* :class:`CachingClient` - wraps retrieval with a cache: a hit answers in
  zero slots, a miss pays the broadcast latency and inserts.

The cache operates at file granularity (the unit of reconstruction): once
a client holds a file's ``m`` blocks it holds the file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol

from repro.errors import SimulationError, SpecificationError
from repro.bdisk.program import BroadcastProgram
from repro.sim.client import RetrievalResult, listen_horizon, retrieve
from repro.sim.faults import FaultModel, NoFaults


class CachePolicy(Protocol):
    """Chooses victims for a full cache."""

    def on_access(self, name: str, now: int) -> None:
        """Record a reference to ``name`` at time ``now``."""
        ...

    def victim(self, resident: set[str]) -> str:
        """Pick the resident entry to evict."""
        ...


class LruCache:
    """Least-recently-used replacement."""

    def __init__(self) -> None:
        self._last_use: dict[str, int] = {}

    def on_access(self, name: str, now: int) -> None:
        self._last_use[name] = now

    def victim(self, resident: set[str]) -> str:
        # Ties (equal last use, or several never-seen residents) break on
        # the name: set iteration order follows randomized string hashes,
        # so keying on it would make eviction vary run to run.
        return min(
            resident, key=lambda name: (self._last_use.get(name, -1), name)
        )

    def __repr__(self) -> str:
        return "LruCache()"


class PixCache:
    """Acharya et al.'s PIX: evict the lowest probability / frequency.

    ``access_probability`` is the client's interest in each file;
    ``broadcast_frequency`` how often the server repeats it (e.g. the
    file's slots per cycle).  Items re-broadcast constantly are cheap to
    re-fetch, so they are the first to go - even when hot.
    """

    def __init__(
        self,
        access_probability: Mapping[str, float],
        broadcast_frequency: Mapping[str, float],
    ) -> None:
        for name, value in access_probability.items():
            if value < 0:
                raise SpecificationError(
                    f"access probability for {name!r} must be >= 0"
                )
        for name, value in broadcast_frequency.items():
            if value <= 0:
                raise SpecificationError(
                    f"broadcast frequency for {name!r} must be > 0"
                )
        self._p = dict(access_probability)
        self._x = dict(broadcast_frequency)

    @classmethod
    def for_program(
        cls,
        program: BroadcastProgram,
        access_probability: Mapping[str, float],
        file_sizes: Mapping[str, int] | None = None,
    ) -> "PixCache":
        """Derive frequencies from a program's layout.

        Frequency is *full-file broadcasts per slot*: a file's slot count
        divided by its size (one reconstruction opportunity per ``m``
        slots) and by the period - so a big file occupying many slots is
        not mistaken for a frequently-repeated one.  Without
        ``file_sizes`` each appearance counts as a broadcast (size 1).
        """
        sizes = file_sizes or {}
        frequencies = {
            name: program.schedule.total(name)
            / max(1, sizes.get(name, 1))
            / program.broadcast_period
            for name in program.files
        }
        return cls(access_probability, frequencies)

    def on_access(self, name: str, now: int) -> None:
        # PIX is frequency-based, not recency-based; nothing to record.
        return None

    def pix(self, name: str) -> float:
        """The eviction score: access probability over frequency."""
        frequency = self._x.get(name)
        if frequency is None:
            raise SimulationError(
                f"no broadcast frequency known for {name!r}"
            )
        return self._p.get(name, 0.0) / frequency

    def victim(self, resident: set[str]) -> str:
        # Equal PIX scores break on the name (see LruCache.victim).
        return min(resident, key=lambda name: (self.pix(name), name))

    def __repr__(self) -> str:
        return f"PixCache(files={sorted(self._x)})"


@dataclass
class CacheStats:
    """Hit/miss accounting for one caching client."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    miss_latency: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def mean_latency(self) -> float:
        """Mean slots per access (hits are free, misses pay broadcast)."""
        if not self.accesses:
            return 0.0
        return self.miss_latency / self.accesses


@dataclass
class CachingClient:
    """A client with a bounded file cache in front of the broadcast disk.

    Parameters
    ----------
    program:
        The server's broadcast program.
    file_sizes:
        Blocks needed per file.
    capacity:
        Cache capacity in *files* (the paper's clients have small buffers
        relative to the database, which is the whole point).
    policy:
        Replacement policy (:class:`LruCache` or :class:`PixCache`).
    faults:
        Channel fault model applied to cache misses.
    max_slots:
        Per-miss listening horizon override (default: the shared
        ``(m + 2)``-data-cycle convention, see
        :func:`repro.sim.client.default_horizon`).
    """

    program: BroadcastProgram
    file_sizes: Mapping[str, int]
    capacity: int
    policy: CachePolicy
    faults: FaultModel = field(default_factory=NoFaults)
    max_slots: int | None = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise SpecificationError(
                f"cache capacity must be >= 1 file: {self.capacity}"
            )
        if self.max_slots is not None and self.max_slots < 1:
            raise SpecificationError(
                f"max_slots must be >= 1: {self.max_slots}"
            )
        self._resident: set[str] = set()
        self.stats = CacheStats()

    def horizon(self, name: str) -> int:
        """Slots a miss on ``name`` listens before giving up."""
        return listen_horizon(
            self.program, self.file_sizes[name], self.max_slots
        )

    @property
    def resident(self) -> frozenset[str]:
        """Files currently cached."""
        return frozenset(self._resident)

    def access(self, name: str, now: int) -> RetrievalResult | None:
        """Read ``name`` at slot ``now``.

        Returns ``None`` on a cache hit (zero latency); otherwise the
        broadcast :class:`RetrievalResult` for the miss.  Incomplete
        retrievals (channel black-out) are not cached.
        """
        if name not in self.file_sizes:
            raise SimulationError(f"unknown file {name!r}")
        self.policy.on_access(name, now)
        if name in self._resident:
            self.stats.hits += 1
            return None

        self.stats.misses += 1
        result = retrieve(
            self.program,
            name,
            self.file_sizes[name],
            start=now,
            faults=self.faults,
            max_slots=self.max_slots,
        )
        if result.completed and result.latency is not None:
            self.stats.miss_latency += result.latency
            if len(self._resident) >= self.capacity:
                victim = self.policy.victim(self._resident)
                self._resident.discard(victim)
                self.stats.evictions += 1
            self._resident.add(name)
        return result
