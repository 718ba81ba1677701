"""The declarative traffic specification.

:class:`TrafficSpec` is to the traffic subsystem what
:class:`repro.api.FaultSpec` is to the channel: one immutable,
JSON-round-trippable object naming the whole open-loop population - how
many clients, over how many slots, arriving how, asking for what, and
behaving how once connected.  ``repro.api.Scenario`` embeds one under
its ``"traffic"`` key; the CLI's ``repro traffic`` subcommand overrides
its headline fields from flags.

Validation is eager (construction raises
:class:`repro.errors.SpecificationError` on any inconsistent value) and
serialization emits only the parameters the chosen kinds actually use,
matching the ``FaultSpec`` idiom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import SpecificationError, check_int, check_number
from repro.traffic.arrivals import ARRIVAL_KINDS, POPULARITY_KINDS

#: Cache policies a session population can run in front of retrievals.
CACHE_KINDS = ("lru", "pix")


@dataclass(frozen=True)
class TrafficSpec:
    """An open-loop client population over a broadcast channel.

    Attributes
    ----------
    clients:
        Session count arriving over the run.
    duration:
        Arrival horizon in slots (sessions arrive in ``[0, duration)``;
        their retrievals may drain beyond it).
    arrival:
        ``"poisson"``, ``"deterministic"``, or ``"bursty"`` (see
        :mod:`repro.traffic.arrivals`).
    popularity:
        ``"uniform"``, ``"zipf"``, or ``"hotcold"`` file choice over the
        hottest-first catalogue.
    zipf_skew:
        Skew for ``"zipf"`` popularity.
    hot_fraction / hot_weight:
        Hot-set shape for ``"hotcold"`` popularity.
    bursts / burst_width:
        Flash-crowd shape for ``"bursty"`` arrivals.
    requests_per_client:
        Requests each session issues before leaving.
    think_time:
        Mean think time between a session's requests (slots,
        exponentially distributed; 0 = back-to-back).
    cache:
        ``None`` (no client cache), ``"lru"``, or ``"pix"``.
    cache_capacity:
        Client cache capacity in files (when caching).
    max_slots:
        Per-retrieval listening horizon override (default: the
        retriever's ``(m + 2)`` data cycles).
    seed:
        Master seed; every client derives an independent substream.
    """

    clients: int = 100
    duration: int = 1000
    arrival: str = "poisson"
    popularity: str = "zipf"
    zipf_skew: float = 1.0
    hot_fraction: float = 0.1
    hot_weight: float = 0.9
    bursts: int = 8
    burst_width: int = 64
    requests_per_client: int = 1
    think_time: int = 0
    cache: str | None = None
    cache_capacity: int = 4
    max_slots: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_int(self.clients, "traffic clients", minimum=1)
        check_int(self.duration, "traffic duration", minimum=1)
        if self.arrival not in ARRIVAL_KINDS:
            raise SpecificationError(
                f"unknown arrival kind {self.arrival!r} "
                f"(expected one of {ARRIVAL_KINDS})"
            )
        if self.popularity not in POPULARITY_KINDS:
            raise SpecificationError(
                f"unknown popularity kind {self.popularity!r} "
                f"(expected one of {POPULARITY_KINDS})"
            )
        check_number(self.zipf_skew, "traffic zipf_skew")
        if self.zipf_skew < 0:
            raise SpecificationError(
                f"traffic zipf_skew must be >= 0: {self.zipf_skew}"
            )
        check_number(self.hot_fraction, "traffic hot_fraction")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise SpecificationError(
                f"traffic hot_fraction must be in (0, 1]: "
                f"{self.hot_fraction}"
            )
        check_number(self.hot_weight, "traffic hot_weight")
        if not 0.0 <= self.hot_weight <= 1.0:
            raise SpecificationError(
                f"traffic hot_weight must be in [0, 1]: {self.hot_weight}"
            )
        check_int(self.bursts, "traffic bursts", minimum=1)
        check_int(self.burst_width, "traffic burst_width", minimum=1)
        check_int(
            self.requests_per_client,
            "traffic requests_per_client",
            minimum=1,
        )
        check_int(self.think_time, "traffic think_time", minimum=0)
        if self.cache is not None and self.cache not in CACHE_KINDS:
            raise SpecificationError(
                f"unknown cache kind {self.cache!r} "
                f"(expected one of {CACHE_KINDS} or null)"
            )
        check_int(self.cache_capacity, "traffic cache_capacity", minimum=1)
        if self.max_slots is not None:
            check_int(self.max_slots, "traffic max_slots", minimum=1)
        check_int(self.seed, "traffic seed")

    @property
    def total_requests(self) -> int:
        """Requests the whole population will issue."""
        return self.clients * self.requests_per_client

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able dict carrying only the active kinds' parameters."""
        payload: dict[str, Any] = {
            "clients": self.clients,
            "duration": self.duration,
            "arrival": self.arrival,
            "popularity": self.popularity,
            "requests_per_client": self.requests_per_client,
            "think_time": self.think_time,
            "seed": self.seed,
        }
        if self.popularity == "zipf":
            payload["zipf_skew"] = self.zipf_skew
        elif self.popularity == "hotcold":
            payload["hot_fraction"] = self.hot_fraction
            payload["hot_weight"] = self.hot_weight
        if self.arrival == "bursty":
            payload["bursts"] = self.bursts
            payload["burst_width"] = self.burst_width
        if self.cache is not None:
            payload["cache"] = self.cache
            payload["cache_capacity"] = self.cache_capacity
        if self.max_slots is not None:
            payload["max_slots"] = self.max_slots
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TrafficSpec":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        if not isinstance(payload, Mapping):
            raise SpecificationError(
                f"traffic spec must be an object, got "
                f"{type(payload).__name__}: {payload!r}"
            )
        allowed = {
            "clients", "duration", "arrival", "popularity", "zipf_skew",
            "hot_fraction", "hot_weight", "bursts", "burst_width",
            "requests_per_client", "think_time", "cache",
            "cache_capacity", "max_slots", "seed",
        }
        unknown = set(payload) - allowed
        if unknown:
            raise SpecificationError(
                f"traffic spec: unknown keys {sorted(unknown)} "
                f"(allowed: {sorted(allowed)})"
            )
        return cls(**payload)

    def describe(self) -> str:
        """A one-line human summary (used by reports and the CLI)."""
        popularity = {
            "uniform": "uniform",
            "zipf": f"zipf(skew={self.zipf_skew})",
            "hotcold": (
                f"hotcold({self.hot_fraction:.0%} hot draws "
                f"{self.hot_weight:.0%})"
            ),
        }[self.popularity]
        arrival = self.arrival
        if self.arrival == "bursty":
            arrival = (
                f"bursty({self.bursts} bursts, width {self.burst_width})"
            )
        parts = [
            f"{self.clients} clients over {self.duration} slots",
            f"{arrival} arrivals",
            f"{popularity} popularity",
            f"{self.requests_per_client} requests/client",
        ]
        if self.think_time:
            parts.append(f"think {self.think_time}")
        if self.cache is not None:
            parts.append(
                f"{self.cache} cache x{self.cache_capacity}"
            )
        return ", ".join(parts)
