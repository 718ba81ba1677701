"""The declarative traffic specification.

:class:`TrafficSpec` is to the traffic subsystem what
:class:`repro.api.FaultSpec` is to the channel: one immutable,
JSON-round-trippable object naming the whole open-loop population - how
many clients, over how many slots, arriving how, asking for what, and
behaving how once connected.  ``repro.api.Scenario`` embeds one under
its ``"traffic"`` key; the CLI's ``repro traffic`` subcommand overrides
its headline fields from flags.

The spec declares its fields once (:mod:`repro.fields`), and the one
walker that reads those declarations parses, checks and serializes it:
construction raises :class:`repro.errors.SpecificationError` on any
wrong-typed or out-of-range value, naming the field, and serialization
emits only the parameters the chosen kinds actually use, matching the
``FaultSpec`` idiom.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fields import Int, Number, Spec, Str, spec_field, when
from repro.traffic.arrivals import ARRIVAL_KINDS, POPULARITY_KINDS

#: Cache policies a session population can run in front of retrievals.
CACHE_KINDS = ("lru", "pix")


@dataclass(frozen=True)
class TrafficSpec(Spec):
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

    clients: int = spec_field(Int(1), default=100)
    duration: int = spec_field(Int(1), default=1000)
    arrival: str = spec_field(Str(*ARRIVAL_KINDS), default="poisson")
    popularity: str = spec_field(Str(*POPULARITY_KINDS), default="zipf")
    requests_per_client: int = spec_field(Int(1), default=1)
    think_time: int = spec_field(Int(0), default=0)
    seed: int = spec_field(Int(), default=0)
    # Each kind's parameters serialize only when that kind is chosen.
    zipf_skew: float = spec_field(
        Number(0), default=1.0, emit=when("popularity", "zipf")
    )
    hot_fraction: float = spec_field(
        Number(above=0, maximum=1),
        default=0.1,
        emit=when("popularity", "hotcold"),
    )
    hot_weight: float = spec_field(
        Number(0, maximum=1),
        default=0.9,
        emit=when("popularity", "hotcold"),
    )
    bursts: int = spec_field(
        Int(1), default=8, emit=when("arrival", "bursty")
    )
    burst_width: int = spec_field(
        Int(1), default=64, emit=when("arrival", "bursty")
    )
    cache: str | None = spec_field(
        Str(*CACHE_KINDS), default=None, emit="set"
    )
    cache_capacity: int = spec_field(
        Int(1), default=4, emit=when("cache", *CACHE_KINDS)
    )
    max_slots: int | None = spec_field(Int(1), default=None, emit="set")

    @property
    def total_requests(self) -> int:
        """Requests the whole population will issue."""
        return self.clients * self.requests_per_client

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
