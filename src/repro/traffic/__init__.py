"""Open-loop traffic simulation: client populations at scale.

Where :mod:`repro.sim.runner` replays a fixed, closed list of requests,
this subpackage models *sustained load*: populations of client sessions
arriving over time, each a small state machine issuing requests against
the shared broadcast channel.  The pieces:

* :mod:`repro.traffic.kernel` - the discrete-event kernel: an event
  heap keyed on broadcast slots;
* :mod:`repro.traffic.arrivals` - arrival processes (Poisson,
  deterministic, bursty) and popularity laws (uniform, Zipf, hot/cold)
  over per-client seeded RNG substreams;
* :mod:`repro.traffic.clients` - session state machines with
  think-time, optional client caching, and the single-receiver
  constraint;
* :mod:`repro.traffic.metrics` - streaming metrics: exact latency,
  age and quorum histograms with exact shard merging;
* :mod:`repro.traffic.spec` - the declarative, JSON-round-trippable
  :class:`TrafficSpec` that :class:`repro.api.Scenario` embeds;
* :mod:`repro.traffic.simulate` - :func:`simulate_traffic`: run the
  population on the vectorized :mod:`repro.traffic.engine_soa` (the
  default) or on the session objects (``engine="object"``, the
  executable spec), sharding it across processes for multi-core runs
  (pooled vectorized shards receive the parent's retrieval tables
  pickled).

Quickstart::

    from repro.traffic import TrafficSpec, simulate_traffic

    result = simulate_traffic(
        program,
        catalogue=["hot", "warm", "cold"],
        spec=TrafficSpec(clients=10_000, duration=100_000),
        file_sizes={"hot": 2, "warm": 3, "cold": 5},
        deadlines={"hot": 20, "warm": 40, "cold": 80},
        max_workers=8,
    )
    print(result.report())
"""

from repro.traffic.arrivals import (
    ARRIVAL_KINDS,
    POPULARITY_KINDS,
    arrival_rng,
    arrival_slot,
    client_rng,
    popularity_weights,
    think_slots,
)
from repro.traffic.clients import (
    ClientSession,
    RequestRecord,
    TransactionSession,
)
from repro.traffic.kernel import EventKernel
from repro.traffic.metrics import TrafficMetrics
from repro.traffic.spec import CACHE_KINDS, TrafficSpec
from repro.traffic.simulate import (
    ENGINES,
    TrafficResult,
    shard_bounds,
    simulate_traffic,
    simulate_traffic_shard,
)

__all__ = [
    "ARRIVAL_KINDS",
    "CACHE_KINDS",
    "ENGINES",
    "POPULARITY_KINDS",
    "ClientSession",
    "EventKernel",
    "RequestRecord",
    "TrafficMetrics",
    "TrafficResult",
    "TrafficSpec",
    "TransactionSession",
    "arrival_rng",
    "arrival_slot",
    "client_rng",
    "popularity_weights",
    "shard_bounds",
    "simulate_traffic",
    "simulate_traffic_shard",
    "think_slots",
]
