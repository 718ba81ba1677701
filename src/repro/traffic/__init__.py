"""Open-loop traffic simulation: client populations at scale.

Where :mod:`repro.sim.runner` replays a fixed, closed list of requests,
this subpackage models *sustained load*: populations of clients
arriving over time, each issuing a bounded run of requests against the
shared broadcast channel, one retrieval at a time.  The pieces:

* :mod:`repro.traffic.arrivals` - arrival processes (Poisson,
  deterministic, bursty) and popularity laws (uniform, Zipf, hot/cold)
  over per-client seeded RNG substreams;
* :mod:`repro.traffic.metrics` - streaming metrics: exact latency,
  age and quorum histograms with exact shard merging;
* :mod:`repro.traffic.spec` - the declarative, JSON-round-trippable
  :class:`TrafficSpec` that :class:`repro.api.Scenario` embeds;
* :mod:`repro.traffic.simulate` - :func:`simulate_traffic`: run the
  population on the vectorized :mod:`repro.traffic.engine_soa` (the
  default) or as one plain loop per client (``engine="object"``, the
  executable spec), sharding it across processes for multi-core runs
  (pooled vectorized shards receive the parent's retrieval tables
  pickled).

Clients are independent, so no engine needs a global event heap; the
online server (:mod:`repro.server`) serves its live clients one at a
time in the same way.

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
from repro.traffic.metrics import TrafficMetrics
from repro.traffic.spec import CACHE_KINDS, TrafficSpec
from repro.traffic.simulate import (
    ENGINES,
    RequestRecord,
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
    "RequestRecord",
    "TrafficMetrics",
    "TrafficResult",
    "TrafficSpec",
    "arrival_rng",
    "arrival_slot",
    "client_rng",
    "popularity_weights",
    "shard_bounds",
    "simulate_traffic",
    "simulate_traffic_shard",
    "think_slots",
]
