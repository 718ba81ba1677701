"""Slotted broadcast-channel simulation.

The paper's claims are adversarial worst-case statements (Lemmas 1-2,
Figure 7) plus a qualitative story about real-time retrieval under an
unreliable broadcast medium.  This subpackage provides both sides:

* :mod:`repro.sim.faults` - block-error models: none, seeded Bernoulli,
  bursty (Gilbert-style), and explicit adversarial slot sets;
* :mod:`repro.sim.client` - a client that tunes in at a phase, collects
  blocks of a target file (any-``m``-distinct with IDA, every specific
  block without), and reconstructs;
* :mod:`repro.sim.delay` - exact worst-case delays (Figure 7) as closed
  forms on each file's block rotation, and the Lemma 1/2 upper bounds;
* :mod:`repro.sim.workload` - seeded random file sets, pinwheel
  instances with target density, and request streams;
* :mod:`repro.sim.metrics` - latency summaries and deadline-miss rates;
* :mod:`repro.sim.runner` - end-to-end simulation loops.

The seed slot-walking implementations, the executable spec the
occurrence-indexed fast paths are property-tested against, live with the
tests (``tests/oracles/sim_reference.py``).
"""

from repro.sim.faults import (
    AdversarialFaults,
    BernoulliFaults,
    BurstFaults,
    FaultModel,
    NoFaults,
    lost_in,
)
from repro.sim.client import RetrievalResult, retrieve
from repro.sim.delay import (
    DelayTableRow,
    chosen_channel_delay,
    fault_free_latency,
    lemma1_bound,
    lemma2_bound,
    worst_case_delay,
    worst_case_delay_table,
)
from repro.sim.metrics import LatencySummary, summarize_latencies
from repro.sim.workload import (
    random_file_set,
    random_pinwheel_system,
    request_stream,
)
from repro.sim.runner import SimulationResult, simulate_requests
from repro.sim.cache import CachingClient, LruCache, PixCache
from repro.sim.channel import ByteChannel, broadcast_retrieve

__all__ = [
    "AdversarialFaults",
    "BernoulliFaults",
    "BurstFaults",
    "FaultModel",
    "NoFaults",
    "lost_in",
    "RetrievalResult",
    "retrieve",
    "DelayTableRow",
    "chosen_channel_delay",
    "fault_free_latency",
    "lemma1_bound",
    "lemma2_bound",
    "worst_case_delay",
    "worst_case_delay_table",
    "LatencySummary",
    "summarize_latencies",
    "random_file_set",
    "random_pinwheel_system",
    "request_stream",
    "SimulationResult",
    "simulate_requests",
    "CachingClient",
    "LruCache",
    "PixCache",
    "ByteChannel",
    "broadcast_retrieve",
]
