"""The real-time database layer: the paper's motivating domain.

Broadcast disks exist to serve real-time database clients - IVHS vehicles,
AWACS consoles, battlefield wearables.  This subpackage supplies that
vocabulary on top of the broadcast/scheduling machinery:

* :mod:`repro.rtdb.temporal` - absolute temporal consistency: how a data
  object's dynamics (e.g. an aircraft at 900 km/h with a 100 m accuracy
  requirement) become a latency budget (400 ms);
* :mod:`repro.rtdb.items` - data items binding a payload to its temporal
  constraint and criticality;
* :mod:`repro.rtdb.modes` - operation modes ("combat", "landing") that
  re-weight per-item fault budgets, driving AIDA's bandwidth-allocation
  step;
* :mod:`repro.rtdb.updates` - versioned update dissemination and
  occurrence-walking version-consistent retrieval;
* :mod:`repro.rtdb.transactions` - deadline-tagged read transactions
  executed against a broadcast program, with temporal-consistency
  checking (latency- or version-age-based);
* :mod:`repro.rtdb.spec` - the declarative :class:`TemporalSpec` that
  ``repro.api.Scenario`` embeds, deriving the broadcast catalogue from
  the item population and active mode.

The seed slot-walking implementations, the executable spec for the
equivalence property tests and the ``bench_rtdb`` before/after
measurement, live with the tests (``tests/oracles/rtdb_reference.py``).
"""

from repro.rtdb.temporal import (
    TemporalConstraint,
    constraint_from_kinematics,
    latency_budget_slots,
)
from repro.rtdb.items import DataItem
from repro.rtdb.modes import ModeManager, OperationMode
from repro.rtdb.transactions import (
    ReadTransaction,
    TransactionResult,
    execute_transaction,
)
from repro.rtdb.updates import (
    MAX_DEFAULT_HORIZON,
    UpdatingServer,
    VersionedRetrieval,
    consistency_rate,
    retrieve_versioned,
    versioned_horizon,
)
from repro.rtdb.spec import (
    TemporalItemSpec,
    TemporalSpec,
    TransactionSpec,
)

__all__ = [
    "TemporalConstraint",
    "constraint_from_kinematics",
    "latency_budget_slots",
    "DataItem",
    "ModeManager",
    "OperationMode",
    "ReadTransaction",
    "TransactionResult",
    "execute_transaction",
    "MAX_DEFAULT_HORIZON",
    "UpdatingServer",
    "VersionedRetrieval",
    "consistency_rate",
    "retrieve_versioned",
    "versioned_horizon",
    "TemporalItemSpec",
    "TemporalSpec",
    "TransactionSpec",
]
