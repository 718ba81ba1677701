"""Content-addressed work units: the currency of the distributed sweep.

A :class:`WorkUnit` is one sweep cell in wire form: the cell ``key``
(axis coordinates), its positional ``index``, the fully expanded
scenario payload, and a ``uid`` - the canonical fingerprint of
``{key, scenario}`` (see :mod:`repro.core.fingerprint`).  The uid makes
units *content-addressed*: a worker recomputes it from the payload it
received and refuses a unit whose bytes do not match its address, so a
truncated or version-skewed coordinator can never make a worker compute
the wrong cell under the right name.

Expansion here is **lazy and payload-level**: :func:`iter_units`
applies dotted overrides to the base scenario's dict form directly
(:func:`repro.sweep.expand.set_dotted`) without constructing a
:class:`~repro.api.Scenario` per cell.  Validation moves to the worker
(``Scenario.from_dict`` runs there anyway), which keeps the
coordinator's per-cell cost at microseconds - at 10^5 cells, eager
``spec.cells()`` expansion alone would serialize tens of seconds into
the coordinator's startup and cap worker scaling.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.core.fingerprint import fingerprint
from repro.errors import SpecificationError
from repro.sweep.expand import set_dotted
from repro.sweep.spec import SweepSpec, _value_key


def unit_fingerprint(key: str, scenario: Mapping[str, Any]) -> str:
    """The content address of one work unit.

    Coordinator and worker both compute this - the coordinator to name
    the unit, the worker to verify the payload it received.  The
    scenario payload is canonicalized by :func:`fingerprint` (sorted
    keys, tagged encodings), so dict ordering differences between the
    two sides cannot break addressing.
    """
    return fingerprint({"key": key, "scenario": scenario})


@dataclass(frozen=True)
class WorkUnit:
    """One grid point in wire form."""

    uid: str
    index: int
    key: str
    overrides: tuple[tuple[str, Any], ...]
    scenario: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {
            "uid": self.uid,
            "index": self.index,
            "key": self.key,
            "overrides": [list(pair) for pair in self.overrides],
            "scenario": self.scenario,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WorkUnit":
        """Rebuild a unit from its wire form, verifying the address."""
        try:
            unit = cls(
                uid=payload["uid"],
                index=payload["index"],
                key=payload["key"],
                overrides=tuple(
                    (field, value)
                    for field, value in payload["overrides"]
                ),
                scenario=dict(payload["scenario"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SpecificationError(
                f"malformed work unit: {error!r}"
            ) from error
        expected = unit_fingerprint(unit.key, unit.scenario)
        if unit.uid != expected:
            raise SpecificationError(
                f"work unit {unit.key!r} failed content verification: "
                f"addressed {unit.uid[:12]} but payload fingerprints "
                f"to {expected[:12]}"
            )
        return unit


def iter_units(spec: SweepSpec) -> Iterator[WorkUnit]:
    """Lazily expand a sweep into work units, in cell order.

    Unit keys and indices are exactly what ``spec.cells()`` would
    produce, and each unit's payload *validates to* the same scenario
    (``Scenario.from_dict(unit.scenario).to_dict() ==
    cell.scenario.to_dict()``, pinned by tests) - but the payload here
    is pre-normalization (overrides applied to a copy of the base
    payload), since per-cell ``Scenario`` construction is exactly the
    serial cost this path exists to avoid.  Consumers that compare
    against *stored* rows (which hold normalized scenarios) must
    normalize first - see the coordinator's resume path.  A sweep whose
    base payload fails to round-trip through JSON fails here, before
    anything is served.
    """
    base = json.loads(json.dumps(spec.base.to_dict()))
    fields = [axis.field for axis in spec.axes]
    grids = [axis.values for axis in spec.axes]

    for index, combo in enumerate(itertools.product(*grids)):
        overrides = tuple(zip(fields, combo))
        key = ";".join(
            f"{field_name}={_value_key(value)}"
            for field_name, value in overrides
        )
        # set_dotted copies each container it writes into, so the
        # root is the only one to copy here.
        payload = dict(base)
        for field_name, value in overrides:
            set_dotted(payload, field_name, value)
        yield WorkUnit(
            uid=unit_fingerprint(key, payload),
            index=index,
            key=key,
            overrides=overrides,
            scenario=payload,
        )


#: Row fields (and nested traffic fields) that legitimately differ
#: between two runs of the same cell: wall-clock derived, or the
#: observational cache_hit flag (which worker saw the first miss).
VOLATILE_ROW_FIELDS = ("elapsed", "cache_hit")
VOLATILE_TRAFFIC_FIELDS = ("requests_per_sec", "workers")


def strip_volatile(row: Mapping[str, Any]) -> dict[str, Any]:
    """A copy of one run-store row minus its volatile fields.

    This is the comparison form behind the core invariant: for any
    worker count and any kill schedule, the distributed row set equals
    a serial :func:`~repro.sweep.orchestrate.run_sweep` row set under
    this projection (everything else - results, fingerprints, keys -
    is bit-identical).
    """
    out = {
        field: value
        for field, value in row.items()
        if field not in VOLATILE_ROW_FIELDS
    }
    result = out.get("result")
    if isinstance(result, Mapping):
        result = json.loads(json.dumps(result))
        traffic = result.get("traffic")
        if isinstance(traffic, dict):
            for field in VOLATILE_TRAFFIC_FIELDS:
                traffic.pop(field, None)
        out["result"] = result
    return out
