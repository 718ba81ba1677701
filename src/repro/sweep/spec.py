"""Declarative sweep specifications.

A :class:`SweepSpec` is to a parameter study what
:class:`repro.api.Scenario` is to one experiment: a single immutable,
JSON-round-trippable object naming the whole grid - a base scenario plus
*axes*, each a dotted scenario field with the values to try.  Expansion
takes the cross-product in axis order and yields one validated
:class:`SweepCell` per combination; orchestration
(:func:`repro.sweep.orchestrate.run_sweep`) runs them.

A spec file looks like::

    {
      "name": "fault-grid",
      "base": { ... any Scenario payload ... },
      "axes": [
        {"field": "faults.probability",
         "values": [0.0, 0.02, 0.05, 0.1]},
        {"field": "workload.zipf_skew",
         "range": {"start": 0.0, "stop": 1.5, "step": 0.5}}
      ]
    }

``values`` lists arbitrary JSON values (numbers, strings, lists - e.g.
scheduler policies); ``range`` is sugar for an inclusive numeric
progression.  Cells carry a stable ``key`` (the canonical
``field=value`` list), which is what the run store uses to resume.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import SpecificationError
from repro.fields import (
    Anything,
    ListOf,
    Number,
    Spec,
    Str,
    check_fields,
    spec_field,
)
from repro.api.scenario import Scenario
from repro.sweep.expand import normalized, overridden, split_field


@dataclass(frozen=True)
class AxisRange(Spec):
    """An inclusive numeric progression ``start, start + step, ...,
    stop`` - the ``range`` sugar of a :class:`SweepAxis`."""

    start: float = spec_field(Number())
    stop: float = spec_field(Number())
    step: float = spec_field(Number(above=0), default=1)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.stop < self.start:
            raise SpecificationError(
                f"range stop {self.stop} is below start {self.start}"
            )

    def values(self) -> tuple[int | float, ...]:
        """The progression's values (ints when every bound is one)."""
        start, stop, step = self.start, self.stop, self.step
        exact = all(isinstance(v, int) for v in (start, stop, step))
        values: list[int | float] = []
        index = 0
        # Generate by multiplication, not accumulation, so float steps
        # do not drift; the epsilon keeps an intended endpoint inclusive.
        while True:
            value = start + index * step
            if value > stop + (0 if exact else 1e-9 * max(1.0, abs(stop))):
                break
            values.append(value if exact else float(min(value, stop)))
            index += 1
        return tuple(values)


@dataclass(frozen=True)
class SweepAxis(Spec):
    """One grid dimension: a dotted scenario field and its values.

    The JSON form gives either ``values`` or an inclusive ``range``; a
    range is expanded here, and the axis serializes as its values.
    """

    field: str = spec_field(Str())
    values: tuple[Any, ...] | None = spec_field(
        ListOf(Anything()), default=None
    )
    range: AxisRange | None = spec_field(AxisRange, default=None, emit="set")

    def __post_init__(self) -> None:
        check_fields(self)
        split_field(self.field)  # validates the dotted path
        if (self.values is None) == (self.range is None):
            raise SpecificationError(
                f"sweep axis {self.field!r}: exactly one of 'values' "
                f"and 'range' is required"
            )
        if self.range is not None:
            object.__setattr__(self, "values", self.range.values())
            object.__setattr__(self, "range", None)
        if not self.values:
            raise SpecificationError(
                f"sweep axis {self.field!r}: at least one value is "
                f"required"
            )
        # Duplicate values would expand into cells with identical keys:
        # redundant work that the run store then collapses to one row.
        tokens = [_value_key(value) for value in self.values]
        if len(set(tokens)) != len(tokens):
            dupes = sorted({t for t in tokens if tokens.count(t) > 1})
            raise SpecificationError(
                f"sweep axis {self.field!r}: duplicate values {dupes}"
            )


#: The one encoder of axis-value keys (``json.dumps`` with these
#: settings would build a new encoder per call).
_KEY_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)


def _value_key(value: Any) -> str:
    """A canonical compact JSON rendering of one axis value."""
    try:
        return _KEY_ENCODER.encode(value)
    except (TypeError, ValueError) as error:
        raise SpecificationError(
            f"sweep axis value {value!r} is not JSON-serializable: "
            f"{error}"
        ) from error


@dataclass(frozen=True)
class SweepCell:
    """One expanded grid point.

    ``key`` is the cell's stable identity - the canonical
    ``field=value`` list in axis order - used by the run store to skip
    completed cells on resume.  ``scenario`` is the fully validated
    concrete scenario.
    """

    index: int
    key: str
    overrides: tuple[tuple[str, Any], ...]
    scenario: Scenario


@dataclass(frozen=True)
class SweepSpec(Spec):
    """A base scenario crossed with axes - the whole parameter study."""

    name: str = spec_field(Str(nonempty=True))
    base: Scenario = spec_field(Scenario)
    axes: tuple[SweepAxis, ...] = spec_field(ListOf(SweepAxis), default=())

    def __post_init__(self) -> None:
        check_fields(self)
        fields = [axis.field for axis in self.axes]
        if len(set(fields)) != len(fields):
            dupes = sorted({f for f in fields if fields.count(f) > 1})
            raise SpecificationError(
                f"sweep {self.name!r}: duplicate axis fields {dupes}"
            )

    @property
    def total_cells(self) -> int:
        """Grid size: the product of axis lengths (1 with no axes)."""
        total = 1
        for axis in self.axes:
            total *= len(axis.values)
        return total

    def cells(self) -> tuple[SweepCell, ...]:
        """Expand the cross-product into validated cells, in axis order.

        The first axis varies slowest (row-major, like nested loops in
        declaration order).  Every cell's scenario is constructed - and
        therefore validated - here, so a malformed grid point fails
        before any work is dispatched.  The base is normalized once;
        each cell rebuilds only the specs its overrides change and
        shares the rest with the base (:func:`repro.sweep.expand.overridden`).
        """
        fields = [axis.field for axis in self.axes]
        grids = [axis.values for axis in self.axes]
        base = normalized(self.base)
        cells = []
        for index, combo in enumerate(itertools.product(*grids)):
            overrides = tuple(zip(fields, combo))
            key = ";".join(
                f"{field_name}={_value_key(value)}"
                for field_name, value in overrides
            )
            scenario = overridden(base, dict(overrides))
            cells.append(
                SweepCell(
                    index=index,
                    key=key,
                    overrides=overrides,
                    scenario=scenario,
                )
            )
        return tuple(cells)

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Parse a sweep spec from a JSON string."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecificationError(
                f"invalid sweep JSON: {error}"
            ) from error
        return cls.from_dict(payload)

    @classmethod
    def from_file(cls, path: str | Path) -> "SweepSpec":
        """Load a sweep spec from a JSON file."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as error:
            raise SpecificationError(
                f"cannot read sweep file {path}: {error}"
            ) from error
        return cls.from_json(text)

    def save(self, path: str | Path) -> None:
        """Write the sweep spec to a JSON file."""
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")
