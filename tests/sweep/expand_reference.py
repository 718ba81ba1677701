"""Whole-scenario round trip for sweep expansion, shared by the sweep
tests as the oracle of the copy-on-write expander.

Every cell serializes the whole base scenario, writes each override
into the dict form in place, and parses the result again.
"""

from typing import Any, Mapping

from repro.api.scenario import Scenario
from repro.errors import SpecificationError
from repro.sweep.expand import split_field


def reference_set_dotted(
    payload: dict[str, Any], field: str, value: Any
) -> None:
    """Set dotted ``field`` to ``value`` inside ``payload``, in place."""
    segments = split_field(field)
    container: Any = payload
    for depth, segment in enumerate(segments[:-1]):
        path = ".".join(segments[: depth + 1])
        if isinstance(container, list):
            container = container[_list_index(container, segment, path)]
            continue
        if not isinstance(container, dict):
            raise SpecificationError(
                f"sweep field {field!r}: {path!r} is not an object "
                f"({type(container).__name__})"
            )
        nested = container.get(segment)
        if nested is None:
            nested = container[segment] = {}
        container = nested
    last = segments[-1]
    if isinstance(container, list):
        container[_list_index(container, last, field)] = value
    elif isinstance(container, dict):
        container[last] = value
    else:
        raise SpecificationError(
            f"sweep field {field!r}: cannot set a key on "
            f"{type(container).__name__}"
        )


def _list_index(container: list, segment: str, path: str) -> int:
    if not segment.isdigit():
        raise SpecificationError(
            f"sweep field {path!r}: {segment!r} must be a list index"
        )
    index = int(segment)
    if index >= len(container):
        raise SpecificationError(
            f"sweep field {path!r}: index {index} out of range "
            f"(list has {len(container)} items)"
        )
    return index


def reference_apply_overrides(
    scenario: Scenario, overrides: Mapping[str, Any]
) -> Scenario:
    """``scenario`` round-tripped through its dict form with every
    override written in."""
    payload = scenario.to_dict()
    for field, value in overrides.items():
        reference_set_dotted(payload, field, value)
    return Scenario.from_dict(payload)
