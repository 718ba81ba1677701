"""Dotted-field overrides over scenarios, copy-on-write.

A sweep axis names any scenario field by its dotted JSON path -
``"faults.probability"``, ``"traffic.clients"``, ``"files.0.blocks"``,
``"scheduler_policy"`` - and :func:`set_dotted` writes one value at that
path.  It copies every container on the path before writing into it,
and a built spec it meets becomes its JSON form one level deep
(:func:`repro.fields.open_spec`), so the same rule edits a scenario's
dict form and a built scenario.

:func:`overridden` builds a cell's scenario from a built base: it opens
the base one level, writes every override, and loads the result through
:meth:`repro.api.Scenario.from_dict` once.  Only the specs on an
override path are rebuilt - each from its dumped form, its ancestors'
cross-field rules run again - while every other subtree (the other file
entries, the traffic and temporal blocks, ...) passes through as the
object already built.  So every expanded cell is validated eagerly: a
typo'd field or an inconsistent value fails at expansion, before any
work is dispatched, with the message a whole-scenario round trip gives.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import SpecificationError
from repro.fields import open_spec
from repro.api.scenario import Scenario


def split_field(field: str) -> list[str]:
    """Split and validate a dotted field path."""
    if not isinstance(field, str) or not field:
        raise SpecificationError(
            f"sweep axis field must be a non-empty dotted path, got "
            f"{field!r}"
        )
    segments = field.split(".")
    if any(not segment for segment in segments):
        raise SpecificationError(
            f"sweep axis field {field!r} has an empty path segment"
        )
    return segments


def set_dotted(payload: dict[str, Any], field: str, value: Any) -> None:
    """Set ``field`` (a dotted path) to ``value`` inside ``payload``.

    Copy-on-write: each container on the path is replaced by a copy
    before it is written into, and a built spec by its one-level JSON
    form, so ``payload`` is the only object this mutates.  Intermediate
    objects that are absent or ``null`` are created as empty dicts (so
    ``"traffic.clients"`` works on a base scenario without a traffic
    block - the remaining keys take their spec defaults).  Numeric
    segments index into lists (``"files.1.blocks"``) and must be in
    range; anything else along the path that is not a container is a
    :class:`SpecificationError`.
    """
    segments = split_field(field)
    container: Any = payload
    for depth, segment in enumerate(segments[:-1]):
        path = ".".join(segments[: depth + 1])
        if isinstance(container, list):
            index = _list_index(container, segment, path)
            nested = container[index] = _opened(container[index])
        elif isinstance(container, dict):
            nested = container.get(segment)
            nested = container[segment] = (
                {} if nested is None else _opened(nested)
            )
        else:
            raise SpecificationError(
                f"sweep field {field!r}: {path!r} is not an object "
                f"({type(container).__name__})"
            )
        container = nested
    last = segments[-1]
    if isinstance(container, list):
        index = _list_index(container, last, field)
        container[index] = value
    elif isinstance(container, dict):
        container[last] = value
    else:
        raise SpecificationError(
            f"sweep field {field!r}: cannot set a key on "
            f"{type(container).__name__}"
        )


def _opened(value: Any) -> Any:
    """A fresh container to write into in place of ``value``; anything
    that is not a container stays as it is."""
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, list):
        return list(value)
    opened = open_spec(value)
    return value if opened is None else opened


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


def normalized(scenario: Scenario) -> Scenario:
    """``scenario`` as its JSON form loads: a value a spec stores but
    never writes (a ``"none"`` fault model's probability, say) takes its
    default, as it does in a round trip."""
    return Scenario.from_dict(scenario.to_dict())


def overridden(base: Scenario, overrides: Mapping[str, Any]) -> Scenario:
    """``base`` with every dotted override applied.

    ``base`` must be :func:`normalized`.  Every override is written
    before anything is validated, so no intermediate state (a quorum
    above the old channel count, say) is ever checked; malformed cells
    raise :class:`~repro.errors.SpecificationError` here.
    """
    payload = open_spec(base)
    for field, value in overrides.items():
        set_dotted(payload, field, value)
    return Scenario.from_dict(payload)


def apply_overrides(
    scenario: Scenario, overrides: Mapping[str, Any]
) -> Scenario:
    """A copy of ``scenario`` with every dotted override applied.

    The result equals a round trip of the whole scenario through its
    dict form with the overrides written in; malformed cells raise
    :class:`~repro.errors.SpecificationError` here.
    """
    return overridden(normalized(scenario), overrides)
