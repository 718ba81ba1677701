"""Canonical content hashing for pinwheel instances.

Parameter sweeps routinely vary fault and traffic knobs while leaving
the scheduled pinwheel instance untouched; a *fingerprint* is what lets
a solve-cache notice that.  Two requirements shape the encoding:

* **stable across processes** - the hash must not depend on interpreter
  state (``PYTHONHASHSEED``, dict insertion order, object identity), so
  the canonical form is JSON with sorted keys and compact separators,
  digested with SHA-256;
* **order-preserving over tasks** - schedulers break ties by declaration
  order, so two systems with the same tasks in different orders may
  legitimately solve to different schedules.  ``system_fingerprint``
  therefore hashes the task *sequence*, not the task *set*.

:func:`fingerprint` is the generic entry point (any JSON-able payload,
plus tuples, :class:`~fractions.Fraction`, and arbitrary hashables via
tagged encodings); :func:`system_fingerprint` applies it to a
:class:`~repro.core.task.PinwheelSystem`.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any

from repro.core.task import PinwheelSystem


def _tagged(value: Any) -> list:
    """The tagged JSON form of a value JSON has no type for.

    The tag keeps e.g. the string ``"1/2"`` and the fraction ``1/2``
    from colliding.  Task identities may be arbitrary hashables; repr is
    deterministic for the remaining stdlib scalars worth supporting.
    """
    if isinstance(value, Fraction):
        return ["fraction", value.numerator, value.denominator]
    if isinstance(value, (set, frozenset)):
        return ["set", sorted(repr(item) for item in value)]
    if isinstance(value, bytes):
        return ["bytes", value.hex()]
    return ["repr", repr(value)]


_NESTED = (dict, list, tuple)


def _str_keys(payload: Any) -> Any:
    """``payload`` with every dict key written as ``str(key)``.

    The encoder alone would write a ``True`` key as ``true`` and sort
    int keys by value; the canonical form sorts the stringified keys
    (and a later key that stringifies alike wins).  A container is
    returned as it is unless a key inside it changes, so a payload with
    string keys only - every payload the library builds - is walked,
    never copied.
    """
    if isinstance(payload, dict):
        for key, value in payload.items():
            if type(key) is not str or (
                isinstance(value, _NESTED) and _str_keys(value) is not value
            ):
                break
        else:
            return payload
        return {
            str(key): _str_keys(value) if isinstance(value, _NESTED)
            else value
            for key, value in payload.items()
        }
    for item in payload:
        if isinstance(item, _NESTED) and _str_keys(item) is not item:
            break
    else:
        return payload
    return [
        _str_keys(item) if isinstance(item, _NESTED) else item
        for item in payload
    ]


#: Sorted keys and compact separators; tuples are lists, and any value
#: JSON has no type for takes its tagged form.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, default=_tagged
)


def canonical_json(payload: Any) -> str:
    """The canonical JSON text :func:`fingerprint` digests."""
    if isinstance(payload, _NESTED):
        payload = _str_keys(payload)
    return _ENCODER.encode(payload)


def fingerprint(payload: Any) -> str:
    """SHA-256 hex digest of the canonical form of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def system_fingerprint(system: PinwheelSystem) -> str:
    """Content fingerprint of a pinwheel system.

    Hashes the ordered ``(ident, a, b)`` sequence: task order is part of
    the instance identity because scheduler tie-breaking is
    order-sensitive (see the module docstring).
    """
    return fingerprint(
        ["pinwheel-system", [[t.ident, t.a, t.b] for t in system.tasks]]
    )
