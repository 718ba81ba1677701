"""Copy-then-encode reference for the canonical JSON text, shared by
the core tests as the oracle of :func:`repro.core.canonical_json`.

The payload is first reduced to a generic copy in plain JSON types
(string keys, lists, tagged non-JSON scalars), then encoded.
"""

import json
from fractions import Fraction
from typing import Any


def _canonical(payload: Any) -> Any:
    if payload is None or isinstance(payload, (str, int, float, bool)):
        return payload
    if isinstance(payload, Fraction):
        return ["fraction", payload.numerator, payload.denominator]
    if isinstance(payload, dict):
        return {str(key): _canonical(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_canonical(item) for item in payload]
    if isinstance(payload, (set, frozenset)):
        return ["set", sorted(repr(item) for item in payload)]
    if isinstance(payload, bytes):
        return ["bytes", payload.hex()]
    return ["repr", repr(payload)]


def reference_canonical_json(payload: Any) -> str:
    """The canonical JSON text of ``payload``, by copy then encode."""
    return json.dumps(
        _canonical(payload),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
