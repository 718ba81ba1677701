"""Memo tables that are open for one scope.

The cells of a sweep repeat work that does not depend on what differs
between them.  Cells that share a fault seed draw the same uniform for a
slot, whatever their loss probability, and cells that check the same
file disperse the same blocks.  A :class:`ScopedMemo` keeps such values
while a scope is open (:func:`opened`) and stores nothing outside one,
so a caller outside every scope - a traffic run, a live server -
computes each value afresh, as if the table did not exist.

A table is bounded: past ``limit`` entries, values are computed but no
longer stored.  ``hits`` counts the lookups a table answered over the
process's lifetime; callers that report hits tally its deltas.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Hashable, Iterator

_MISSING = object()


class ScopedMemo:
    """A bounded table of values keyed by everything they depend on.

    Only a value that is a pure function of its key may be stored: a
    lookup answered from the table must equal ``compute(key)``.
    """

    __slots__ = ("limit", "entries", "hits")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        #: The open table, or ``None`` outside every scope.
        self.entries: dict[Hashable, Any] | None = None
        self.hits = 0

    def lookup(self, key: Hashable, compute: Callable[[Any], Any]) -> Any:
        """``compute(key)``, answered from the table when it is open and
        holds ``key``."""
        entries = self.entries
        if entries is None:
            return compute(key)
        value = entries.get(key, _MISSING)
        if value is _MISSING:
            value = compute(key)
            if len(entries) < self.limit:
                entries[key] = value
        else:
            self.hits += 1
        return value


@contextmanager
def opened(*memos: ScopedMemo) -> Iterator[None]:
    """Open a fresh table for each of ``memos`` for the block, and close
    them on exit, normal or by an exception."""
    for memo in memos:
        memo.entries = {}
    try:
        yield
    finally:
        for memo in memos:
            memo.entries = None
