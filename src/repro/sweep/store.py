"""The resumable JSONL run store.

Every completed sweep cell is stored as one JSON line, and every write
is flushed and fsynced before it returns: the serial loop appends each
row as its cell finishes, while the process pool appends each finished
batch of rows with one group commit (:meth:`RunStore.append_many`: one
lock, one fsync).  A killed sweep keeps every row written before the
kill.  Re-invoking with ``resume=True`` reads the store back, reuses
every cell that has a row produced by the same concrete scenario (see
:class:`ResumeIndex`, the rule the serial loop and the pool share), and
runs only the rest.

Robustness over a kill mid-append: a torn *final* line (the only kind a
crash can produce, since writes are appended serially) is ignored on
read; a malformed line anywhere else means the file is not a run store
and raises :class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

import json
import os
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import SimulationError
from repro.obs import telemetry as obs

try:  # POSIX only; the store degrades to lock-free appends elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]


class RunStore:
    """Append-only JSONL storage for sweep rows."""

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)

    @property
    def path(self) -> Path:
        """Where the rows live."""
        return self._path

    def exists(self) -> bool:
        """Whether the store file is present."""
        return self._path.exists()

    def clear(self) -> None:
        """Delete the store file (a fresh, non-resumed run starts here)."""
        try:
            self._path.unlink()
        except FileNotFoundError:
            pass

    def backup_and_clear(self) -> Path | None:
        """Move a populated store aside before a fresh run overwrites it.

        Forgetting ``--resume`` after a killed 10-hour sweep must not
        silently destroy 90 finished rows, so a non-empty store is
        renamed to ``<name>.bak`` (one generation kept) rather than
        unlinked; an empty or absent store is simply cleared.  Returns
        the backup path when one was made.
        """
        try:
            if self._path.stat().st_size > 0:
                backup = self._path.with_name(self._path.name + ".bak")
                os.replace(self._path, backup)
                return backup
        except FileNotFoundError:
            return None
        self.clear()
        return None

    @contextmanager
    def _locked_handle(self) -> Iterator[Any]:
        """The store file, opened for appending, under an advisory lock.

        ``fcntl.flock`` (exclusive) serializes whole append batches, so
        multiple *processes* can safely share one store - two sweeps
        pointed at one file interleave at row granularity, never
        mid-line.  The lock is advisory: only
        cooperating ``RunStore`` instances honor it, which is exactly
        the contract the sweep stack needs.  On platforms without
        ``fcntl`` the store degrades to the historical lock-free
        behavior (single-writer).
        """
        self._path.parent.mkdir(parents=True, exist_ok=True)
        with open(self._path, "a+b") as handle:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield handle
            finally:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _heal_torn_tail(self, handle: Any) -> None:
        """Truncate a torn final line before appending after it.

        Rows contain no embedded newlines, so a file whose last byte is
        not ``\\n`` ends in a killed append; leaving it would strand
        malformed JSON *mid*-file once a new row lands after it.  The
        check is one seek per append; the rewrite happens only in the
        recovery case.  Discarding data - even a torn row the sweep will
        legitimately redo - is never silent: it warns with the byte
        offset and counts in telemetry.  ``handle`` is the already
        locked append handle, so heal-then-write is one critical
        section.
        """
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        if size == 0:
            return
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return
        handle.seek(0)
        keep = handle.read().rfind(b"\n") + 1
        handle.truncate(keep)
        self._report_torn(keep, size, healed=True)

    def _report_torn(self, offset: int, size: int, *, healed: bool) -> None:
        action = "truncated" if healed else "ignored"
        warnings.warn(
            f"{self._path}: torn final run-store line {action} "
            f"(bytes {offset}..{size} of {size}); the interrupted cell "
            f"will be re-run",
            RuntimeWarning,
            stacklevel=3,
        )
        obs.inc(
            "sweep.store.torn_lines",
            healed=str(healed).lower(),
        )

    def append(self, row: dict[str, Any]) -> None:
        """Append one row and force it to disk.

        The serial sweep loop writes through here, one row per finished
        cell: it has no round trip to amortize, and the flush + fsync
        per row makes each row durable as soon as its cell is done.  A
        torn final line left by a killed append is truncated first, and
        the whole heal-then-write runs under an exclusive advisory file
        lock so concurrent local writers never tear or lose rows.
        """
        self.append_many((row,))

    def append_many(self, rows: Sequence[dict[str, Any]]) -> None:
        """Append a batch of rows with one lock + one fsync (group
        commit).

        The pool commits each finished batch of cells here; paying one
        fsync per batch instead of one per row keeps the store off the
        critical path while every *completed* batch stays exactly as
        durable as a single :meth:`append`.  Serialization
        happens before the lock is taken, so a non-JSON row cannot
        poison the file.
        """
        lines = [
            json.dumps(row, separators=(",", ":"), allow_nan=False)
            for row in rows
        ]
        if not lines:
            return
        data = ("\n".join(lines) + "\n").encode("utf-8")
        with self._locked_handle() as handle:
            self._heal_torn_tail(handle)
            # The handle is in append mode: the write lands at EOF even
            # after a heal truncated the tail.
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def rows(self) -> list[dict[str, Any]]:
        """All stored rows, in append order (empty if no file yet).

        A final line without its terminating newline is treated as torn
        even when it happens to parse - the append-side healer will
        truncate it, and counting a row the next write deletes would
        let a resumed sweep skip a cell whose record is about to
        vanish.  Reader and healer agree: unterminated means torn.
        Rows are written as single ``line + newline`` writes, so a kill
        can never leave a *terminated* malformed line - that means
        external corruption, and it raises
        :class:`~repro.errors.SimulationError` naming the line rather
        than being silently skipped (and then stranded mid-file by the
        next append).  The file is split on newline bytes before any
        line is decoded, so bytes that are not UTF-8, JSON nested past
        the parser's recursion limit and integers past Python's digit
        limit fail that way too, and a torn tail is ignored whatever
        its bytes.
        """
        try:
            data = self._path.read_bytes()
        except FileNotFoundError:
            return []
        rows: list[dict[str, Any]] = []
        lines = data.split(b"\n")
        # What follows the last newline: nothing, or a torn append.
        tail = lines.pop()
        if tail:
            self._report_torn(len(data) - len(tail), len(data), healed=False)
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError) as error:
                raise SimulationError(
                    f"{self._path}:{number}: malformed run-store line: "
                    f"{error}"
                ) from error
            if not isinstance(row, dict):
                raise SimulationError(
                    f"{self._path}:{number}: run-store rows must be "
                    f"objects, got {type(row).__name__}"
                )
            rows.append(row)
        return rows

    def completed_keys(self) -> set[str]:
        """The cell keys already present in the store (inspection aid).

        Note that a resumed sweep reuses rows on a *stronger* condition
        than key presence - it also compares the stored scenario payload
        (:class:`ResumeIndex`), so rows left by an older base scenario
        are re-run rather than resurrected.
        """
        return {
            row["key"] for row in self.rows() if isinstance(row.get("key"), str)
        }

    def __repr__(self) -> str:
        return f"RunStore({str(self._path)!r})"


class ResumeIndex:
    """Stored rows by cell key, and the rule that decides their reuse.

    A stored row is reused for a cell only if it was produced by the
    *same* concrete scenario: matching on the key alone would resurrect
    stale rows after the base scenario changed in a field no axis
    covers.  Rows are deterministic, so a matching row is a valid
    result even when a later stale row for the same key follows it; the
    last matching row wins.  Every cell that does not reuse a row is
    counted by why it re-runs: ``drift`` (the key has rows, but none
    from this scenario) or ``missing`` (the key has no row at all).
    """

    def __init__(self, rows: Iterable[Mapping[str, Any]]) -> None:
        self._rows: dict[str, list[Mapping[str, Any]]] = {}
        for row in rows:
            key = row.get("key")
            if isinstance(key, str):
                self._rows.setdefault(key, []).append(row)
        self.drift = 0
        self.missing = 0

    def reuse(
        self,
        key: str,
        index: int,
        scenario: Callable[[], Mapping[str, Any]],
    ) -> dict[str, Any] | None:
        """The stored row to reuse for one cell, or ``None`` to re-run.

        ``scenario`` returns the cell's scenario payload in
        :meth:`~repro.api.Scenario.to_dict` form; it is called only when
        ``key`` has stored rows, so a resumed grid pays for the
        serialization only where a row could match.  The reused row's
        positional ``index`` is rewritten to ``index``: the key pins the
        axis values but not the position, and the grid may have gained
        cells since the row was written.
        """
        stored = self._rows.get(key)
        if not stored:
            self.missing += 1
            return None
        # The store holds pure JSON types; compare in that form.
        expected = json.loads(json.dumps(scenario()))
        for row in reversed(stored):
            # A row whose result is not an object matches no scenario.
            result = row.get("result")
            if (
                isinstance(result, dict)
                and result.get("scenario") == expected
            ):
                return {**row, "index": index}
        self.drift += 1
        return None
