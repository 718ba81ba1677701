"""The content-addressed schedule solve-cache.

Designing a broadcast program - bandwidth planning plus pinwheel
scheduling plus verification - is the expensive head of every scenario
run, yet a sweep over fault or traffic knobs re-solves the *identical*
pinwheel instance for every cell.  :class:`SolveCache` memoizes solved
:class:`~repro.bdisk.builder.ProgramDesign` records under the scenario's
:meth:`~repro.api.Scenario.design_fingerprint` (a canonical SHA-256 of
the design-relevant inputs - see :mod:`repro.core.fingerprint`), so only
the first scenario per distinct instance pays the solver.

Two tiers:

* an in-process dict, always on - the serial orchestrator path needs
  nothing more;
* an optional *directory* tier with one pickle per fingerprint, written
  atomically (temp file + ``os.replace``) - this is what crosses
  process-pool boundaries and sweep invocations.  Entries are
  content-addressed, so concurrent writers racing on a cold cache are
  harmless: they write identical bytes and the last rename wins.

Unreadable or torn entries are treated as misses and rewritten.

The disk tier is also a **cross-process single-flight**: a miss takes an
``O_CREAT | O_EXCL`` lockfile (``<fingerprint>.lock``, holding the
owner's pid) around the solve-and-put, and every other process that
misses the same fingerprint *waits for the entry* instead of re-running
the solver.  With N pool workers sharing one cache directory, each
distinct design therefore solves exactly once; the waiters come
back with a disk hit and a bumped ``lock_waits`` counter.  A lock whose
owner died mid-solve is broken (the pid is probed), so a killed worker
never wedges the others.
"""

from __future__ import annotations

import os
import pickle
import time
from pathlib import Path

from repro.errors import SpecificationError
from repro.api.engine import BroadcastEngine
from repro.api.scenario import Scenario
from repro.bdisk.builder import ProgramDesign
from repro.bdisk.multichannel import MultiChannelDesign
from repro.obs import telemetry as obs


class SolveCache:
    """Memoized broadcast-program designs, keyed by content fingerprint.

    ``directory=None`` keeps the cache purely in-memory (one process);
    a directory adds the persistent, process-shared tier.  ``hits`` /
    ``misses`` / ``solves`` count this instance's traffic only.
    """

    #: How often a single-flight waiter polls for the winner's entry.
    LOCK_POLL_SECONDS = 0.01
    #: Give up waiting on a (live) lock holder after this long and
    #: solve anyway - a safety valve, not an expected path.
    LOCK_WAIT_TIMEOUT = 600.0

    def __init__(self, directory: str | Path | None = None) -> None:
        self._directory = None if directory is None else Path(directory)
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
        self._memory: dict[str, ProgramDesign | MultiChannelDesign] = {}
        self.hits = 0
        self.misses = 0
        self.solves = 0
        self.lock_waits = 0

    @property
    def directory(self) -> Path | None:
        """The persistent tier's directory (``None`` when memory-only)."""
        return self._directory

    def _path(self, fingerprint: str) -> Path:
        assert self._directory is not None
        return self._directory / f"{fingerprint}.pkl"

    def _read_disk(
        self, fingerprint: str
    ) -> ProgramDesign | MultiChannelDesign | None:
        """Load one disk-tier entry without touching any counter."""
        if self._directory is None:
            return None
        try:
            with open(self._path(fingerprint), "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError, ValueError,
                AttributeError):
            # Absent, torn, or stale-format entry: a miss either way.
            return None

    def get(
        self, fingerprint: str
    ) -> ProgramDesign | MultiChannelDesign | None:
        """The cached design for ``fingerprint``, or ``None``."""
        tier = "memory"
        design = self._memory.get(fingerprint)
        if design is None and self._directory is not None:
            tier = "disk"
            design = self._read_disk(fingerprint)
            if design is not None:
                self._memory[fingerprint] = design
        tel = obs.current()
        if design is None:
            self.misses += 1
            if tel is not None:
                tel.inc("solve_cache.misses", stability="shape")
        else:
            self.hits += 1
            if tel is not None:
                tel.inc("solve_cache.hits", stability="shape", tier=tier)
        return design

    def put(
        self, fingerprint: str, design: ProgramDesign | MultiChannelDesign
    ) -> None:
        """Store ``design`` under ``fingerprint`` (atomic on disk)."""
        if not isinstance(design, (ProgramDesign, MultiChannelDesign)):
            raise SpecificationError(
                f"SolveCache stores ProgramDesign or MultiChannelDesign "
                f"records, got {type(design).__name__}"
            )
        self._memory[fingerprint] = design
        if self._directory is None:
            return
        target = self._path(fingerprint)
        scratch = target.with_suffix(f".tmp-{os.getpid()}")
        with open(scratch, "wb") as handle:
            pickle.dump(design, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(scratch, target)

    def _lock_path(self, fingerprint: str) -> Path:
        assert self._directory is not None
        return self._directory / f"{fingerprint}.lock"

    @staticmethod
    def _lock_owner_dead(lock: Path) -> bool:
        """Whether the single-flight lock's owner is provably gone.

        The lockfile holds the owner's pid; a pid that no longer exists
        means the owner was killed mid-solve and the lock must be
        broken.  An unreadable or not-yet-written pid is treated as
        alive - breaking a lock wrongly would double-solve, while
        waiting a poll longer costs 10ms.
        """
        try:
            text = lock.read_text(encoding="utf-8").strip()
            pid = int(text)
        except (OSError, ValueError):
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except (OSError, OverflowError):
            return False
        return False

    def _acquire_single_flight(self, fingerprint: str) -> bool:
        """Try to become the one process that solves ``fingerprint``.

        Returns ``True`` with the lockfile held (the caller must solve,
        :meth:`put`, then :meth:`_release_single_flight`); ``False``
        when another live process holds it.
        """
        lock = self._lock_path(fingerprint)
        try:
            fd = os.open(
                lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
            )
        except FileExistsError:
            if self._lock_owner_dead(lock):
                # A killed owner never publishes its entry; break the
                # lock and race for it again.
                try:
                    lock.unlink()
                except FileNotFoundError:
                    pass
                return self._acquire_single_flight(fingerprint)
            return False
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(str(os.getpid()))
        return True

    def _release_single_flight(self, fingerprint: str) -> None:
        try:
            self._lock_path(fingerprint).unlink()
        except FileNotFoundError:  # pragma: no cover - belt and braces
            pass

    def design_for(
        self, scenario: Scenario, fingerprint: str | None = None
    ) -> tuple[ProgramDesign | MultiChannelDesign, bool]:
        """The scenario's design, solving (and caching) on a miss.

        Returns ``(design, cache_hit)``.  The fingerprint covers exactly
        the inputs the designer consumes, so a hit is always safe to
        inject into :class:`~repro.api.engine.BroadcastEngine`.  A
        caller that already holds the scenario's
        :meth:`~repro.api.Scenario.design_fingerprint` passes it as
        ``fingerprint`` instead of paying for it twice.

        With a disk tier, the miss path is single-flight *across
        processes*: the first process to take ``<fingerprint>.lock``
        solves and publishes the entry; every other process misses into
        a wait loop (counted once per episode in ``lock_waits``) and
        returns the winner's entry as a disk hit.  Every distinct
        design therefore solves exactly once per shared cache
        directory, no matter how many workers race it.
        """
        if fingerprint is None:
            fingerprint = scenario.design_fingerprint()
        design = self.get(fingerprint)
        if design is not None:
            return design, True
        if self._directory is None:
            return self._solve_and_put(scenario, fingerprint), False
        deadline = time.monotonic() + self.LOCK_WAIT_TIMEOUT
        waited = False
        while True:
            if self._acquire_single_flight(fingerprint):
                try:
                    # The winner may have published between our miss
                    # and the lock: re-check before paying the solver.
                    design = self._read_disk(fingerprint)
                    if design is not None:
                        self._memory[fingerprint] = design
                        self.hits += 1
                        obs.inc(
                            "solve_cache.hits", stability="shape",
                            tier="disk",
                        )
                        return design, True
                    return (
                        self._solve_and_put(scenario, fingerprint),
                        False,
                    )
                finally:
                    self._release_single_flight(fingerprint)
            if not waited:
                waited = True
                self.lock_waits += 1
                obs.inc("solve_cache.lock_waits", stability="shape")
            if time.monotonic() >= deadline:
                # Safety valve: a live-but-wedged owner must not hang
                # the other workers forever.  Solve without the lock; the put
                # is content-addressed, so a duplicate write is benign.
                return self._solve_and_put(scenario, fingerprint), False
            time.sleep(self.LOCK_POLL_SECONDS)
            design = self._read_disk(fingerprint)
            if design is not None:
                self._memory[fingerprint] = design
                self.hits += 1
                obs.inc(
                    "solve_cache.hits", stability="shape", tier="disk"
                )
                return design, True

    def _solve_and_put(
        self, scenario: Scenario, fingerprint: str
    ) -> ProgramDesign | MultiChannelDesign:
        design = BroadcastEngine(scenario).design()
        self.solves += 1
        obs.inc("solve_cache.solves")
        self.put(fingerprint, design)
        return design

    def stats(self) -> dict[str, int]:
        """This instance's traffic counters as a plain dict.

        Keys: ``hits``, ``misses``, ``solves``, ``lock_waits``,
        ``entries``.  The online broadcast server embeds this in its
        re-solve provenance (so an as-run log can prove a warm start),
        and CI smoke steps assert on it (``solves == 0`` on a warm
        cache) instead of parsing bench output.  ``lock_waits`` counts
        single-flight wait episodes: misses that found another process
        already solving the same fingerprint.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "solves": self.solves,
            "lock_waits": self.lock_waits,
            "entries": len(self),
        }

    def snapshot(self) -> dict[str, int]:
        """The traffic counters alone, cheap enough to take per mutation.

        Unlike :meth:`stats` this never touches the disk tier (no
        ``entries`` glob), so the online server can bracket every
        re-solve with a snapshot/diff pair.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "solves": self.solves,
            "lock_waits": self.lock_waits,
        }

    def diff(self, before: dict[str, int]) -> dict[str, int]:
        """Counter deltas since ``before`` (a :meth:`snapshot` result).

        The lifetime counters are monotonic, so the delta is exact even
        across :class:`~repro.server.server.BroadcastServer` epochs -
        this is what makes per-mutation cache accounting reset-safe.
        """
        current = self.snapshot()
        return {key: current[key] - before.get(key, 0) for key in current}

    def __len__(self) -> int:
        """Entries visible to this instance (memory tier plus disk)."""
        known = set(self._memory)
        if self._directory is not None:
            known.update(
                path.stem for path in self._directory.glob("*.pkl")
            )
        return len(known)

    def __repr__(self) -> str:
        where = (
            "memory" if self._directory is None else str(self._directory)
        )
        return (
            f"SolveCache({where}, entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses}, solves={self.solves})"
        )
