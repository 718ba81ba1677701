"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Subclasses are
organized by subsystem (scheduling, dispersal, broadcast programs,
simulation) and carry enough structured context to be actionable.  The
declarative specs' type and key checks live with their field
declarations, in :mod:`repro.fields`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SpecificationError(ReproError, ValueError):
    """A task, file, or condition specification is malformed.

    Raised eagerly at construction time (e.g. a pinwheel task with a
    non-positive window, or a latency vector that is not non-decreasing in
    the places the model requires).
    """


class InfeasibleError(ReproError):
    """The requested scheduling problem is provably infeasible.

    Carries the offending density or witness when known.
    """

    def __init__(self, message: str, *, density: float | None = None) -> None:
        super().__init__(message)
        #: System density at the point infeasibility was established,
        #: if a density argument was involved (``None`` otherwise).
        self.density = density


class SchedulingError(ReproError):
    """A scheduler failed to produce a schedule.

    Unlike :class:`InfeasibleError`, this does *not* assert that no schedule
    exists - only that the particular algorithm (or portfolio) gave up.
    """


class VerificationError(ReproError):
    """A produced schedule or program failed verification.

    Schedulers in this library always verify their output before returning;
    this error therefore indicates an internal bug and includes the first
    violated condition and window for debugging.
    """


class DispersalError(ReproError):
    """IDA/AIDA dispersal or reconstruction failed.

    Typical causes: fewer than ``m`` distinct blocks supplied, mismatched
    file identifiers, or corrupted self-identifying headers.
    """


class BlockCodecError(DispersalError):
    """A wire-encoded block could not be decoded (bad magic, short frame)."""


class ProgramError(ReproError):
    """A broadcast program violates its structural invariants."""


class BandwidthError(ReproError):
    """No feasible bandwidth exists within the searched range."""


class SimulationError(ReproError, ValueError):
    """A simulation was configured inconsistently or failed to converge.

    Also a ``ValueError``: simulation misuses (scheduling an event into
    the past, requesting a file that is never aired) are value errors in
    the plain-Python sense, and callers outside the library commonly
    guard with ``except ValueError``.
    """
