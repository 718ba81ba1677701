"""Broadcast file specifications.

Two flavours, matching the paper's two models:

* :class:`FileSpec` - the Section 3.2 model: a file has a size ``m_i`` in
  blocks, a latency ``T_i`` in seconds, and (optionally) a uniform fault
  budget ``r_i``.  At channel bandwidth ``B`` blocks/second this induces
  the pinwheel task ``(i, m_i + r_i, B * T_i)``.
* :class:`GeneralizedFileSpec` - the Section 4 model: the bandwidth is
  known, latencies are given directly in slots as a vector
  ``d = [d(0), ..., d(r)]`` (tolerable latency as a function of the fault
  count), and the file induces the broadcast condition ``bc(i, m, d)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from repro.errors import SpecificationError
from repro.core.conditions import BroadcastCondition, bc
from repro.core.task import PinwheelTask


@dataclass(frozen=True, slots=True)
class FileSpec:
    """A real-time broadcast file: ``m`` blocks to deliver within ``T``.

    Attributes
    ----------
    name:
        File identity (the broadcast program's owner key).
    blocks:
        Size ``m`` in blocks (the dispersal level under AIDA).
    latency:
        Retrieval latency budget ``T`` in seconds.
    fault_budget:
        Block losses ``r`` to tolerate per retrieval window (0 = none).
    data:
        Optional file contents for end-to-end simulation; when absent,
        simulators synthesize deterministic payloads from the name.
    """

    name: str
    blocks: int
    latency: int
    fault_budget: int = 0
    data: bytes | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # ``type(...) is int`` also turns away bool, which isinstance
        # passes as 0 or 1.  One chained test keeps valid specs cheap.
        if not (
            type(self.blocks) is type(self.latency) is type(self.fault_budget)
            is int
        ):
            for key in ("blocks", "latency", "fault_budget"):
                value = getattr(self, key)
                if type(value) is not int:
                    raise SpecificationError(
                        f"file {self.name!r}: {key}={value!r} must be an int"
                    )
        if self.blocks < 1:
            raise SpecificationError(
                f"file {self.name!r}: blocks={self.blocks} must be >= 1"
            )
        if self.latency < 1:
            raise SpecificationError(
                f"file {self.name!r}: latency={self.latency} must be >= 1"
            )
        if self.fault_budget < 0:
            raise SpecificationError(
                f"file {self.name!r}: fault_budget={self.fault_budget} "
                f"must be >= 0"
            )

    @property
    def slots_per_window(self) -> int:
        """Block slots needed per window: ``m + r``."""
        return self.blocks + self.fault_budget

    @property
    def demand(self) -> Fraction:
        """Bandwidth demand ``(m + r) / T`` in blocks per second."""
        return Fraction(self.slots_per_window, self.latency)

    def as_task(self, bandwidth: int) -> PinwheelTask:
        """The induced pinwheel task at channel bandwidth ``bandwidth``.

        Window is ``B * T`` slots; requirement is ``m + r`` slots.
        """
        if bandwidth < 1:
            raise SpecificationError(
                f"bandwidth must be >= 1, got {bandwidth}"
            )
        return PinwheelTask(
            self.name, self.slots_per_window, bandwidth * self.latency
        )

    def payload(self, block_size: int = 64) -> bytes:
        """File contents for simulation: explicit data, or synthesized.

        Synthesized payloads are deterministic in the name so tests and
        benches reproduce bit-for-bit.
        """
        if self.data is not None:
            return self.data
        seed = self.name.encode("utf-8")
        unit = (seed * (block_size // max(1, len(seed)) + 1))[:block_size]
        return unit * self.blocks


@dataclass(frozen=True, slots=True)
class GeneralizedFileSpec:
    """A generalized fault-tolerant real-time broadcast file (Section 4).

    Attributes
    ----------
    name:
        File identity.
    blocks:
        Size ``m`` in blocks.
    latency_vector:
        ``d = [d(0), ..., d(r)]`` in *slots*: tolerable worst-case latency
        in the presence of ``j`` faults.  Regular real-time files are the
        special case ``r = 0``; regular fault-tolerant files set all
        entries equal.
    data:
        Optional contents, as in :class:`FileSpec`.
    """

    name: str
    blocks: int
    latency_vector: tuple[int, ...]
    data: bytes | None = field(default=None, compare=False)

    def __init__(
        self,
        name: str,
        blocks: int,
        latency_vector: tuple[int, ...] | list[int],
        data: bytes | None = None,
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "latency_vector", tuple(latency_vector))
        object.__setattr__(self, "data", data)
        # Validation is delegated to the bc constructor.
        self.as_condition()

    @property
    def max_faults(self) -> int:
        """``r``: the number of faults the latency vector covers."""
        return len(self.latency_vector) - 1

    def as_condition(self) -> BroadcastCondition:
        """The induced broadcast-file condition ``bc(name, m, d)``."""
        return bc(self.name, self.blocks, self.latency_vector)

    @classmethod
    def regular(
        cls, name: str, blocks: int, latency_slots: int
    ) -> "GeneralizedFileSpec":
        """A regular real-time file: no fault tolerance (``r = 0``)."""
        return cls(name, blocks, (latency_slots,))

    @classmethod
    def uniform(
        cls, name: str, blocks: int, latency_slots: int, faults: int
    ) -> "GeneralizedFileSpec":
        """A regular fault-tolerant file: one latency for all fault counts.

        ``d(0) = d(1) = ... = d(r) = latency_slots``, the paper's encoding
        of the Section 3.2 model inside the generalized one.
        """
        if faults < 0:
            raise SpecificationError(f"faults must be >= 0, got {faults}")
        return cls(name, blocks, (latency_slots,) * (faults + 1))

    def payload(self, block_size: int = 64) -> bytes:
        """Deterministic simulation payload (see :meth:`FileSpec.payload`)."""
        if self.data is not None:
            return self.data
        seed = self.name.encode("utf-8")
        unit = (seed * (block_size // max(1, len(seed)) + 1))[:block_size]
        return unit * self.blocks
