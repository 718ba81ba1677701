"""AIDA: the Adaptive Information Dispersal Algorithm (Section 2.2).

AIDA inserts a *bandwidth allocation* step between dispersal and
transmission (Figure 4): the file is dispersed once into ``N`` blocks, but
only ``n`` of them, ``m <= n <= N``, are actually transmitted.  Because
IDA redundancy is uniform - "there is simply no distinction between data
and parity" - the transmitted prefix of any size ``n >= m`` still lets a
client reconstruct from any ``m`` of the ``n``, so ``n`` can be re-chosen
per *operation mode*: boost redundancy on critical objects in "combat"
mode, scale it to zero in "landing" mode, without re-dispersing.

:class:`AidaEncoder` owns one file's dispersal and hands out transmission
sets; :class:`RedundancyPolicy` maps (mode, file) to fault-tolerance
budgets the broadcast-disk designer turns into ``pc`` windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import DispersalError, SpecificationError
from repro.fields import Int, MapOf, Spec, spec_field
from repro.ida.blocks import Block
from repro.ida.dispersal import disperse, reconstruct


def tolerable_faults(n_transmitted: int, m: int) -> int:
    """Faults tolerated per window when ``n`` blocks are sent: ``n - m``."""
    if n_transmitted < m:
        raise DispersalError(
            f"cannot transmit {n_transmitted} < m={m} blocks"
        )
    return n_transmitted - m


def bandwidth_allocation(
    blocks: list[Block], n_transmitted: int
) -> list[Block]:
    """The AIDA allocation step: keep ``n`` of the ``N`` dispersed blocks.

    ``blocks`` must be a full dispersal (indices ``0 .. N-1``); the first
    ``n`` are selected, which for a systematic dispersal means plaintext
    first, redundancy after - the "no redundancy" mode transmits exactly
    the original file.
    """
    if not blocks:
        raise DispersalError("no blocks supplied")
    total = blocks[0].n_total
    m = blocks[0].m
    if not m <= n_transmitted <= total:
        raise DispersalError(
            f"n={n_transmitted} must lie in [m={m}, N={total}]"
        )
    by_index = {block.index: block for block in blocks}
    if len(by_index) != total:
        raise DispersalError(
            f"expected a full dispersal of {total} blocks, "
            f"got {len(by_index)} distinct indices"
        )
    return [by_index[i] for i in range(n_transmitted)]


class AidaEncoder:
    """One file's dispersal plus adaptive redundancy selection.

    Parameters
    ----------
    file_id:
        Identity stamped into blocks.
    data:
        File contents.
    m:
        Dispersal level (blocks needed to reconstruct).
    n_max:
        Maximum redundancy ever needed (``N``); dispersal happens once at
        this level and the allocation step only ever *selects*.
    systematic:
        Use the systematic dispersal matrix (plaintext-first).
    """

    def __init__(
        self,
        file_id: str,
        data: bytes,
        m: int,
        n_max: int,
        *,
        systematic: bool = True,
    ) -> None:
        if n_max < m:
            raise SpecificationError(
                f"n_max={n_max} must be >= dispersal level m={m}"
            )
        self.file_id = file_id
        self.m = m
        self.n_max = n_max
        self._blocks = disperse(
            data, m, n_max, file_id=file_id, systematic=systematic
        )

    @property
    def blocks(self) -> list[Block]:
        """The full dispersal (all ``N`` blocks)."""
        return list(self._blocks)

    def transmission_set(self, n_transmitted: int) -> list[Block]:
        """Blocks to put on the air at redundancy ``n``; see
        :func:`bandwidth_allocation`."""
        return bandwidth_allocation(self._blocks, n_transmitted)

    def for_fault_tolerance(self, faults: int) -> list[Block]:
        """Transmission set tolerating ``faults`` losses per window."""
        if faults < 0:
            raise SpecificationError(f"faults must be >= 0, got {faults}")
        return self.transmission_set(self.m + faults)

    def reconstruct_from(self, blocks: list[Block]) -> bytes:
        """Client-side reconstruction (delegates to
        :func:`repro.ida.dispersal.reconstruct`)."""
        return reconstruct(blocks)


@dataclass(frozen=True)
class RedundancyPolicy(Spec):
    """Per-mode fault-tolerance budgets for a set of files.

    ``budgets[mode][file_id] = r`` means: in ``mode``, file ``file_id``
    must tolerate ``r`` block losses per retrieval window, i.e. transmit
    ``m + r`` distinct blocks per window.  Missing entries fall back to
    ``default`` (0 = no redundancy, the non-critical case).
    """

    # Declared first so the JSON form leads with it; keyword-only so
    # ``budgets`` stays the one positional argument.
    default: int = spec_field(Int(0), default=0, kw_only=True)
    budgets: Mapping[str, Mapping[str, int]] = spec_field(
        MapOf(MapOf(Int(0))), default_factory=dict
    )

    def fault_budget(self, mode: str, file_id: str) -> int:
        """The fault budget ``r`` for ``file_id`` in ``mode``."""
        return self.budgets.get(mode, {}).get(file_id, self.default)

    def transmission_count(self, mode: str, file_id: str, m: int) -> int:
        """Blocks per window in ``mode``: ``m + r``."""
        return m + self.fault_budget(mode, file_id)

    def modes(self) -> tuple[str, ...]:
        """All modes the policy mentions."""
        return tuple(self.budgets)
