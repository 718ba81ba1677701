"""Byte-level broadcast channel: frames, corruption, and detection.

The slot-level fault models in :mod:`repro.sim.faults` abstract a lost
block as a boolean.  This module closes the loop with the actual wire
format of :mod:`repro.ida.blocks`: the server *encodes* each slot's block
into a frame, the channel flips bits, and the client *decodes* - a frame
whose CRC fails is precisely the paper's "error during the transmission
of a block renders the entire block unreadable".

This gives the simulators an end-to-end path where loss is *derived*
from byte corruption rather than injected at the block level, and lets
tests exercise the detection machinery (bad magic, truncation, CRC)
under realistic conditions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import BlockCodecError, SimulationError, SpecificationError
from repro.bdisk.program import BroadcastProgram
from repro.ida.blocks import Block, decode_block, encode_block
from repro.sim.client import listen_horizon


@dataclass(frozen=True)
class FrameResult:
    """Outcome of transmitting one frame."""

    slot: int
    delivered: Block | None
    corrupted_bytes: int

    @property
    def lost(self) -> bool:
        return self.delivered is None


class ByteChannel:
    """A broadcast channel that corrupts individual bytes.

    Each byte of a frame is independently flipped with probability
    ``byte_error_rate`` (deterministic per ``(seed, slot, offset)``,
    so replays agree).  The receiver decodes; any codec failure counts
    as a lost block.

    This is the paper's independent-error model at byte granularity:
    the probability a ``k``-byte frame survives is
    ``(1 - byte_error_rate) ** k``, so bigger blocks really are more
    fragile - one quantitative input to the Section 5 block-size
    discussion.
    """

    def __init__(self, byte_error_rate: float, *, seed: int = 0) -> None:
        if not 0.0 <= byte_error_rate <= 1.0:
            raise SpecificationError(
                f"byte error rate must be in [0, 1]: {byte_error_rate}"
            )
        self.byte_error_rate = byte_error_rate
        self.seed = seed

    def _corrupt(self, frame: bytes, slot: int) -> tuple[bytes, int]:
        if self.byte_error_rate == 0.0:
            return frame, 0
        rng = random.Random(f"{self.seed}:{slot}")
        data = bytearray(frame)
        corrupted = 0
        for offset in range(len(data)):
            if rng.random() < self.byte_error_rate:
                data[offset] ^= 1 + rng.randrange(255)
                corrupted += 1
        return bytes(data), corrupted

    def transmit(self, block: Block, slot: int) -> FrameResult:
        """Send one block through the channel; decode on the far side."""
        frame, corrupted = self._corrupt(encode_block(block), slot)
        try:
            delivered = decode_block(frame)
        except BlockCodecError:
            return FrameResult(slot=slot, delivered=None,
                               corrupted_bytes=corrupted)
        return FrameResult(
            slot=slot, delivered=delivered, corrupted_bytes=corrupted
        )

    def survival_probability(self, frame_bytes: int) -> float:
        """Probability an entire frame of that size arrives clean."""
        if frame_bytes < 0:
            raise SpecificationError("frame size must be >= 0")
        return (1.0 - self.byte_error_rate) ** frame_bytes


def broadcast_retrieve(
    program: BroadcastProgram,
    blocks_on_air: dict[str, list[Block]],
    file: str,
    m_needed: int,
    channel: ByteChannel,
    *,
    start: int = 0,
    max_slots: int | None = None,
) -> tuple[bytes | None, list[FrameResult]]:
    """End-to-end retrieval over the byte channel.

    Jumps occurrence-to-occurrence along the program's index from
    ``start`` (slots carrying other files never reach the channel);
    every service of ``file`` within ``[start, start + horizon)`` is
    transmitted as a real frame through ``channel``; decoded blocks
    accumulate until ``m_needed`` distinct indices are held, at which
    point IDA reconstruction runs.  Returns ``(payload, frame_log)``;
    payload is ``None`` when the horizon expires first, and a horizon
    below one slot raises :class:`SimulationError`, as at every entry
    that walks.  Corruption is
    deterministic per ``(seed, slot)``, so the walk is bit-identical to
    the seed slot-scanning loop.  Losses come from decoding each frame,
    not from a fault model, so this walk does not pull
    :func:`repro.sim.client.fault_batches`.

    ``blocks_on_air`` maps each file to its full dispersal (index order),
    i.e. what the server would actually rotate through.
    """
    from repro.ida.dispersal import reconstruct

    if file not in blocks_on_air:
        raise SimulationError(f"no dispersal supplied for {file!r}")
    if file not in program.files:
        raise SimulationError(f"file {file!r} is not broadcast")
    supply = blocks_on_air[file]
    horizon = listen_horizon(program, m_needed, max_slots)
    if horizon < 1:
        raise SimulationError(f"horizon must be >= 1: {horizon}")
    end = start + horizon
    held: dict[int, Block] = {}
    log: list[FrameResult] = []
    for t, block_index in program.index.occurrences_from(file, start):
        if t >= end:
            break
        if block_index >= len(supply):
            raise SimulationError(
                f"program rotates through block {block_index} of "
                f"{file!r} but only {len(supply)} were dispersed"
            )
        result = channel.transmit(supply[block_index], t)
        log.append(result)
        if result.delivered is not None:
            held.setdefault(result.delivered.index, result.delivered)
            if len(held) >= m_needed:
                return reconstruct(list(held.values())), log
    return None, log
