"""Block-error models for the broadcast channel.

The paper's channel model: "individual transmission errors occur
independently of each other, and the occurrence of an error during the
transmission of a block renders the entire block unreadable."  A fault
model decides, per slot, whether the client fails to receive that slot's
block.  All stochastic models are seeded and deterministic per
``(seed, slot)``, so simulations are reproducible and two clients with
the same seed observe the same channel.

Occurrence-walking clients query faults only at their file's service
slots and do so in batches: every model implements ``lost_in(slots)``
(and :func:`lost_in` adapts third-party models that only provide
``is_lost``).  The adapter answers in kind: a Python sequence of slots
gets a list of bools back (the scalar walkers' small batches), an int64
ndarray a bool ndarray (the vectorized engine's wide ones), so neither
side pays for the other's conversions.  Given an ndarray,
:class:`BurstFaults` gathers from its state table, and
:class:`BernoulliFaults` and :class:`AdversarialFaults` decide each
distinct slot once (wide batches repeat slots); any other answer is
converted by the adapter.  Batch answers are defined to agree exactly,
slot by slot, with ``is_lost`` - batching amortizes the per-decision
overhead without changing a single decision.
"""

from __future__ import annotations

import operator
import random
from typing import Any, Callable, Iterable, Protocol, Sequence

import numpy as np

from repro.errors import SimulationError, SpecificationError
from repro.memo import ScopedMemo
from repro.obs import telemetry as obs

#: Per-model memo bound: decisions are cached per slot up to this many
#: entries, after which further queries are computed without caching (the
#: cache covers every realistic simulation; the bound keeps adversarially
#: long runs from exhausting memory).
DECISION_MEMO_LIMIT = 1 << 20

#: The uniform draws :class:`BernoulliFaults` models share, keyed by
#: ``(seed, slot)`` and bounded like each model's memo.  A sweep opens
#: it while it runs cells (:func:`repro.memo.opened`); outside that
#: scope every model draws for itself.
SHARED_DRAWS = ScopedMemo(DECISION_MEMO_LIMIT)


def _uniform(key: tuple[str, int]) -> float:
    """The uniform a Bernoulli model draws for ``key``: its seed label
    (the seed's text and a colon) and a slot.

    String seeds hash through SHA-512 in CPython, so the draw is stable
    across processes and interpreter runs.  A fresh instance per draw
    keeps a model safe to share (no RNG state to tear).
    """
    label, t = key
    return random.Random(f"{label}{t}").random()


#: A batch of slots: a Python sequence, or a 1-D int64 ndarray.
Slots = Sequence[int] | np.ndarray


class FaultModel(Protocol):
    """Decides whether the block in slot ``t`` is lost.

    A model may also implement ``lost_in(slots)``, one bool per slot,
    each equal to ``is_lost(slots[i])``.  ``slots`` is a Python sequence
    (answer with a list) or an int64 ndarray (answer with a bool ndarray
    or any sequence of bools; the :func:`lost_in` adapter converts it).
    """

    def is_lost(self, t: int) -> bool:
        """True when the slot-``t`` block is unreadable."""
        ...


def lost_in(model: FaultModel, slots: Slots) -> list[bool] | np.ndarray:
    """Batch fault decisions for ``slots``, one bool per slot, in kind.

    Uses the model's own ``lost_in`` when it has one (all built-in models
    do) and falls back to per-slot ``is_lost`` calls otherwise, so any
    :class:`FaultModel` works with the batched simulators.  An ndarray
    batch always gets a bool ndarray back, whatever the model answered.
    """
    tel = obs.current()
    if tel is not None and not isinstance(model, NoFaults):
        # Batch sizes depend on how callers group queries (per wave for
        # the SoA engine, per occurrence walk for the object engine), so
        # these are "shape" instruments; the *decisions* are per-slot
        # deterministic regardless.
        tel.inc("faults.draw_batches", stability="shape")
        tel.inc("faults.slots_drawn", len(slots), stability="shape")
    array = isinstance(slots, np.ndarray)
    batch = getattr(model, "lost_in", None)
    if batch is not None:
        lost = batch(slots)
    else:
        lost = [model.is_lost(t) for t in (slots.tolist() if array else slots)]
    return np.asarray(lost, dtype=bool) if array else lost


def _per_distinct(
    decide: Callable[[list[int]], list[bool]], slots: np.ndarray
) -> np.ndarray:
    """An array batch decided by the list-form batch ``decide``.

    Wide batches repeat slots, so each distinct slot is decided once
    and the answers are scattered back to every position.
    """
    unique, inverse = np.unique(slots, return_inverse=True)
    return np.array(decide(unique.tolist()), dtype=bool)[inverse]


class NoFaults:
    """The failure-free channel."""

    def is_lost(self, t: int) -> bool:
        return False

    def lost_in(self, slots: Slots) -> list[bool]:
        return [False] * len(slots)

    def __repr__(self) -> str:
        return "NoFaults()"


class BernoulliFaults:
    """Independent per-slot losses with probability ``p``.

    Deterministic per slot: slot ``t`` is lost when the uniform of a
    fresh ``random.Random(f"{seed}:{t}")`` falls below ``p``, so queries
    need not arrive in slot order and repeated queries agree.  Decisions
    are memoized per slot, so the common simulation pattern - many
    clients querying overlapping slot sets - pays the SHA-seeded RNG
    construction at most once per distinct slot instead of once per
    query.

    The uniform does not depend on ``p``; only the comparison does.
    While a sweep runs cells, :data:`SHARED_DRAWS` is open and models
    with the same seed share their uniforms, so a fault grid draws once
    per distinct ``(seed, slot)`` however many probabilities it crosses.
    Outside that scope each model draws its own.  Every decision is
    bit-identical either way.
    """

    def __init__(self, probability: float, *, seed: int = 0) -> None:
        if not 0.0 <= probability <= 1.0:
            raise SpecificationError(
                f"loss probability must be in [0, 1]: {probability}"
            )
        self.probability = probability
        self.seed = seed
        # The shared draws are keyed by the seed's text, as the draw
        # is: seeds 1 and 1.0 are equal keys but different draws.
        self._label = f"{seed}:"
        self._decisions: dict[int, bool] = {}

    def _decide(self, t: int) -> bool:
        decisions = self._decisions
        cached = decisions.get(t)
        if cached is None:
            key = (self._label, t)
            # Outside a sweep, skip the lookup's frame: a decision-bound
            # traffic run pays nothing for the table it never reads.
            uniform = (
                _uniform(key)
                if SHARED_DRAWS.entries is None
                else SHARED_DRAWS.lookup(key, _uniform)
            )
            cached = uniform < self.probability
            if len(decisions) < DECISION_MEMO_LIMIT:
                decisions[t] = cached
        return cached

    def is_lost(self, t: int) -> bool:
        if self.probability == 0.0:
            return False
        if self.probability == 1.0:
            return True
        return self._decide(t)

    def lost_in(self, slots: Slots) -> list[bool] | np.ndarray:
        if isinstance(slots, np.ndarray):
            return _per_distinct(self.lost_in, slots)
        if self.probability == 0.0:
            return [False] * len(slots)
        if self.probability == 1.0:
            return [True] * len(slots)
        decide = self._decide
        return [decide(t) for t in slots]

    def __repr__(self) -> str:
        return f"BernoulliFaults(p={self.probability}, seed={self.seed})"


class BurstFaults:
    """Gilbert-style bursty losses.

    The channel alternates between a GOOD state (loss-free) and a BAD
    state (every slot lost).  Transitions happen per slot: GOOD -> BAD
    with probability ``p_enter``, BAD -> GOOD with probability
    ``p_exit``; expected burst length is ``1 / p_exit``.

    The state sequence is inherently sequential (a Markov chain driven by
    one RNG draw per slot), so it is materialized on demand in fixed-size
    chunks of a compact byte table: queries are O(1), order-independent,
    and bit-identical regardless of query pattern.  Growth is bounded by
    ``max_horizon``; a query beyond it raises :class:`SimulationError`
    instead of silently consuming unbounded memory, and so does a query
    before slot 0 (which would otherwise index the table from its end).
    """

    #: Slots materialized per extension step.
    CHUNK = 4096
    #: Default query bound (slots); ~4M slots is one byte each.
    DEFAULT_MAX_HORIZON = 1 << 22

    def __init__(
        self,
        p_enter: float,
        p_exit: float,
        *,
        seed: int = 0,
        max_horizon: int = DEFAULT_MAX_HORIZON,
    ) -> None:
        for name, value in (("p_enter", p_enter), ("p_exit", p_exit)):
            if not 0.0 <= value <= 1.0:
                raise SpecificationError(
                    f"{name} must be in [0, 1]: {value}"
                )
        if max_horizon < 1:
            raise SpecificationError(
                f"max_horizon must be >= 1: {max_horizon}"
            )
        self.p_enter = p_enter
        self.p_exit = p_exit
        self.seed = seed
        self.max_horizon = max_horizon
        self._states = bytearray()  # 1 = BAD, one byte per slot
        self._rng = random.Random(seed)
        self._current_bad = False

    def _extend_to(self, t: int, lowest: int) -> None:
        if lowest < 0:
            raise SimulationError(
                f"BurstFaults query at slot {lowest}: the channel has "
                f"no slots before slot 0"
            )
        if t >= self.max_horizon:
            raise SimulationError(
                f"BurstFaults query at slot {t} exceeds max_horizon="
                f"{self.max_horizon}; construct the model with a larger "
                f"max_horizon for longer simulations"
            )
        states = self._states
        if t < len(states):
            return
        # Materialize whole chunks so repeated nearby queries extend the
        # table once; the RNG is consumed exactly one draw per slot, in
        # slot order, matching the seed implementation bit for bit.
        target = min(
            self.max_horizon, (t // self.CHUNK + 1) * self.CHUNK
        )
        bad = self._current_bad
        rng_random = self._rng.random
        p_enter, p_exit = self.p_enter, self.p_exit
        chunk = bytearray()
        for _ in range(target - len(states)):
            if bad:
                if rng_random() < p_exit:
                    bad = False
            else:
                if rng_random() < p_enter:
                    bad = True
            chunk.append(bad)
        self._current_bad = bad
        states.extend(chunk)

    def is_lost(self, t: int) -> bool:
        self._extend_to(t, t)
        return bool(self._states[t])

    def lost_in(self, slots: Slots) -> list[bool] | np.ndarray:
        if isinstance(slots, np.ndarray):
            if not slots.size:
                return np.zeros(0, dtype=bool)
            self._extend_to(int(slots.max()), int(slots.min()))
            # A view of the table blocks its resizing while it lives,
            # so take it after extending and never keep it.
            return np.frombuffer(self._states, dtype=bool)[slots]
        if not slots:
            return []
        # One pass finds the lowest slot; every walker's batch ascends,
        # so its last slot bounds the table, and an unordered batch that
        # reaches past it extends on the IndexError.
        lowest = min(slots)
        self._extend_to(slots[-1], lowest)
        states = self._states
        try:
            return [bool(states[t]) for t in slots]
        except IndexError:
            self._extend_to(max(slots), lowest)
            return [bool(states[t]) for t in slots]

    def __repr__(self) -> str:
        return (
            f"BurstFaults(p_enter={self.p_enter}, "
            f"p_exit={self.p_exit}, seed={self.seed})"
        )


def slot_numbers(slots: Iterable[Any]) -> tuple[int, ...]:
    """``slots`` as a tuple of plain ints, in order.

    Any integer type is accepted (numpy integers included); anything
    else - a float, a string, a bool - raises
    :class:`SpecificationError`, since such a "slot" would silently
    never match a query, or match slot 0 or 1.
    """
    slots = tuple(slots)
    try:
        if bool not in set(map(type, slots)):
            return tuple(map(operator.index, slots))
        reason = "got a bool"
    except TypeError as error:
        reason = str(error)
    raise SpecificationError(f"lost slots must be integers: {reason}")


class AdversarialFaults:
    """An explicit set of lost slots - the adversary of Lemmas 1-2.

    The worst cases of :mod:`repro.sim.delay` are the delays of its
    optimal instances (with rotation width ``n >= m + j``: the first
    ``j`` services a client hears).  Slots must be non-negative
    integers (see :func:`slot_numbers`).
    """

    def __init__(self, lost_slots: Iterable[int]) -> None:
        self.lost_slots = frozenset(slot_numbers(lost_slots))
        if min(self.lost_slots, default=0) < 0:
            raise SpecificationError("lost slots must be >= 0")

    def is_lost(self, t: int) -> bool:
        return t in self.lost_slots

    def lost_in(self, slots: Slots) -> list[bool] | np.ndarray:
        if isinstance(slots, np.ndarray):
            return _per_distinct(self.lost_in, slots)
        lost = self.lost_slots
        return [t in lost for t in slots]

    @property
    def budget(self) -> int:
        """Number of losses this adversary spends."""
        return len(self.lost_slots)

    def __repr__(self) -> str:
        return f"AdversarialFaults({sorted(self.lost_slots)})"
