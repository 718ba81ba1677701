"""Counter-based per-client RNG substreams.

The traffic layer derives every client's behaviour from its index alone,
which is what makes population sharding exact.  The original derivation
seeded a Mersenne Twister per client from a string key - correct, but the
SHA-512 key expansion costs microseconds per client, which at a million
clients is more wall-clock than the whole simulation budget of the
vectorized engine.

:class:`Substream` replaces it with a *counter-based* generator built on
the splitmix64 finalizer: a stream is a base word derived from
``(seed, tag, index)``, and draw ``j`` is ``mix64(base + j * PHI)``.
Each draw is a pure function of ``(stream, position)``, which buys three
properties the engines rely on:

* **O(1) stream creation** - no state to expand, so spinning up a
  million client streams is a million additions;
* **random access** - the vectorized engine materializes draw matrices
  ``U[client, position]`` directly with numpy ``uint64`` arithmetic and
  gets bit-identical values to the scalar path (pinned by
  ``tests/traffic/test_substreams.py``);
* **shard invariance** - a client's stream depends only on the global
  seed and its index, never on which shard simulates it.

``random()`` follows CPython's recipe for 53-bit doubles (take the top
53 bits, scale by 2^-53), so draws are uniform on ``[0, 1)`` with the
same resolution as :class:`random.Random`.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Sequence

MASK64 = (1 << 64) - 1

#: The golden-ratio increment of splitmix64 (Steele, Lea & Flood 2014).
PHI = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

_INV53 = 2.0 ** -53

#: Domain tags keeping the per-purpose streams of one (seed, index)
#: disjoint (see :func:`repro.traffic.arrivals.arrival_rng` for why).
TAG_CLIENT = 1
TAG_ARRIVAL = 2


def mix64(z: int) -> int:
    """The splitmix64 finalizer: a 64-bit avalanche permutation."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def fold_seed(seed: int) -> int:
    """Fold an arbitrary Python int into one 64-bit word."""
    word = seed & MASK64
    rest = seed >> 64
    while rest not in (0, -1):
        word = mix64(word ^ (rest & MASK64))
        rest >>= 64
    return word


def stream_root(seed: int, tag: int) -> int:
    """The shared root word of one (seed, tag) family of streams."""
    return mix64(fold_seed(seed) ^ ((tag * _M2) & MASK64))


def stream_base(seed: int, tag: int, index: int) -> int:
    """The base word of stream ``index`` - O(1), no key expansion."""
    return mix64((stream_root(seed, tag) + ((index * PHI) & MASK64)) & MASK64)


class Substream:
    """One counter-based uniform stream (the per-client RNG).

    Implements the slice of the :class:`random.Random` API the traffic
    layer consumes - ``random()``, ``choices()``, ``getrandbits()`` -
    with every draw a pure function of ``(base, position)``.
    """

    __slots__ = ("_base", "_count")

    def __init__(self, base: int) -> None:
        self._base = base
        self._count = 0

    @property
    def base(self) -> int:
        """The stream's base word (its identity)."""
        return self._base

    @property
    def position(self) -> int:
        """Draws consumed so far."""
        return self._count

    def _next_word(self) -> int:
        self._count += 1
        return mix64((self._base + self._count * PHI) & MASK64)

    def random(self) -> float:
        """One uniform draw on ``[0, 1)`` (53-bit resolution)."""
        return (self._next_word() >> 11) * _INV53

    def getrandbits(self, k: int) -> int:
        """``k`` random bits assembled from 64-bit words."""
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        out = 0
        shift = 0
        while k > 0:
            take = min(k, 64)
            out |= (self._next_word() >> (64 - take)) << shift
            shift += take
            k -= take
        return out

    def choices(
        self,
        population: Sequence,
        weights: Sequence[float] | None = None,
        *,
        cum_weights: Sequence[float] | None = None,
        k: int = 1,
    ) -> list:
        """Weighted draws with replacement (the ``random.choices`` slice
        :func:`repro.sim.workload.sample_accesses` uses).

        Bit-identical to CPython's implementation given the same uniform
        stream: one ``random()`` per draw, positioned by bisecting the
        running totals.
        """
        n = len(population)
        if cum_weights is None:
            if weights is None:
                return [
                    population[int(self.random() * n)] for _ in range(k)
                ]
            cum_weights = list(accumulate(weights))
        elif weights is not None:
            raise TypeError(
                "cannot specify both weights and cumulative weights"
            )
        if len(cum_weights) != n:
            raise ValueError(
                "the number of weights does not match the population"
            )
        total = cum_weights[-1] + 0.0
        if total <= 0.0:
            raise ValueError("total of weights must be greater than zero")
        hi = n - 1
        return [
            population[bisect_right(cum_weights, self.random() * total, 0, hi)]
            for _ in range(k)
        ]

    def __repr__(self) -> str:
        return f"Substream(base={self._base:#018x}, position={self._count})"


def uniform_matrix(seed: int, tag: int, lo: int, hi: int, draws: int):
    """Draw matrix ``U[i - lo, j]`` = draw ``j + 1`` of stream ``i``.

    The vectorized mirror of :class:`Substream`: entry ``[i - lo, j]``
    equals what ``Substream(stream_base(seed, tag, i))`` returns on its
    ``(j + 1)``-th ``random()`` call, bit for bit.
    """
    import numpy as np

    root = np.uint64(stream_root(seed, tag))
    idx = np.arange(lo, hi, dtype=np.uint64)
    bases = _mix64_np(root + idx * np.uint64(PHI))
    if draws == 0:
        return np.empty((hi - lo, 0), dtype=np.float64)
    j = (np.arange(1, draws + 1, dtype=np.uint64)) * np.uint64(PHI)
    words = _mix64_np(bases[:, None] + j[None, :])
    return (words >> np.uint64(11)).astype(np.float64) * _INV53


def stream_bases(seed: int, tag: int, lo: int, hi: int):
    """Vectorized :func:`stream_base` over ``[lo, hi)`` (numpy uint64)."""
    import numpy as np

    root = np.uint64(stream_root(seed, tag))
    idx = np.arange(lo, hi, dtype=np.uint64)
    return _mix64_np(root + idx * np.uint64(PHI))


def _mix64_np(z):
    """The splitmix64 finalizer over a numpy ``uint64`` array."""
    import numpy as np

    z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
    return z ^ (z >> np.uint64(31))
