"""Shared fixtures: the paper's toy programs and seeded RNGs.

The repository root goes on ``sys.path`` here, so test modules import
the slot-walking oracles as ``tests.oracles.<name>`` from any directory.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from repro.bdisk.flat import build_aida_flat_program, build_flat_program

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; reseed per test for reproducibility."""
    return random.Random(0xB0CA)


@pytest.fixture
def figure5_program():
    """The paper's Figure 5 flat program: A (5 blocks), B (3 blocks)."""
    return build_flat_program([("A", 5), ("B", 3)])


@pytest.fixture
def figure6_program():
    """The paper's Figure 6 AIDA program: A 5-of-10, B 3-of-6."""
    return build_aida_flat_program([("A", 5, 10), ("B", 3, 6)])


@pytest.fixture(scope="session")
def chosen_channel_game():
    """The exhaustive adversary game on the channel a client picks
    (``tests/sim/delay_reference.py``), for oracles outside ``tests/sim``."""
    from sim.delay_reference import chosen_channel_delay

    return chosen_channel_delay
