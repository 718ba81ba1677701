"""Shared benchmark fixtures: the paper's toy programs, seeded RNGs."""

from __future__ import annotations

import os
import platform
import random
import subprocess
from pathlib import Path

import pytest

from repro.bdisk.flat import build_aida_flat_program, build_flat_program


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x1997)


@pytest.fixture(scope="session")
def figure5_program():
    """Figure 5: flat program for A (5 blocks), B (3 blocks)."""
    return build_flat_program([("A", 5), ("B", 3)])


@pytest.fixture(scope="session")
def figure6_program():
    """Figure 6: AIDA flat program, A 5-of-10, B 3-of-6."""
    return build_aida_flat_program([("A", 5, 10), ("B", 3, 6)])


def provenance() -> dict:
    """Where a bench record was measured: commit (and whether the tree
    had uncommitted changes), CPU count, interpreter and numpy versions."""
    import numpy

    root = Path(__file__).resolve().parents[1]

    def git(*argv):
        return subprocess.run(
            ["git", *argv], cwd=root, capture_output=True, text=True,
            check=True,
        ).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.CalledProcessError):
        commit = dirty = None
    return {
        "commit": commit,
        "dirty": dirty,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    """Uniform table rendering for all benches (visible with pytest -s)."""
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(header))
    ]
    line = " | ".join(str(h).rjust(w) for h, w in zip(header, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print(" | ".join(str(c).rjust(w) for c, w in zip(row, widths)))
