"""Shared benchmark fixtures: the paper's toy programs, seeded RNGs.

The repository root goes on ``sys.path`` here, so benches import the
slot-walking oracles as ``tests.oracles.<name>``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bdisk.flat import build_aida_flat_program, build_flat_program

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))


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


def source_sha256(tree: Path) -> str:
    """The code a record measured, recomputable on any checkout.

    SHA-256 over every file under ``tree`` but those in ``__pycache__``,
    in the order of their ``/``-separated relative paths: each path's
    UTF-8 bytes, a NUL, the file's bytes, a NUL."""
    files = sorted(
        (path.relative_to(tree).as_posix(), path)
        for path in tree.rglob("*")
        if path.is_file()
        and "__pycache__" not in path.relative_to(tree).parts
    )
    digest = hashlib.sha256()
    for relative, path in files:
        digest.update(relative.encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def provenance() -> dict:
    """Where a bench record was measured: commit (and whether the tree
    had uncommitted changes), the hash of ``src/`` as measured, CPU
    count, interpreter and numpy versions."""
    import numpy

    def git(*argv):
        return subprocess.run(
            ["git", *argv], cwd=ROOT, capture_output=True, text=True,
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
        "src_sha256": source_sha256(ROOT / "src"),
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
