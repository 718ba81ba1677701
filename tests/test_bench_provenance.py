"""Bench records name the code they measured: ``src_sha256``."""

import shutil
from pathlib import Path

from benchmarks.conftest import provenance, source_sha256

SRC = Path(__file__).resolve().parents[1] / "src"


def test_source_hash_is_stable_and_tracks_every_byte(tmp_path):
    tree = tmp_path / "src"
    shutil.copytree(SRC, tree)
    first = source_sha256(tree)
    assert source_sha256(tree) == first == source_sha256(SRC)
    assert provenance()["src_sha256"] == first
    # Bytecode caches are not the code.
    cache = tree / "repro" / "__pycache__"
    cache.mkdir(exist_ok=True)
    (cache / "stale.pyc").write_bytes(b"\x00")
    assert source_sha256(tree) == first
    target = tree / "repro" / "__init__.py"
    data = bytearray(target.read_bytes())
    data[-1] ^= 1
    target.write_bytes(bytes(data))
    assert source_sha256(tree) != first
