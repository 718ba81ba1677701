"""Tests for the resumable JSONL run store."""

import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sweep import RunStore


def row(key, value=0):
    return {"key": key, "index": value, "result": {"x": value}}


class TestRoundTrip:
    def test_append_and_read(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        assert store.rows() == [] and not store.exists()
        store.append(row("a"))
        store.append(row("b", 1))
        assert store.exists()
        assert store.rows() == [row("a"), row("b", 1)]
        assert store.completed_keys() == {"a", "b"}

    def test_parent_directories_created(self, tmp_path):
        store = RunStore(tmp_path / "deep" / "down" / "runs.jsonl")
        store.append(row("a"))
        assert store.rows() == [row("a")]

    def test_clear(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.append(row("a"))
        store.clear()
        assert store.rows() == [] and not store.exists()
        store.clear()  # idempotent

class TestRobustness:
    def test_torn_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.append(row("a"))
        store.append(row("b"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "c", "res')  # killed mid-append
        assert store.completed_keys() == {"a", "b"}
        # A torn tail is ignored whatever its bytes.
        path.write_bytes(json.dumps(row("a")).encode() + b"\n\xff\xfe")
        with pytest.warns(RuntimeWarning, match="torn final run-store"):
            assert store.completed_keys() == {"a"}

    def test_unterminated_final_line_is_torn_even_when_parseable(
        self, tmp_path
    ):
        # Reader and healer must agree: a complete JSON final row
        # missing only its newline would be truncated by the next
        # append, so rows() must not count it either - otherwise a
        # resumed sweep skips a cell whose record is about to vanish.
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.append(row("a"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row("b")))  # no trailing newline
        assert store.completed_keys() == {"a"}
        store.append(row("c"))
        assert store.rows() == [row("a"), row("c")]

    def test_append_after_torn_tail_heals_the_file(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.append(row("a"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "b", "res')  # killed mid-append
        store.append(row("c"))
        # The torn fragment was truncated, not stranded mid-file.
        assert store.rows() == [row("a"), row("c")]
        assert store.completed_keys() == {"a", "c"}

    def test_terminated_malformed_final_line_raises(self, tmp_path):
        # A kill cannot produce a newline-terminated malformed line
        # (rows are single line+newline writes), so this is external
        # corruption: raise loudly instead of silently skipping a line
        # the next append would strand mid-file.
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.append(row("a"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("corrupted but terminated\n")
        with pytest.raises(SimulationError, match="malformed run-store"):
            store.rows()

    def test_malformed_interior_line_raises(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        # Not JSON; not UTF-8; nested past the parser's recursion limit;
        # an integer past Python's digit limit.
        for bad in (b"not json", b"\xff\xfe", b"[" * 200_000, b"1" * 5_000):
            path.write_bytes(
                json.dumps(row("a")).encode() + b"\n" + bad + b"\n"
                + json.dumps(row("b")).encode() + b"\n"
            )
            with pytest.raises(
                SimulationError, match=":2: malformed run-store line: "
            ):
                RunStore(path).rows()

    def test_non_object_row_raises(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(SimulationError, match="must be +objects"):
            RunStore(path).rows()

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(
            json.dumps(row("a")) + "\n\n" + json.dumps(row("b")) + "\n",
            encoding="utf-8",
        )
        assert RunStore(path).completed_keys() == {"a", "b"}


#: Line bodies that are not a run-store row, one strategy per kind.
CORRUPTIONS = {
    "invalid utf-8": st.sampled_from([
        b"\xff\xfe", b'{"key": "\xc3("}', b"\xed\xa0\x80", b"\x80",
    ]),
    "deep nesting": st.sampled_from([b"[" * 200_000, b'{"a":' * 5_000]),
    "huge integer": st.sampled_from([
        b"1" * 5_000, b'{"key": "a", "index": ' + b"7" * 5_000 + b"}",
    ]),
    "non-object json": st.sampled_from([b"[1, 2]", b'"x"', b"null", b"3"]),
}

ROWS = st.lists(
    st.fixed_dictionaries({
        "key": st.text(max_size=8),
        "index": st.integers(-10, 10**6),
        "result": st.dictionaries(
            st.text(max_size=4),
            st.one_of(st.integers(), st.floats(allow_nan=False,
                                               allow_infinity=False),
                      st.text(max_size=6), st.none()),
            max_size=3,
        ),
    }),
    max_size=5,
)


def encoded(rows) -> list[bytes]:
    return [
        json.dumps(row, separators=(",", ":")).encode("utf-8")
        for row in rows
    ]


class TestCorruptLines:
    """Whatever bytes a store holds, ``rows()`` returns rows or raises
    :class:`SimulationError`; an unterminated final line is torn."""

    @settings(max_examples=120, deadline=None)
    @given(ROWS, st.data())
    def test_drawn_corruption_is_typed_or_torn(self, rows, data):
        lines = encoded(rows)
        kind = data.draw(st.sampled_from([*CORRUPTIONS, "truncation"]))
        if kind == "truncation":
            # A strict, non-empty prefix of a row never parses.
            whole = data.draw(st.sampled_from(encoded([
                {"key": "k", "index": 3, "result": {"x": 1.5}},
            ]) + lines))
            bad = whole[:data.draw(st.integers(1, len(whole) - 1))]
        else:
            bad = data.draw(CORRUPTIONS[kind])
        at = data.draw(st.integers(0, len(lines)))
        torn = at == len(lines) and data.draw(st.booleans())
        body = b"".join(line + b"\n" for line in lines[:at]) + bad
        if not torn:
            body += b"\n" + b"".join(line + b"\n" for line in lines[at:])
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "runs.jsonl"
            path.write_bytes(body)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    got = RunStore(path).rows()
                except SimulationError as error:
                    assert not torn
                    assert str(error).startswith(f"{path}:{at + 1}: ")
                else:
                    assert torn
                    assert got == rows
            assert [w.category for w in caught] == (
                [RuntimeWarning] if torn else []
            )
            if torn:
                assert "torn final run-store line" in str(caught[0].message)


class TestAppendMany:
    def test_group_commit_roundtrip(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.append_many([row("a"), row("b", 1), row("c", 2)])
        assert store.rows() == [row("a"), row("b", 1), row("c", 2)]

    def test_empty_batch_is_a_noop(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.append_many([])
        assert not store.exists()

    def test_heals_torn_tail_before_the_batch(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.append(row("a"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "torn')  # no newline: a killed writer
        store.append_many([row("b", 1)])
        assert store.rows() == [row("a"), row("b", 1)]

    def test_batch_is_serialized_before_any_write(self, tmp_path):
        # A non-serializable row late in the batch must not leave the
        # earlier rows half-committed.
        store = RunStore(tmp_path / "runs.jsonl")
        with pytest.raises(TypeError):
            store.append_many([row("a"), {"key": "bad", "x": object()}])
        assert store.rows() == []


class TestConcurrentAppenders:
    def test_two_processes_interleave_without_loss(self, tmp_path):
        """The advisory flock means two local writers (e.g. two sweeps
        pointed at one store) can append to it with zero torn or lost
        rows."""
        import subprocess
        import sys

        path = tmp_path / "runs.jsonl"
        count = 150
        script = (
            "import sys, time\n"
            "from repro.sweep import RunStore\n"
            "store = RunStore(sys.argv[1])\n"
            "who = sys.argv[2]\n"
            # Long values force multi-kilobyte lines: without locking,
            # interleaved buffered writes would tear visibly.
            "pad = 'x' * 2048\n"
            f"for i in range({count}):\n"
            "    store.append("
            "{'key': f'{who}-{i}', 'index': i, 'pad': pad})\n"
        )
        children = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(path), who],
                env={
                    **__import__("os").environ,
                    "PYTHONPATH": str(
                        Path(__file__).resolve().parents[2] / "src"
                    ),
                },
            )
            for who in ("alpha", "beta")
        ]
        for child in children:
            assert child.wait(timeout=120) == 0
        rows = RunStore(path).rows()
        assert len(rows) == 2 * count
        keys = {entry["key"] for entry in rows}
        assert keys == {
            f"{who}-{i}"
            for who in ("alpha", "beta")
            for i in range(count)
        }
        # Per-writer order is preserved even under interleaving.
        for who in ("alpha", "beta"):
            indices = [
                entry["index"] for entry in rows
                if entry["key"].startswith(who)
            ]
            assert indices == sorted(indices)
