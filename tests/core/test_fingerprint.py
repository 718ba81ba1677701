"""Tests for canonical content hashing of pinwheel instances."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fingerprint_reference import reference_canonical_json
from repro.core import PinwheelSystem, fingerprint, system_fingerprint
from repro.core.fingerprint import canonical_json


class TestCanonicalForm:
    def test_dict_order_does_not_matter(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint(
            {"b": 2, "a": 1}
        )

    def test_sequence_order_matters(self):
        assert fingerprint([1, 2]) != fingerprint([2, 1])

    def test_tuples_and_lists_coincide(self):
        assert fingerprint((1, 2)) == fingerprint([1, 2])

    def test_fractions_are_tagged(self):
        assert fingerprint(Fraction(1, 2)) != fingerprint(0.5)
        assert fingerprint(Fraction(1, 2)) != fingerprint("1/2")
        assert fingerprint(Fraction(2, 4)) == fingerprint(Fraction(1, 2))

    def test_scalar_types_do_not_collide(self):
        assert fingerprint("1") != fingerprint(1)
        assert fingerprint(None) != fingerprint("null")

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": [1, 2], "a": None}) == (
            '{"a":null,"b":[1,2]}'
        )


class Tag(str):
    """A string subclass whose ``str()`` is not its text."""

    def __str__(self):
        return "tag:" + self


FINITE = {"allow_nan": False, "allow_infinity": False}
KEYS = st.one_of(
    st.text(max_size=4),
    st.integers(-3, 12),
    st.booleans(),
    st.none(),
    st.text(max_size=3).map(Tag),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(**FINITE),
    st.just(-0.0),
    st.text(max_size=6),
    st.text(max_size=3).map(Tag),
    st.fractions(max_denominator=9),
    st.binary(max_size=4),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32, **FINITE).map(np.float32),
    st.floats(**FINITE).map(np.float64),
    st.sets(st.integers(0, 9), max_size=3),
    st.frozensets(st.text(max_size=2), max_size=3),
)
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=24,
)


class TestAgainstTheCopyingEncoder:
    """The one-walk encoder writes the reference's text, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(PAYLOADS)
    def test_same_text(self, payload):
        assert canonical_json(payload) == reference_canonical_json(payload)

    @settings(max_examples=60, deadline=None)
    @given(PAYLOADS, st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_out_of_range_floats_raise(self, payload, bad):
        for wrapped in ([payload, bad], {"k": [bad]}, bad):
            with pytest.raises(ValueError):
                reference_canonical_json(wrapped)
            with pytest.raises(ValueError):
                canonical_json(wrapped)

    def test_key_rules(self):
        # Keys sort as strings; bool and None keys read as Python
        # spells them; a later key that stringifies alike wins.
        for payload, text in (
            ({10: "a", 2: "b"}, '{"10":"a","2":"b"}'),
            ({True: 1, None: 2}, '{"None":2,"True":1}'),
            ({1: "int", "1": "str"}, '{"1":"str"}'),
            ({Tag("k"): [1]}, '{"tag:k":[1]}'),
        ):
            assert canonical_json(payload) == text
            assert reference_canonical_json(payload) == text


class TestSystemFingerprint:
    def test_equal_systems_agree(self):
        one = PinwheelSystem.from_pairs([(1, 2), (1, 3)])
        two = PinwheelSystem.from_pairs([(1, 2), (1, 3)])
        assert system_fingerprint(one) == system_fingerprint(two)

    def test_task_order_is_part_of_identity(self):
        # Scheduler tie-breaking is declaration-order sensitive, so the
        # fingerprint deliberately preserves sequence order.
        forward = PinwheelSystem.from_pairs([(1, 2), (1, 3)])
        backward = PinwheelSystem.from_pairs([(1, 3), (1, 2)])
        assert system_fingerprint(forward) != system_fingerprint(backward)

    def test_parameters_matter(self):
        base = PinwheelSystem.from_pairs([(1, 2), (1, 3)])
        wider = PinwheelSystem.from_pairs([(1, 2), (1, 4)])
        assert system_fingerprint(base) != system_fingerprint(wider)
