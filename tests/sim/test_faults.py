"""Tests for channel fault models."""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError, SpecificationError
from repro.memo import opened
from repro.sim.faults import (
    DECISION_MEMO_LIMIT,
    SHARED_DRAWS,
    AdversarialFaults,
    BernoulliFaults,
    BurstFaults,
    NoFaults,
    lost_in,
)


class TestNoFaults:
    def test_never_loses(self):
        model = NoFaults()
        assert not any(model.is_lost(t) for t in range(100))


class TestBernoulli:
    def test_validation(self):
        with pytest.raises(SpecificationError):
            BernoulliFaults(-0.1)
        with pytest.raises(SpecificationError):
            BernoulliFaults(1.1)

    def test_extremes(self):
        assert not BernoulliFaults(0.0).is_lost(5)
        assert BernoulliFaults(1.0).is_lost(5)

    def test_deterministic_per_slot(self):
        model = BernoulliFaults(0.5, seed=7)
        decisions = [model.is_lost(t) for t in range(50)]
        again = [model.is_lost(t) for t in range(50)]
        assert decisions == again

    def test_order_independent(self):
        model = BernoulliFaults(0.5, seed=7)
        forward = [model.is_lost(t) for t in range(20)]
        fresh = BernoulliFaults(0.5, seed=7)
        backward = [fresh.is_lost(t) for t in reversed(range(20))]
        assert forward == list(reversed(backward))

    def test_seed_changes_pattern(self):
        a = [BernoulliFaults(0.5, seed=1).is_lost(t) for t in range(64)]
        b = [BernoulliFaults(0.5, seed=2).is_lost(t) for t in range(64)]
        assert a != b

    def test_loss_rate_approximates_p(self):
        model = BernoulliFaults(0.3, seed=3)
        losses = sum(model.is_lost(t) for t in range(5000))
        assert 0.25 < losses / 5000 < 0.35


class TestBurst:
    def test_validation(self):
        with pytest.raises(SpecificationError):
            BurstFaults(-0.1, 0.5)
        with pytest.raises(SpecificationError):
            BurstFaults(0.1, 1.5)

    def test_deterministic(self):
        a = BurstFaults(0.05, 0.5, seed=9)
        b = BurstFaults(0.05, 0.5, seed=9)
        assert [a.is_lost(t) for t in range(200)] == [
            b.is_lost(t) for t in range(200)
        ]

    def test_out_of_order_queries_consistent(self):
        model = BurstFaults(0.05, 0.5, seed=9)
        late = model.is_lost(150)
        early = model.is_lost(3)
        fresh = BurstFaults(0.05, 0.5, seed=9)
        assert early == fresh.is_lost(3)
        assert late == fresh.is_lost(150)

    def test_losses_cluster(self):
        """Bursty losses have longer runs than Bernoulli at equal rate."""
        model = BurstFaults(0.02, 0.25, seed=4)
        states = [model.is_lost(t) for t in range(20_000)]
        loss_rate = sum(states) / len(states)
        runs = []
        current = 0
        for lost in states:
            if lost:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert loss_rate > 0
        assert runs and sum(runs) / len(runs) > 1.5

    def test_never_lost_when_enter_zero(self):
        model = BurstFaults(0.0, 0.5, seed=1)
        assert not any(model.is_lost(t) for t in range(500))


class TestAdversarial:
    def test_explicit_slots(self):
        model = AdversarialFaults([3, 7])
        assert model.is_lost(3)
        assert model.is_lost(7)
        assert not model.is_lost(5)
        assert model.budget == 2

    def test_rejects_negative_slots(self):
        with pytest.raises(SpecificationError):
            AdversarialFaults([-1])

    def test_empty_adversary(self):
        assert AdversarialFaults([]).budget == 0

    @pytest.mark.parametrize(
        "slots", [["4"], [1.5, 7], [True, 3], [np.True_], [None]]
    )
    def test_rejects_non_integer_slots(self, slots):
        with pytest.raises(SpecificationError, match="integers"):
            AdversarialFaults(slots)

    def test_numpy_integers_stored_as_ints(self):
        model = AdversarialFaults(np.array([3, 7], dtype=np.int32))
        assert model.lost_slots == {3, 7}
        assert all(type(t) is int for t in model.lost_slots)


class TestBatchedDecisions:
    """lost_in(slots) must agree, slot by slot, with is_lost."""

    MODELS = [
        lambda: NoFaults(),
        lambda: BernoulliFaults(0.3, seed=11),
        lambda: BurstFaults(0.05, 0.4, seed=11),
        lambda: AdversarialFaults([2, 3, 50, 51]),
    ]

    def test_batch_matches_pointwise(self):
        slots = [40, 3, 3, 17, 0, 99, 63]
        for factory in self.MODELS:
            batch = factory().lost_in(slots)
            pointwise = [factory().is_lost(t) for t in slots]
            assert batch == pointwise

    def test_helper_uses_model_batch(self):
        model = AdversarialFaults([1])
        assert lost_in(model, [0, 1, 2]) == [False, True, False]

    def test_helper_falls_back_to_pointwise(self):
        class OddLoses:
            def is_lost(self, t: int) -> bool:
                return t % 2 == 1

        assert lost_in(OddLoses(), [1, 2, 3]) == [True, False, True]

    def test_empty_batch(self):
        for factory in self.MODELS:
            assert factory().lost_in([]) == []


class TestBernoulliCache:
    def test_decisions_bit_identical_to_fresh_seeding(self):
        """The reused-RNG fast path must reproduce the documented
        contract: hash random.Random(f"{seed}:{t}") per slot."""
        import random as _random

        model = BernoulliFaults(0.4, seed=9)
        for t in [5, 0, 5, 123, 7, 123]:
            expected = _random.Random(f"9:{t}").random() < 0.4
            assert model.is_lost(t) == expected

    def test_batch_then_pointwise_consistent(self):
        model = BernoulliFaults(0.5, seed=21)
        slots = list(range(64))
        batch = model.lost_in(slots)
        assert [model.is_lost(t) for t in slots] == batch


class TestBurstBounds:
    def test_chunked_states_match_seed_markov_chain(self):
        """The chunked byte table replays the seed Markov chain: one RNG
        draw per slot, transition before recording."""
        import random as _random

        model = BurstFaults(0.1, 0.3, seed=13)
        rng = _random.Random(13)
        bad = False
        expected = []
        for _ in range(500):
            if bad:
                if rng.random() < 0.3:
                    bad = False
            else:
                if rng.random() < 0.1:
                    bad = True
            expected.append(bad)
        assert model.lost_in(list(range(500))) == expected

    def test_query_beyond_max_horizon_rejected(self):
        model = BurstFaults(0.1, 0.5, seed=1, max_horizon=100)
        assert model.is_lost(99) in (True, False)
        with pytest.raises(SimulationError):
            model.is_lost(100)
        with pytest.raises(SimulationError):
            model.lost_in([5, 100])

    def test_unordered_batch_reaching_past_its_last_slot(self):
        # The last slot is not the highest: the table still grows to
        # cover every slot, and the horizon bound still holds.
        chunk = BurstFaults.CHUNK
        slots = [3 * chunk, 3, chunk + 7, 1]
        batch = BurstFaults(0.05, 0.4, seed=11).lost_in(slots)
        fresh = BurstFaults(0.05, 0.4, seed=11)
        assert batch == [fresh.is_lost(t) for t in slots]
        bounded = BurstFaults(0.1, 0.5, seed=1, max_horizon=100)
        with pytest.raises(SimulationError, match="max_horizon"):
            bounded.lost_in([150, 5])

    def test_query_before_slot_zero_rejected(self):
        # A negative slot would index the state table from its end.
        fresh = BurstFaults(0.1, 0.5, seed=1)
        with pytest.raises(SimulationError, match="before slot 0"):
            fresh.is_lost(-1)
        grown = BurstFaults(0.1, 0.5, seed=1)
        grown.lost_in(list(range(50)))
        with pytest.raises(SimulationError, match="before slot 0"):
            grown.is_lost(-3)
        with pytest.raises(SimulationError, match="before slot 0"):
            grown.lost_in([4, -3, 9])

    def test_growth_capped_at_max_horizon(self):
        model = BurstFaults(0.1, 0.5, seed=1, max_horizon=10)
        model.is_lost(9)
        assert len(model._states) == 10

    def test_bad_max_horizon_rejected(self):
        with pytest.raises(SpecificationError):
            BurstFaults(0.1, 0.5, max_horizon=0)


class PointwiseOnly:
    """A third-party model with ``is_lost`` alone: every batch goes
    through the :func:`lost_in` adapter's per-slot loop."""

    def __init__(self, modulus: int) -> None:
        self.modulus = modulus

    def is_lost(self, t: int) -> bool:
        assert type(t) is int, "the adapter passes plain ints"
        return (t * 37 + 11) % self.modulus < 2

    def __repr__(self) -> str:
        return f"PointwiseOnly({self.modulus})"


CHUNK = BurstFaults.CHUNK
#: Slots near the burst table's chunk edges, so batches cross them.
EDGES = [k * CHUNK + d for k in range(4) for d in (-1, 0, 1) if k or d >= 0]
PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)
)


@st.composite
def model_factories(draw):
    """A zero-argument factory for a fault model of any kind."""
    kind = draw(
        st.sampled_from(
            ["none", "bernoulli", "burst", "adversarial", "pointwise"]
        )
    )
    seed = draw(st.integers(0, 99))
    if kind == "none":
        return NoFaults
    if kind == "bernoulli":
        return partial(BernoulliFaults, draw(PROBABILITIES), seed=seed)
    if kind == "burst":
        return partial(
            BurstFaults, draw(PROBABILITIES), draw(PROBABILITIES), seed=seed
        )
    if kind == "adversarial":
        lost = draw(
            st.lists(
                st.one_of(st.integers(0, 60), st.sampled_from(EDGES)),
                max_size=20,
            )
        )
        return partial(AdversarialFaults, lost)
    return partial(PointwiseOnly, draw(st.integers(2, 9)))


#: Unordered batches with duplicates, empty ones included.
SLOT_BATCHES = st.lists(
    st.one_of(
        st.integers(0, 60),
        st.sampled_from(EDGES),
        st.integers(0, 4 * CHUNK),
    ),
    max_size=40,
)


class TestInKindBatches:
    """An int64 ndarray batch gets a bool ndarray back, a list batch a
    list, and both equal ``is_lost`` slot by slot."""

    @given(
        factory=model_factories(),
        batches=st.lists(SLOT_BATCHES, min_size=1, max_size=4),
        array_first=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    @example(
        factory=partial(AdversarialFaults, [3, 5, CHUNK]),
        batches=[[5, 3, 9, 5, CHUNK, 3], []],
        array_first=True,
    )
    def test_array_and_list_forms_agree(self, factory, batches, array_first):
        warmed, reference = factory(), factory()
        for slots in batches:
            array = np.asarray(slots, dtype=np.int64)
            expected = [reference.is_lost(t) for t in slots]
            if array_first:
                from_array = lost_in(warmed, array)
                from_list = lost_in(warmed, slots)
            else:
                from_list = lost_in(warmed, slots)
                from_array = lost_in(warmed, array)
            fresh = lost_in(factory(), array)
            for answer in (from_array, fresh):
                assert isinstance(answer, np.ndarray)
                assert answer.dtype == bool
                assert answer.shape == (len(slots),)
                assert answer.tolist() == expected
            assert isinstance(from_list, list)
            assert from_list == expected

    @given(
        slots=st.lists(st.integers(-3, 110), min_size=1, max_size=12),
        warm=st.one_of(st.none(), st.integers(0, 99)),
    )
    @settings(max_examples=200, deadline=None)
    def test_burst_errors_agree(self, slots, warm):
        # Negative slots and slots past max_horizon raise the same
        # SimulationError from both forms, on a fresh or a warmed table;
        # valid batches grow the table alike.
        def answer(form):
            model = BurstFaults(0.2, 0.5, seed=3, max_horizon=100)
            if warm is not None:
                model.is_lost(warm)
            try:
                lost = lost_in(model, form(slots))
            except SimulationError as error:
                message = str(error)
                return "before slot 0" in message, "max_horizon" in message
            return list(lost), len(model._states)

        from_list = answer(list)
        assert answer(partial(np.asarray, dtype=np.int64)) == from_list
        if min(slots) < 0 or max(slots) >= 100:
            assert from_list in [(True, False), (False, True)]

    def test_empty_array_batch_does_not_extend_the_table(self):
        model = BurstFaults(0.2, 0.5, seed=3)
        answer = lost_in(model, np.zeros(0, dtype=np.int64))
        assert answer.dtype == bool and answer.shape == (0,)
        assert len(model._states) == 0


class TestSharedDraws:
    """While :data:`~repro.sim.faults.SHARED_DRAWS` is open, Bernoulli
    models that share a seed share their uniforms: whatever their loss
    probabilities, batch forms and the table's bound, every decision
    equals a fresh model's outside the scope."""

    @given(
        seed=st.integers(0, 5),
        probabilities=st.lists(PROBABILITIES, min_size=1, max_size=4),
        batches=st.lists(SLOT_BATCHES, min_size=1, max_size=4),
        forms=st.lists(st.booleans(), min_size=4, max_size=4),
        limit=st.sampled_from([0, 1, 7, DECISION_MEMO_LIMIT]),
    )
    @settings(max_examples=200, deadline=None)
    def test_shared_decisions_equal_fresh_ones(
        self, seed, probabilities, batches, forms, limit
    ):
        assert SHARED_DRAWS.entries is None
        expected = [
            [
                [BernoulliFaults(p, seed=seed).is_lost(t) for t in slots]
                for slots in batches
            ]
            for p in probabilities
        ]
        bound = SHARED_DRAWS.limit
        SHARED_DRAWS.limit = limit
        try:
            with opened(SHARED_DRAWS):
                shared = []
                for p in probabilities:
                    model = BernoulliFaults(p, seed=seed)
                    shared.append([
                        list(map(bool, lost_in(
                            model,
                            np.asarray(slots, dtype=np.int64)
                            if as_array else slots,
                        )))
                        for slots, as_array in zip(batches, forms)
                    ])
                    assert [
                        [model.is_lost(t) for t in slots]
                        for slots in batches
                    ] == shared[-1]
                assert len(SHARED_DRAWS.entries) <= limit
        finally:
            SHARED_DRAWS.limit = bound
        assert shared == expected
        assert SHARED_DRAWS.entries is None

    def test_one_draw_per_seed_and_slot(self):
        slots = list(range(10))
        hits = SHARED_DRAWS.hits
        with opened(SHARED_DRAWS):
            for p in (0.1, 0.3, 0.6):
                BernoulliFaults(p, seed=4).lost_in(slots)
            assert sorted(SHARED_DRAWS.entries) == [
                ("4:", t) for t in slots
            ]
        assert SHARED_DRAWS.hits - hits == 20

    def test_keyed_by_the_seed_text(self):
        """Seeds 1 and 1.0 are equal keys but different draws."""
        slots = list(range(40))
        fresh = [
            BernoulliFaults(0.5, seed=seed).lost_in(slots)
            for seed in (1, 1.0)
        ]
        assert fresh[0] != fresh[1]
        with opened(SHARED_DRAWS):
            shared = [
                BernoulliFaults(0.5, seed=seed).lost_in(slots)
                for seed in (1, 1.0)
            ]
        assert shared == fresh
