"""Tests for the object engine's client loop: few-client populations
run with ``engine="object"`` and read back from their traces."""

from repro.traffic.simulate import simulate_traffic
from repro.traffic.spec import TrafficSpec

SIZES = {"A": 5, "B": 3}
DEADLINES = {"A": 100, "B": 100}


def run(program, *, clients=1, requests=3, think=0, catalogue=("A", "B"),
        deadlines=DEADLINES, seed=0, **spec):
    """One traced object-engine run; ``duration=1`` lands every
    client's arrival in slot 0."""
    return simulate_traffic(
        program,
        catalogue,
        TrafficSpec(
            clients=clients, duration=1, requests_per_client=requests,
            think_time=think, seed=seed, **spec,
        ),
        file_sizes=SIZES,
        deadlines=deadlines,
        engine="object",
        trace=True,
    )


def by_client(result, client):
    """The client's trace records, in issue order."""
    return [record for record in result.trace if record.client == client]


class TestSessionFlow:
    def test_issues_exactly_its_request_budget(self, figure6_program):
        result = run(figure6_program, clients=3, requests=4)
        assert result.metrics.requests == 12
        assert result.metrics.completions == 12
        for client in range(3):
            assert len(by_client(result, client)) == 4

    def test_requests_never_overlap(self, figure6_program):
        """Single receiver: at think 0 each request is issued the slot
        after the previous one finished."""
        result = run(figure6_program, clients=2, requests=5, think=0)
        for client in range(2):
            trace = by_client(result, client)
            assert len(trace) == 5
            assert trace[0].issued == 0
            for earlier, later in zip(trace, trace[1:]):
                finish = earlier.issued + earlier.latency - 1
                assert later.issued == finish + 1

    def test_think_time_spaces_requests(self, figure6_program):
        trace = by_client(run(figure6_program, requests=5, think=50), 0)
        gaps = [
            later.issued - (earlier.issued + earlier.latency - 1)
            for earlier, later in zip(trace, trace[1:])
        ]
        assert all(gap >= 1 for gap in gaps)
        assert any(gap > 1 for gap in gaps)  # some think draws are > 0

    def test_deadline_misses_recorded(self, figure6_program):
        # Impossible deadline: 5 blocks cannot land in 1 slot.
        result = run(
            figure6_program, requests=2, catalogue=("A",),
            deadlines={"A": 1},
        )
        assert result.metrics.deadline_misses == 2
        assert result.metrics.aborts == 0


class TestSessionCache:
    def test_cache_hits_answer_in_zero_slots(self, figure6_program):
        result = run(
            figure6_program, requests=3, catalogue=("A",),
            cache="lru", cache_capacity=2,
        )
        trace = by_client(result, 0)
        assert [r.cache_hit for r in trace] == [False, True, True]
        assert [r.latency for r in trace][1:] == [0, 0]
        assert result.metrics.cache_hits == 2
        assert result.metrics.cache_misses == 1
