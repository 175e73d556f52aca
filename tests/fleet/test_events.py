"""Tests for the typed event layer of the continuous-time fleet core.

Covers the queue's stable ``(time, priority, seq)`` total order, the
seed purity of the derived event streams (timed arrivals, traffic
change points) and the :class:`EventConfig` validation/preset.
"""

import pytest

from repro.errors import ConfigurationError
from repro.fleet.churn import ChurnProcess
from repro.fleet.events import (
    EVENT_TYPES,
    Arrival,
    Departure,
    Event,
    EventConfig,
    EventQueue,
    MigrationComplete,
    MigrationStart,
    NicFail,
    NicRestore,
    PodFail,
    PodRestore,
    Probe,
    RebalanceTimer,
    TrafficChange,
)
from repro.fleet.traces import make_trace
from repro.traffic.profile import TrafficProfile

BASE = TrafficProfile(50_000, 1000, 500.0)


class TestEventOrdering:
    def test_time_dominates(self):
        queue = EventQueue()
        queue.push(Probe(time=2.0))
        queue.push(Departure(time=1.0, instance_id="a"))
        queue.push(Arrival(time=0.5))
        assert [e.time for e in _drain(queue)] == [0.5, 1.0, 2.0]

    def test_priority_mirrors_epoch_phases_at_equal_time(self):
        """All eleven types at one timestamp pop in phase order."""
        queue = EventQueue()
        events = [
            Probe(time=1.0),
            Arrival(time=1.0),
            RebalanceTimer(time=1.0),
            MigrationStart(time=1.0, instance_id="m"),
            MigrationComplete(time=1.0, instance_id="m"),
            TrafficChange(time=1.0, instance_id="t"),
            Departure(time=1.0, instance_id="d"),
            NicFail(time=1.0, nic_id=0),
            PodFail(time=1.0, pod_id=0),
            PodRestore(time=1.0, pod_id=0),
            NicRestore(time=1.0, nic_id=0),
        ]
        for event in events:
            queue.push(event)
        popped = [type(e) for e in _drain(queue)]
        assert popped == [
            NicRestore,
            PodRestore,
            PodFail,
            NicFail,
            Departure,
            TrafficChange,
            MigrationComplete,
            MigrationStart,
            RebalanceTimer,
            Arrival,
            Probe,
        ]
        # EVENT_TYPES declares exactly this priority order.
        assert popped == list(EVENT_TYPES)
        assert [t.priority for t in popped] == sorted(
            t.priority for t in popped
        )

    def test_equal_time_and_priority_is_fifo(self):
        queue = EventQueue()
        for name in ("first", "second", "third"):
            queue.push(Departure(time=3.0, instance_id=name))
        assert [e.instance_id for e in _drain(queue)] == [
            "first",
            "second",
            "third",
        ]

    def test_pop_sequence_is_pure_function_of_pushes(self):
        def build():
            queue = EventQueue()
            queue.push(Probe(time=1.0))
            queue.push(Arrival(time=0.25))
            queue.push(Departure(time=1.0, instance_id="x"))
            queue.push(TrafficChange(time=1.0, instance_id="y"))
            queue.push(RebalanceTimer(time=0.25))
            return _drain(queue)

        a, b = build(), build()
        assert a == b

    def test_len_peek_and_bool(self):
        queue = EventQueue()
        assert not queue and len(queue) == 0
        queue.push(Probe(time=0.0))
        queue.push(Probe(time=1.0))
        assert queue and len(queue) == 2
        assert queue.peek().time == 0.0
        assert len(queue) == 2  # peek does not pop

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            Probe(time=-0.5)

    def test_describe_is_informative(self):
        assert "svc-1-0" in Departure(time=1.0, instance_id="svc-1-0").describe()
        start = MigrationStart(
            time=2.0, instance_id="svc-1-0", from_nic=0, to_nic=3, duration=1.5
        )
        text = start.describe()
        assert "nic0->nic3" in text and "1.5" in text


def _drain(queue: EventQueue) -> list[Event]:
    out = []
    while queue:
        out.append(queue.pop())
    return out


class TestEventConfig:
    def test_epoch_equivalent_preset(self):
        cfg = EventConfig.epoch_equivalent()
        assert cfg.quantize_arrivals is True
        assert cfg.migration_duration == 0.0
        assert cfg.spinup_latency == 0.0
        assert cfg.probe_period == 1.0
        assert cfg.rebalance_period == 1.0
        # Scoring only at probes: a mid-epoch trace change point must not
        # add an observation the epoch grid never makes.
        assert cfg.observe_changes is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"migration_duration": -1.0},
            {"spinup_latency": -0.1},
            {"probe_period": 0.0},
            {"rebalance_period": -2.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            EventConfig(**kwargs)


class TestTimedArrivals:
    """Seed purity of :meth:`ChurnProcess.arrival_times_for`."""

    def _churn(self, seed=77):
        return ChurnProcess(
            nf_names=("flowstats", "nat"),
            seed=seed,
            arrival_rate=3.0,
            mean_lifetime=8.0,
            initial_services=4,
        )

    def test_marks_identical_to_arrivals_for(self):
        churn = self._churn()
        for epoch in range(5):
            timed = churn.arrival_times_for(epoch)
            assert [r for _, r in timed] == churn.arrivals_for(epoch)

    def test_pure_in_seed_and_epoch(self):
        a = [self._churn().arrival_times_for(e) for e in range(5)]
        # Evaluate in reverse order on a fresh process: same schedule.
        churn = self._churn()
        b = [churn.arrival_times_for(e) for e in reversed(range(5))]
        assert a == list(reversed(b))

    def test_times_sorted_within_epoch_interval(self):
        churn = self._churn()
        for epoch in range(1, 6):
            times = [t for t, _ in churn.arrival_times_for(epoch)]
            assert times == sorted(times)
            assert all(epoch <= t < epoch + 1 for t in times)

    def test_epoch_zero_arrives_at_time_zero(self):
        assert all(
            t == 0.0 for t, _ in self._churn().arrival_times_for(0)
        )

    def test_quantize_snaps_to_boundary(self):
        churn = self._churn()
        for epoch in range(4):
            timed = churn.arrival_times_for(epoch, quantize=True)
            assert all(t == float(epoch) for t, _ in timed)
            assert [r for _, r in timed] == churn.arrivals_for(epoch)

    def test_different_seed_different_times(self):
        a = self._churn(seed=77)
        b = self._churn(seed=78)
        times_a = [t for e in range(1, 6) for t, _ in a.arrival_times_for(e)]
        times_b = [t for e in range(1, 6) for t, _ in b.arrival_times_for(e)]
        assert times_a != times_b


class TestChangePoints:
    """:meth:`TrafficTrace.next_change_after` chains correctly."""

    def test_static_never_changes(self):
        trace = make_trace("static", BASE, seed=1)
        assert trace.next_change_after(0.0) is None
        assert trace.next_change_after(7.3) is None

    @pytest.mark.parametrize("kind", ["diurnal", "burst", "random_walk"])
    def test_dynamic_kinds_change_at_epoch_boundaries(self, kind):
        trace = make_trace(kind, BASE, seed=4)
        assert trace.next_change_after(0.0) == 1.0
        assert trace.next_change_after(2.0) == 3.0
        assert trace.next_change_after(2.4) == 3.0

    def test_flash_crowd_exposes_midpoint_onset(self):
        trace = make_trace(
            "flash_crowd", BASE, seed=4, onset_time=2.5, surge_factor=4.0
        )
        assert trace.next_change_after(2.0) == 2.5  # the off-grid onset
        assert trace.next_change_after(2.5) == 3.0  # then back on the grid
        assert trace.next_change_after(0.0) == 1.0
        # Chaining from 0 walks 1.0, 2.0, 2.5, 3.0, ...
        chain, t = [], 0.0
        for _ in range(5):
            t = trace.next_change_after(t)
            chain.append(t)
        assert chain == [1.0, 2.0, 2.5, 3.0, 4.0]

    def test_flash_crowd_integer_onset_stays_on_grid(self):
        trace = make_trace("flash_crowd", BASE, seed=4)  # seeded int onset
        for t in range(6):
            assert trace.next_change_after(float(t)) == float(t + 1)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            make_trace("static", BASE, seed=1).next_change_after(-1.0)
