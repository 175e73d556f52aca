"""Typed events and the deterministic queue of the fleet engine.

The fleet engine (:class:`repro.fleet.engine.EventEngine`) advances the
fleet by popping events off an :class:`EventQueue`. Determinism is
structural: events are totally ordered by ``(time, priority, seq)`` —

- ``time`` is the simulation clock in seconds (one epoch spans one
  second);
- ``priority`` is fixed per event *type* and is the order of an
  epoch's phases, so events sharing a timestamp run phase by phase
  (faults before departures before traffic changes before rebalancing
  before arrivals before scoring);
- ``seq`` is the queue's monotone insertion counter, which makes ties
  within one ``(time, priority)`` bucket FIFO in scheduling order.

Because the order is a pure function of what was scheduled (never of
heap internals or hash order), two runs with the same seed pop the
identical event sequence, which is what the event-log determinism tests
pin.

:class:`MigrationStart` is special: migrations *begin* synchronously
inside a policy hook (the policy mutates the cluster it was handed), so
the engine records the start marker directly in its event log and only
the matching :class:`MigrationComplete` travels through the queue.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import ClassVar

from repro.errors import ConfigurationError
from repro.fleet.churn import ServiceRequest


@dataclass(frozen=True)
class Event:
    """Base event: a point on the simulation clock."""

    #: Tie-break rank among events sharing a timestamp: the order of an
    #: epoch's phases (see the class docstrings below).
    priority: ClassVar[int] = 99

    time: float

    def __post_init__(self) -> None:
        if self.time < 0.0:
            raise ConfigurationError("event time must be >= 0")

    def describe(self) -> str:
        """One-line rendering used by the engine's event log."""
        return type(self).__name__.lower()


@dataclass(frozen=True)
class NicRestore(Event):
    """A degraded NIC's repair completes (epoch fault phase 0).

    Fault transitions order *before* every workload event at a shared
    timestamp — restores first, so capacity freed by a repair is
    visible to everything else happening at that instant.
    """

    priority: ClassVar[int] = -4

    nic_id: int = -1

    def describe(self) -> str:
        return f"nic-restore nic{self.nic_id}"


@dataclass(frozen=True)
class PodRestore(Event):
    """A pod outage ends; the pod accepts spin-ups again."""

    priority: ClassVar[int] = -3

    pod_id: int = -1

    def describe(self) -> str:
        return f"pod-restore pod{self.pod_id}"


@dataclass(frozen=True)
class PodFail(Event):
    """A whole pod goes dark: every NIC in it hard-fails at once."""

    priority: ClassVar[int] = -2

    pod_id: int = -1

    def describe(self) -> str:
        return f"pod-fail pod{self.pod_id}"


@dataclass(frozen=True)
class NicFail(Event):
    """One NIC's drawn fault fires: hard failure or degradation."""

    priority: ClassVar[int] = -1

    nic_id: int = -1
    mode: str = "fail"  # "fail" (permanent) or "degrade" (repairable)
    #: Capacity fraction while degraded (unused in fail mode).
    capacity: float = 1.0
    #: Seconds until the matching :class:`NicRestore` (degrade mode).
    repair: float = 0.0

    def describe(self) -> str:
        if self.mode == "degrade":
            return (
                f"nic-fail nic{self.nic_id} degrade "
                f"cap={self.capacity:.2f}"
            )
        return f"nic-fail nic{self.nic_id} fail"


@dataclass(frozen=True)
class Departure(Event):
    """A service's lifetime ended (epoch phase 1)."""

    priority: ClassVar[int] = 0

    instance_id: str = ""

    def describe(self) -> str:
        return f"departure {self.instance_id}"


@dataclass(frozen=True)
class TrafficChange(Event):
    """One service's trace reaches a change point (epoch phase 2)."""

    priority: ClassVar[int] = 1

    instance_id: str = ""

    def describe(self) -> str:
        return f"traffic-change {self.instance_id}"


@dataclass(frozen=True)
class MigrationComplete(Event):
    """An in-flight migration lands on its destination NIC.

    Ordered before the rebalance timer so a migration completing
    exactly on a decision boundary is visible to that decision.
    """

    priority: ClassVar[int] = 2

    instance_id: str = ""

    def describe(self) -> str:
        return f"migration-complete {self.instance_id}"


@dataclass(frozen=True)
class MigrationStart(Event):
    """Log marker for a migration beginning (never queued — migrations
    start synchronously inside the policy hook that decided them)."""

    priority: ClassVar[int] = 3

    instance_id: str = ""
    from_nic: int = -1
    to_nic: int = -1
    duration: float = 0.0

    def describe(self) -> str:
        return (
            f"migration-start {self.instance_id} "
            f"nic{self.from_nic}->nic{self.to_nic} ({self.duration:g}s)"
        )


@dataclass(frozen=True)
class RebalanceTimer(Event):
    """Periodic rebalancing decision point (epoch phase 3)."""

    priority: ClassVar[int] = 4

    def describe(self) -> str:
        return "rebalance-timer"


@dataclass(frozen=True)
class Arrival(Event):
    """A new service arrives and must be placed (epoch phase 4)."""

    priority: ClassVar[int] = 5

    request: ServiceRequest = field(default=None)  # type: ignore[assignment]

    def describe(self) -> str:
        return f"arrival {self.request.instance_id} nf={self.request.nf_name}"


@dataclass(frozen=True)
class Probe(Event):
    """Scheduled scoring observation point (epoch phase 5)."""

    priority: ClassVar[int] = 6

    def describe(self) -> str:
        return "probe"


#: Every concrete event type, in priority order.
EVENT_TYPES: tuple[type[Event], ...] = (
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
)


class EventQueue:
    """Min-heap of events under the stable ``(time, priority, seq)`` order.

    ``seq`` (a monotone insertion counter) guarantees the heap never
    compares two :class:`Event` objects directly, so ties are FIFO in
    scheduling order and the pop sequence is a pure function of the
    pushes — the foundation of the event engine's byte-determinism.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        # A plain int, not itertools.count: the queue must pickle for
        # engine checkpoints, and a resumed queue must keep counting
        # where it left off.
        self._seq = 0

    def push(self, event: Event) -> None:
        heapq.heappush(
            self._heap, (event.time, event.priority, self._seq, event)
        )
        self._seq += 1

    def pop(self) -> Event:
        return heapq.heappop(self._heap)[-1]

    def peek(self) -> Event:
        return self._heap[0][-1]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


@dataclass(frozen=True)
class EventConfig:
    """Continuous-time knobs of the :class:`~repro.fleet.engine.EventEngine`.

    The defaults enable the continuous behaviours (sub-epoch arrival
    times, observation of off-grid change points); the
    :meth:`epoch_equivalent` preset quantizes everything back onto the
    epoch grid and is what :class:`~repro.fleet.engine.FleetEngine`
    runs.
    """

    #: Snap Poisson arrival times to their epoch boundary.
    quantize_arrivals: bool = False
    #: Seconds a migration keeps the service resident on *both* NICs
    #: (0 = instantaneous, the epoch preset's free-migration model).
    migration_duration: float = 0.0
    #: Seconds a migration that crosses a *pod* boundary takes instead
    #: of ``migration_duration`` (state transfer over the fabric costs
    #: more than within a pod); ``None`` = no distinction.
    cross_pod_migration_duration: float | None = None
    #: Seconds a freshly provisioned NIC delivers zero throughput.
    spinup_latency: float = 0.0
    #: Seconds between scheduled scoring probes (grid starts at t=0).
    probe_period: float = 1.0
    #: Seconds between rebalancing decision points (grid starts at t=0).
    rebalance_period: float = 1.0
    #: Score at off-grid timestamps where cluster state changed (extra
    #: observation points between probes; never duplicates a probe).
    observe_changes: bool = True

    def __post_init__(self) -> None:
        if self.migration_duration < 0.0:
            raise ConfigurationError("migration_duration must be >= 0")
        if (
            self.cross_pod_migration_duration is not None
            and self.cross_pod_migration_duration < 0.0
        ):
            raise ConfigurationError(
                "cross_pod_migration_duration must be >= 0"
            )
        if self.spinup_latency < 0.0:
            raise ConfigurationError("spinup_latency must be >= 0")
        if self.probe_period <= 0.0:
            raise ConfigurationError("probe_period must be > 0")
        if self.rebalance_period <= 0.0:
            raise ConfigurationError("rebalance_period must be > 0")

    @classmethod
    def epoch_equivalent(cls) -> "EventConfig":
        """The epoch-grid preset :class:`~repro.fleet.engine.FleetEngine`
        runs: arrivals on epoch boundaries, free migrations, no spin-up,
        unit probe and rebalance periods, and scoring only at probes (a
        trace change point between two boundaries is not an
        observation)."""
        return cls(
            quantize_arrivals=True,
            migration_duration=0.0,
            spinup_latency=0.0,
            probe_period=1.0,
            rebalance_period=1.0,
            observe_changes=False,
        )


__all__ = [
    "Arrival",
    "Departure",
    "EVENT_TYPES",
    "Event",
    "EventConfig",
    "EventQueue",
    "MigrationComplete",
    "MigrationStart",
    "NicFail",
    "NicRestore",
    "PodFail",
    "PodRestore",
    "Probe",
    "RebalanceTimer",
    "TrafficChange",
]
