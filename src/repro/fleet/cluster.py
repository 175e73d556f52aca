"""Fleet state: SmartNICs, resident services, migration bookkeeping.

A :class:`Cluster` tracks which service instance runs on which NIC of a
SmartNIC pool. NICs are spun up on demand (placement onto
``nic_id=None``), retire automatically when their last resident leaves,
and every migration is appended to an ordered log so a trajectory can
be replayed and compared bit-for-bit.

Pools may be **heterogeneous**: a :class:`NicProvisioner` decides which
registered hardware target each newly spun-up NIC instantiates — a pure
function of ``(seed, spin-up ordinal)``, so a mixed
BlueField-2/Pensando fleet provisions the identical NIC sequence on
every run regardless of how churn interleaves placements. Constructing
a cluster from a bare :class:`NicSpecification` keeps the historical
homogeneous behaviour.

**Continuous time.** For the event engine the cluster also models the
two costs the epoch world treats as free:

- *Timed migrations* — with ``migration_duration > 0`` a
  :meth:`Cluster.migrate` call begins an in-flight move: the service
  stays **resident on both NICs** (it contends for cores, memory and
  accelerators on source *and* destination — state transfer is not
  free) until :meth:`complete_migration` lands it, ``duration`` seconds
  later. The engine drains :meth:`take_pending_migrations` after every
  policy hook to schedule the completion events. Its home NIC (the one
  serving its traffic) remains the source until completion.
- *Spin-up latency* — a NIC provisioned at ``now`` is only
  ``ready_at = now + spinup_latency``; before that its residents
  deliver zero throughput (they are booting, and score as full drops).

Both default to zero, under which every code path is bit-identical to
the historical instantaneous model the epoch engine runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, PlacementError
from repro.fleet.churn import ServiceRequest
from repro.fleet.topology import Topology
from repro.nic.spec import NicSpecification, get_spec
from repro.numeric import left_sum
from repro.rng import derive_seed, make_rng
from repro.traffic.profile import TrafficProfile

#: Cores every NF instance occupies (the paper gives each NF two).
CORES_PER_NF = 2


def parse_nic_mix(text: str) -> dict[str, float]:
    """Parse a ``--nic-mix`` string into ``{target: weight}``.

    ``"bluefield2=0.7,pensando=0.3"`` — weights are relative (they need
    not sum to 1); a bare target name means weight 1. Target names must
    be registered (:func:`repro.nic.spec.get_spec`).
    """
    mix: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, weight_text = part.partition("=")
        name = name.strip()
        try:
            # A bare name means weight 1; a '=' with nothing after it
            # is a typo, not a default.
            weight = float(weight_text) if sep else 1.0
        except ValueError:
            raise ConfigurationError(
                f"bad nic-mix weight in {part!r}"
            ) from None
        if weight <= 0:
            raise ConfigurationError(f"nic-mix weight must be > 0 in {part!r}")
        if name in mix:
            raise ConfigurationError(f"duplicate nic-mix target {name!r}")
        get_spec(name)  # validates the target exists
        mix[name] = weight
    if not mix:
        raise ConfigurationError("nic-mix must name at least one target")
    return mix


class NicProvisioner:
    """Seeded hardware-target source for newly provisioned NICs.

    The spec of the ``n``-th NIC a cluster ever spins up is a pure
    function of ``(seed, n)``: a weighted draw over the mix for
    heterogeneous pools, constant for single-target pools.
    """

    def __init__(
        self,
        mix: dict[str, float],
        seed: int = 0,
        _specs: dict[str, NicSpecification] | None = None,
    ) -> None:
        if not mix:
            raise ConfigurationError("provisioner mix must be non-empty")
        # ``_specs`` lets :meth:`constant` supply an (possibly
        # unregistered) spec object directly; everyone else resolves
        # through the target registry.
        self._specs = (
            _specs if _specs is not None
            else {name: get_spec(name) for name in mix}
        )
        total = float(left_sum(mix.values()))
        if total <= 0:
            raise ConfigurationError("provisioner mix weights must be > 0")
        self._mix = tuple((name, weight / total) for name, weight in mix.items())
        self._names = tuple(name for name, _ in self._mix)
        self._weights = [weight for _, weight in self._mix]
        self._seed = seed

    @classmethod
    def constant(cls, spec: NicSpecification) -> "NicProvisioner":
        """A homogeneous pool of ``spec`` (which may be unregistered)."""
        return cls({spec.name: 1.0}, seed=0, _specs={spec.name: spec})

    @property
    def mix(self) -> tuple[tuple[str, float], ...]:
        """Normalised ``(target, weight)`` pairs, in declaration order."""
        return self._mix

    @property
    def target_names(self) -> tuple[str, ...]:
        return self._names

    def spec_of(self, target: str) -> NicSpecification:
        try:
            return self._specs[target]
        except KeyError:
            raise ConfigurationError(
                f"target {target!r} is not in the pool mix {self._names}"
            ) from None

    def spec_for(self, ordinal: int) -> NicSpecification:
        """Spec of the ``ordinal``-th provisioned NIC (pure function)."""
        if len(self._names) == 1:
            return self._specs[self._names[0]]
        rng = make_rng(derive_seed(self._seed, "nic-spec", ordinal))
        index = int(rng.choice(len(self._names), p=self._weights))
        return self._specs[self._names[index]]


@dataclass
class ServiceInstance:
    """A placed service: its request plus the current epoch's traffic.

    Exposes ``nf_name`` / ``traffic`` / ``sla_drop_fraction`` so the
    shared strategy predicates (:mod:`repro.fleet.policies`) treat fleet
    residents and one-shot :class:`~repro.usecases.scheduling.NfArrival`
    objects uniformly.
    """

    request: ServiceRequest
    traffic: TrafficProfile

    @property
    def instance_id(self) -> str:
        return self.request.instance_id

    @property
    def nf_name(self) -> str:
        return self.request.nf_name

    @property
    def sla_drop_fraction(self) -> float:
        return self.request.sla_drop_fraction


@dataclass
class FleetNic:
    """One SmartNIC of the fleet and its resident services."""

    nic_id: int
    spec: NicSpecification
    residents: list[ServiceInstance] = field(default_factory=list)
    #: Time this NIC finishes booting (0.0 = ready since the start;
    #: residents of a not-yet-ready NIC deliver zero throughput).
    ready_at: float = 0.0
    #: Time this NIC was provisioned (fault onsets are relative to it).
    spun_up_at: float = 0.0
    #: Usable fraction of the hardware (1.0 = healthy; a degraded NIC
    #: hosts fewer services and delivers proportionally less
    #: throughput until its repair restores it).
    capacity_fraction: float = 1.0

    @property
    def target(self) -> str:
        """Hardware target name of this NIC (its spec's name)."""
        return self.spec.name

    @property
    def is_degraded(self) -> bool:
        return self.capacity_fraction != 1.0

    @property
    def max_residents(self) -> int:
        if self.capacity_fraction != 1.0:
            return (
                int(self.spec.num_cores * self.capacity_fraction)
                // CORES_PER_NF
            )
        return self.spec.num_cores // CORES_PER_NF

    def cores_used(self) -> int:
        return CORES_PER_NF * len(self.residents)


@dataclass(frozen=True)
class MigrationRecord:
    """One service move between NICs (``from_nic is None`` = placement)."""

    epoch: int
    instance_id: str
    from_nic: int
    to_nic: int
    reason: str


@dataclass
class EvictedService:
    """A service a fault pushed off its NIC, awaiting re-placement."""

    instance: ServiceInstance
    from_nic: int
    evicted_at: float


@dataclass(frozen=True)
class ReplacementRecord:
    """One drained re-placement: an evicted service landing again."""

    instance_id: str
    from_nic: int
    to_nic: int
    evicted_at: float
    replaced_at: float


@dataclass(frozen=True)
class TimedMigration:
    """A migration with real duration: in flight over [start, end)."""

    instance_id: str
    from_nic: int
    to_nic: int
    start_time: float
    end_time: float
    reason: str

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


class Cluster:
    """Mutable fleet state with deterministic bookkeeping."""

    def __init__(
        self,
        pool: NicSpecification | NicProvisioner,
        topology: Topology | None = None,
    ) -> None:
        if isinstance(pool, NicSpecification):
            pool = NicProvisioner.constant(pool)
        self._provisioner = pool
        self._topology = topology if topology is not None else Topology()
        self._nics: list[FleetNic] = []
        # Id index over the *active* list above: datacenter-scale
        # fleets (the sharded-scoring benchmark runs 5k NICs) make a
        # linear scan per placement the bottleneck.
        self._nic_index: dict[int, FleetNic] = {}
        self._next_nic_id = 0
        self._by_instance: dict[str, FleetNic] = {}
        self.migration_log: list[MigrationRecord] = []
        self.total_placements = 0
        self.total_departures = 0
        # Continuous-time state (all inert at their defaults — the
        # epoch engine never touches them).
        self.now: float = 0.0
        self.migration_duration: float = 0.0
        #: When set, a migration that crosses a pod boundary takes this
        #: long instead of ``migration_duration`` (state transfer over
        #: the fabric vs within a pod); ``None`` means no distinction.
        self.cross_pod_migration_duration: float | None = None
        self.spinup_latency: float = 0.0
        self.total_migrations_started = 0
        self.migrations_cancelled = 0
        self.timed_migrations: list[TimedMigration] = []
        self._in_flight: dict[str, TimedMigration] = {}
        self._pending_migrations: list[TimedMigration] = []
        # Fault state (all inert until a fault schedule drives it).
        #: Re-placement queue: services evicted by faults, in eviction
        #: order (the order policies drain them in).
        self.evicted: list[EvictedService] = []
        self._evicted_ids: set[str] = set()
        #: Pods currently in outage (spin-ups there are refused).
        self.down_pods: set[int] = set()
        self._failed_nic_ids: set[int] = set()
        #: Drained re-placements (the faults report section).
        self.replacements: list[ReplacementRecord] = []
        self.nics_failed = 0
        self.nics_degraded = 0
        self.nics_restored = 0
        self.pods_failed = 0
        self.pods_restored = 0
        self.services_evicted = 0
        #: Queued services whose lifetime ended before re-placement.
        self.services_lost = 0
        #: When set (engines running a fault schedule), newly spun-up
        #: NICs are queued for :meth:`take_new_nics` so the driving
        #: engine can arm their drawn faults.
        self.collect_new_nics = False
        self._new_nics: list[FleetNic] = []

    @property
    def provisioner(self) -> NicProvisioner:
        return self._provisioner

    @property
    def topology(self) -> Topology:
        return self._topology

    def pod_of(self, nic_id: int) -> int:
        """Pod of NIC ``nic_id`` under this cluster's topology."""
        return self._topology.pod_of(nic_id)

    @property
    def spec(self) -> NicSpecification:
        """The pool's primary spec (first mix entry; the only one for
        homogeneous pools)."""
        return self._provisioner.spec_of(self._provisioner.target_names[0])

    @property
    def max_residents_per_nic(self) -> int:
        """Capacity of the roomiest target in the pool mix.

        Per-NIC capacity lives on :attr:`FleetNic.max_residents`; this
        pool-level bound feeds the wastage baseline (the fewest NICs any
        packing could use assumes best-case hardware).
        """
        return max(
            self._provisioner.spec_of(name).num_cores // CORES_PER_NF
            for name in self._provisioner.target_names
        )

    @property
    def nics(self) -> list[FleetNic]:
        """Active (non-empty) NICs in spin-up order."""
        return list(self._nics)

    @property
    def nics_used(self) -> int:
        return len(self._nics)

    @property
    def services(self) -> list[ServiceInstance]:
        """All residents in (NIC spin-up, placement) order.

        A migrating service is resident on two NICs; it is listed once,
        at its *home* (serving) NIC — the source until the migration
        completes.
        """
        if not self._in_flight:
            return [r for nic in self._nics for r in nic.residents]
        return [
            r
            for nic in self._nics
            for r in nic.residents
            if self._by_instance.get(r.instance_id) is nic
        ]

    def nic_of(self, instance_id: str) -> FleetNic:
        try:
            return self._by_instance[instance_id]
        except KeyError:
            raise PlacementError(f"unknown instance {instance_id!r}") from None

    # ------------------------------------------------------------------
    # Continuous-time queries
    # ------------------------------------------------------------------
    def is_home(self, nic: FleetNic, instance_id: str) -> bool:
        """Is ``nic`` the NIC currently *serving* this instance?

        False only for the destination copy of an in-flight migration
        (which contends there but does not serve traffic yet).
        """
        return self._by_instance.get(instance_id) is nic

    def is_migrating(self, instance_id: str) -> bool:
        return instance_id in self._in_flight

    def migration_of(self, instance_id: str) -> TimedMigration | None:
        """The in-flight migration of ``instance_id``, if any.

        The event engine uses this to discard stale completion events: a
        departure cancels the migration, so a completion whose record is
        gone (or superseded by a later move) must be a no-op.
        """
        return self._in_flight.get(instance_id)

    # ------------------------------------------------------------------
    def place(self, instance: ServiceInstance, nic_id: int | None = None) -> int:
        """Place ``instance`` on NIC ``nic_id`` (``None`` = a new NIC)."""
        if instance.instance_id in self._by_instance:
            raise PlacementError(f"{instance.instance_id!r} is already placed")
        if nic_id is None:
            nic = self._spin_up()
        else:
            nic = self._find(nic_id)
            if len(nic.residents) >= nic.max_residents:
                raise PlacementError(f"NIC {nic_id} is full")
        nic.residents.append(instance)
        self._by_instance[instance.instance_id] = nic
        self.total_placements += 1
        return nic.nic_id

    def remove(self, instance_id: str) -> None:
        """Remove a departing service; retire the NIC if now empty.

        Removing a service that is mid-migration cancels the migration:
        its destination copy vanishes too (nothing lands later).
        """
        nic = self.nic_of(instance_id)
        record = self._in_flight.pop(instance_id, None)
        if record is not None:
            dest = self._find(record.to_nic)
            dest.residents = [
                r for r in dest.residents if r.instance_id != instance_id
            ]
            self.migrations_cancelled += 1
            if not dest.residents:
                self._retire(dest)
        nic.residents = [
            r for r in nic.residents if r.instance_id != instance_id
        ]
        del self._by_instance[instance_id]
        self.total_departures += 1
        if not nic.residents:
            self._retire(nic)

    def migrate(
        self,
        instance_id: str,
        to_nic_id: int | None,
        epoch: int,
        reason: str = "rebalance",
    ) -> int:
        """Move a service to another (or a fresh) NIC and log the move.

        With ``migration_duration > 0`` the move is *timed*: it begins
        now (the service becomes co-resident on the destination) and
        only completes — home NIC switches, move logged —
        ``migration_duration`` seconds later, when the driving engine
        calls :meth:`complete_migration`. A move that crosses a pod
        boundary takes :attr:`cross_pod_migration_duration` instead when
        that is set. At duration zero the move is the historical
        instantaneous one.
        """
        source = self.nic_of(instance_id)
        duration = self._duration_for(source.nic_id, to_nic_id)
        if duration > 0.0:
            return self.begin_migration(
                instance_id,
                to_nic_id,
                start=self.now,
                duration=duration,
                reason=reason,
            )
        if to_nic_id == source.nic_id:
            raise PlacementError("migration target is the current NIC")
        if to_nic_id is not None:
            target = self._find(to_nic_id)
            if len(target.residents) >= target.max_residents:
                raise PlacementError(f"NIC {to_nic_id} is full")
        instance = next(
            r for r in source.residents if r.instance_id == instance_id
        )
        source.residents = [
            r for r in source.residents if r.instance_id != instance_id
        ]
        del self._by_instance[instance_id]
        if not source.residents:
            self._retire(source)
        placed_on = self.place(instance, to_nic_id)
        self.total_placements -= 1  # a move, not a new placement
        self.total_migrations_started += 1
        self.migration_log.append(
            MigrationRecord(
                epoch=epoch,
                instance_id=instance_id,
                from_nic=source.nic_id,
                to_nic=placed_on,
                reason=reason,
            )
        )
        return placed_on

    def _duration_for(self, from_nic_id: int, to_nic_id: int | None) -> float:
        """Duration a move between these NICs takes under the topology.

        A ``None`` destination is the NIC about to be spun up, whose id
        is already determined (``_next_nic_id``) — so whether the move
        crosses a pod boundary is knowable before provisioning it.
        """
        dest = (
            to_nic_id if to_nic_id is not None else self._next_available_id()
        )
        if (
            self.cross_pod_migration_duration is not None
            and self._topology.is_cross_pod(from_nic_id, dest)
        ):
            return self.cross_pod_migration_duration
        return self.migration_duration

    # ------------------------------------------------------------------
    # Timed migrations
    # ------------------------------------------------------------------
    def begin_migration(
        self,
        instance_id: str,
        to_nic_id: int | None,
        start: float,
        duration: float,
        reason: str = "rebalance",
    ) -> int:
        """Start an in-flight migration; returns the destination NIC id.

        The service keeps serving on its source NIC while a contending
        copy occupies the destination; :meth:`complete_migration` (at
        ``start + duration``) performs the hand-over. The new record is
        queued for :meth:`take_pending_migrations` so the event engine
        can schedule the completion event.
        """
        if duration <= 0.0:
            raise PlacementError("timed migration needs duration > 0")
        if instance_id in self._in_flight:
            raise PlacementError(f"{instance_id!r} is already migrating")
        source = self.nic_of(instance_id)
        if to_nic_id == source.nic_id:
            raise PlacementError("migration target is the current NIC")
        if to_nic_id is None:
            dest = self._spin_up()
        else:
            dest = self._find(to_nic_id)
            if len(dest.residents) >= dest.max_residents:
                raise PlacementError(f"NIC {to_nic_id} is full")
        instance = next(
            r for r in source.residents if r.instance_id == instance_id
        )
        dest.residents.append(instance)  # the contending copy
        record = TimedMigration(
            instance_id=instance_id,
            from_nic=source.nic_id,
            to_nic=dest.nic_id,
            start_time=start,
            end_time=start + duration,
            reason=reason,
        )
        self._in_flight[instance_id] = record
        self._pending_migrations.append(record)
        self.total_migrations_started += 1
        return dest.nic_id

    def complete_migration(self, instance_id: str) -> TimedMigration:
        """Land an in-flight migration: the destination becomes home."""
        try:
            record = self._in_flight.pop(instance_id)
        except KeyError:
            raise PlacementError(
                f"{instance_id!r} has no migration in flight"
            ) from None
        source = self._by_instance[instance_id]
        dest = self._find(record.to_nic)
        source.residents = [
            r for r in source.residents if r.instance_id != instance_id
        ]
        if not source.residents:
            self._retire(source)
        self._by_instance[instance_id] = dest
        self.timed_migrations.append(record)
        self.migration_log.append(
            MigrationRecord(
                epoch=int(math.floor(record.end_time)),
                instance_id=instance_id,
                from_nic=record.from_nic,
                to_nic=record.to_nic,
                reason=record.reason,
            )
        )
        return record

    def take_pending_migrations(self) -> list[TimedMigration]:
        """Drain migrations begun since the last drain (engine hook)."""
        pending = self._pending_migrations
        self._pending_migrations = []
        return pending

    # ------------------------------------------------------------------
    # Fault transitions (distinct from retirement: these evict)
    # ------------------------------------------------------------------
    def _evict_resident(self, nic: FleetNic, instance: ServiceInstance) -> None:
        """Push one home resident of ``nic`` into the re-placement
        queue, cancelling its in-flight migration (if any)."""
        instance_id = instance.instance_id
        record = self._in_flight.pop(instance_id, None)
        if record is not None:
            # The copy on the *other* NIC (the destination — the home
            # copy is the one being evicted) vanishes with the move.
            other = self._nic_index.get(record.to_nic)
            if other is not None and other is not nic:
                other.residents = [
                    r for r in other.residents
                    if r.instance_id != instance_id
                ]
                if not other.residents:
                    self._retire(other)
            self.migrations_cancelled += 1
        nic.residents = [
            r for r in nic.residents if r.instance_id != instance_id
        ]
        del self._by_instance[instance_id]
        self.evicted.append(
            EvictedService(
                instance=instance, from_nic=nic.nic_id, evicted_at=self.now
            )
        )
        self._evicted_ids.add(instance_id)
        self.services_evicted += 1

    def fail_nic(self, nic_id: int) -> bool:
        """Hard-fail a NIC: evict every home resident into the queue,
        cancel in-flight migrations touching it, drop it from the fleet.

        Unlike :meth:`_retire` the id is recorded as *failed* (never a
        valid placement target again) and the eviction/failure counters
        feed the report's ``faults`` section. Returns whether the NIC
        was alive (re-failing a gone NIC is a no-op).
        """
        nic = self._nic_index.get(nic_id)
        if nic is None:
            return False
        for instance in list(nic.residents):
            if self._by_instance.get(instance.instance_id) is nic:
                self._evict_resident(nic, instance)
            else:
                # Destination copy of an in-flight migration: the move
                # dies, the service keeps serving at home.
                record = self._in_flight.pop(instance.instance_id, None)
                if record is not None:
                    self.migrations_cancelled += 1
                nic.residents = [
                    r for r in nic.residents
                    if r.instance_id != instance.instance_id
                ]
        if nic.nic_id in self._nic_index:
            self._retire(nic)
        self._failed_nic_ids.add(nic_id)
        self.nics_failed += 1
        return True

    def degrade_nic(self, nic_id: int, capacity_fraction: float) -> bool:
        """Degrade a NIC to ``capacity_fraction``, evicting residents
        beyond the shrunken capacity (newest first). Returns whether
        the NIC was alive to degrade."""
        if not 0.0 < capacity_fraction < 1.0:
            raise ConfigurationError(
                "capacity_fraction must be in (0, 1); use fail_nic for "
                "total loss"
            )
        nic = self._nic_index.get(nic_id)
        if nic is None:
            return False
        nic.capacity_fraction = capacity_fraction
        self.nics_degraded += 1
        while len(nic.residents) > nic.max_residents:
            instance = nic.residents[-1]
            if self._by_instance.get(instance.instance_id) is nic:
                self._evict_resident(nic, instance)
            else:
                record = self._in_flight.pop(instance.instance_id, None)
                if record is not None:
                    self.migrations_cancelled += 1
                nic.residents = nic.residents[:-1]
        if not nic.residents:
            self._retire(nic)
        return True

    def restore_nic(self, nic_id: int) -> bool:
        """Repair a degraded NIC back to full capacity. Returns whether
        anything changed (the NIC may have emptied and retired, or
        hard-failed in a pod outage, before its repair arrived)."""
        nic = self._nic_index.get(nic_id)
        if nic is None or nic.capacity_fraction == 1.0:
            return False
        nic.capacity_fraction = 1.0
        self.nics_restored += 1
        return True

    def fail_pod(self, pod_id: int) -> bool:
        """Take a whole pod down: hard-fail every NIC in it and refuse
        spin-ups there until :meth:`restore_pod`."""
        if pod_id in self.down_pods:
            return False
        self.down_pods.add(pod_id)
        for nic in list(self._nics):
            if self._topology.pod_of(nic.nic_id) == pod_id:
                self.fail_nic(nic.nic_id)
        self.pods_failed += 1
        return True

    def restore_pod(self, pod_id: int) -> bool:
        """End a pod outage: the pod accepts spin-ups again (its failed
        NICs stay gone — replacement hardware spins up on demand)."""
        if pod_id not in self.down_pods:
            return False
        self.down_pods.discard(pod_id)
        self.pods_restored += 1
        return True

    # ------------------------------------------------------------------
    # Re-placement queue
    # ------------------------------------------------------------------
    def enqueue_evicted(
        self, instance: ServiceInstance, from_nic: int = -1
    ) -> None:
        """Queue a service that cannot be placed right now (e.g. every
        eligible pod is in outage): it waits in the re-placement queue
        exactly like a fault evictee. ``from_nic=-1`` marks a service
        that never held a NIC."""
        if instance.instance_id in self._by_instance:
            raise PlacementError(
                f"{instance.instance_id!r} is placed; faults evict via "
                "fail_nic/degrade_nic"
            )
        self.evicted.append(
            EvictedService(
                instance=instance, from_nic=from_nic, evicted_at=self.now
            )
        )
        self._evicted_ids.add(instance.instance_id)
        self.services_evicted += 1

    def is_evicted(self, instance_id: str) -> bool:
        return instance_id in self._evicted_ids

    def drop_evicted(self, instance_id: str) -> EvictedService:
        """A queued service's lifetime ended before re-placement: it is
        lost (counted in the faults section, never re-placed)."""
        entry = self._take_evicted(instance_id)
        self.services_lost += 1
        return entry

    def record_replacement(self, instance_id: str, to_nic: int) -> None:
        """Record a drained re-placement (the policy already placed the
        instance on ``to_nic``); logs time-to-recover bookkeeping."""
        entry = self._take_evicted(instance_id)
        self.replacements.append(
            ReplacementRecord(
                instance_id=instance_id,
                from_nic=entry.from_nic,
                to_nic=to_nic,
                evicted_at=entry.evicted_at,
                replaced_at=self.now,
            )
        )

    def _take_evicted(self, instance_id: str) -> EvictedService:
        for entry in self.evicted:
            if entry.instance.instance_id == instance_id:
                self.evicted = [
                    e for e in self.evicted
                    if e.instance.instance_id != instance_id
                ]
                self._evicted_ids.discard(instance_id)
                return entry
        raise PlacementError(f"{instance_id!r} is not in the evicted queue")

    def take_new_nics(self) -> list[FleetNic]:
        """Drain NICs spun up since the last drain (fault-arming hook;
        empty unless :attr:`collect_new_nics` is set)."""
        fresh = self._new_nics
        self._new_nics = []
        return fresh

    # ------------------------------------------------------------------
    def _next_available_id(self) -> int:
        """The id the next spin-up will use, skipping pods in outage."""
        nic_id = self._next_nic_id
        if self.down_pods:
            pods = self._topology.pods
            if pods is not None and len(self.down_pods) >= pods:
                raise PlacementError(
                    "no pod can host a new NIC (all pods are down)"
                )
            if self._topology.is_flat and 0 in self.down_pods:
                raise PlacementError(
                    "no pod can host a new NIC (the fleet's single pod "
                    "is down)"
                )
            while self._topology.pod_of(nic_id) in self.down_pods:
                nic_id += 1
        return nic_id

    def _spin_up(self) -> FleetNic:
        """Provision the next NIC (ready after the spin-up latency).

        During a pod outage the ids that would land in a down pod are
        burned (skipped, never provisioned) — pod membership is a pure
        function of the id, so re-using them later would resurrect
        hardware inside the failure domain.
        """
        self._next_nic_id = self._next_available_id()
        nic = FleetNic(
            nic_id=self._next_nic_id,
            spec=self._provisioner.spec_for(self._next_nic_id),
            ready_at=self.now + self.spinup_latency,
            spun_up_at=self.now,
        )
        self._next_nic_id += 1
        self._nics.append(nic)
        self._nic_index[nic.nic_id] = nic
        if self.collect_new_nics:
            self._new_nics.append(nic)
        return nic

    def _retire(self, nic: FleetNic) -> None:
        """Drop an emptied NIC from the fleet (and the id index)."""
        self._nics.remove(nic)
        del self._nic_index[nic.nic_id]

    def _find(self, nic_id: int) -> FleetNic:
        try:
            return self._nic_index[nic_id]
        except KeyError:
            raise PlacementError(f"unknown NIC {nic_id}") from None
