"""Pod/rack topology over the fleet cluster.

A :class:`Topology` partitions the NICs of a
:class:`~repro.fleet.cluster.Cluster` into **pods** (the unit the
execution runtimes shard scoring by — see :mod:`repro.fleet.runtime`)
and groups pods into **racks** (reporting granularity). Pod membership
is a pure function of the NIC id, so the partition is identical on
every run and at every worker count regardless of how churn interleaves
spin-ups:

- ``Topology(pods=N)`` — a fixed pod count; NICs are dealt round-robin
  (``nic_id % N``), so pods stay balanced as the fleet grows and
  shrinks.
- ``Topology(pod_size=K)`` — sequential fill (``nic_id // K``): the
  first ``K`` NICs ever provisioned form pod 0, the next ``K`` pod 1,
  and the pod count grows with the fleet. This mirrors how real
  datacenters rack hardware in installation order.
- ``Topology()`` — the *flat* default: one pod, byte-identical
  behaviour to the pre-topology fleet.

Placement policies consult the topology to prefer **pod-local
migrations** (cross-pod moves copy service state across the fabric, so
they can carry a longer timed-migration duration — see
``EventConfig.cross_pod_migration_duration``).

Pods are also the fleet's **failure domains**: pod-scoped outages
(:mod:`repro.fleet.faults`, ``pod_outage_rate``) black out every NIC
of one pod at once and refuse placements into it until the restore.
Because each pod's outage is drawn from its own ``(seed, pod_id)``
stream, outages need a *fixed* pod count — ``Topology(pods=N)`` — so
pod ids are stable for the whole run; ``pod_size`` layouts, whose pod
count grows with the fleet, cannot anchor that stream and are rejected
for outage scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.cluster import FleetNic, MigrationRecord


@dataclass(frozen=True)
class Topology:
    """Deterministic pod/rack layout of a NIC fleet.

    At most one of ``pods`` / ``pod_size`` may be set; with neither the
    topology is *flat* (a single pod 0 holding every NIC).
    """

    #: Fixed pod count; NICs are assigned round-robin by id.
    pods: Optional[int] = None
    #: NICs per pod; pods fill sequentially and their count grows.
    pod_size: Optional[int] = None
    #: Pods per rack (reporting granularity only).
    pods_per_rack: int = 8

    def __post_init__(self) -> None:
        if self.pods is not None and self.pod_size is not None:
            raise ConfigurationError(
                "set at most one of pods / pod_size (round-robin vs "
                "sequential-fill partitioning)"
            )
        if self.pods is not None and self.pods < 1:
            raise ConfigurationError("pods must be >= 1")
        if self.pod_size is not None and self.pod_size < 1:
            raise ConfigurationError("pod_size must be >= 1")
        if self.pods_per_rack < 1:
            raise ConfigurationError("pods_per_rack must be >= 1")

    # ------------------------------------------------------------------
    @classmethod
    def flat(cls) -> "Topology":
        """The single-pod topology (pre-topology fleet behaviour)."""
        return cls()

    @property
    def is_flat(self) -> bool:
        return self.pods is None and self.pod_size is None

    # ------------------------------------------------------------------
    def pod_of(self, nic_id: int) -> int:
        """Pod of NIC ``nic_id`` (pure function of the id)."""
        if nic_id < 0:
            raise ConfigurationError("nic_id must be >= 0")
        if self.pod_size is not None:
            return nic_id // self.pod_size
        if self.pods is not None:
            return nic_id % self.pods
        return 0

    def rack_of(self, pod_id: int) -> int:
        """Rack of pod ``pod_id`` (consecutive pods share a rack)."""
        if pod_id < 0:
            raise ConfigurationError("pod_id must be >= 0")
        return pod_id // self.pods_per_rack

    # ------------------------------------------------------------------
    def partition(
        self, nics: Iterable["FleetNic"]
    ) -> list[tuple[int, list["FleetNic"]]]:
        """Group ``nics`` by pod: ``(pod_id, nics)`` pairs, pods in
        ascending id order, NICs within a pod in the given (spin-up)
        order."""
        groups: dict[int, list["FleetNic"]] = {}
        for nic in nics:
            groups.setdefault(self.pod_of(nic.nic_id), []).append(nic)
        return sorted(groups.items())

    def is_cross_pod(self, from_nic: int, to_nic: int) -> bool:
        """Does a move between these NIC ids cross a pod boundary?"""
        return self.pod_of(from_nic) != self.pod_of(to_nic)

    def cross_pod_migrations(
        self, migrations: Iterable["MigrationRecord"]
    ) -> int:
        """How many of ``migrations`` crossed a pod boundary."""
        return sum(
            1
            for record in migrations
            if self.is_cross_pod(record.from_nic, record.to_nic)
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-token layout summary (benchmark/CI log lines)."""
        if self.pod_size is not None:
            return f"pod-size={self.pod_size}"
        if self.pods is not None:
            return f"pods={self.pods}"
        return "flat"

    def to_dict(self) -> dict:
        """JSON-ready layout descriptor (part of the report schema)."""
        return {
            "pods": self.pods,
            "pod_size": self.pod_size,
            "pods_per_rack": self.pods_per_rack,
        }


__all__ = ["Topology"]
