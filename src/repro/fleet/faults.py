"""Seeded failure injection for the fleet simulator.

Real SmartNIC fleets degrade and fail per device and per failure
domain. This module brings that into the simulated world behind the
same determinism contract as everything else in the fleet: a validated
:class:`FaultConfig` plus a :class:`FaultSchedule` whose draws are
**pure functions of ``(seed, nic ordinal / pod id)``** — never of the
execution (engine configuration, runtime, worker count, wall clock).
Two runs with the same seed inject the identical fault trajectory. The
engine (:mod:`repro.fleet.engine`) carries it as typed ``nic-fail`` /
``nic-restore`` / ``pod-fail`` / ``pod-restore`` events on its queue.

Three fault kinds:

- **NIC hard failure** — the device dies: every resident service is
  evicted into the cluster's re-placement queue
  (:attr:`Cluster.evicted <repro.fleet.cluster.Cluster.evicted>`), the
  NIC leaves the fleet permanently (ids are never reused; replacement
  hardware arrives through the normal on-demand spin-up path), and the
  policies drain the queue at the next rebalancing decision
  (:meth:`FleetPolicy.replace_evicted
  <repro.fleet.policies.FleetPolicy.replace_evicted>`).
- **NIC degradation** — the device keeps running at a fractional
  capacity (:attr:`FleetNic.capacity_fraction
  <repro.fleet.cluster.FleetNic.capacity_fraction>`): fewer usable
  cores (residents over the shrunken capacity are evicted) and
  proportionally reduced delivered throughput, threaded through both
  :class:`~repro.fleet.policies.PlacementModel` feasibility and
  ground-truth scoring. A degraded NIC is *restored* to full capacity
  after its drawn repair time — the ``nic-restore`` transition,
  distinct from retirement.
- **Pod outage** — a whole failure domain goes dark: every NIC of the
  pod hard-fails at once and the pod refuses new spin-ups until the
  outage ends (:meth:`Cluster.fail_pod
  <repro.fleet.cluster.Cluster.fail_pod>` /
  :meth:`Cluster.restore_pod
  <repro.fleet.cluster.Cluster.restore_pod>`). Pod outages require a
  fixed pod count (``Topology(pods=N)``) so the schedule can arm every
  domain up front.

**Epoch alignment.** Every drawn delay is floored to a whole number of
epochs ``>= 1``, so under quantized arrivals all fault transitions land
exactly on epoch boundaries, ahead of every workload event at that
instant.

A fault is drawn **once per NIC ordinal** (the id of the spun-up NIC,
which doubles as its provisioning ordinal) and **once per pod id** —
the same key discipline as :meth:`NicProvisioner.spec_for
<repro.fleet.cluster.NicProvisioner.spec_for>`. Failures therefore
never re-target an already-failed NIC, and restore times are strictly
after their failures (delays are ``>= 1``) — properties the hypothesis
suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError
from repro.numeric import left_sum
from repro.rng import derive_seed, make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.cluster import Cluster

@dataclass(frozen=True)
class FaultConfig:
    """Validated knobs of one fault trajectory."""

    #: Probability a NIC ever hard-fails (drawn once per ordinal).
    nic_fail_rate: float = 0.0
    #: Probability a NIC ever degrades instead (disjoint with the
    #: above: one ``u`` draw decides fail / degrade / healthy).
    nic_degrade_rate: float = 0.0
    #: Mean epochs between a NIC's spin-up and its fault (exponential).
    mean_time_to_fail: float = 8.0
    #: Mean epochs a degraded NIC stays degraded (exponential).
    mean_repair_time: float = 3.0
    #: Capacity fraction a degraded NIC runs at (uniform draw).
    degraded_capacity_range: tuple[float, float] = (0.3, 0.8)
    #: Probability a pod suffers one outage during the run.
    pod_outage_rate: float = 0.0
    #: Mean start time of a pod outage (exponential, epochs).
    mean_pod_outage_start: float = 5.0
    #: Mean duration of a pod outage (exponential, epochs).
    mean_pod_outage_duration: float = 2.0

    def __post_init__(self) -> None:
        for name in ("nic_fail_rate", "nic_degrade_rate", "pod_outage_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        if self.nic_fail_rate + self.nic_degrade_rate > 1.0:
            raise ConfigurationError(
                "nic_fail_rate + nic_degrade_rate must be <= 1 (one draw "
                "decides fail / degrade / healthy)"
            )
        for name in (
            "mean_time_to_fail",
            "mean_repair_time",
            "mean_pod_outage_start",
            "mean_pod_outage_duration",
        ):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name} must be > 0")
        lo, hi = self.degraded_capacity_range
        if not 0.0 < lo <= hi < 1.0:
            raise ConfigurationError(
                "degraded_capacity_range must satisfy 0 < lo <= hi < 1"
            )
        # Normalise a list (e.g. straight from JSON) into a tuple.
        object.__setattr__(
            self, "degraded_capacity_range", (float(lo), float(hi))
        )

    @property
    def any_faults(self) -> bool:
        return (
            self.nic_fail_rate > 0.0
            or self.nic_degrade_rate > 0.0
            or self.pod_outage_rate > 0.0
        )


@dataclass(frozen=True)
class NicFault:
    """One NIC's drawn fault: what happens, when, and for how long."""

    ordinal: int
    mode: str  # "fail" (permanent) or "degrade" (repairable)
    #: Delay from the NIC's spin-up to the fault, in epochs/seconds.
    after: float
    #: Delay from the fault to the restore (degrade mode only).
    repair: float
    #: Capacity fraction while degraded (1.0 in fail mode).
    capacity: float


@dataclass(frozen=True)
class PodOutage:
    """One pod's drawn outage window ``[start, start + duration)``."""

    pod_id: int
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


class FaultSchedule:
    """Seeded fault trajectory: pure in ``(seed, ordinal / pod id)``.

    Draw discipline mirrors :class:`~repro.fleet.cluster.NicProvisioner`:
    each entity gets its own derived-seed stream
    (``derive_seed(seed, "nic-fault", ordinal)`` /
    ``derive_seed(seed, "pod-outage", pod_id)``) with a **fixed draw
    order** (selector, onset, repair, capacity), so the schedule is
    identical on every run regardless of which engine asks, in what
    order, or how often. Draws are memoised — repeated queries return
    the same record object.
    """

    def __init__(self, config: FaultConfig, seed: int = 0) -> None:
        self._config = config
        self._seed = seed
        self._nic_memo: dict[int, Optional[NicFault]] = {}
        self._pod_memo: dict[int, Optional[PodOutage]] = {}

    @property
    def config(self) -> FaultConfig:
        return self._config

    @property
    def seed(self) -> int:
        return self._seed

    # ------------------------------------------------------------------
    @staticmethod
    def _quantize(delay: float) -> float:
        """Floor to whole epochs, minimum 1: transitions land on epoch
        boundaries and restores stay strictly after their failures."""
        return float(1 + int(delay))

    def nic_fault(self, ordinal: int) -> Optional[NicFault]:
        """The fault of the ``ordinal``-th provisioned NIC, if any."""
        if ordinal < 0:
            raise ConfigurationError("nic ordinal must be >= 0")
        if ordinal in self._nic_memo:
            return self._nic_memo[ordinal]
        cfg = self._config
        rng = make_rng(derive_seed(self._seed, "nic-fault", ordinal))
        # Fixed draw order keeps the schedule pure whatever branch wins.
        u = float(rng.random())
        after = self._quantize(float(rng.exponential(cfg.mean_time_to_fail)))
        repair = self._quantize(float(rng.exponential(cfg.mean_repair_time)))
        lo, hi = cfg.degraded_capacity_range
        capacity = float(rng.uniform(lo, hi))
        fault: Optional[NicFault] = None
        if u < cfg.nic_fail_rate:
            fault = NicFault(
                ordinal=ordinal, mode="fail", after=after, repair=repair,
                capacity=1.0,
            )
        elif u < cfg.nic_fail_rate + cfg.nic_degrade_rate:
            fault = NicFault(
                ordinal=ordinal, mode="degrade", after=after, repair=repair,
                capacity=capacity,
            )
        self._nic_memo[ordinal] = fault
        return fault

    def pod_outage(self, pod_id: int) -> Optional[PodOutage]:
        """The outage window of pod ``pod_id``, if it suffers one."""
        if pod_id < 0:
            raise ConfigurationError("pod_id must be >= 0")
        if pod_id in self._pod_memo:
            return self._pod_memo[pod_id]
        cfg = self._config
        rng = make_rng(derive_seed(self._seed, "pod-outage", pod_id))
        u = float(rng.random())
        start = self._quantize(
            float(rng.exponential(cfg.mean_pod_outage_start))
        )
        duration = self._quantize(
            float(rng.exponential(cfg.mean_pod_outage_duration))
        )
        outage: Optional[PodOutage] = None
        if u < cfg.pod_outage_rate:
            outage = PodOutage(pod_id=pod_id, start=start, duration=duration)
        self._pod_memo[pod_id] = outage
        return outage


# ----------------------------------------------------------------------
# Report section (schema v3)
# ----------------------------------------------------------------------
def faults_payload(
    cluster: Optional["Cluster"] = None,
    failure_violation_service_seconds: float = 0.0,
    failure_drop_service_seconds: float = 0.0,
) -> dict:
    """The schema-v3 ``faults`` section of a fleet report.

    Always emitted — a fault-free run (or ``cluster=None``, the
    default for reports assembled without an engine) carries zeros, so
    the report *structure* never depends on whether faults were
    configured. Field-by-field documentation lives in
    ``docs/fleet_report_schema.md``.
    """
    if cluster is None:
        counts = dict.fromkeys(
            (
                "nic_failures", "nic_degradations", "nic_restores",
                "pod_outages", "pod_restores", "services_evicted",
                "services_lost",
            ),
            0,
        )
        replacements: list[dict] = []
        recover_times: list[float] = []
    else:
        counts = {
            "nic_failures": cluster.nics_failed,
            "nic_degradations": cluster.nics_degraded,
            "nic_restores": cluster.nics_restored,
            "pod_outages": cluster.pods_failed,
            "pod_restores": cluster.pods_restored,
            "services_evicted": cluster.services_evicted,
            "services_lost": cluster.services_lost,
        }
        replacements = [
            {
                "instance_id": r.instance_id,
                "from_nic": r.from_nic,
                "to_nic": r.to_nic,
                "evicted_at": r.evicted_at,
                "replaced_at": r.replaced_at,
            }
            for r in cluster.replacements
        ]
        recover_times = [
            r.replaced_at - r.evicted_at for r in cluster.replacements
        ]
    return {
        **counts,
        "services_replaced": len(replacements),
        "mean_time_to_recover": (
            left_sum(recover_times) / len(recover_times) if recover_times else 0.0
        ),
        "max_time_to_recover": max(recover_times, default=0.0),
        "failure_violation_service_seconds": (
            failure_violation_service_seconds
        ),
        "failure_drop_service_seconds": failure_drop_service_seconds,
        "replacements": replacements,
    }


__all__ = [
    "FaultConfig",
    "FaultSchedule",
    "NicFault",
    "PodOutage",
    "faults_payload",
]
