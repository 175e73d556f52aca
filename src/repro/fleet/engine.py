"""The fleet engine: churn, dynamic traffic, placement, scoring.

This is the paper's §7.5 taken online. The one-shot evaluations place a
fixed arrival sequence (scheduling, §7.5.1) or probe one operating
point (diagnosis, §7.5.2); the fleet engine instead advances a
SmartNIC cluster through time while services arrive and depart
(:mod:`repro.fleet.churn`), every resident's traffic profile evolves
along its trace (:mod:`repro.fleet.traces`), and an online policy
decides placements and migrations using exactly the predictors the
paper's scheduler uses (:mod:`repro.fleet.policies`).

One loop computes every trajectory. :class:`EventEngine` pops typed
events (:mod:`repro.fleet.events`) off a deterministic queue. Events
that share a timestamp run in a fixed priority order, which is the
order of an epoch's phases:

0. **Faults** — NIC restores, pod restores, pod outages, then NIC
   failures and degradations (:mod:`repro.fleet.faults`).
1. **Departures** — services whose lifetime ended leave; empty NICs
   retire.
2. **Traffic changes** — a service's traffic becomes its trace's
   profile at this instant (the dynamic-traffic regime of §7.5.2's
   MTBR sweep, generalised to all attributes).
3. **Rebalancing** — finished migrations land, fault-evicted services
   re-place, and the policy may migrate residents based on the drops
   of the *previous* observation (the diagnosis-triggered
   ``rebalance`` policy migrates the bottlenecked NF of each violating
   NIC, mirroring how §7.5.2's operator reacts to a diagnosis).
4. **Arrivals** — new services are placed one by one (the online
   regime of §7.5.1, with predictions evaluated at the service's
   *current* traffic).
5. **Probes** — ground-truth scoring.

Scoring is *lazy*: the cluster is only scored at **observation
points** — every probe, plus (``observe_changes``) every timestamp at
which fleet state actually changed. Each observation gathers all NICs
whose mix is not in the persistent mix cache into **one**
:meth:`SmartNic.run_batch` call per hardware target
(``score_mode="batch"``); ``score_mode="loop"`` solves the identical
scenario lists with per-scenario :meth:`SmartNic.run` calls and is the
bit-exactness oracle. Between observation points SLA violations and
drops are integrated left-Riemann style into second-granularity
``violation_service_seconds`` / ``drop_service_seconds``. The
:class:`~repro.fleet.events.EventConfig` knobs model Poisson arrival
*times* inside each epoch, traffic change points that sit between
epochs (a flash crowd's mid-epoch onset), *timed migrations* (the
service contends on source and destination for ``migration_duration``
seconds) and NIC spin-up latency (a booting NIC's residents score as
full drops until ``ready_at``; boot completion becomes visible at the
next observation point).

:class:`FleetEngine` is the same loop fixed to
:meth:`~repro.fleet.events.EventConfig.epoch_equivalent` — arrivals
quantized to epoch boundaries, free migrations, no spin-up latency,
unit probe and rebalance periods, scoring only at probes. Its
``run(epochs)`` returns the epoch-grid :class:`FleetReport`: one
second per epoch, one row per probe.

Everything one run carries from one timestamp to the next is one
:class:`FleetState`. A checkpoint pickles exactly that object, and a
run resumed from it finishes byte-identical to the uninterrupted one.

Fleets may be **heterogeneous**: a :class:`~repro.fleet.cluster.
NicProvisioner` mixes hardware targets in one pool, each NIC is scored
on its own target's simulator, the policies consult that target's
trained predictors (:class:`~repro.fleet.policies.PlacementModel`), and
the report carries per-pool composition/utilisation/wastage breakdowns
next to the fleet-wide series.

The scored drops feed the SLA-violation, utilisation, wastage and
migration-cost time series of the :class:`FleetReport`, and are handed
to the policy as ``last_drops`` at the next rebalancing decision.
Everything is deterministic in ``(churn seed, nic mix, trained model,
event config)``: two runs with the same configuration produce
byte-identical JSON reports and identical event logs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.errors import ConfigurationError, PlacementError
from repro.fleet.checkpoint import Checkpointer
from repro.fleet.churn import ChurnProcess
from repro.fleet.cluster import (
    CORES_PER_NF,
    Cluster,
    MigrationRecord,
    NicProvisioner,
    ServiceInstance,
    TimedMigration,
)
from repro.fleet.events import (
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
from repro.fleet.faults import FaultSchedule, faults_payload
from repro.fleet.policies import FleetPolicy, PlacementModel, make_policy
from repro.fleet.runtime import PodScoreTask, Runtime, make_runtime
from repro.fleet.topology import Topology
from repro.nf.catalog import shared_nf
from repro.numeric import left_sum
from repro.obs import (
    NULL_RECORDER,
    Recorder,
    TelemetryAccumulator,
    telemetry_payload,
    use_recorder,
)

#: Version of the JSON report layout (:meth:`FleetReport.payload` /
#: :meth:`EventReport.payload`). Bumped whenever a field is added,
#: renamed or removed; see ``docs/fleet_report_schema.md``. Version 2
#: added ``schema_version`` itself and the ``topology`` descriptor;
#: version 3 added the ``faults`` section; version 4 the ``telemetry``
#: section (both always present — zeros/empty when inert); version 5
#: the ``telemetry.warm_start`` subsection (always present — all-zero
#: with ``enabled: false`` when warm-starting is off).
FLEET_REPORT_SCHEMA_VERSION = 5


@dataclass(frozen=True)
class EpochMetrics:
    """Scored fleet state at the end of one epoch."""

    epoch: int
    services: int
    nics_used: int
    arrivals: int
    departures: int
    migrations: int
    sla_violations: int
    violation_rate_pct: float
    utilisation_pct: float
    wastage_pct: float
    aggregate_throughput_mpps: float


@dataclass(frozen=True)
class PoolMetrics:
    """One hardware target's pool state at the end of one epoch."""

    epoch: int
    target: str
    nics_used: int
    services: int
    utilisation_pct: float
    wastage_pct: float


@dataclass
class FleetReport:
    """Trajectory of one fleet simulation."""

    policy: str
    seed: int
    epochs: int
    score_mode: str
    nic_mix: tuple[tuple[str, float], ...] = ()
    #: Pod/rack layout descriptor (:meth:`Topology.to_dict`). Purely
    #: descriptive — the same fleet scores identically at any runtime —
    #: but part of the report so consumers can attribute pod effects.
    topology: Optional[dict] = None
    metrics: list[EpochMetrics] = field(default_factory=list)
    pools: list[PoolMetrics] = field(default_factory=list)
    migrations: list[MigrationRecord] = field(default_factory=list)
    #: Schema-v3 fault section (:func:`~repro.fleet.faults.
    #: faults_payload`). Always present; all-zero for fault-free runs,
    #: so the report structure never depends on the fault config.
    faults: dict = field(default_factory=faults_payload)
    #: Schema-v4 telemetry section (:func:`~repro.obs.telemetry.
    #: telemetry_payload`): per-epoch solver iteration totals, per-pod
    #: scoring task counts, per-predictor residual aggregates. Always
    #: present and derived purely from simulation state — attaching a
    #: recorder (or none) never changes it, and it is byte-identical at
    #: any runtime/worker count.
    telemetry: dict = field(default_factory=telemetry_payload)

    # ------------------------------------------------------------------
    @property
    def mean_nics(self) -> float:
        return _mean([m.nics_used for m in self.metrics])

    @property
    def mean_utilisation_pct(self) -> float:
        return _mean([m.utilisation_pct for m in self.metrics])

    @property
    def mean_wastage_pct(self) -> float:
        return _mean([m.wastage_pct for m in self.metrics])

    @property
    def violation_rate_pct(self) -> float:
        """SLA violations over all (service, epoch) scoring points."""
        scored = sum(m.services for m in self.metrics)
        violated = sum(m.sla_violations for m in self.metrics)
        return 100.0 * violated / scored if scored else 0.0

    @property
    def total_migrations(self) -> int:
        return sum(m.migrations for m in self.metrics)

    def pool_summary(self) -> dict[str, dict[str, float]]:
        """Per-target means over the trajectory (NICs, utilisation, wastage).

        Epochs where a target provisioned no NIC count as zero NICs but
        are excluded from the utilisation/wastage means (an absent pool
        has no hardware to utilise or waste).
        """
        summary: dict[str, dict[str, float]] = {}
        targets = [name for name, _ in self.nic_mix] or sorted(
            {p.target for p in self.pools}
        )
        for target in targets:
            rows = [p for p in self.pools if p.target == target]
            active = [p for p in rows if p.nics_used > 0]
            summary[target] = {
                "mean_nics": _mean([p.nics_used for p in rows]),
                "mean_utilisation_pct": _mean(
                    [p.utilisation_pct for p in active]
                ),
                "mean_wastage_pct": _mean([p.wastage_pct for p in active]),
                "mean_services": _mean([p.services for p in rows]),
            }
        return summary

    # ------------------------------------------------------------------
    def payload(self) -> dict:
        """The trajectory as a JSON-ready dict (what :meth:`to_json` dumps)."""
        return {
            "schema_version": FLEET_REPORT_SCHEMA_VERSION,
            "policy": self.policy,
            "seed": self.seed,
            "epochs": self.epochs,
            "score_mode": self.score_mode,
            "topology": self.topology,
            "nic_mix": [
                {"target": name, "weight": weight}
                for name, weight in self.nic_mix
            ],
            "summary": {
                "mean_nics": self.mean_nics,
                "mean_utilisation_pct": self.mean_utilisation_pct,
                "mean_wastage_pct": self.mean_wastage_pct,
                "violation_rate_pct": self.violation_rate_pct,
                "total_migrations": self.total_migrations,
            },
            "pool_summary": self.pool_summary(),
            "faults": self.faults,
            "telemetry": self.telemetry,
            "metrics": [asdict(m) for m in self.metrics],
            "pools": [asdict(p) for p in self.pools],
            "migrations": [asdict(m) for m in self.migrations],
        }

    def to_json(self) -> str:
        """Deterministic JSON rendering of the whole trajectory."""
        return json.dumps(self.payload(), sort_keys=True, indent=2)

    def render(self) -> str:
        """Text report: configuration + per-pool header, per-epoch rows,
        summary footer."""
        header = (
            f"{'epoch':>5s} {'svcs':>5s} {'nics':>5s} {'arr':>4s} {'dep':>4s} "
            f"{'mig':>4s} {'viol':>5s} {'util%':>7s} {'waste%':>7s} "
            f"{'tput Mpps':>10s}"
        )
        mix = ",".join(f"{name}={weight:.2f}" for name, weight in self.nic_mix)
        topo = ""
        if self.topology:
            if self.topology.get("pod_size") is not None:
                topo = f"pod-size={self.topology['pod_size']}"
            elif self.topology.get("pods") is not None:
                topo = f"pods={self.topology['pods']}"
        lines = [
            f"fleet policy={self.policy} seed={self.seed} "
            f"epochs={self.epochs} score_mode={self.score_mode}"
            + (f" nic_mix={mix}" if mix else "")
            + (f" topology={topo}" if topo else ""),
        ]
        for target, stats in self.pool_summary().items():
            lines.append(
                f"pool {target}: mean NICs {stats['mean_nics']:.2f} | "
                f"utilisation {stats['mean_utilisation_pct']:.1f}% | "
                f"wastage {stats['mean_wastage_pct']:.1f}% | "
                f"mean services {stats['mean_services']:.2f}"
            )
        f = self.faults
        if f and (
            f["nic_failures"]
            or f["nic_degradations"]
            or f["pod_outages"]
            or f["services_evicted"]
        ):
            lines.append(
                f"faults: nic fail/degrade/restore {f['nic_failures']}/"
                f"{f['nic_degradations']}/{f['nic_restores']} | "
                f"pod outages {f['pod_outages']} | "
                f"evicted {f['services_evicted']} "
                f"lost {f['services_lost']} "
                f"replaced {f['services_replaced']} | "
                f"mean recover {f['mean_time_to_recover']:.2f}s"
            )
        warm = (self.telemetry or {}).get("warm_start")
        if warm and warm.get("enabled"):
            lines.append(
                f"warm-start: hits {warm['hits']} misses {warm['misses']} "
                f"invalidations {warm['invalidations']} | "
                f"warm iters {warm['warm_iterations']} over "
                f"{warm['warm_scenarios']} mixes (cold "
                f"{warm['cold_iterations']}/{warm['cold_scenarios']})"
            )
        lines.extend([header, "-" * len(header)])
        for m in self.metrics:
            lines.append(
                f"{m.epoch:5d} {m.services:5d} {m.nics_used:5d} "
                f"{m.arrivals:4d} {m.departures:4d} {m.migrations:4d} "
                f"{m.sla_violations:5d} {m.utilisation_pct:7.1f} "
                f"{m.wastage_pct:7.1f} {m.aggregate_throughput_mpps:10.3f}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"mean NICs {self.mean_nics:.2f} | "
            f"utilisation {self.mean_utilisation_pct:.1f}% | "
            f"wastage {self.mean_wastage_pct:.1f}% | "
            f"SLA violations {self.violation_rate_pct:.2f}% | "
            f"migrations {self.total_migrations}"
        )
        return "\n".join(lines)


def _mean(values: list[float]) -> float:
    return left_sum(values) / len(values) if values else 0.0



# ----------------------------------------------------------------------
# Scoring core
# ----------------------------------------------------------------------
# Every observation scores through these module-level helpers: same
# cache keys, same scenario construction, same read-out iteration order
# (dict insertion order feeds float sums, so iteration order *is* part
# of the byte-determinism contract).


def _mix_key(residents: list[ServiceInstance]) -> tuple:
    return tuple((r.nf_name, r.traffic) for r in residents)


def _solo_throughput(
    model: PlacementModel, nf_name: str, traffic, target: str
) -> float:
    return (
        model.collector_for(target)
        .solo(shared_nf(nf_name), traffic)
        .throughput_mpps
    )


def _warm_pairs(
    model: PlacementModel,
    targets: tuple[str, ...],
    pairs: list[tuple[str, object]],
    score_mode: str,
    runtime: Runtime,
) -> None:
    """Measure the given solo baselines into the collector caches.

    Every hardware target in the pool mix is warmed with the full
    (NF, traffic) pair set — placement probes evaluate candidates on
    any target, and a migration can move a service across pools, so
    each target's collector must know every pair's solo behaviour. The
    work executes wherever the ``runtime`` decides (worker processes
    split the uncached set into chunks); the cache entries are
    identical either way because solos are pure in ``(seed, pair)``.
    On the serial oracle, ``batch`` mode solves each target's uncached
    solos in one :meth:`ProfilingCollector.solo_many` call (one
    ``run_batch`` per target) and ``loop`` mode measures the identical
    set with per-pair scalar :meth:`ProfilingCollector.solo` calls —
    same cache entries, so both modes' policies and drop baselines see
    the same values.
    """
    for target in targets:
        runtime.warm_solos(
            model.collector_for(target), target, pairs, score_mode
        )


def _score_cluster(
    cluster: Cluster,
    model: PlacementModel,
    targets: tuple[str, ...],
    mix_cache: dict[tuple, list[tuple[float, float]]],
    score_mode: str,
    runtime: Runtime,
    now: float,
    obs: Recorder = NULL_RECORDER,
    telemetry: Optional[TelemetryAccumulator] = None,
    warm_start: bool = False,
    warm_cache: Optional[dict] = None,
) -> tuple[dict[str, float], dict[str, float]]:
    """Measured drop and throughput of every resident service at ``now``.

    Gathers every uncached multi-resident mix, groups the work **by
    pod** (the cluster's :class:`~repro.fleet.topology.Topology`; the
    flat default is one pod) into :class:`PodScoreTask`\\ s and hands
    the task list to the execution ``runtime``: the serial oracle solves
    pods in-process (``batch`` mode: one :meth:`SmartNic.run_batch` call
    per hardware target per pod; ``loop`` mode: per-scenario
    :meth:`SmartNic.run` calls, the bit-exactness oracle), the process
    runtime farms whole pods to workers. Results merge
    deterministically: per-pod partials are re-assembled in (pod,
    discovery) order and cache entries are written by the parent in the
    NIC-scan discovery order, so reports are byte-identical at any
    runtime and worker count. Solo baselines
    come from the collector caches; a mix is cached per (target, mix)
    since the same resident set performs differently on different
    hardware — and because the cache persists across observation
    points, only NICs whose mix actually changed ("dirty" NICs) cost a
    solve.

    Continuous-time refinements (inert under the epoch preset):

    - a NIC still booting (``ready_at > now``) is not solved; its
      resident services score as full drops (zero throughput);
    - a NIC's residents include the contending copies of in-flight
      migrations — they shape the mix (and the solve) but drops and
      throughputs are assigned only at each service's *home* NIC, the
      one serving its traffic.

    Fault refinements (inert without a fault schedule, keeping the
    fault-free path bit-identical):

    - a *degraded* NIC delivers ``capacity_fraction`` of its solved
      throughput. The derating happens at read-out — the mix cache
      stores undegraded values keyed ``(target, mix)``, so the same mix
      on a healthy NIC reuses the entry unchanged;
    - services in the re-placement queue (fault-evicted, not yet
      re-placed) score as full drops with zero throughput — they are
      not serving.

    Telemetry (``obs`` / ``telemetry``) is strictly read-only with
    respect to results: it observes the solve (pod task shapes, per-mix
    iterations-to-converge, prediction-vs-ground-truth residuals) keyed
    by simulated time ``now``.

    ``warm_start`` / ``warm_cache`` enable cross-pass incremental
    solving (see ``docs/incremental_solving.md``): ``warm_cache`` maps
    ``nic_id`` to the NIC's last converged per-resident throughput
    vector together with its structural key ``(target, resident NF
    names)``. A newly-dirty mix whose first hosting NIC's cached
    structure matches seeds the fixed point from the cached vector
    (only traffic moved — the converged point is nearby); a structure
    change counts as an invalidation and solves cold. After the pass,
    every solved multi-resident NIC's entry is refreshed from the mix
    cache (undegraded values — pure simulation state) and entries of
    departed NICs are pruned. The cache derives from sim history only
    and warm payloads travel inside the tasks, so warm runs stay
    byte-identical at any runtime/jobs count — but warm iterate paths
    differ from cold ones, which is why the default stays off (the
    oracle arm, like ``score_mode="loop"``).
    """
    topology = cluster.topology
    # pod -> target -> mix keys, NICs scanned in spin-up order; a mix
    # appearing in several pods is solved once, in its first pod
    # (values are pure in (target seed, mix), so where is irrelevant).
    pod_mixes: dict[int, dict[str, list[tuple]]] = {}
    mix_order: list[tuple] = []
    pending: set[tuple] = set()
    # Warm-start bookkeeping: per newly-dirty mix, the seed vector (or
    # None). The first NIC hosting a mix (spin-up scan order) decides —
    # deterministic, and pure in simulation history.
    warm_of: dict[tuple, Optional[tuple[float, ...]]] = {}
    warm_hits = warm_misses = warm_invalidations = 0
    for nic in cluster.nics:
        if nic.ready_at > now:
            continue  # booting: residents score as full drops below
        if len(nic.residents) < 2:
            continue
        key = (nic.target, _mix_key(nic.residents))
        if key in mix_cache or key in pending:
            continue
        pending.add(key)
        mix_order.append(key)
        if warm_start:
            vector = None
            entry = warm_cache.get(nic.nic_id) if warm_cache else None
            structure = (nic.target, tuple(r.nf_name for r in nic.residents))
            if entry is None:
                warm_misses += 1
            elif entry[0] == structure:
                vector = entry[1]
                warm_hits += 1
            else:
                warm_invalidations += 1
            warm_of[key] = vector
        pod = topology.pod_of(nic.nic_id)
        pod_mixes.setdefault(pod, {}).setdefault(nic.target, []).append(
            key[1]
        )

    tasks: list[PodScoreTask] = []
    iterations_of: dict[tuple, int] = {}
    if mix_order:
        tasks = [
            PodScoreTask(
                pod_id=pod,
                mixes=tuple(
                    (target, tuple(keys)) for target, keys in groups.items()
                ),
                warm=(
                    tuple(
                        tuple(warm_of[(target, k)] for k in keys)
                        for target, keys in groups.items()
                    )
                    if warm_start
                    else ()
                ),
            )
            for pod, groups in sorted(pod_mixes.items())
        ]
        solved = runtime.score_pods(tasks, score_mode)
        rows: dict[tuple, list[float]] = {}
        for task, pod_result in zip(tasks, solved):
            for (target, keys), (group_rows, group_iters) in zip(
                task.mixes, pod_result
            ):
                for mkey, row, iters in zip(keys, group_rows, group_iters):
                    rows[(target, mkey)] = row
                    iterations_of[(target, mkey)] = iters
        for key in mix_order:
            target, mix_key = key
            entries = []
            for (name, traffic), achieved in zip(mix_key, rows[key]):
                solo = _solo_throughput(model, name, traffic, target)
                entries.append((max(0.0, 1.0 - achieved / solo), achieved))
            mix_cache[key] = entries

    # Telemetry for this scoring pass — observational only, and pure in
    # simulation state: iteration counts come back from the runtime but
    # are identical wherever (and however batched) the solve ran.
    iteration_counts = [iterations_of[key] for key in mix_order]
    warm_flags = (
        [warm_of[key] is not None for key in mix_order] if warm_start else None
    )
    if telemetry is not None:
        telemetry.record_scoring(
            now,
            [(task.pod_id, task.scenario_count) for task in tasks],
            iteration_counts,
            warm_flags=warm_flags,
        )
        if warm_start:
            telemetry.record_warm_cache(
                warm_hits, warm_misses, warm_invalidations
            )
        for key, predicted in zip(
            mix_order, model.predict_mix_throughputs(mix_order)
        ):
            if predicted is None:
                continue  # heuristic arm: no predictor, no residuals
            target, mix_key = key
            for (name, _), pred, (_, achieved) in zip(
                mix_key, predicted, mix_cache[key]
            ):
                telemetry.add_residual(f"{target}:{name}", pred - achieved)
    if obs.enabled:
        for count in iteration_counts:
            obs.histogram("solver.iterations", count)
        if warm_start:
            # Warm-only metric streams: emitted exclusively when the
            # knob is on, so a warm_start=False run's deterministic
            # channels stay byte-identical to pre-warm-start builds.
            for flag, count in zip(warm_flags, iteration_counts):
                obs.histogram(
                    "solver.iterations.warm" if flag else
                    "solver.iterations.cold",
                    count,
                )
            if warm_hits:
                obs.counter("warm_cache.hits", warm_hits)
            if warm_misses:
                obs.counter("warm_cache.misses", warm_misses)
            if warm_invalidations:
                obs.counter("warm_cache.invalidations", warm_invalidations)
        obs.event(
            now, "score", chan="sim",
            mixes_solved=len(mix_order),
            iterations=sum(iteration_counts),
            pods=[[task.pod_id, task.scenario_count] for task in tasks],
        )

    drops: dict[str, float] = {}
    throughputs: dict[str, float] = {}
    for nic in cluster.nics:
        if nic.ready_at > now:
            for resident in nic.residents:
                if cluster.is_home(nic, resident.instance_id):
                    drops[resident.instance_id] = 1.0
                    throughputs[resident.instance_id] = 0.0
            continue
        cap = nic.capacity_fraction
        if len(nic.residents) == 1:
            resident = nic.residents[0]
            if cluster.is_home(nic, resident.instance_id):
                solo = _solo_throughput(
                    model, resident.nf_name, resident.traffic, nic.target
                )
                if cap != 1.0:
                    achieved = solo * cap
                    drops[resident.instance_id] = max(
                        0.0, 1.0 - achieved / solo
                    )
                    throughputs[resident.instance_id] = achieved
                else:
                    drops[resident.instance_id] = 0.0
                    throughputs[resident.instance_id] = solo
            continue
        entries = mix_cache[(nic.target, _mix_key(nic.residents))]
        if warm_start and warm_cache is not None:
            # Refresh from the (undegraded) mix cache: pure simulation
            # state, so the cache replays identically from a checkpoint.
            warm_cache[nic.nic_id] = (
                (nic.target, tuple(r.nf_name for r in nic.residents)),
                tuple(achieved for _, achieved in entries),
            )
        for resident, (drop, throughput) in zip(nic.residents, entries):
            if cluster.is_home(nic, resident.instance_id):
                if cap != 1.0:
                    solo = _solo_throughput(
                        model, resident.nf_name, resident.traffic, nic.target
                    )
                    achieved = throughput * cap
                    drops[resident.instance_id] = max(
                        0.0, 1.0 - achieved / solo
                    )
                    throughputs[resident.instance_id] = achieved
                else:
                    drops[resident.instance_id] = drop
                    throughputs[resident.instance_id] = throughput
    # Queued (fault-evicted) services are not serving: full drop, zero
    # throughput, appended after every placed service so fault-free
    # insertion order is untouched.
    for entry in cluster.evicted:
        drops[entry.instance.instance_id] = 1.0
        throughputs[entry.instance.instance_id] = 0.0
    if warm_start and warm_cache is not None:
        live = {nic.nic_id for nic in cluster.nics}
        for nic_id in [k for k in warm_cache if k not in live]:
            del warm_cache[nic_id]
    return drops, throughputs


def _live_services(cluster: Cluster) -> list[ServiceInstance]:
    """Every service the fleet is responsible for this instant: placed
    residents (home-NIC order) then the re-placement queue (eviction
    order). Services, violations and drop sums are counted over this
    list, in this order — the iteration order feeds float sums, so it
    is part of the byte-determinism contract."""
    live = cluster.services
    if cluster.evicted:
        live = live + [entry.instance for entry in cluster.evicted]
    return live


def _failure_attribution(
    cluster: Cluster, drops: dict[str, float]
) -> tuple[int, float]:
    """Violations and summed drop attributable to active faults.

    Counted over (a) the re-placement queue — every queued service is
    fully down because a fault displaced it — and (b) home residents of
    currently *degraded* NICs, whose measured drop is the derated one.
    Returns ``(violation count, drop sum)``, which the engine
    integrates over time into the ``faults`` section's
    ``failure_violation_service_seconds`` /
    ``failure_drop_service_seconds``.
    """
    violations = 0
    drop_sum = 0.0
    for entry in cluster.evicted:
        drop_sum += 1.0
        if 1.0 > entry.instance.sla_drop_fraction:
            violations += 1
    for nic in cluster.nics:
        if not nic.is_degraded:
            continue
        for resident in nic.residents:
            if not cluster.is_home(nic, resident.instance_id):
                continue
            drop = drops.get(resident.instance_id)
            if drop is None:
                continue
            drop_sum += drop
            if drop > resident.sla_drop_fraction:
                violations += 1
    return violations, drop_sum


def _pool_rows(
    cluster: Cluster,
    provisioner: NicProvisioner,
    targets: tuple[str, ...],
    epoch: int,
) -> list[PoolMetrics]:
    """Per-target pool breakdown of one scored epoch.

    Services are counted at their home NIC (a migrating service is
    listed once, in its source pool) while core utilisation counts the
    destination copies too — an in-flight migration really does occupy
    cores in both pools.
    """
    rows = []
    for target in targets:
        pool = [nic for nic in cluster.nics if nic.target == target]
        pool_services = sum(
            1
            for nic in pool
            for r in nic.residents
            if cluster.is_home(nic, r.instance_id)
        )
        pool_total = sum(nic.spec.num_cores for nic in pool)
        pool_used = sum(nic.cores_used() for nic in pool)
        capacity = provisioner.spec_of(target).num_cores // CORES_PER_NF
        pool_min = math.ceil(pool_services / capacity)
        rows.append(
            PoolMetrics(
                epoch=epoch,
                target=target,
                nics_used=len(pool),
                services=pool_services,
                utilisation_pct=(
                    100.0 * pool_used / pool_total if pool_total else 0.0
                ),
                wastage_pct=(
                    100.0 * (len(pool) - pool_min) / pool_min
                    if pool_min
                    else 0.0
                ),
            )
        )
    return rows


# ----------------------------------------------------------------------
# The event loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ObservationRecord:
    """One scored observation point of the event engine."""

    time: float
    kind: str  # "probe" (scheduled grid) or "change" (state changed)
    services: int
    nics_used: int
    sla_violations: int
    drop_sum: float  # sum of measured per-service drops
    aggregate_throughput_mpps: float


@dataclass
class EventReport:
    """Continuous-time trajectory: the epoch-grid :class:`FleetReport`
    plus the event engine's second-granularity series."""

    fleet: FleetReport
    horizon: float
    config: EventConfig
    observations: list[ObservationRecord] = field(default_factory=list)
    events_processed: int = 0
    event_counts: dict[str, int] = field(default_factory=dict)
    event_log: list[str] = field(default_factory=list)
    #: Left-Riemann integral of the SLA-violation count over time
    #: (unit: service-seconds in violation).
    violation_service_seconds: float = 0.0
    #: Left-Riemann integral of the summed throughput-drop fractions
    #: (unit: service-seconds of lost throughput).
    drop_service_seconds: float = 0.0
    migrations_started: int = 0
    migrations_completed: int = 0
    migrations_cancelled: int = 0
    timed_migrations: list[TimedMigration] = field(default_factory=list)

    @property
    def probes(self) -> int:
        return sum(1 for o in self.observations if o.kind == "probe")

    # ------------------------------------------------------------------
    def payload(self) -> dict:
        return {
            "schema_version": FLEET_REPORT_SCHEMA_VERSION,
            "engine": "event",
            "horizon": self.horizon,
            "config": asdict(self.config),
            "summary": {
                "observations": len(self.observations),
                "probes": self.probes,
                "events_processed": self.events_processed,
                "event_counts": dict(self.event_counts),
                "violation_service_seconds": self.violation_service_seconds,
                "drop_service_seconds": self.drop_service_seconds,
                "migrations_started": self.migrations_started,
                "migrations_completed": self.migrations_completed,
                "migrations_cancelled": self.migrations_cancelled,
            },
            "observations": [asdict(o) for o in self.observations],
            "timed_migrations": [asdict(m) for m in self.timed_migrations],
            "event_log": list(self.event_log),
            "fleet": self.fleet.payload(),
        }

    def to_json(self) -> str:
        """Deterministic JSON: the fleet payload nested under ``fleet``
        plus the continuous-time series."""
        return json.dumps(self.payload(), sort_keys=True, indent=2)

    def render(self) -> str:
        """The fleet table followed by a continuous-time footer."""
        lines = [self.fleet.render()]
        lines.append(
            f"event engine: horizon {self.horizon:g}s | "
            f"observations {len(self.observations)} "
            f"({self.probes} probes) | events {self.events_processed}"
        )
        lines.append(
            f"violation-seconds {self.violation_service_seconds:.3f} | "
            f"drop-seconds {self.drop_service_seconds:.3f} | "
            f"migrations started {self.migrations_started} / "
            f"completed {self.migrations_completed} / "
            f"cancelled {self.migrations_cancelled}"
        )
        return "\n".join(lines)


@dataclass
class FleetState:
    """Everything one run carries from one timestamp to the next.

    A checkpoint pickles exactly this object and a resumed run picks
    it up where the snapshot left off. Pure caches that refill with
    bit-identical values (the collectors' solo caches) are not part of
    it.
    """

    cluster: Cluster
    queue: EventQueue
    report: EventReport
    #: Every admitted service by id, placed or queued for re-placement.
    instances: dict[str, ServiceInstance] = field(default_factory=dict)
    #: ``(target, mix key)`` -> per-resident ``(drop, throughput)``.
    mix_cache: dict[tuple, list[tuple[float, float]]] = field(
        default_factory=dict
    )
    telemetry: TelemetryAccumulator = field(
        default_factory=TelemetryAccumulator
    )
    #: Per-NIC warm-start vectors (see :func:`_score_cluster`).
    warm_cache: dict = field(default_factory=dict)
    #: The last observation's drops: the policies' ``last_drops``.
    last_drops: dict[str, float] = field(default_factory=dict)
    # Left-Riemann integrals: the last observation's time and values,
    # and the fault-attributed totals (the other two live on the report).
    prev_t: float = 0.0
    prev_violations: int = 0
    prev_drop_sum: float = 0.0
    prev_fail_viol: int = 0
    prev_fail_drop: float = 0.0
    fail_viol_seconds: float = 0.0
    fail_drop_seconds: float = 0.0
    # Epoch-row counters since the last on-grid probe, and the next
    # positions on the probe and rebalance grids.
    arrivals_since: int = 0
    departures_since: int = 0
    migrations_at_probe: int = 0
    probe_index: int = 0
    rebalance_index: int = 0

    def integrate(self, t: float) -> None:
        """Advance every integral to ``t`` at the last observed values."""
        dt = t - self.prev_t
        self.report.violation_service_seconds += dt * self.prev_violations
        self.report.drop_service_seconds += dt * self.prev_drop_sum
        self.fail_viol_seconds += dt * self.prev_fail_viol
        self.fail_drop_seconds += dt * self.prev_fail_drop
        self.prev_t = t


class EventEngine:
    """Drives one policy through the continuous-time fleet simulation.

    ``run(horizon)`` advances the fleet to ``horizon`` seconds (one
    epoch = one second) under ``config`` (an
    :class:`~repro.fleet.events.EventConfig`; the default is fully
    continuous) and returns an :class:`EventReport`. ``runtime`` names
    the execution runtime scoring runs on (a
    :class:`~repro.fleet.runtime.Runtime` instance, ``"serial"`` /
    ``"process"``, or ``None`` for serial) and ``topology`` the pod
    layout (``None`` = flat). Both are report-invariant: same seed ⇒
    byte-identical reports at any runtime/worker count.
    """

    def __init__(
        self,
        policy: FleetPolicy | str,
        churn: ChurnProcess,
        model: PlacementModel,
        score_mode: str = "batch",
        provisioner: Optional[NicProvisioner] = None,
        config: Optional[EventConfig] = None,
        runtime: "Runtime | str | None" = None,
        topology: Optional[Topology] = None,
        faults: Optional[FaultSchedule] = None,
        recorder: Optional[Recorder] = None,
        warm_start: bool = False,
    ) -> None:
        if score_mode not in ("batch", "loop"):
            raise ConfigurationError("score_mode must be 'batch' or 'loop'")
        self._policy = make_policy(policy) if isinstance(policy, str) else policy
        if provisioner is None:
            # Homogeneous fleet: every NIC is the model's default target.
            provisioner = NicProvisioner.constant(model.nic.spec)
        for target in provisioner.target_names:
            if target not in model.target_names:
                raise ConfigurationError(
                    f"nic-mix target {target!r} has no placement model; "
                    f"registered: {list(model.target_names)}"
                )
        self._churn = churn
        self._model = model
        self._provisioner = provisioner
        self._targets = provisioner.target_names
        self._score_mode = score_mode
        self._config = config if config is not None else EventConfig()
        self._runtime = make_runtime(runtime)
        self._topology = topology if topology is not None else Topology()
        #: The seeded fault schedule, or ``None`` for a fault-free run.
        self._faults = (
            faults if faults is not None and faults.config.any_faults else None
        )
        self._obs = recorder if recorder is not None else NULL_RECORDER
        #: Cross-pass warm-started fixed points (default off — the
        #: oracle arm); see :func:`_score_cluster` and
        #: ``docs/incremental_solving.md``.
        self._warm_start = bool(warm_start)

    @property
    def config(self) -> EventConfig:
        return self._config

    @property
    def runtime(self) -> Runtime:
        return self._runtime

    # ------------------------------------------------------------------
    def run(
        self,
        horizon: float,
        checkpoint: Optional[Checkpointer] = None,
        resume: Optional[FleetState] = None,
    ) -> EventReport:
        """Simulate ``horizon`` seconds; returns the scored trajectory.

        Stateless across calls: every invocation rebuilds the cluster
        and the scoring caches, so repeated runs of one engine are
        bit-identical. ``checkpoint`` snapshots the :class:`FleetState`
        after every ``checkpoint.every`` on-grid probes; ``resume`` is
        such a snapshot (:func:`~repro.fleet.checkpoint.load_checkpoint`),
        from which the run finishes byte-identical to the uninterrupted
        one.
        """
        return self._simulate(float(horizon), checkpoint, resume)

    def _simulate(
        self,
        horizon: float,
        checkpoint: Optional[Checkpointer],
        resume: Optional[FleetState],
    ) -> EventReport:
        try:
            # The attached recorder doubles as the process-wide active
            # recorder for the run, so recorder-less layers (the batch
            # solver) can report exec-channel metrics into it.
            with use_recorder(self._obs):
                return self._run(horizon, checkpoint, resume)
        except BaseException:
            # The engine owns its runtime's lifecycle on error paths: a
            # failing run must not leak worker pools. (Success keeps
            # the pool warm for the next run; close() is idempotent and
            # the pool rebuilds on demand.)
            self._runtime.close()
            raise

    def _run(
        self,
        horizon: float,
        checkpoint: Optional[Checkpointer],
        resume: Optional[FleetState],
    ) -> EventReport:
        if not horizon >= 1.0:
            raise ConfigurationError("horizon must be >= 1 second")
        self._runtime.bind(
            {t: self._model.nic_for(t) for t in self._targets}
        )
        self._runtime.observe(self._obs)
        for target in self._targets:
            self._model.collector_for(target).observe(self._obs)
        if resume is None:
            state = self._start(horizon)
        else:
            state = self._resume(resume, horizon)
        queue = state.queue

        while queue and queue.peek().time < horizon:
            t = queue.peek().time
            state.cluster.now = t
            dirty = probe_due = False
            while queue and queue.peek().time == t:
                event = self._pop(state)
                if isinstance(event, Probe):
                    probe_due = True
                    state.probe_index += 1
                    queue.push(
                        Probe(time=state.probe_index * self._config.probe_period)
                    )
                elif self._apply(state, event, t):
                    dirty = True
            self._arm_new_nics(state)
            if probe_due or (dirty and self._config.observe_changes):
                self._observe(state, t, probe_due, checkpoint)

        # Close the integrals out to the horizon.
        state.integrate(horizon)
        cluster, report = state.cluster, state.report
        report.fleet.migrations = list(cluster.migration_log)
        report.fleet.faults = faults_payload(
            cluster, state.fail_viol_seconds, state.fail_drop_seconds
        )
        report.fleet.telemetry = state.telemetry.payload()
        report.migrations_started = cluster.total_migrations_started
        report.migrations_completed = len(cluster.timed_migrations)
        report.migrations_cancelled = cluster.migrations_cancelled
        report.timed_migrations = list(cluster.timed_migrations)
        return report

    def _start(self, horizon: float) -> FleetState:
        """The state at t = 0: an empty fleet and the static schedule."""
        cfg = self._config
        cluster = Cluster(self._provisioner, topology=self._topology)
        cluster.migration_duration = cfg.migration_duration
        cluster.cross_pod_migration_duration = (
            cfg.cross_pod_migration_duration
        )
        cluster.spinup_latency = cfg.spinup_latency
        cluster.collect_new_nics = self._faults is not None
        epochs = int(math.ceil(horizon))
        state = FleetState(
            cluster=cluster,
            queue=EventQueue(),
            report=EventReport(
                fleet=FleetReport(
                    policy=self._policy.name,
                    seed=self._churn.seed,
                    epochs=epochs,
                    score_mode=self._score_mode,
                    nic_mix=self._provisioner.mix,
                    topology=self._topology.to_dict(),
                ),
                horizon=horizon,
                config=cfg,
            ),
        )
        if self._warm_start:
            state.telemetry.enable_warm()

        # Static schedule: every epoch's timed arrivals, the probe and
        # rebalance grids (chained through their handlers), and — with
        # faults — every armed pod outage (NIC faults arm dynamically
        # as their NICs spin up). Events at or past the horizon stay
        # queued unpopped, so a snapshot holds every scheduled event.
        queue = state.queue
        self._schedule_arrivals(queue, range(epochs))
        queue.push(Probe(time=0.0))
        queue.push(RebalanceTimer(time=0.0))
        faults = self._faults
        if faults is not None and faults.config.pod_outage_rate > 0.0:
            if self._topology.pods is None:
                raise ConfigurationError(
                    "pod outages need a fixed pod count (Topology(pods=N))"
                )
            for pod_id in range(self._topology.pods):
                outage = faults.pod_outage(pod_id)
                if outage is not None:
                    queue.push(PodFail(time=outage.start, pod_id=pod_id))
        return state

    def _schedule_arrivals(self, queue: EventQueue, epochs: range) -> None:
        """Queue the timed arrivals of ``epochs``. An epoch's arrivals
        share no timestamp with another epoch's, so their pop order does
        not depend on when they were queued."""
        for epoch in epochs:
            for when, request in self._churn.arrival_times_for(
                epoch, quantize=self._config.quantize_arrivals
            ):
                queue.push(Arrival(time=when, request=request))

    def _resume(self, state: FleetState, horizon: float) -> FleetState:
        """Validate a snapshot and retarget it to ``horizon``.

        The run may end earlier or later than the one that wrote the
        snapshot: only the arrivals of epochs that run never reached
        are missing from its queue.
        """
        if not isinstance(state, FleetState):
            raise ConfigurationError(
                "checkpoint does not hold a fleet engine state"
            )
        if state.report.config != self._config:
            raise ConfigurationError(
                "checkpoint was written under a different EventConfig "
                f"({state.report.config}); resume it with that config"
            )
        if state.prev_t >= horizon:
            raise ConfigurationError(
                f"checkpoint was taken at t={state.prev_t:g}; the run "
                f"ends at {horizon:g}"
            )
        report = state.report
        epochs = int(math.ceil(horizon))
        self._schedule_arrivals(
            state.queue, range(report.fleet.epochs, epochs)
        )
        report.horizon = horizon
        report.fleet.epochs = epochs
        if self._warm_start:
            # The snapshot may predate the knob (a cold build resumed
            # into a warm run): the engine's flag, not the snapshot's,
            # decides whether warm telemetry reports.
            state.telemetry.enable_warm()
        return state

    # ------------------------------------------------------------------
    def _apply(self, state: FleetState, event: Event, t: float) -> bool:
        """Apply one popped event at ``t``; returns whether the scored
        fleet state changed."""
        cluster, queue, obs = state.cluster, state.queue, self._obs
        # A fault transition emits its "sim"-channel event only when it
        # takes effect (a NIC can fail only once, and so on).
        if isinstance(event, NicRestore):
            if not cluster.restore_nic(event.nic_id):
                return False
            obs.event(t, "fault.nic_restore", chan="sim", nic=event.nic_id)
            return True

        if isinstance(event, PodRestore):
            # The pod accepts spin-ups again; nothing scored changes at
            # this instant, so no observation.
            cluster.restore_pod(event.pod_id)
            obs.event(t, "fault.pod_restore", chan="sim", pod=event.pod_id)
            return False

        if isinstance(event, PodFail):
            if not cluster.fail_pod(event.pod_id):
                return False
            obs.event(t, "fault.pod_fail", chan="sim", pod=event.pod_id)
            outage = self._faults.pod_outage(event.pod_id)
            queue.push(PodRestore(time=outage.end, pod_id=event.pod_id))
            return True

        if isinstance(event, NicFail):
            if event.mode == "fail":
                if not cluster.fail_nic(event.nic_id):
                    return False
                obs.event(t, "fault.nic_fail", chan="sim", nic=event.nic_id)
                return True
            if not cluster.degrade_nic(event.nic_id, event.capacity):
                return False
            obs.event(
                t, "fault.nic_degrade", chan="sim",
                nic=event.nic_id, capacity=event.capacity,
            )
            queue.push(NicRestore(time=t + event.repair, nic_id=event.nic_id))
            return True

        if isinstance(event, Departure):
            if event.instance_id not in state.instances:
                return False
            if cluster.is_evicted(event.instance_id):
                # Its lifetime ran out while it waited in the
                # re-placement queue: lost, not served.
                cluster.drop_evicted(event.instance_id)
            else:
                cluster.remove(event.instance_id)
            del state.instances[event.instance_id]
            state.departures_since += 1
            return True

        if isinstance(event, TrafficChange):
            instance = state.instances.get(event.instance_id)
            if instance is None:
                return False
            trace = instance.request.trace
            fresh = trace.profile_at(t)
            changed = fresh != instance.traffic
            instance.traffic = fresh
            nxt = trace.next_change_after(t)
            if nxt is not None:
                queue.push(TrafficChange(nxt, event.instance_id))
            return changed

        if isinstance(event, MigrationComplete):
            record = cluster.migration_of(event.instance_id)
            if record is None or record.end_time != t:
                return False
            cluster.complete_migration(event.instance_id)
            obs.event(t, "migration.complete", instance=event.instance_id)
            return True

        if isinstance(event, RebalanceTimer):
            epoch = int(math.floor(t))
            with obs.span(t, "phase.rebalance") as span:
                replaced = bool(cluster.evicted) and bool(
                    self._policy.replace_evicted(cluster, epoch, self._model)
                )
                moved = self._policy.rebalance(
                    cluster, epoch, self._model, state.last_drops
                )
                started = self._launch_migrations(state)
                span.add(migrations=moved)
            state.rebalance_index += 1
            queue.push(
                RebalanceTimer(
                    time=state.rebalance_index * self._config.rebalance_period
                )
            )
            # ``moved`` alone covers instantaneous (duration-0) moves.
            return replaced or started or bool(moved)

        if isinstance(event, Arrival):
            self._place_arrivals(state, event, t)
            return True
        return False

    def _place_arrivals(
        self, state: FleetState, first: Arrival, t: float
    ) -> None:
        """Place the whole same-time arrival group (contiguous in the
        queue), warming all their solo baselines in one batch first."""
        cluster, queue, obs = state.cluster, state.queue, self._obs
        group = [first]
        while (
            queue
            and queue.peek().time == t
            and isinstance(queue.peek(), Arrival)
        ):
            group.append(self._pop(state))
        requests = [e.request for e in group]
        pairs = [(r.nf_name, r.traffic) for r in cluster.services]
        pairs.extend((rq.nf_name, rq.trace.profile_at(t)) for rq in requests)
        with obs.span(t, "phase.warm", pairs=len(pairs)):
            _warm_pairs(
                self._model, self._targets, pairs, self._score_mode,
                self._runtime,
            )
        with obs.span(t, "phase.arrivals", arrivals=len(requests)):
            for request in requests:
                instance = ServiceInstance(
                    request=request, traffic=request.trace.profile_at(t)
                )
                try:
                    nic_id = self._policy.choose_nic(
                        cluster, instance, self._model
                    )
                    cluster.place(instance, nic_id)
                except PlacementError:
                    # Nowhere to put it (e.g. every pod is in outage):
                    # it waits in the re-placement queue.
                    cluster.enqueue_evicted(instance)
                state.instances[request.instance_id] = instance
                queue.push(
                    Departure(
                        float(request.departure_epoch), request.instance_id
                    )
                )
                nxt = request.trace.next_change_after(t)
                if nxt is not None:
                    queue.push(TrafficChange(nxt, request.instance_id))
        state.arrivals_since += len(requests)

    def _observe(
        self,
        state: FleetState,
        t: float,
        probe_due: bool,
        checkpoint: Optional[Checkpointer],
    ) -> None:
        """Score the fleet at ``t``, advance the integrals, and — on an
        epoch-grid probe — append the epoch row and maybe snapshot."""
        cluster, report, obs = state.cluster, state.report, self._obs
        pairs = [(r.nf_name, r.traffic) for r in cluster.services]
        with obs.span(t, "phase.warm", pairs=len(pairs)):
            _warm_pairs(
                self._model, self._targets, pairs, self._score_mode,
                self._runtime,
            )
        with obs.span(t, "phase.score"):
            drops, throughputs = _score_cluster(
                cluster, self._model, self._targets, state.mix_cache,
                self._score_mode, self._runtime, t,
                obs=obs, telemetry=state.telemetry,
                warm_start=self._warm_start, warm_cache=state.warm_cache,
            )
        live = _live_services(cluster)
        violated = [
            instance.instance_id
            for instance in live
            if drops[instance.instance_id] > instance.sla_drop_fraction
        ]
        drop_sum = left_sum(drops[r.instance_id] for r in live)
        state.integrate(t)
        state.prev_violations, state.prev_drop_sum = len(violated), drop_sum
        state.prev_fail_viol, state.prev_fail_drop = _failure_attribution(
            cluster, drops
        )
        total_throughput = left_sum(throughputs.values())
        report.observations.append(
            ObservationRecord(
                time=t,
                kind="probe" if probe_due else "change",
                services=len(live),
                nics_used=cluster.nics_used,
                sla_violations=len(violated),
                drop_sum=drop_sum,
                aggregate_throughput_mpps=total_throughput,
            )
        )
        state.last_drops = drops

        grid_probe = probe_due and t == math.floor(t)
        if grid_probe:
            # The epoch row, from counters accumulated since the
            # previous grid probe.
            epoch = int(t)
            services = len(live)
            total_cores = sum(nic.spec.num_cores for nic in cluster.nics)
            used_cores = sum(nic.cores_used() for nic in cluster.nics)
            min_nics = math.ceil(services / cluster.max_residents_per_nic)
            started = cluster.total_migrations_started
            row = EpochMetrics(
                epoch=epoch,
                services=services,
                nics_used=cluster.nics_used,
                arrivals=state.arrivals_since,
                departures=state.departures_since,
                migrations=started - state.migrations_at_probe,
                sla_violations=len(violated),
                violation_rate_pct=(
                    100.0 * len(violated) / services if services else 0.0
                ),
                utilisation_pct=(
                    100.0 * used_cores / total_cores if total_cores else 0.0
                ),
                wastage_pct=(
                    100.0 * (cluster.nics_used - min_nics) / min_nics
                    if min_nics
                    else 0.0
                ),
                aggregate_throughput_mpps=total_throughput,
            )
            report.fleet.metrics.append(row)
            obs.event(
                t, "epoch.metrics", chan="sim",
                epoch=row.epoch,
                services=row.services,
                nics_used=row.nics_used,
                arrivals=row.arrivals,
                departures=row.departures,
                migrations=row.migrations,
                sla_violations=row.sla_violations,
            )
            report.fleet.pools.extend(
                _pool_rows(cluster, self._provisioner, self._targets, epoch)
            )
            state.arrivals_since = 0
            state.departures_since = 0
            state.migrations_at_probe = started

        if probe_due:
            # Time-aware policy hooks; any migration they start is
            # observed at the next event (its completion at latest).
            if violated:
                self._policy.on_violation(
                    cluster, t, self._model, drops, violated
                )
            self._policy.on_probe(cluster, t, self._model, drops)
            self._launch_migrations(state)
            self._arm_new_nics(state)  # hooks may have spun up NICs

        if checkpoint is not None and grid_probe:
            checkpoint.maybe_save(int(t) + 1, state)

    def _arm_new_nics(self, state: FleetState) -> None:
        """Queue the drawn fault of every NIC provisioned since the last
        call; onset is relative to the spin-up instant, so every armed
        event lies strictly in the future."""
        if self._faults is None:
            return
        for nic in state.cluster.take_new_nics():
            fault = self._faults.nic_fault(nic.nic_id)
            if fault is not None:
                state.queue.push(
                    NicFail(
                        time=nic.spun_up_at + fault.after,
                        nic_id=nic.nic_id,
                        mode=fault.mode,
                        capacity=fault.capacity,
                        repair=fault.repair,
                    )
                )

    def _pop(self, state: FleetState) -> Event:
        """Pop the next event, recording it in the log and the counts."""
        event = state.queue.pop()
        report = state.report
        report.events_processed += 1
        name = type(event).__name__
        report.event_counts[name] = report.event_counts.get(name, 0) + 1
        report.event_log.append(f"{event.time:.6f} {event.describe()}")
        obs = self._obs
        if obs.enabled:
            # Engine channel: the queue is engine mechanics, but its
            # contents are pure simulation state — deterministic at any
            # runtime/worker count.
            obs.event(
                event.time, "event.pop", type=name,
                detail=event.describe(),
            )
        return event

    def _launch_migrations(self, state: FleetState) -> bool:
        """Schedule completions for migrations a policy just started.

        Timed migrations begin synchronously inside the policy (it
        mutates the cluster it was handed); the engine drains the
        cluster's pending list, logs a :class:`MigrationStart` marker
        per move and queues the matching :class:`MigrationComplete`.
        Returns whether anything was started.
        """
        report, obs = state.report, self._obs
        pending = state.cluster.take_pending_migrations()
        for record in pending:
            marker = MigrationStart(
                time=record.start_time,
                instance_id=record.instance_id,
                from_nic=record.from_nic,
                to_nic=record.to_nic,
                duration=record.duration,
            )
            name = type(marker).__name__
            report.event_counts[name] = report.event_counts.get(name, 0) + 1
            report.event_log.append(
                f"{marker.time:.6f} {marker.describe()}"
            )
            if obs.enabled:
                obs.event(
                    record.start_time, "migration.start",
                    instance=record.instance_id,
                    from_nic=record.from_nic,
                    to_nic=record.to_nic,
                    duration=record.duration,
                )
            state.queue.push(
                MigrationComplete(record.end_time, record.instance_id)
            )
        return bool(pending)


class FleetEngine(EventEngine):
    """The event loop fixed to :meth:`EventConfig.epoch_equivalent`.

    Takes :class:`EventEngine`'s arguments except ``config``;
    ``run(epochs)`` returns the epoch-grid :class:`FleetReport`.
    """

    def __init__(
        self,
        policy: FleetPolicy | str,
        churn: ChurnProcess,
        model: PlacementModel,
        **options,
    ) -> None:
        super().__init__(
            policy, churn, model, config=EventConfig.epoch_equivalent(),
            **options,
        )

    def run(
        self,
        epochs: int,
        checkpoint: Optional[Checkpointer] = None,
        resume: Optional[FleetState] = None,
    ) -> FleetReport:
        """Simulate ``epochs`` epochs; returns the scored trajectory
        (checkpoint/resume as in :meth:`EventEngine.run`)."""
        return self._simulate(float(epochs), checkpoint, resume).fleet


__all__ = [
    "EpochMetrics",
    "EventEngine",
    "EventReport",
    "FLEET_REPORT_SCHEMA_VERSION",
    "FleetEngine",
    "FleetReport",
    "FleetState",
    "ObservationRecord",
    "PoolMetrics",
]
