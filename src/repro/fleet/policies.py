"""Online placement and rebalancing policies for the fleet.

Two layers:

- :class:`PlacementModel` — the strategy predicates shared between the
  one-shot Table 6 scheduler (:mod:`repro.usecases.scheduling`) and the
  fleet: additive utilisation estimation (greedy), SLOMO predicted
  feasibility (memory-only) and Yala predicted feasibility
  (multi-resource). The predicates operate on any resident objects
  exposing ``nf_name`` / ``traffic`` / ``sla_drop_fraction`` —
  one-shot ``NfArrival`` records and fleet ``ServiceInstance``\\ s alike
  — and take an optional hardware ``target`` so heterogeneous pools
  evaluate every candidate NIC with the predictors trained for *its*
  hardware.
- :class:`FleetPolicy` subclasses — the online decision rules: where an
  arriving service goes (``choose_nic``) and, once per epoch, whether
  resident services should migrate (``rebalance``). The
  ``rebalance`` policy is the diagnosis-triggered one: it places like
  Yala, watches the previous epoch's measured drops, and migrates the
  bottlenecked NF of every SLA-violating NIC.

Every first-fit decision — fleet placement, rebalance migration
targets, and the Table 6 scheduler's greedy/SLOMO/Yala strategies —
goes through one scan, :func:`first_fit`. It takes the candidate cases
``(residents + [instance], target, capacity)`` in preference order and
a verdict over a chunk of them, and asks the verdict about chunks of
geometrically growing size (1, 4, 16, ...): a first candidate that fits
still costs one case, while a long walk past infeasible NICs costs a
logarithmic number of verdict calls. Yala's verdict
(:meth:`PlacementModel.predicted_feasible_yala_batch`) answers a whole
chunk with one joint predictor pass per hardware target and reads each
resident's solo throughput from that same pass. Per-case verdicts
(greedy's utilisation, SLOMO) are written as generators, which the scan
consumes only up to the first fit, so they never evaluate past it.
Verdicts are not cached: every probed mix contains the service being
placed, which is new to the fleet.

Under the continuous-time event engine policies additionally see
*time-aware hooks*: :meth:`FleetPolicy.on_probe` fires after every
scoring observation and :meth:`FleetPolicy.on_violation` whenever an
observation measures SLA violations — both carry the observation time
``t``, which may sit between epoch boundaries. The default hooks do
nothing (the epoch-equivalence contract requires it); the ``rebalance``
policy opts into mid-epoch reaction with ``react_at_probes=True``,
migrating violators the instant a probe sees them instead of waiting
for the next rebalance timer.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Protocol, Sequence

from repro.errors import ConfigurationError, PlacementError
from repro.fleet.cluster import Cluster, ServiceInstance
from repro.nf.catalog import shared_nf
from repro.nic.counters import PerfCounters
from repro.traffic.profile import TrafficProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.predictor import YalaSystem
    from repro.core.slomo import SlomoPredictor


class Resident(Protocol):
    """What the strategy predicates need to know about one service."""

    @property
    def nf_name(self) -> str: ...

    @property
    def traffic(self) -> TrafficProfile: ...

    @property
    def sla_drop_fraction(self) -> float: ...


#: One first-fit candidate: ``(residents + [instance], target, capacity)``.
Case = tuple[Sequence[Resident], Optional[str], float]

#: Chunk size growth of :func:`first_fit` (chunks of 1, 4, 16, ...).
_CHUNK_GROWTH = 4


def first_fit(
    cases: Sequence[Case],
    verdict: Callable[[Sequence[Case]], Iterable[bool]],
) -> Optional[int]:
    """Index of the first case ``verdict`` accepts, or ``None``.

    ``verdict`` maps a chunk of consecutive cases to one feasibility
    flag per case. Chunks grow geometrically (1, 4, 16, ...), so the
    answer is the same as asking case by case while a batched verdict
    pays one call per chunk. A chunk's flags are consumed in order and
    only up to the first accepted case: a verdict returning a generator
    evaluates nothing past the first fit.
    """
    start, size = 0, 1
    while start < len(cases):
        for offset, feasible in enumerate(verdict(cases[start : start + size])):
            if feasible:
                return start + offset
        start += size
        size *= _CHUNK_GROWTH
    return None


def _by_target(targets: Iterable[Optional[str]]) -> dict[Optional[str], list[int]]:
    """Positions of each target in ``targets``, first-seen target order."""
    groups: dict[Optional[str], list[int]] = {}
    for index, target in enumerate(targets):
        groups.setdefault(target, []).append(index)
    return groups


class _TargetModel:
    """One hardware target's predictors inside a :class:`PlacementModel`."""

    __slots__ = ("yala", "slomo", "collector", "nic")

    def __init__(self, yala, slomo, collector, nic) -> None:
        if yala is None and (collector is None or nic is None):
            raise ConfigurationError(
                "PlacementModel needs a YalaSystem or an explicit "
                "collector + nic (greedy/monopolization-only use)"
            )
        self.yala = yala
        self.slomo = slomo or {}
        self.collector = collector if collector is not None else yala.collector
        self.nic = nic if nic is not None else yala.nic


class PlacementModel:
    """Strategy predicates shared by Table 6 and the fleet policies.

    The model is **multi-target**: each registered hardware target has
    its own simulator, collector and trained predictors, and every
    predicate takes an optional ``target`` (a spec name) naming the
    hardware the candidate placement would run on. The constructor
    registers the first target — the *default*, used whenever ``target``
    is omitted, which keeps the one-shot Table 6 scheduler single-target
    — and :meth:`add_target` registers the rest of a heterogeneous
    fleet's pool.
    """

    def __init__(
        self,
        yala: Optional["YalaSystem"] = None,
        slomo_predictors: Optional[dict[str, "SlomoPredictor"]] = None,
        collector=None,
        nic=None,
    ) -> None:
        first = _TargetModel(yala, slomo_predictors, collector, nic)
        self._default = first.nic.spec.name
        self._targets: dict[str, _TargetModel] = {self._default: first}
        # greedy_utilisation is additive over residents, and placement
        # probes it once per candidate NIC per arrival — memoise the
        # per-resident bandwidth term (values come from the collector's
        # cached solo runs, so caching changes nothing numerically).
        self._mem_bw_cache: dict[tuple, float] = {}

    def add_target(
        self,
        yala: Optional["YalaSystem"] = None,
        slomo_predictors: Optional[dict[str, "SlomoPredictor"]] = None,
        collector=None,
        nic=None,
    ) -> str:
        """Register another hardware target's predictors; returns its name."""
        entry = _TargetModel(yala, slomo_predictors, collector, nic)
        name = entry.nic.spec.name
        if name in self._targets:
            raise ConfigurationError(f"target {name!r} is already registered")
        self._targets[name] = entry
        return name

    def _target(self, target: Optional[str]) -> _TargetModel:
        if target is None:
            target = self._default
        try:
            return self._targets[target]
        except KeyError:
            raise PlacementError(
                f"no placement model for target {target!r}; "
                f"registered: {sorted(self._targets)}"
            ) from None

    @property
    def target_names(self) -> tuple[str, ...]:
        """Registered targets, default first (registration order)."""
        return tuple(self._targets)

    @property
    def collector(self):
        return self._targets[self._default].collector

    def collector_for(self, target: Optional[str] = None):
        return self._target(target).collector

    @property
    def nic(self):
        return self._targets[self._default].nic

    def nic_for(self, target: Optional[str] = None):
        return self._target(target).nic

    # ------------------------------------------------------------------
    def solo_throughput(
        self, resident: Resident, target: Optional[str] = None
    ) -> float:
        """Measured solo throughput of one resident (collector-cached)."""
        return self._target(target).collector.solo(
            shared_nf(resident.nf_name), resident.traffic
        ).throughput_mpps

    def _resident_mem_bw(
        self, resident: Resident, entry: _TargetModel, target_name: str
    ) -> float:
        key = (target_name, resident.nf_name, resident.traffic)
        if key not in self._mem_bw_cache:
            counters = entry.collector.solo(
                shared_nf(resident.nf_name), resident.traffic
            ).counters
            self._mem_bw_cache[key] = (counters.memrd + counters.memwr) * 64.0
        return self._mem_bw_cache[key]

    def greedy_utilisation(
        self,
        residents: Sequence[Resident],
        target: Optional[str] = None,
        capacity: float = 1.0,
    ) -> float:
        """Additive utilisation estimate of one NIC (greedy's view).

        ``capacity`` is the NIC's usable fraction
        (:attr:`FleetNic.capacity_fraction
        <repro.fleet.cluster.FleetNic.capacity_fraction>`): a degraded
        NIC offers proportionally less bandwidth, so the same residents
        fill it sooner. At the healthy default the arithmetic is
        bit-identical to the capacity-blind estimate.
        """
        entry = self._target(target)
        name = target if target is not None else self._default
        mem_bw = 0.0
        for resident in residents:
            mem_bw += self._resident_mem_bw(resident, entry, name)
        if capacity != 1.0:
            return mem_bw / (entry.nic.spec.dram_bandwidth_bpus * capacity)
        return mem_bw / entry.nic.spec.dram_bandwidth_bpus

    def predict_mix_throughputs(
        self, mixes: Sequence[tuple[str, Sequence[tuple]]]
    ) -> list[Optional[list[float]]]:
        """Model-predicted per-service throughputs for colocation mixes.

        ``mixes`` are ``(target, placements)`` pairs, where
        ``placements`` is a sequence of ``(nf_name, traffic)`` pairs —
        exactly the scoring core's mix-key shape. One
        ``predict_colocation_batch`` call per target answers all of
        that target's mixes (bit-identical to one call per mix). An
        entry is ``None`` when its target carries no Yala predictor
        (the heuristic arms have no model to be wrong): telemetry's
        prediction-vs-ground-truth residuals simply stay empty there.
        Pure in the trained model and the mixes, so residual aggregates
        built on it are byte-deterministic across engines, runtimes and
        resume.
        """
        predictions: list[Optional[list[float]]] = [None] * len(mixes)
        for target, indices in _by_target(t for t, _ in mixes).items():
            yala = self._target(target).yala
            if yala is None:
                continue
            joint = yala.predict_colocation_batch(
                [(list(mixes[i][1]), None) for i in indices]
            )
            for i, predicted in zip(indices, joint):
                predictions[i] = predicted
        return predictions

    def predicted_feasible_yala(
        self,
        residents: Sequence[Resident],
        target: Optional[str] = None,
        capacity: float = 1.0,
    ) -> bool:
        """Every resident keeps its SLA according to Yala's predictions.

        On a degraded NIC (``capacity < 1``) every predicted throughput
        is scaled by the capacity fraction before the SLA check — the
        same derating ground-truth scoring applies — so feasibility
        probes see degraded hardware as the tighter fit it really is.
        A one-case :meth:`predicted_feasible_yala_batch`.
        """
        return self.predicted_feasible_yala_batch([(residents, target, capacity)])[0]

    def predicted_feasible_yala_batch(self, cases: Sequence[Case]) -> list[bool]:
        """Yala feasibility of several ``(residents, target, capacity)`` cases.

        Cases are grouped by target, and each target answers its group
        with one ``predict_colocation_batch_with_solos`` pass: the joint
        throughputs and each resident's solo throughput (bit-identical
        to ``predict_solo``) come from the same GBR evaluation. Batch
        rows are independent, so a case's verdict does not depend on
        the other cases: it equals :meth:`predicted_feasible_yala` on
        that case alone.
        """
        verdicts = [False] * len(cases)
        for target, indices in _by_target(c[1] for c in cases).items():
            yala = self._target(target).yala
            if yala is None:
                raise PlacementError("yala feasibility needs a trained YalaSystem")
            joint, solos = yala.predict_colocation_batch_with_solos(
                [([(r.nf_name, r.traffic) for r in cases[i][0]], None) for i in indices]
            )
            for i, predicted, solo in zip(indices, joint, solos):
                residents, _, capacity = cases[i]
                verdicts[i] = _keeps_slas(residents, predicted, solo, capacity)
        return verdicts

    def verdict(self, strategy: str) -> Callable[[Sequence[Case]], Iterable[bool]]:
        """The :func:`first_fit` verdict of one placement strategy.

        ``"yala"`` answers a whole chunk with
        :meth:`predicted_feasible_yala_batch`; ``"greedy"`` (estimated
        utilisation at most 1) and ``"slomo"`` judge case by case in a
        generator, so the scan evaluates nothing past the first fit.
        """
        if strategy == "yala":
            return self.predicted_feasible_yala_batch
        if strategy == "slomo":
            return lambda cases: (
                self.predicted_feasible_slomo(*case) for case in cases
            )
        if strategy == "greedy":
            return lambda cases: (
                self.greedy_utilisation(*case) <= 1.0 for case in cases
            )
        raise ConfigurationError(f"no placement verdict for {strategy!r}")

    def predicted_feasible_slomo(
        self,
        residents: Sequence[Resident],
        target: Optional[str] = None,
        capacity: float = 1.0,
    ) -> bool:
        """Every resident keeps its SLA according to SLOMO (memory-only).

        ``capacity`` derates the predicted throughputs exactly like
        :meth:`predicted_feasible_yala`.
        """
        entry = self._target(target)
        for i, resident in enumerate(residents):
            slomo = entry.slomo.get(resident.nf_name)
            if slomo is None:
                raise PlacementError(
                    f"no SLOMO predictor for {resident.nf_name!r}"
                )
            competitor_counters = [
                entry.collector.solo(shared_nf(r.nf_name), r.traffic).counters
                for j, r in enumerate(residents)
                if j != i
            ]
            aggregated = PerfCounters.aggregate(competitor_counters)
            predicted = slomo.predict(
                aggregated,
                resident.traffic,
                n_competitors=len(competitor_counters),
            )
            if capacity != 1.0:
                predicted = predicted * capacity
            solo = self.solo_throughput(resident, target)
            if max(0.0, 1.0 - predicted / solo) > resident.sla_drop_fraction:
                return False
        return True


def _keeps_slas(
    residents: Sequence[Resident],
    predicted: Sequence[float],
    solos: Sequence[float],
    capacity: float,
) -> bool:
    """Every resident's capacity-derated predicted drop is within its SLA."""
    for resident, throughput, solo in zip(residents, predicted, solos):
        if capacity != 1.0:
            throughput = throughput * capacity
        if max(0.0, 1.0 - throughput / solo) > resident.sla_drop_fraction:
            return False
    return True


# ----------------------------------------------------------------------
# Fleet policies
# ----------------------------------------------------------------------
class FleetPolicy:
    """Base online policy: placement plus (optional) rebalancing."""

    name = "base"

    def choose_nic(
        self, cluster: Cluster, instance: ServiceInstance, model: PlacementModel
    ) -> int | None:
        """NIC id the instance should join, or ``None`` for a new NIC."""
        raise NotImplementedError

    def rebalance(
        self,
        cluster: Cluster,
        epoch: int,
        model: PlacementModel,
        last_drops: dict[str, float],
    ) -> int:
        """Apply migrations for this epoch; returns how many moved."""
        return 0

    # ------------------------------------------------------------------
    # Time-aware hooks (continuous-time event engine)
    # ------------------------------------------------------------------
    def on_probe(
        self,
        cluster: Cluster,
        t: float,
        model: PlacementModel,
        drops: dict[str, float],
    ) -> int:
        """Called after every scored observation at time ``t``.

        ``drops`` are the freshly measured per-service throughput
        drops. May migrate (via ``cluster.migrate``); returns how many
        services moved. Default: none — the epoch-equivalence contract
        requires built-in policies to stay quiet here.
        """
        return 0

    def on_violation(
        self,
        cluster: Cluster,
        t: float,
        model: PlacementModel,
        drops: dict[str, float],
        violated: list[str],
    ) -> int:
        """Called when the observation at ``t`` measured SLA violations.

        ``violated`` lists the violating instance ids in scoring order.
        Runs before :meth:`on_probe`. Default: no reaction.
        """
        return 0

    # ------------------------------------------------------------------
    # Failover (fault injection)
    # ------------------------------------------------------------------
    def replace_evicted(
        self, cluster: Cluster, epoch: int, model: PlacementModel
    ) -> int:
        """Drain the re-placement queue of fault-evicted services.

        Each evicted service goes back through this policy's own
        ``choose_nic`` — failover is just placement again, so every
        policy self-heals with its usual strategy. Services the policy
        cannot place right now (e.g. every pod is down) stay queued and
        are retried at the next drain. Returns how many were re-placed.
        """
        placed = 0
        for entry in list(cluster.evicted):
            instance = entry.instance
            try:
                nic_id = self.choose_nic(cluster, instance, model)
                placed_on = cluster.place(instance, nic_id)
            except PlacementError:
                continue  # stays queued until capacity comes back
            cluster.record_replacement(instance.instance_id, placed_on)
            placed += 1
        return placed

    # ------------------------------------------------------------------
    def _open_nics(self, cluster: Cluster):
        """Non-full NICs in spin-up order (per-NIC capacity)."""
        return [
            nic
            for nic in cluster.nics
            if len(nic.residents) < nic.max_residents
        ]


def _first_fit_nic(nics, instance, verdict) -> int | None:
    """Id of the first of ``nics`` that ``verdict`` admits ``instance`` to."""
    index = first_fit(
        [
            (nic.residents + [instance], nic.target, nic.capacity_fraction)
            for nic in nics
        ],
        verdict,
    )
    return None if index is None else nics[index].nic_id


class MonopolizationPolicy(FleetPolicy):
    """One service per NIC: no contention, maximal wastage."""

    name = "monopolization"

    def choose_nic(self, cluster, instance, model):
        return None


class GreedyPolicy(FleetPolicy):
    """Utilisation-based first fit (E3/Meili style, contention-blind).

    Each candidate NIC is judged on its own hardware target, so a mixed
    pool falls back across targets naturally: when every NIC of one type
    is saturated, the first fit keeps walking into the other pool.
    """

    name = "greedy"

    def choose_nic(self, cluster, instance, model):
        candidates = sorted(
            self._open_nics(cluster),
            key=lambda nic: (
                len(nic.residents),
                model.greedy_utilisation(
                    nic.residents, nic.target, nic.capacity_fraction
                ),
            ),
        )
        return _first_fit_nic(candidates, instance, model.verdict("greedy"))


class _PredictedFeasibilityPolicy(FleetPolicy):
    """First fit over the fullest NICs whose prediction keeps all SLAs.

    Feasibility is evaluated per candidate NIC on that NIC's hardware
    target (its spec names the trained predictors to consult), so
    heterogeneous pools pick whichever hardware still has predicted
    head-room.
    """

    #: The :meth:`PlacementModel.verdict` strategy judging candidates.
    strategy = ""

    def choose_nic(self, cluster, instance, model):
        candidates = sorted(
            self._open_nics(cluster), key=lambda nic: -len(nic.residents)
        )
        return _first_fit_nic(candidates, instance, model.verdict(self.strategy))


class SlomoPolicy(_PredictedFeasibilityPolicy):
    name = strategy = "slomo"


class YalaPolicy(_PredictedFeasibilityPolicy):
    name = strategy = "yala"


class DiagnosisRebalancePolicy(YalaPolicy):
    """Yala placement plus diagnosis-triggered migration (§7.5.2 online).

    After every scored epoch the engine hands the policy the measured
    per-service throughput drops. For each NIC hosting an SLA violation
    the policy migrates the *bottlenecked NF* — the resident with the
    worst measured drop — to the fullest NIC where Yala predicts all
    SLAs hold, or to a fresh NIC when no such target exists.

    Under a non-flat :class:`~repro.fleet.topology.Topology` the policy
    is **topology-aware** (``pod_local_preference``, on by default):
    candidate NICs in the violating NIC's own pod are tried before any
    cross-pod candidate (fullest-first within each tier), because a
    cross-pod move copies service state over the fabric and can carry a
    longer timed-migration cost
    (``EventConfig.cross_pod_migration_duration``). On a flat topology
    every NIC shares pod 0, so the preference is inert and the candidate
    order — and therefore every report — is unchanged.
    """

    name = "rebalance"

    def __init__(
        self,
        max_migrations_per_epoch: int = 4,
        react_at_probes: bool = False,
        pod_local_preference: bool = True,
    ) -> None:
        if max_migrations_per_epoch < 1:
            raise ConfigurationError("max_migrations_per_epoch must be >= 1")
        self._max_migrations = max_migrations_per_epoch
        self._react_at_probes = react_at_probes
        self._pod_local = pod_local_preference

    def rebalance(self, cluster, epoch, model, last_drops):
        return self._migrate_violators(cluster, epoch, model, last_drops)

    def on_violation(self, cluster, t, model, drops, violated):
        """React mid-epoch (opt-in): migrate violators the moment a
        probe measures them instead of waiting for the next timer."""
        if not self._react_at_probes:
            return 0
        return self._migrate_violators(
            cluster, int(math.floor(t)), model, drops
        )

    def _migrate_violators(self, cluster, epoch, model, drops):
        moved = 0
        # A migrated service carries its stale measured drop until the
        # next scoring, so exclude it from later NICs' violation scans —
        # otherwise one service could ping-pong through the whole
        # migration budget in a single epoch.
        relocated: set[str] = set()
        for nic in cluster.nics:  # snapshot: migrations mutate the fleet
            if moved >= self._max_migrations:
                break
            if len(nic.residents) < 2:
                # A solo resident cannot be in contention; a stale
                # violating drop from a departed co-runner's epoch
                # must not trigger a pointless migration.
                continue
            violated = [
                r
                for r in nic.residents
                if r.instance_id not in relocated
                and not cluster.is_migrating(r.instance_id)
                and drops.get(r.instance_id, 0.0) > r.sla_drop_fraction
            ]
            if not violated:
                continue
            worst = max(
                violated, key=lambda r: drops[r.instance_id]
            )
            home_pod = cluster.pod_of(nic.nic_id)
            candidates = sorted(
                (
                    n
                    for n in cluster.nics
                    if n.nic_id != nic.nic_id
                    and len(n.residents) < n.max_residents
                ),
                # Pod-local candidates first (cross-pod moves cost
                # more), fullest-first within each tier; on a flat
                # topology the first component is constant and the
                # order is the historical one.
                key=lambda n: (
                    (
                        0
                        if not self._pod_local
                        or cluster.pod_of(n.nic_id) == home_pod
                        else 1
                    ),
                    -len(n.residents),
                ),
            )
            target = _first_fit_nic(candidates, worst, model.verdict("yala"))
            relocated.add(worst.instance_id)
            cluster.migrate(
                worst.instance_id, target, epoch, reason="sla-violation"
            )
            moved += 1
        return moved


#: Policy names the fleet CLI and experiment accept.
FLEET_POLICY_NAMES: tuple[str, ...] = (
    "monopolization",
    "greedy",
    "slomo",
    "yala",
    "rebalance",
)

_POLICIES = {
    "monopolization": MonopolizationPolicy,
    "greedy": GreedyPolicy,
    "slomo": SlomoPolicy,
    "yala": YalaPolicy,
    "rebalance": DiagnosisRebalancePolicy,
}


def make_policy(name: str, **params) -> FleetPolicy:
    """Instantiate a fleet policy by name."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {name!r}; known: {FLEET_POLICY_NAMES}"
        ) from None
    return cls(**params)
