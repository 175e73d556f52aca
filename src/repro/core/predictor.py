"""The Yala predictor (§3): per-NF models plus system-level prediction.

:class:`YalaPredictor` bundles everything Yala learns about one NF
offline: its detected execution pattern, the traffic-aware memory model
and the white-box accelerator models. :class:`YalaSystem` manages a
fleet of trained predictors and answers the question operators actually
ask: *"if I put these NFs together on one NIC, what throughput will each
get?"* — resolved as a small fixed point over the per-NF predictions,
because each NF's accelerator pressure depends on its own predicted
rate.

Hot-path notes:

- :meth:`YalaPredictor.predict_many` batches whole scenario sweeps
  through the memory model, bit-identical to looping
  :meth:`YalaPredictor.predict`.
- The colocation fixed point evaluates the memory model once per
  target instead of once per iteration, and builds one batch per
  predictor across all requests.
- The accelerator side is split into a plan and an evaluation. The plan
  (``YalaPredictor._plan``) holds what no offered rate changes: per
  accelerator, the NF's own share and solo rate and every competitor's
  named share. It is built once per placement. Each fixed-point
  iteration only fills in the competitors' offered rates, water-fills
  and composes (``YalaPredictor._evaluate``).
  :meth:`YalaPredictor.predict_many` runs the same pair, so there is
  one implementation.
- NF competitors' solo counters come from the collector's cache, keyed
  by the NF objects the system's predictors already hold
  (:meth:`YalaSystem.nf_of`), not by rebuilt ones.
- :meth:`YalaSystem.train` accepts ``jobs`` for process-parallel per-NF
  training with deterministic (seed-derived) results.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

from repro.core.accel_model import (
    AcceleratorShare,
    QueueingAcceleratorModel,
    waterfill_rates,
)
from repro.core.composition import (
    PatternDetectionResult,
    compose,
    detect_execution_pattern,
)
from repro.core.memory_model import MemoryContentionModel
from repro.errors import ConfigurationError, ModelNotFittedError, ProfilingError
from repro.nf.catalog import make_nf
from repro.nf.framework import NetworkFunction
from repro.nic.counters import PerfCounters
from repro.nic.nic import SmartNic
from repro.nic.spec import COMPRESSION, REGEX
from repro.nic.workload import ExecutionPattern
from repro.profiling.adaptive import AdaptiveProfiler, AdaptiveProfilingReport
from repro.profiling.collector import ProfilingCollector
from repro.profiling.contention import ContentionLevel
from repro.rng import SeedLike, derive_seed, make_rng, normalize_seed
from repro.traffic.profile import TrafficProfile

#: Iterations of the system-level prediction fixed point.
_JOINT_ITERATIONS = 10


class _AcceleratorPlan(NamedTuple):
    """One accelerator's loop-invariant inputs to a prediction.

    ``competitors`` pairs each competitor's share, named
    ``f"{name}#{index}"`` by competitor index so that two benches or two
    NFs of a kind stay distinct clients, with the key of its offered
    rate: ``None`` for a bench, whose share is final; for an NF the
    share is completed per evaluation with the rate stored under that
    key.
    """

    target: AcceleratorShare
    solo_rate: float
    competitors: tuple[tuple[AcceleratorShare, Optional[int]], ...]


class _PlanEntry(NamedTuple):
    """Per-placement evaluation plan of ``predict_colocation_batch``.

    ``solo_slot``/``memory_slot`` index the predictor's batched
    memory-model evaluation (solo slots are shared across cases with
    the same traffic); ``accelerators`` is the placement's
    :meth:`YalaPredictor._plan`, keyed by placement index.
    """

    name: str
    predictor: "YalaPredictor"
    accelerators: list[_AcceleratorPlan]
    solo_slot: int
    memory_slot: int


@dataclass(frozen=True)
class CompetitorSpec:
    """A co-located competitor as the predictor sees it.

    Either a catalogued NF at some traffic profile, or a synthetic bench
    at a contention level (used in microbenchmark experiments).
    """

    kind: str  # "nf" | "bench"
    nf_name: str = ""
    traffic: TrafficProfile = TrafficProfile()
    contention: Optional[ContentionLevel] = None

    def __post_init__(self) -> None:
        if self.kind not in ("nf", "bench"):
            raise ConfigurationError(f"unknown competitor kind {self.kind!r}")
        if self.kind == "nf" and not self.nf_name:
            raise ConfigurationError("nf competitor needs a name")
        if self.kind == "bench" and self.contention is None:
            raise ConfigurationError("bench competitor needs a contention level")

    @staticmethod
    def nf(name: str, traffic: TrafficProfile | None = None) -> "CompetitorSpec":
        return CompetitorSpec(
            kind="nf", nf_name=name, traffic=traffic or TrafficProfile()
        )

    @staticmethod
    def bench(contention: ContentionLevel) -> "CompetitorSpec":
        return CompetitorSpec(kind="bench", contention=contention)


class YalaPredictor:
    """Everything Yala knows about one NF after offline profiling."""

    def __init__(
        self,
        nf: NetworkFunction,
        collector: ProfilingCollector,
        seed: SeedLike = None,
    ) -> None:
        self.nf = nf
        self.nf_name = nf.name
        self._collector = collector
        # Honour the full SeedLike contract (int, Generator, or None)
        # instead of silently replacing non-int seeds with a name-derived
        # constant.
        base = normalize_seed(seed)
        self._seed = base if base is not None else derive_seed(0x1A1A, nf.name)
        self.pattern: Optional[ExecutionPattern] = None
        self.pattern_detection: Optional[PatternDetectionResult] = None
        self.memory_model: Optional[MemoryContentionModel] = None
        self.accel_models: dict[str, QueueingAcceleratorModel] = {}
        self.profiling_report: Optional[AdaptiveProfilingReport] = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(
        self,
        quota: int = 400,
        traffic_aware: bool = True,
        base_traffic: TrafficProfile = TrafficProfile(),
        detect_pattern: bool = True,
    ) -> "YalaPredictor":
        """Run the full offline pipeline: pattern, accel models, memory."""
        if detect_pattern:
            self.pattern_detection = detect_execution_pattern(
                self._collector, self.nf, base_traffic
            )
            self.pattern = self.pattern_detection.pattern
        else:
            self.pattern = self.nf.pattern

        for accelerator in self.nf.uses_accelerators(base_traffic):
            model = QueueingAcceleratorModel(self.nf_name, accelerator)
            model.fit(self._collector, self.nf, base_traffic=base_traffic)
            self.accel_models[accelerator] = model

        profiler = AdaptiveProfiler(
            self._collector,
            quota=quota,
            seed=make_rng(derive_seed(self._seed, "adaptive")),
        )
        self.profiling_report = profiler.profile(self.nf, base_traffic=base_traffic)
        self.memory_model = MemoryContentionModel(
            self.nf_name,
            traffic_aware=traffic_aware,
            seed=make_rng(derive_seed(self._seed, "gbr")),
        )
        self.memory_model.fit(self.profiling_report.dataset)
        return self

    @classmethod
    def train_for(
        cls,
        nf_name: str,
        nic: SmartNic,
        seed: SeedLike = None,
        quota: int = 400,
        traffic_aware: bool = True,
    ) -> "YalaPredictor":
        """Convenience constructor: build NF, collector, and train."""
        collector = ProfilingCollector(nic)
        seed_int = normalize_seed(seed)
        if seed_int is None:
            seed_int = derive_seed(0x1A1A, nf_name)
        predictor = cls(make_nf(nf_name), collector, seed=seed_int)
        return predictor.train(quota=quota, traffic_aware=traffic_aware)

    # ------------------------------------------------------------------
    # Per-resource predictions
    # ------------------------------------------------------------------
    def predict_solo(self, traffic: TrafficProfile) -> float:
        """Predicted solo throughput at ``traffic``."""
        if self.memory_model is None:
            raise ModelNotFittedError(f"{self.nf_name}: train() first")
        return self.memory_model.predict_solo(traffic)

    def _accelerator_throughput(
        self,
        accelerator: str,
        traffic: TrafficProfile,
        competitor_shares: list[AcceleratorShare],
        solo: float,
    ) -> float:
        """End-to-end throughput if only ``accelerator`` were contended."""
        model = self.accel_models[accelerator]
        return self._pattern_throughput(
            solo,
            model.solo_rate(traffic),
            model.contended_rate(traffic, competitor_shares),
        )

    def _pattern_throughput(
        self, solo: float, rate_solo: float, rate_contended: float
    ) -> float:
        """End-to-end throughput from an accelerator's service rates.

        The queueing model yields resource-level rates; the conversion
        to end-to-end depends on the execution pattern:

        - pipeline: the stage capacity bounds throughput directly;
        - run-to-completion: the per-packet accelerator time grows from
          ``1/R_solo`` to ``1/R_cont`` inside the additive time budget.
        """
        if self.pattern is ExecutionPattern.PIPELINE:
            return min(solo, rate_contended)
        inverse = 1.0 / solo + max(0.0, 1.0 / rate_contended - 1.0 / rate_solo)
        return min(solo, 1.0 / inverse)

    # ------------------------------------------------------------------
    # Competitor feature assembly
    # ------------------------------------------------------------------
    def _bench_share(
        self, accelerator: str, contention: ContentionLevel
    ) -> Optional[AcceleratorShare]:
        """A bench competitor's demand on ``accelerator``, if any."""
        if accelerator == REGEX and contention.regex_rate > 0:
            time_us = (
                0.010
                + contention.regex_payload_bytes / 2000.0
                + contention.regex_payload_bytes * contention.regex_mtbr / 1e6 * 0.250
            )
            return AcceleratorShare(
                name="regex-bench",
                n_queues=1,
                request_time_us=time_us,
                offered_rate=contention.regex_rate,
            )
        if accelerator == COMPRESSION and contention.compression_rate > 0:
            time_us = 0.040 + contention.compression_payload_bytes / 1500.0
            return AcceleratorShare(
                name="compression-bench",
                n_queues=1,
                request_time_us=time_us,
                offered_rate=contention.compression_rate,
            )
        return None

    def competitor_counters(
        self,
        competitors: list[CompetitorSpec],
        system: Optional["YalaSystem"] = None,
    ) -> PerfCounters:
        """Aggregate solo counter vector of ``competitors``.

        Bench competitors are sized with the same core budget the
        profiling co-runs gave them (``num_cores`` minus this NF's
        cores), keeping predict-time features consistent with the
        training features in :class:`ProfilingCollector.profile_one`.
        NF competitors are measured solo; their NF objects come from
        ``system`` (:meth:`YalaSystem.nf_of`) when given.
        """
        bench_budget = self._collector.nic.spec.num_cores - self.nf.cores
        nf_of = make_nf if system is None else system.nf_of
        samples = []
        for spec in competitors:
            if spec.kind == "bench":
                samples.append(
                    self._collector.bench_counters(spec.contention, bench_budget)
                )
            else:
                samples.append(
                    self._collector.solo(nf_of(spec.nf_name), spec.traffic).counters
                )
        return PerfCounters.aggregate(samples)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(
        self,
        traffic: TrafficProfile,
        competitors: list[CompetitorSpec] | None = None,
        system: Optional["YalaSystem"] = None,
    ) -> float:
        """Predict this NF's throughput when co-located with ``competitors``.

        NF competitors' accelerator parameters come from their own
        trained models via ``system``; they are assumed to saturate
        their queues (Eq. 1).
        """
        return self.predict_many(
            [(traffic, list(competitors or []))], system=system
        )[0]

    def predict_many(
        self,
        requests: list[tuple[TrafficProfile, list[CompetitorSpec]]],
        system: Optional["YalaSystem"] = None,
    ) -> list[float]:
        """Predict several ``(traffic, competitors)`` scenarios at once.

        Matches a loop of :meth:`predict` calls bit-for-bit, but routes
        all memory-model evaluations (two GBR passes per scenario)
        through one batched call each, so experiment sweeps stop paying
        the per-call scaler/ensemble dispatch overhead thousands of
        times.
        """
        if self.memory_model is None or self.pattern is None:
            raise ModelNotFittedError(f"{self.nf_name}: train() first")
        if not requests:
            return []

        traffics = [traffic for traffic, _ in requests]
        counters_list = []
        n_competitors_list = []
        for _, competitors in requests:
            counters_list.append(self.competitor_counters(competitors, system))
            n_competitors_list.append(
                sum(
                    spec.contention.actor_count if spec.kind == "bench" else 1
                    for spec in competitors
                )
            )
        solos = self.memory_model.predict_batch(
            [PerfCounters.zero()] * len(requests),
            traffics,
            [0] * len(requests),
        )
        memory = self.memory_model.predict_batch(
            counters_list, traffics, n_competitors_list
        )
        return [
            self._evaluate(
                self._plan(traffic, competitors, system),
                float(solos[i]),
                float(memory[i]),
                {},
            )
            for i, (traffic, competitors) in enumerate(requests)
        ]

    def _plan(
        self,
        traffic: TrafficProfile,
        competitors: list[CompetitorSpec],
        system: Optional["YalaSystem"],
        rate_keys: Optional[list[int]] = None,
    ) -> list[_AcceleratorPlan]:
        """The accelerator inputs of a prediction that no rate changes.

        Per accelerator: this NF's share and solo rate, and every
        competitor's share. NF competitor ``index`` reads its offered
        rate under ``rate_keys[index]`` (default: ``index``); without a
        ``system`` NF competitors' accelerator demand is unknown and
        they are left out.
        """
        plan = []
        for accelerator, model in self.accel_models.items():
            entries = []
            for index, spec in enumerate(competitors):
                if spec.kind == "bench":
                    share = self._bench_share(accelerator, spec.contention)
                    if share is not None:
                        entries.append(
                            (replace(share, name=f"{share.name}#{index}"), None)
                        )
                    continue
                if system is None:
                    continue
                peer = system.predictor_of(spec.nf_name).accel_models.get(accelerator)
                if peer is None:
                    continue
                share = peer.share(spec.traffic)
                # Disambiguate duplicate NFs in one co-location.
                entries.append(
                    (
                        AcceleratorShare(
                            name=f"{share.name}#{index}",
                            n_queues=share.n_queues,
                            request_time_us=share.request_time_us,
                        ),
                        index if rate_keys is None else rate_keys[index],
                    )
                )
            plan.append(
                _AcceleratorPlan(
                    target=model.share(traffic),
                    solo_rate=model.solo_rate(traffic),
                    competitors=tuple(entries),
                )
            )
        return plan

    def _evaluate(
        self,
        plan: list[_AcceleratorPlan],
        solo: float,
        memory_throughput: float,
        rates: dict[int, float],
    ) -> float:
        """Compose one prediction from its plan and the offered rates.

        Each NF competitor offers ``rates.get(key)`` (``None``: it keeps
        its queues saturated, Eq. 1).
        """
        per_resource = [memory_throughput]
        for target, solo_rate, competitors in plan:
            shares = [target]
            for share, key in competitors:
                if key is not None:
                    share = AcceleratorShare(
                        name=share.name,
                        n_queues=share.n_queues,
                        request_time_us=share.request_time_us,
                        offered_rate=rates.get(key),
                    )
                shares.append(share)
            per_resource.append(
                self._pattern_throughput(
                    solo, solo_rate, waterfill_rates(shares)[target.name]
                )
            )
        return compose(self.pattern, solo, per_resource)


def _train_predictor_worker(
    nic: SmartNic,
    nf_name: str,
    seed: int,
    quota: int,
    traffic_aware: bool,
) -> "YalaPredictor":
    """Train one NF's predictor in a worker process.

    The worker gets its own collector (caches are process-local); the
    simulator derives measurement noise per workload set, so results
    match an in-process run exactly.
    """
    predictor = YalaPredictor(make_nf(nf_name), ProfilingCollector(nic), seed=seed)
    return predictor.train(quota=quota, traffic_aware=traffic_aware)


class YalaSystem:
    """A fleet of trained Yala predictors with joint prediction."""

    def __init__(
        self,
        nic: SmartNic,
        seed: SeedLike = None,
        quota: int = 400,
        traffic_aware: bool = True,
    ) -> None:
        self._nic = nic
        self._collector = ProfilingCollector(nic)
        base = normalize_seed(seed)
        self._seed = base if base is not None else 0x1A1A
        self._quota = quota
        self._traffic_aware = traffic_aware
        self._predictors: dict[str, YalaPredictor] = {}

    @property
    def collector(self) -> ProfilingCollector:
        return self._collector

    @property
    def nic(self) -> SmartNic:
        return self._nic

    # ------------------------------------------------------------------
    def train(self, nf_names: list[str], jobs: int = 1) -> "YalaSystem":
        """Train predictors for every NF in ``nf_names``.

        ``jobs > 1`` trains the NFs in parallel worker processes. Each
        NF's training is already driven by its own derived seed and the
        simulator is deterministic, so the trained predictors (and every
        downstream prediction) are identical to a serial run; workers'
        predictors are re-attached to this system's shared collector
        when they return.

        Training profiles through the collector's batch paths
        (``profile_many`` over the accelerator-calibration and
        pattern-detection grids).
        """
        pending = [name for name in nf_names if name not in self._predictors]
        if jobs > 1 and len(pending) > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
                futures = {
                    name: pool.submit(
                        _train_predictor_worker,
                        self._nic,
                        name,
                        derive_seed(self._seed, name),
                        self._quota,
                        self._traffic_aware,
                    )
                    for name in pending
                }
                for name in pending:
                    predictor = futures[name].result()
                    predictor._collector = self._collector
                    self._predictors[name] = predictor
            return self
        for name in pending:
            self.train_one(name)
        return self

    def train_one(self, nf_name: str, seed: SeedLike = None) -> YalaPredictor:
        """Train (or return) the predictor of one NF.

        The default seed is the system's per-NF derivation
        (``derive_seed(system_seed, nf_name)``, exactly what
        :meth:`train` uses); an explicit ``seed`` lets callers pin a
        historical stream — the multi-target experiment context uses
        this to keep Table 9's Pensando predictor bit-identical to its
        pre-refactor standalone training. Requesting an explicit seed
        for an NF that already trained under a *different* seed raises:
        silently returning the differently-seeded predictor would break
        the caller's bit-exactness expectation.
        """
        seed_int = normalize_seed(seed)
        if nf_name in self._predictors:
            cached = self._predictors[nf_name]
            if seed_int is not None and cached._seed != seed_int:
                raise ConfigurationError(
                    f"{nf_name!r} is already trained with seed "
                    f"{cached._seed}; request explicit seed streams "
                    "before the first training"
                )
            return cached
        if seed_int is None:
            seed_int = derive_seed(self._seed, nf_name)
        predictor = YalaPredictor(
            make_nf(nf_name), self._collector, seed=seed_int
        )
        predictor.train(quota=self._quota, traffic_aware=self._traffic_aware)
        self._predictors[nf_name] = predictor
        return predictor

    def predictor_of(self, nf_name: str) -> YalaPredictor:
        try:
            return self._predictors[nf_name]
        except KeyError:
            raise ProfilingError(
                f"no trained predictor for {nf_name!r}; trained: "
                f"{sorted(self._predictors)}"
            ) from None

    def nf_of(self, nf_name: str) -> NetworkFunction:
        """The catalogued NF ``nf_name``, as its trained predictor holds it.

        Falls back to building it when no predictor of that name is
        trained; the NF is immutable, so either object measures alike.
        """
        predictor = self._predictors.get(nf_name)
        return make_nf(nf_name) if predictor is None else predictor.nf

    @property
    def trained_names(self) -> list[str]:
        return sorted(self._predictors)

    # ------------------------------------------------------------------
    def predict(
        self,
        target_name: str,
        traffic: TrafficProfile,
        competitors: list[CompetitorSpec] | None = None,
    ) -> float:
        """Predict one NF's throughput in a co-location."""
        placements = [(target_name, traffic)] + [
            (c.nf_name, c.traffic) for c in (competitors or []) if c.kind == "nf"
        ]
        benches = [c for c in (competitors or []) if c.kind == "bench"]
        joint = self.predict_colocation(placements, benches)
        return joint[0]

    def predict_batch(
        self,
        cases: list[tuple[str, TrafficProfile, list[CompetitorSpec]]],
    ) -> list[float]:
        """Predict many ``(target, traffic, competitors)`` cases at once.

        Matches a loop of :meth:`predict` calls bit-for-bit; the
        per-case memory-model evaluations are grouped into one
        :meth:`MemoryContentionModel.predict_batch` call per involved
        predictor (see :meth:`predict_colocation_batch`).
        """
        requests = []
        for target_name, traffic, competitors in cases:
            competitors = list(competitors or [])
            placements = [(target_name, traffic)] + [
                (c.nf_name, c.traffic) for c in competitors if c.kind == "nf"
            ]
            benches = [c for c in competitors if c.kind == "bench"]
            requests.append((placements, benches))
        return [joint[0] for joint in self.predict_colocation_batch(requests)]

    def predict_colocation(
        self,
        placements: list[tuple[str, TrafficProfile]],
        benches: list[CompetitorSpec] | None = None,
    ) -> list[float]:
        """Predict throughput of every NF in a joint placement.

        Runs a short fixed point: each NF's prediction feeds back as its
        offered accelerator rate in the others' predictions, because an
        NF that is bottlenecked elsewhere does not saturate its
        accelerator queues.
        """
        return self.predict_colocation_batch([(placements, benches)])[0]

    def predict_colocation_batch(
        self,
        requests: list[
            tuple[
                list[tuple[str, TrafficProfile]],
                list[CompetitorSpec] | None,
            ]
        ],
    ) -> list[list[float]]:
        """Joint predictions for several placements at once.

        Bit-identical to looping :meth:`predict_colocation`: the
        per-placement solo and memory evaluations — the expensive GBR
        passes — are batched into one
        :meth:`MemoryContentionModel.predict_batch` call per predictor
        across the *whole* request set, and only the cheap accelerator
        fixed point runs per case. The memory model sees only counters
        and traffic, so its output is loop-invariant and evaluates once
        per target instead of once per fixed-point iteration.
        """
        return self.predict_colocation_batch_with_solos(requests)[0]

    def predict_colocation_batch_with_solos(
        self,
        requests: list[
            tuple[
                list[tuple[str, TrafficProfile]],
                list[CompetitorSpec] | None,
            ]
        ],
    ) -> tuple[list[list[float]], list[list[float]]]:
        """:meth:`predict_colocation_batch` plus every placement's solo.

        Returns ``(joint, solos)``, both shaped like the request list.
        ``solos[k][i]`` is the predicted solo throughput of placement
        ``i`` of request ``k``: the zero-contention row the joint pass
        evaluates anyway to seed its fixed point. It is the same
        feature row :meth:`YalaPredictor.predict_solo` builds, and batch
        rows are independent, so the value is bit-identical to that
        call — callers comparing joint against solo throughput (drop
        checks) need no second GBR pass.
        """
        if not requests:
            return [], []
        # Phase 1: assemble the per-predictor memory-model batches and a
        # per-case evaluation plan referencing slots in those batches.
        # Solo rows are keyed by (predictor, traffic): a sweep repeats
        # the same solo evaluation across many cases, and predict_batch
        # is row-wise independent, so sharing the slot changes nothing
        # numerically while halving the batch for typical case lists.
        batches: dict[str, tuple[list, list, list]] = {}
        solo_slots: dict[tuple[str, TrafficProfile], int] = {}

        def enqueue(name, counters, traffic, n_competitors) -> int:
            rows = batches.setdefault(name, ([], [], []))
            rows[0].append(counters)
            rows[1].append(traffic)
            rows[2].append(n_competitors)
            return len(rows[0]) - 1

        plans = []
        for placements, benches in requests:
            benches = list(benches or [])
            peers = [CompetitorSpec.nf(name, traffic) for name, traffic in placements]
            slots = list(range(len(placements)))
            entries = []
            for i, (name, traffic) in enumerate(placements):
                predictor = self.predictor_of(name)
                if predictor.memory_model is None:
                    raise ModelNotFittedError(f"{name}: train() first")
                competitors = peers[:i] + peers[i + 1 :] + benches
                peer_slots = slots[:i] + slots[i + 1 :]
                counters = predictor.competitor_counters(competitors, self)
                n_competitors = sum(
                    spec.contention.actor_count if spec.kind == "bench" else 1
                    for spec in competitors
                )
                solo_key = (name, traffic)
                solo_slot = solo_slots.get(solo_key)
                if solo_slot is None:
                    solo_slot = enqueue(name, PerfCounters.zero(), traffic, 0)
                    solo_slots[solo_key] = solo_slot
                memory_slot = enqueue(name, counters, traffic, n_competitors)
                entries.append(
                    _PlanEntry(
                        name=name,
                        predictor=predictor,
                        # NF peers read their offered rate from the
                        # fixed point's rate of their placement slot.
                        accelerators=predictor._plan(
                            traffic, competitors, self, rate_keys=peer_slots
                        ),
                        solo_slot=solo_slot,
                        memory_slot=memory_slot,
                    )
                )
            plans.append(entries)

        # Phase 2: one batched GBR evaluation per involved predictor.
        evaluated = {
            name: self.predictor_of(name).memory_model.predict_batch(*rows)
            for name, rows in batches.items()
        }

        # Phase 3: the accelerator fixed point, per case.
        results = []
        solo_rows = []
        for entries in plans:
            solos = [
                float(evaluated[entry.name][entry.solo_slot])
                for entry in entries
            ]
            solo_rows.append(solos)
            memories = [
                float(evaluated[entry.name][entry.memory_slot])
                for entry in entries
            ]
            rates = list(solos)
            for _ in range(_JOINT_ITERATIONS):
                by_slot = dict(enumerate(rates))
                updated = [
                    entry.predictor._evaluate(
                        entry.accelerators, solos[i], memories[i], by_slot
                    )
                    for i, entry in enumerate(entries)
                ]
                if not updated:
                    break
                if max(
                    abs(u - r) / max(u, 1e-9) for u, r in zip(updated, rates)
                ) < 1e-6:
                    rates = updated
                    break
                rates = updated
            results.append(rates)
        return results, solo_rows
