"""Contention-aware NF scheduling onto a SmartNIC cluster (§7.5.1).

The operator places arriving NFs one by one onto a growing pool of
SmartNICs, maximising utilisation while keeping every NF's throughput
drop within its SLA. Strategies:

- **monopolization** — one NF per NIC (no contention, huge wastage);
- **greedy** — utilisation-based first-available placement in the style
  of E3/Meili [47, 60]: additive resource-vector feasibility, most
  head-room first; no contention awareness;
- **slomo** — contention-aware via SLOMO predictions (memory-only);
- **yala** — contention-aware via Yala's multi-resource predictions.

Outcomes are scored against ground truth (the simulator actually runs
each NIC's final residents) for SLA violations, and against an oracle
packing for resource wastage, mirroring Table 6. The paper's "optimal"
is an offline exhaustive search; at 500 arrivals that is infeasible, so
the oracle here is best-fit-decreasing with true-simulation feasibility
checks plus a repacking pass — documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.predictor import YalaSystem
from repro.core.slomo import SlomoPredictor
from repro.errors import ConfigurationError
from repro.fleet.policies import PlacementModel, first_fit
from repro.nf.catalog import EVALUATION_NF_NAMES, make_nf
from repro.rng import SeedLike, make_rng
from repro.traffic.profile import TrafficProfile

#: Cores every NF instance occupies (the paper gives each NF two).
_CORES_PER_NF = 2


@dataclass(frozen=True)
class NfArrival:
    """One NF arriving to the cluster with its SLA."""

    nf_name: str
    sla_drop_fraction: float  # max allowed throughput drop vs solo
    traffic: TrafficProfile = TrafficProfile()

    def __post_init__(self) -> None:
        if not 0.0 < self.sla_drop_fraction < 1.0:
            raise ConfigurationError("SLA drop fraction must be in (0, 1)")


def random_arrivals(
    count: int,
    seed: SeedLike = None,
    nf_names: tuple[str, ...] = EVALUATION_NF_NAMES,
    sla_range: tuple[float, float] = (0.05, 0.20),
) -> list[NfArrival]:
    """A random arrival sequence (paper: 500 NFs, SLA 5-20% drop)."""
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    rng = make_rng(seed)
    return [
        NfArrival(
            nf_name=str(rng.choice(nf_names)),
            sla_drop_fraction=float(rng.uniform(*sla_range)),
        )
        for _ in range(count)
    ]


@dataclass
class PlacementOutcome:
    """Result of placing one arrival sequence with one strategy."""

    strategy: str
    nics_used: int
    violations: int
    total_nfs: int
    assignments: list[list[int]] = field(default_factory=list)  # arrival idx per NIC

    @property
    def violation_rate_pct(self) -> float:
        return 100.0 * self.violations / self.total_nfs if self.total_nfs else 0.0

    def wastage_pct(self, oracle_nics: int) -> float:
        """Extra NICs used relative to the oracle packing, percent."""
        if oracle_nics <= 0:
            raise ConfigurationError("oracle_nics must be positive")
        return 100.0 * (self.nics_used - oracle_nics) / oracle_nics


@dataclass
class SchedulingResult:
    """Aggregated Table 6 numbers across sequences."""

    strategy: str
    mean_wastage_pct: float
    mean_violation_pct: float
    sequences: int


class Scheduler:
    """Places NF arrival sequences using a chosen strategy."""

    def __init__(
        self,
        yala: YalaSystem,
        slomo_predictors: Optional[dict[str, SlomoPredictor]] = None,
    ) -> None:
        self._yala = yala
        self._nic = yala.nic
        # Strategy predicates live in the fleet policy layer so the
        # one-shot Table 6 scheduler and the fleet engine share them.
        self._model = PlacementModel(yala=yala, slomo_predictors=slomo_predictors)
        # Ground-truth co-run results are deterministic, so repeated
        # what-if evaluations of the same resident mix (the oracle
        # packing re-probes mixes constantly) are served from cache.
        self._drops_cache: dict[tuple, list[float]] = {}

    # ------------------------------------------------------------------
    # Ground truth helpers
    # ------------------------------------------------------------------
    def _solo_throughput(self, arrival: NfArrival) -> float:
        return self._model.solo_throughput(arrival)

    @staticmethod
    def _drops_key(residents: list[NfArrival]) -> tuple:
        """Cache key of one resident mix (SLAs don't affect the physics)."""
        return tuple((r.nf_name, r.traffic) for r in residents)

    def _true_drops(self, residents: list[NfArrival]) -> list[float]:
        """Measured drop fraction of every resident on one NIC."""
        return self._true_drops_many([residents])[0]

    def _true_drops_many(
        self, resident_lists: list[list[NfArrival]]
    ) -> list[list[float]]:
        """Batch ground truth: all uncached NIC mixes solve in one call.

        The scheduling what-ifs — scoring every NIC of a placement, the
        oracle's feasibility probes — are independent simulator runs, so
        they route through :meth:`SmartNic.run_batch` (identical results
        to per-mix :meth:`SmartNic.run` calls).
        """
        scenarios = []
        slots = []
        enqueued: set[tuple] = set()
        for i, residents in enumerate(resident_lists):
            key = self._drops_key(residents)
            if len(residents) == 1 or key in self._drops_cache or key in enqueued:
                continue
            enqueued.add(key)
            slots.append(i)
            scenarios.append(
                [
                    make_nf(r.nf_name).demand(r.traffic, instance=f"{r.nf_name}#{j}")
                    for j, r in enumerate(residents)
                ]
            )
        if scenarios:
            for i, result in zip(slots, self._nic.run_batch(scenarios)):
                residents = resident_lists[i]
                drops = []
                for j, resident in enumerate(residents):
                    solo = self._solo_throughput(resident)
                    achieved = result.throughput_of(f"{resident.nf_name}#{j}")
                    drops.append(max(0.0, 1.0 - achieved / solo))
                self._drops_cache[self._drops_key(residents)] = drops
        return [
            [0.0]
            if len(residents) == 1
            else self._drops_cache[self._drops_key(residents)]
            for residents in resident_lists
        ]

    def _true_feasible(self, residents: list[NfArrival]) -> bool:
        drops = self._true_drops(residents)
        return all(
            drop <= resident.sla_drop_fraction
            for drop, resident in zip(drops, residents)
        )

    # ------------------------------------------------------------------
    # Strategy predicates (shared with the fleet — repro.fleet.policies)
    # ------------------------------------------------------------------
    def _greedy_utilisation(self, residents: list[NfArrival]) -> float:
        """Additive utilisation estimate of one NIC (greedy's view)."""
        return self._model.greedy_utilisation(residents)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place(self, arrivals: list[NfArrival], strategy: str) -> PlacementOutcome:
        """Place ``arrivals`` one by one using ``strategy``."""
        if strategy not in ("monopolization", "greedy", "slomo", "yala"):
            raise ConfigurationError(f"unknown strategy {strategy!r}")
        max_per_nic = self._nic.spec.num_cores // _CORES_PER_NF
        nics: list[list[int]] = []

        verdict = (
            None if strategy == "monopolization" else self._model.verdict(strategy)
        )
        for index, arrival in enumerate(arrivals):
            if strategy == "monopolization":
                nics.append([index])
                continue

            candidates = [
                i for i, residents in enumerate(nics) if len(residents) < max_per_nic
            ]
            if strategy == "greedy":
                # Most available head-room first, additive feasibility.
                candidates.sort(key=lambda i: (len(nics[i]), self._greedy_utilisation(
                    [arrivals[j] for j in nics[i]]
                )))
            else:
                # First-fit over existing NICs, fullest first (bin packing).
                candidates.sort(key=lambda i: -len(nics[i]))
            chosen = first_fit(
                [
                    ([arrivals[j] for j in nics[i]] + [arrival], None, 1.0)
                    for i in candidates
                ],
                verdict,
            )
            if chosen is None:
                nics.append([index])
            else:
                nics[candidates[chosen]].append(index)

        violations = 0
        resident_lists = [
            [arrivals[j] for j in residents_idx] for residents_idx in nics
        ]
        for residents, drops in zip(
            resident_lists, self._true_drops_many(resident_lists)
        ):
            violations += sum(
                1
                for drop, resident in zip(drops, residents)
                if drop > resident.sla_drop_fraction
            )
        return PlacementOutcome(
            strategy=strategy,
            nics_used=len(nics),
            violations=violations,
            total_nfs=len(arrivals),
            assignments=nics,
        )

    # ------------------------------------------------------------------
    # Oracle packing (wastage reference)
    # ------------------------------------------------------------------
    def oracle_nics(self, arrivals: list[NfArrival]) -> int:
        """Reference packing: best-fit-decreasing with true feasibility.

        Sorted hardest-first (tightest SLA first), each NF goes to the
        fullest NIC that remains truly SLA-feasible; a repacking pass
        then tries to empty the lightest NICs. A lower bound stand-in
        for the paper's exhaustive offline optimum.
        """
        max_per_nic = self._nic.spec.num_cores // _CORES_PER_NF
        order = sorted(
            range(len(arrivals)), key=lambda i: arrivals[i].sla_drop_fraction
        )
        nics: list[list[int]] = []
        for index in order:
            arrival = arrivals[index]
            placed = False
            for residents_idx in sorted(nics, key=len, reverse=True):
                if len(residents_idx) >= max_per_nic:
                    continue
                residents = [arrivals[j] for j in residents_idx] + [arrival]
                if self._true_feasible(residents):
                    residents_idx.append(index)
                    placed = True
                    break
            if not placed:
                nics.append([index])

        # Repacking pass: dissolve the lightest NICs if their residents
        # fit elsewhere.
        improved = True
        while improved:
            improved = False
            nics.sort(key=len)
            if not nics or len(nics[0]) >= max_per_nic:
                break
            light = nics[0]
            rest = nics[1:]
            moved: list[tuple[int, list[int]]] = []
            for index in list(light):
                for residents_idx in rest:
                    if len(residents_idx) >= max_per_nic:
                        continue
                    residents = [arrivals[j] for j in residents_idx] + [
                        arrivals[index]
                    ]
                    if self._true_feasible(residents):
                        residents_idx.append(index)
                        moved.append((index, residents_idx))
                        light.remove(index)
                        break
            if not light:
                nics = rest
                improved = True
            else:
                # Roll back partial moves to keep assignments consistent.
                for index, residents_idx in moved:
                    residents_idx.remove(index)
                    light.append(index)
        return len(nics)

    # ------------------------------------------------------------------
    def evaluate(
        self,
        sequences: list[list[NfArrival]],
        strategies: tuple[str, ...] = ("monopolization", "greedy", "slomo", "yala"),
    ) -> dict[str, SchedulingResult]:
        """Run every strategy over every sequence and aggregate Table 6."""
        wastage: dict[str, list[float]] = {s: [] for s in strategies}
        violations: dict[str, list[float]] = {s: [] for s in strategies}
        for arrivals in sequences:
            oracle = self.oracle_nics(arrivals)
            for strategy in strategies:
                outcome = self.place(arrivals, strategy)
                wastage[strategy].append(outcome.wastage_pct(oracle))
                violations[strategy].append(outcome.violation_rate_pct)
        return {
            s: SchedulingResult(
                strategy=s,
                mean_wastage_pct=float(np.mean(wastage[s])),
                mean_violation_pct=float(np.mean(violations[s])),
                sequences=len(sequences),
            )
            for s in strategies
        }
