"""Shared memory-subsystem model (last-level cache + DRAM).

Co-located actors (NFs, benches, accelerator DMA engines) share the LLC
and the DRAM channel. The model computes, for each actor, the average
time of one cache reference given everybody's pressure:

1. **Cache partition.** LLC occupancy is split by an iterative
   proportional-pressure water-filling: an actor's pressure is its access
   rate weighted by its working-set demand; actors whose working set fits
   inside their pressure share keep exactly their working set, and the
   freed capacity is redistributed among the rest. This approximates LRU
   occupancy under mixed access streams.
2. **Miss-ratio curve.** With working set ``w`` and occupancy ``o``,
   uniform accesses miss with probability ``base + (1-base)·(1 - o/w)``
   (clamped), i.e. no extra misses while the set fits, then a smooth
   rise — yielding the piece-wise throughput curves of the paper
   (Figs. 3a, 6a).
3. **DRAM queueing.** Total miss traffic (plus write-backs) loads the
   DRAM channel; access latency is inflated by an M/M/1-style
   ``1/(1-rho)`` factor, capped to keep the fixed point stable.

The result is mechanistic rather than fitted: SLOMO/Yala's gradient
boosting has to *learn* this behaviour from profiled samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.nic.spec import CACHE_LINE_BYTES, NicSpecification
from repro.numeric import left_sum

#: DRAM utilisation is clamped below this to keep latency finite.
_MAX_UTILISATION = 0.97
#: Iterations for the occupancy water-filling.
_OCCUPANCY_ITERATIONS = 32
#: Sub-linear exponent on access rate in the occupancy pressure term;
#: keeps the rate->occupancy->miss feedback loop stable while still
#: letting fast streams evict slow ones.
_PRESSURE_RATE_EXPONENT = 0.7


@dataclass(frozen=True)
class MemoryActor:
    """One contender for the shared memory subsystem.

    ``hot_access_fraction`` of accesses go to a hot subset occupying
    ``hot_wss_fraction`` of the working set (Zipf-like reuse). Occupancy
    granted to the actor shields the hot subset first, giving real NFs a
    gentler slowdown than a pure uniform-access model. Streaming
    contenders (mem-bench) set ``hot_access_fraction`` to 0.
    """

    name: str
    read_rate: float  # cache read references per us (Mref/s)
    write_rate: float  # cache write references per us (Mref/s)
    wss_bytes: float
    hot_access_fraction: float = 0.6
    hot_wss_fraction: float = 0.15

    def __post_init__(self) -> None:
        if self.read_rate < 0 or self.write_rate < 0 or self.wss_bytes < 0:
            raise ConfigurationError(f"memory actor {self.name!r}: negative demand")
        if not 0.0 <= self.hot_access_fraction < 1.0:
            raise ConfigurationError(
                f"memory actor {self.name!r}: hot_access_fraction in [0, 1)"
            )
        if not 0.0 < self.hot_wss_fraction < 1.0:
            raise ConfigurationError(
                f"memory actor {self.name!r}: hot_wss_fraction in (0, 1)"
            )

    @property
    def access_rate(self) -> float:
        """Total cache access rate (the paper's CAR), Mref/s."""
        return self.read_rate + self.write_rate


@dataclass(frozen=True)
class MemoryShare:
    """Resolved memory behaviour of one actor under contention."""

    name: str
    occupancy_bytes: float
    miss_ratio: float
    avg_access_time_us: float
    dram_read_rate: float  # line fetches per us
    dram_write_rate: float  # write-backs per us


class MemorySubsystem:
    """Solver for the shared LLC + DRAM model of one NIC."""

    def __init__(self, spec: NicSpecification) -> None:
        self._spec = spec

    # ------------------------------------------------------------------
    def solve_occupancy(self, actors: list[MemoryActor]) -> dict[str, float]:
        """Partition LLC capacity among ``actors``.

        Pressure of actor ``i`` is ``access_rate_i**0.7 *
        sqrt(min(wss_i, llc))`` — occupancy grows with access rate and
        working set, both sub-linearly, so a large streaming contender
        evicts but does not completely starve a small hot table
        (LRU-like behaviour) and the rate->occupancy->miss feedback loop
        stays gentle rather than bistable. Capacity is granted
        proportionally, but never beyond an actor's working set; freed
        capacity cascades to still-hungry actors.
        """
        llc = self._spec.llc_bytes
        active = [a for a in actors if a.access_rate > 0 and a.wss_bytes > 0]
        occupancy = {a.name: 0.0 for a in actors}
        if not active:
            return occupancy

        remaining = llc
        hungry = list(active)
        for _ in range(_OCCUPANCY_ITERATIONS):
            if not hungry or remaining <= 0:
                break
            pressures = np.array(
                [
                    a.access_rate**_PRESSURE_RATE_EXPONENT
                    * np.sqrt(min(a.wss_bytes, llc))
                    for a in hungry
                ]
            )
            total = pressures.sum()
            if total <= 0:
                break
            shares = remaining * pressures / total
            satisfied = []
            for actor, share in zip(hungry, shares):
                need = actor.wss_bytes - occupancy[actor.name]
                if need <= share:
                    occupancy[actor.name] += need
                    remaining -= need
                    satisfied.append(actor)
            if satisfied:
                hungry = [a for a in hungry if a not in satisfied]
                continue
            for actor, share in zip(hungry, shares):
                occupancy[actor.name] += share
            remaining = 0.0
            break
        return occupancy

    # ------------------------------------------------------------------
    def miss_ratio(
        self,
        wss_bytes: float,
        occupancy_bytes: float,
        hot_access_fraction: float = 0.0,
        hot_wss_fraction: float = 0.15,
    ) -> float:
        """Miss probability over a working set with a hot subset.

        Occupancy shields the hot subset (``hot_wss_fraction`` of the
        working set, receiving ``hot_access_fraction`` of accesses)
        first, then covers the cold remainder uniformly.
        """
        base = self._spec.base_miss_ratio
        if wss_bytes <= 0:
            return base
        occupancy = float(np.clip(occupancy_bytes, 0.0, wss_bytes))
        hot_bytes = hot_wss_fraction * wss_bytes
        cold_bytes = wss_bytes - hot_bytes
        hot_resident = min(occupancy, hot_bytes)
        cold_resident = min(max(occupancy - hot_bytes, 0.0), cold_bytes)
        hot_miss = 1.0 - hot_resident / hot_bytes if hot_bytes > 0 else 0.0
        cold_miss = 1.0 - cold_resident / cold_bytes if cold_bytes > 0 else 0.0
        blended = (
            hot_access_fraction * hot_miss
            + (1.0 - hot_access_fraction) * cold_miss
        )
        return float(np.clip(base + (1.0 - base) * blended, base, 1.0))

    # ------------------------------------------------------------------
    def solve(self, actors: list[MemoryActor]) -> dict[str, MemoryShare]:
        """Resolve the full memory model for all ``actors`` at once."""
        occupancy = self.solve_occupancy(actors)
        spec = self._spec

        miss = {
            a.name: self.miss_ratio(
                a.wss_bytes,
                occupancy[a.name],
                a.hot_access_fraction,
                a.hot_wss_fraction,
            )
            for a in actors
        }
        dram_reads = {a.name: a.read_rate * miss[a.name] for a in actors}
        dram_writes = {
            a.name: (a.write_rate * miss[a.name])
            + (a.read_rate + a.write_rate) * miss[a.name] * spec.writeback_fraction
            for a in actors
        }
        total_lines = left_sum(dram_reads.values()) + left_sum(dram_writes.values())
        utilisation = min(
            _MAX_UTILISATION,
            total_lines * CACHE_LINE_BYTES / spec.dram_bandwidth_bpus,
        )
        effective_dram_us = spec.dram_latency_us / (1.0 - utilisation)

        shares: dict[str, MemoryShare] = {}
        for actor in actors:
            avg = spec.llc_hit_time_us + miss[actor.name] * effective_dram_us
            shares[actor.name] = MemoryShare(
                name=actor.name,
                occupancy_bytes=occupancy[actor.name],
                miss_ratio=miss[actor.name],
                avg_access_time_us=avg,
                dram_read_rate=dram_reads[actor.name],
                dram_write_rate=dram_writes[actor.name],
            )
        return shares

    # ------------------------------------------------------------------
    def dram_utilisation(self, actors: list[MemoryActor]) -> float:
        """Fraction of DRAM bandwidth consumed by ``actors``."""
        shares = self.solve(actors)
        total_lines = left_sum(
            s.dram_read_rate + s.dram_write_rate for s in shares.values()
        )
        return min(
            _MAX_UTILISATION,
            total_lines * CACHE_LINE_BYTES / self._spec.dram_bandwidth_bpus,
        )
