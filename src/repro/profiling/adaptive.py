"""Adaptive profiling — the paper's Algorithm 1 (§5.2).

Two phases:

1. **Attribute pruning**: for each traffic attribute, profile the NF solo
   at the attribute's extremes (others at defaults). If the throughput
   difference is below ``epsilon_prune``, the attribute does not affect
   this NF and is dropped from the profiling space (e.g. packet size for
   FlowStats).
2. **Range profiling**: recursive binary search over the surviving
   attribute hypercube. Whenever the throughput difference across a
   region's corners exceeds ``epsilon_split``, collect
   ``samples_per_region`` co-run samples (random contention) at the
   region's midpoint and recurse into the region's sub-boxes — splitting
   *every* kept attribute so coverage is a quadtree over the attribute
   space, not just its diagonal. Repeated configurations are served from
   the collector's cache and charged no quota, exactly as the paper's
   ``profile_one`` specifies.

Measuring once: only the box-corner probes' values steer the splits,
and every pruning probe is known before any pruning decision. All other
samples (midpoint solo anchors, region contended samples, residual
random samples, the traffic-insensitive branch) are value-free: their
rng draws, dedup and quota accounting depend only on configuration
keys. So the profiler measures the pruning probes in one
:meth:`ProfilingCollector.profile_many` call, measures each corner with
``profile_one`` when Algorithm 1 asks for it, records only the key of
every other sample, and builds the dataset with one final
``profile_many`` over all recorded keys (first-seen order): corners come
back from the sample cache and everything else solves in one
``run_batch``. Sample values, dataset order, quota and cache accounting
are identical to measuring every sample with ``profile_one`` the moment
it is named (``use_batch=False``, the oracle ``tests/profiling`` pins).

Adaptation vs. the paper: corner probes run under a fixed *reference
contention* level rather than solo. The paper probes solo (``C = 0``),
but an NF that is CPU-bound when alone can hide all of its memory-range
sensitivity from solo probes; probing under contention reveals exactly
the ranges where the contended model needs data (and the probes
themselves become useful training samples). Attribute pruning keeps an
attribute if either the solo or the reference-contention extremes
differ.

Thresholds are *relative* to the NF's default-traffic solo throughput so
one configuration works across NFs with different absolute rates.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.errors import ProfilingError
from repro.nf.framework import NetworkFunction
from repro.profiling.collector import ProfilingCollector
from repro.profiling.contention import ContentionLevel
from repro.profiling.dataset import ProfileDataset, ProfileSample
from repro.profiling.sampling import ContentionSampler, _default_contention_sampler
from repro.rng import SeedLike, make_rng
from repro.traffic.profile import (
    DEFAULT_RANGES,
    AttributeRange,
    TrafficProfile,
)

#: Recursion floor: stop splitting regions thinner than this fraction of
#: the original attribute range.
_MIN_REGION_FRACTION = 1.0 / 64.0


@dataclass
class AdaptiveProfilingReport:
    """Outcome of one adaptive profiling run."""

    dataset: ProfileDataset
    kept_attributes: list[str]
    pruned_attributes: list[str]
    quota: int
    samples_used: int
    regions_split: int = 0


class AdaptiveProfiler:
    """Algorithm 1: prune attributes, then adaptively sample ranges."""

    def __init__(
        self,
        collector: ProfilingCollector,
        quota: int = 120,
        epsilon_prune: float = 0.05,
        epsilon_split: float = 0.04,
        samples_per_region: int = 3,
        contention_sampler: ContentionSampler = _default_contention_sampler,
        reference_contention: ContentionLevel = ContentionLevel(
            mem_car=180.0, mem_wss_mb=10.0
        ),
        seed: SeedLike = None,
        use_batch: bool = True,
    ) -> None:
        if quota < 1:
            raise ProfilingError("quota must be >= 1")
        if epsilon_prune <= 0 or epsilon_split <= 0:
            raise ProfilingError("epsilon thresholds must be positive")
        if samples_per_region < 1:
            raise ProfilingError("samples_per_region must be >= 1")
        self._collector = collector
        self._quota = quota
        self._epsilon_prune = epsilon_prune
        self._epsilon_split = epsilon_split
        self._samples_per_region = samples_per_region
        self._contention_sampler = contention_sampler
        self._reference_contention = reference_contention
        self._rng = make_rng(seed)
        # True defers value-free samples to one final profile_many and
        # batches the pruning probes. False measures every sample with
        # profile_one when it is named — the oracle pinned by
        # tests/profiling.
        self._use_batch = use_batch

    # ------------------------------------------------------------------
    def profile(
        self,
        nf: NetworkFunction,
        attributes: list[str] | None = None,
        base_traffic: TrafficProfile = TrafficProfile(),
        ranges: dict[str, AttributeRange] | None = None,
    ) -> AdaptiveProfilingReport:
        """Run Algorithm 1 for ``nf`` and return the collected dataset."""
        ranges = dict(DEFAULT_RANGES if ranges is None else ranges)
        attributes = list(ranges) if attributes is None else list(attributes)

        report = AdaptiveProfilingReport(
            dataset=ProfileDataset(nf.name),
            kept_attributes=[],
            pruned_attributes=[],
            quota=self._quota,
            samples_used=0,
        )
        # Every distinct (contention, traffic) named so far, first-seen
        # order; the dataset is built from these keys at the end.
        self._seen: dict[tuple, None] = {}
        reference = self._collector.solo(nf, base_traffic).throughput_mpps

        # Phase 1: prune insensitive attributes (lines 7-11 of Alg. 1).
        # An attribute is kept when its extremes change throughput in any
        # screening context: solo or under the reference contention, with
        # the *other* attributes at their defaults or at their maxima
        # (the second context catches interactions such as packet size
        # mattering only at high MTBR).
        maxed_traffic = base_traffic
        for name in attributes:
            maxed_traffic = maxed_traffic.with_attribute(name, ranges[name].maximum)
        # Per attribute: (high, low) probe keys of each screening context.
        screens = {
            name: [
                (
                    (contention, context.with_attribute(name, ranges[name].maximum)),
                    (contention, context.with_attribute(name, ranges[name].minimum)),
                )
                for context in (base_traffic, maxed_traffic)
                for contention in (ContentionLevel(), self._reference_contention)
            ]
            for name in attributes
        }
        # Once the quota is spent, new probe configurations are cut
        # (repeats stay free) and an attribute with a cut probe is kept:
        # no quota is left to range-profile it anyway.
        named = []
        for name in attributes:
            for pair in screens[name]:
                for key in pair:
                    if key in self._seen or report.samples_used < self._quota:
                        self._record(key, report)
                        named.append(key)
        throughput = {
            key: sample.throughput_mpps
            for key, sample in zip(named, self._measure(nf, named))
        }
        for name in attributes:
            pairs = screens[name]
            if all(key in throughput for pair in pairs for key in pair) and (
                max(abs(throughput[high] - throughput[low]) for high, low in pairs)
                < self._epsilon_prune * reference
            ):
                report.pruned_attributes.append(name)
            else:
                report.kept_attributes.append(name)

        kept = report.kept_attributes
        if not kept:
            # Traffic-insensitive NF: spend the remaining quota on
            # contention-only samples at the default traffic.
            while report.samples_used < self._quota:
                self._sample(
                    nf, self._contention_sampler(self._rng), base_traffic, report
                )
        else:
            # Phase 2: recursive range profiling (lines 14-26 of Alg. 1).
            lows = {n: ranges[n].minimum for n in kept}
            highs = {n: ranges[n].maximum for n in kept}
            spans = {n: ranges[n].maximum - ranges[n].minimum for n in kept}
            self._range_profile(nf, base_traffic, lows, highs, spans, reference, report)
            # Spend any residual quota on random points of the explored
            # space so it is never wasted.
            guard = 0
            while report.samples_used < self._quota and guard < 20 * self._quota:
                guard += 1
                traffic = base_traffic
                for name in kept:
                    span = ranges[name]
                    traffic = traffic.with_attribute(
                        name, float(self._rng.uniform(span.minimum, span.maximum))
                    )
                self._sample(nf, self._contention_sampler(self._rng), traffic, report)

        report.dataset.extend(self._measure(nf, list(self._seen)))
        return report

    # ------------------------------------------------------------------
    def _record(self, key: tuple, report: AdaptiveProfilingReport) -> None:
        """Name a sample; a new configuration is charged one quota unit."""
        if key not in self._seen:
            self._seen[key] = None
            report.samples_used += 1

    def _measure(
        self, nf: NetworkFunction, keys: list[tuple]
    ) -> list[ProfileSample]:
        """One sample per ``(contention, traffic)`` key, in order."""
        requests = [(nf, contention, traffic) for contention, traffic in keys]
        if self._use_batch:
            return self._collector.profile_many(requests)
        return [self._collector.profile_one(*request) for request in requests]

    def _sample(
        self,
        nf: NetworkFunction,
        contention: ContentionLevel,
        traffic: TrafficProfile,
        report: AdaptiveProfilingReport,
    ) -> None:
        """A value-free sample: deferred to the final batch."""
        if not self._use_batch:
            self._collector.profile_one(nf, contention, traffic)
        self._record((contention, traffic), report)

    def _probe(
        self,
        nf: NetworkFunction,
        contention: ContentionLevel,
        traffic: TrafficProfile,
        report: AdaptiveProfilingReport,
    ) -> float:
        """A sample whose value steers Algorithm 1, measured now."""
        value = self._collector.profile_one(nf, contention, traffic).throughput_mpps
        self._record((contention, traffic), report)
        return value

    def _apply(self, base: TrafficProfile, values: dict[str, float]) -> TrafficProfile:
        traffic = base
        for name, value in values.items():
            traffic = traffic.with_attribute(name, value)
        return traffic

    def _range_profile(
        self,
        nf: NetworkFunction,
        base_traffic: TrafficProfile,
        lows: dict[str, float],
        highs: dict[str, float],
        spans: dict[str, float],
        reference: float,
        report: AdaptiveProfilingReport,
    ) -> None:
        """Sensitivity-prioritised breadth-first box refinement.

        Boxes live in a max-heap keyed by their parent's corner
        difference, so large sensitive regions everywhere in the space
        are refined before any one region is refined deeply — a
        depth-first walk would starve far-away regions once the quota
        runs out. Each split collects ``samples_per_region`` contended
        samples plus one solo anchor at the box midpoint.
        """
        counter = itertools.count()
        heap: list[tuple[float, int, dict, dict]] = [
            (-float("inf"), next(counter), lows, highs)
        ]
        epsilon = self._epsilon_split * reference
        idle = ContentionLevel()
        while heap and report.samples_used < self._quota:
            _, __, box_lows, box_highs = heapq.heappop(heap)
            low_traffic = self._apply(base_traffic, box_lows)
            high_traffic = self._apply(base_traffic, box_highs)
            t_low = self._probe(nf, self._reference_contention, low_traffic, report)
            if report.samples_used >= self._quota:
                return
            t_high = self._probe(nf, self._reference_contention, high_traffic, report)
            if report.samples_used >= self._quota:
                return
            solo_low = self._probe(nf, idle, low_traffic, report)
            solo_high = self._probe(nf, idle, high_traffic, report)
            if report.samples_used >= self._quota:
                return
            # Traffic sensitivity: corners differ under contention.
            diff = abs(t_high - t_low)
            # Contention sensitivity: corners sit far below their solo
            # values, i.e. the contention response curve is steep here
            # and needs samples across contention levels even if the
            # traffic direction looks flat.
            deviation = max(solo_low - t_low, solo_high - t_high, 0.0)
            if diff < epsilon and deviation < 3.0 * epsilon:
                continue
            if all(
                (box_highs[n] - box_lows[n]) < _MIN_REGION_FRACTION * spans[n]
                for n in box_lows
            ):
                continue
            report.regions_split += 1
            mids = {n: 0.5 * (box_lows[n] + box_highs[n]) for n in box_lows}
            mid_traffic = self._apply(base_traffic, mids)
            self._sample(nf, idle, mid_traffic, report)
            for _ in range(self._samples_per_region):
                if report.samples_used >= self._quota:
                    return
                contention = self._contention_sampler(self._rng)
                self._sample(nf, contention, mid_traffic, report)
            priority = diff + 0.3 * deviation
            names = list(box_lows)
            for corner in itertools.product((0, 1), repeat=len(names)):
                child_lows = {}
                child_highs = {}
                for bit, name in zip(corner, names):
                    if bit == 0:
                        child_lows[name] = box_lows[name]
                        child_highs[name] = mids[name]
                    else:
                        child_lows[name] = mids[name]
                        child_highs[name] = box_highs[name]
                heapq.heappush(
                    heap, (-priority, next(counter), child_lows, child_highs)
                )
