"""The deferred adaptive profiler and the batched Table 8 baselines
against their ``profile_one`` oracles.

``AdaptiveProfiler(use_batch=True)`` measures only the corner probes
when Algorithm 1 names them and solves every other sample in one final
``profile_many``; ``use_batch=False`` measures each sample with
``profile_one`` on the spot. Both must agree on every sample, decision
and cache entry, wherever the quota runs out.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nf.catalog import make_nf
from repro.nic.nic import SmartNic
from repro.nic.spec import bluefield2_spec, pensando_spec
from repro.profiling.adaptive import AdaptiveProfiler
from repro.profiling.collector import ProfilingCollector
from repro.profiling.contention import ContentionLevel, random_contention
from repro.profiling.sampling import full_profile, random_profile
from repro.rng import make_rng, spawn
from repro.traffic.profile import DEFAULT_RANGES, TrafficProfile

_SPECS = {"bluefield2": bluefield2_spec, "pensando": pensando_spec}


@functools.cache
def _nic(target: str) -> SmartNic:
    return SmartNic(_SPECS[target](), seed=101)


def _caches(collector: ProfilingCollector) -> tuple[set, set, set]:
    return (
        set(collector._sample_cache),
        set(collector._solo_cache),
        set(collector._bench_counter_cache),
    )


def _profile(target, nf_name, use_batch, **kwargs):
    collector = ProfilingCollector(_nic(target))
    profiler = AdaptiveProfiler(collector, use_batch=use_batch, **kwargs)
    return profiler.profile(make_nf(nf_name)), collector


class TestDeferredMatchesOracle:
    # Pruning needs 20 distinct configurations, so quotas below 20 run
    # out there; the explicit examples pin each other place the quota
    # can run out (found by instrumenting the profiler).
    @settings(max_examples=60, deadline=None)
    @given(
        target=st.sampled_from(sorted(_SPECS)),
        nf_name=st.sampled_from(["flowstats", "flowmonitor", "nids", "acl"]),
        quota=st.integers(1, 48),
        samples_per_region=st.integers(1, 4),
        epsilon_split=st.sampled_from([0.04, 1.0]),
        seed=st.integers(0, 2**16),
    )
    # In pruning, on both targets and for the insensitive NF.
    @example(
        target="bluefield2", nf_name="flowstats", quota=5,
        samples_per_region=3, epsilon_split=0.04, seed=7,
    )
    @example(
        target="pensando", nf_name="acl", quota=13,
        samples_per_region=2, epsilon_split=0.04, seed=7,
    )
    # Between corner probes (right after the first box's low corner).
    @example(
        target="pensando", nf_name="nids", quota=21,
        samples_per_region=1, epsilon_split=0.04, seed=7,
    )
    # Inside a region's contended samples.
    @example(
        target="bluefield2", nf_name="flowstats", quota=22,
        samples_per_region=3, epsilon_split=0.04, seed=7,
    )
    # Not at all: no box splits, the heap empties, the residual loop runs.
    @example(
        target="bluefield2", nf_name="flowstats", quota=40,
        samples_per_region=2, epsilon_split=1.0, seed=7,
    )
    # Traffic-insensitive branch.
    @example(
        target="pensando", nf_name="acl", quota=40,
        samples_per_region=4, epsilon_split=0.04, seed=7,
    )
    def test_same_samples_decisions_and_caches(
        self, target, nf_name, quota, samples_per_region, epsilon_split, seed
    ):
        kwargs = dict(
            quota=quota,
            samples_per_region=samples_per_region,
            epsilon_split=epsilon_split,
            seed=seed,
        )
        oracle, oracle_collector = _profile(target, nf_name, False, **kwargs)
        deferred, deferred_collector = _profile(target, nf_name, True, **kwargs)
        assert deferred.dataset.samples == oracle.dataset.samples
        assert deferred.samples_used == oracle.samples_used
        assert deferred.regions_split == oracle.regions_split
        assert deferred.kept_attributes == oracle.kept_attributes
        assert deferred.pruned_attributes == oracle.pruned_attributes
        assert deferred_collector.profile_count == oracle_collector.profile_count
        assert _caches(deferred_collector) == _caches(oracle_collector)


class TestPruningQuota:
    @pytest.mark.parametrize("target", sorted(_SPECS))
    @pytest.mark.parametrize("nf_name", ["flowstats", "acl"])
    @pytest.mark.parametrize("quota", [5, 10])
    def test_small_quota_stops_pruning(self, target, nf_name, quota):
        report, collector = _profile(target, nf_name, True, quota=quota, seed=3)
        assert report.samples_used == quota
        assert len(report.dataset) == quota
        assert collector.profile_count == quota
        assert report.regions_split == 0
        # Both quotas cut probes of these two attributes: they are kept.
        assert {"packet_size", "mtbr"} <= set(report.kept_attributes)

    def test_fully_probed_attribute_is_still_pruned(self):
        # Quota 10 measures all 8 flow-count probes (ACL is flow-count
        # insensitive) before the cut reaches packet size and MTBR.
        report, _ = _profile("bluefield2", "acl", True, quota=10, seed=3)
        assert report.pruned_attributes == ["flow_count"]
        assert report.kept_attributes == ["packet_size", "mtbr"]


def _looped_full_profile(collector, nf, attributes, grid_points, levels, seed):
    """The per-sample reference for :func:`full_profile`."""
    rng = make_rng(seed)
    axes = [
        [(name, v) for v in DEFAULT_RANGES[name].grid(grid_points[name])]
        for name in attributes
    ]
    grids = np.meshgrid(*[np.arange(len(a)) for a in axes], indexing="ij")
    samples = []
    for flat_index in range(grids[0].size):
        traffic = TrafficProfile()
        for axis_index, axis in enumerate(axes):
            name, value = axis[grids[axis_index].flat[flat_index]]
            traffic = traffic.with_attribute(name, value)
        for _ in range(levels):
            contention = random_contention(
                seed=rng, memory=True, regex=False, compression=False
            )
            samples.append(collector.profile_one(nf, contention, traffic))
        samples.append(collector.profile_one(nf, ContentionLevel(), traffic))
    return samples


def _looped_random_profile(collector, nf, quota, seed, solo_fraction=0.15):
    """The per-sample reference for :func:`random_profile`."""
    rng, contention_rng = spawn(make_rng(seed), 2)
    n_solo = max(1, int(round(solo_fraction * quota)))
    samples = []
    for index in range(quota):
        traffic = TrafficProfile()
        for span in DEFAULT_RANGES.values():
            traffic = traffic.with_attribute(
                span.name, float(rng.uniform(span.minimum, span.maximum))
            )
        if index < n_solo:
            contention = ContentionLevel()
        else:
            contention = random_contention(
                seed=contention_rng, memory=True, regex=False, compression=False
            )
        samples.append(collector.profile_one(nf, contention, traffic))
    return samples


class TestBatchedBaselines:
    def test_full_profile_matches_looped_profile_one(self):
        grid = {"flow_count": 3, "packet_size": 2}
        looped_collector = ProfilingCollector(_nic("bluefield2"))
        looped = _looped_full_profile(
            looped_collector, make_nf("flowstats"), list(grid), grid, 2, 5
        )
        batched_collector = ProfilingCollector(_nic("bluefield2"))
        batched = full_profile(
            batched_collector,
            make_nf("flowstats"),
            attributes=list(grid),
            grid_points=grid,
            contention_levels_per_point=2,
            seed=5,
        )
        assert batched.samples == looped
        assert batched_collector.profile_count == looped_collector.profile_count
        assert _caches(batched_collector) == _caches(looped_collector)

    @pytest.mark.parametrize("quota", [1, 7, 40])
    def test_random_profile_matches_looped_profile_one(self, quota):
        looped_collector = ProfilingCollector(_nic("pensando"))
        looped = _looped_random_profile(looped_collector, make_nf("nids"), quota, 9)
        batched_collector = ProfilingCollector(_nic("pensando"))
        batched = random_profile(batched_collector, make_nf("nids"), quota, seed=9)
        assert batched.samples == looped
        assert batched_collector.profile_count == looped_collector.profile_count
        assert _caches(batched_collector) == _caches(looped_collector)
