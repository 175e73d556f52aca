"""Full-grid and random profiling strategies (Table 8 baselines)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ProfilingError
from repro.nf.framework import NetworkFunction
from repro.profiling.collector import ProfilingCollector
from repro.profiling.contention import ContentionLevel, random_contention
from repro.profiling.dataset import ProfileDataset
from repro.rng import SeedLike, make_rng, spawn
from repro.traffic.profile import (
    DEFAULT_RANGES,
    AttributeRange,
    TrafficProfile,
)

ContentionSampler = Callable[[np.random.Generator], ContentionLevel]


def _default_contention_sampler(rng: np.random.Generator) -> ContentionLevel:
    """Memory-only random contention (the Table 8 setting)."""
    return random_contention(seed=rng, memory=True, regex=False, compression=False)


def full_profile(
    collector: ProfilingCollector,
    nf: NetworkFunction,
    attributes: list[str],
    grid_points: dict[str, int],
    contention_levels_per_point: int = 4,
    base_traffic: TrafficProfile = TrafficProfile(),
    ranges: dict[str, AttributeRange] | None = None,
    contention_sampler: ContentionSampler = _default_contention_sampler,
    seed: SeedLike = None,
) -> ProfileDataset:
    """Exhaustive grid profiling (the paper's "full profiling").

    Sweeps a dense grid over ``attributes`` and profiles
    ``contention_levels_per_point`` random contention levels at every
    grid point. The paper's full profiling uses 16 packet sizes x 200
    flow counts (~3200x the adaptive quota); pass smaller grids for
    tractable experiments.
    """
    if not attributes:
        raise ProfilingError("full_profile needs at least one attribute")
    ranges = dict(DEFAULT_RANGES if ranges is None else ranges)
    rng = make_rng(seed)
    axes = []
    for name in attributes:
        points = grid_points.get(name, 8)
        axes.append([(name, v) for v in ranges[name].grid(points)])

    grids = np.meshgrid(*[np.arange(len(a)) for a in axes], indexing="ij")
    requests = []
    for flat_index in range(grids[0].size):
        traffic = base_traffic
        for axis_index, axis in enumerate(axes):
            name, value = axis[grids[axis_index].flat[flat_index]]
            traffic = traffic.with_attribute(name, value)
        for _ in range(contention_levels_per_point):
            requests.append((nf, contention_sampler(rng), traffic))
        # Always include the solo point so zero-contention behaviour is
        # represented in the training distribution.
        requests.append((nf, ContentionLevel(), traffic))
    # No draw depends on a measured value, so every point is measured in
    # one batch (same samples and quota accounting as one profile_one
    # per draw).
    return ProfileDataset(nf.name, collector.profile_many(requests))


def random_profile(
    collector: ProfilingCollector,
    nf: NetworkFunction,
    quota: int,
    attributes: list[str] | None = None,
    base_traffic: TrafficProfile = TrafficProfile(),
    ranges: dict[str, AttributeRange] | None = None,
    contention_sampler: ContentionSampler = _default_contention_sampler,
    solo_fraction: float = 0.15,
    seed: SeedLike = None,
) -> ProfileDataset:
    """Uniform random profiling within the same quota as adaptive.

    Draws traffic attributes uniformly over their ranges and contention
    from ``contention_sampler``; ``solo_fraction`` of the quota is spent
    on zero-contention samples so the model sees the solo baseline.
    """
    if quota < 1:
        raise ProfilingError("quota must be >= 1")
    ranges = dict(DEFAULT_RANGES if ranges is None else ranges)
    attributes = list(ranges) if attributes is None else list(attributes)
    rng, contention_rng = spawn(make_rng(seed), 2)

    n_solo = max(1, int(round(solo_fraction * quota)))
    requests = []
    for index in range(quota):
        traffic = base_traffic
        for name in attributes:
            span = ranges[name]
            traffic = traffic.with_attribute(
                name, float(rng.uniform(span.minimum, span.maximum))
            )
        if index < n_solo:
            contention = ContentionLevel()
        else:
            contention = contention_sampler(contention_rng)
        requests.append((nf, contention, traffic))
    return ProfileDataset(nf.name, collector.profile_many(requests))
