"""Naive multi-resource composition baselines (paper §2.2.1, Table 4).

- **sum composition** adds the per-resource throughput losses
  (the LogNIC/nn-Meter style strawman [37, 67]);
- **min composition** takes the largest loss, i.e. the most
  pessimistic single resource (the E3/FlexTOE style strawman [47, 58]).

Both use the same per-resource models as Yala; only the composition
differs, so comparisons isolate the value of execution-pattern-based
composition.
"""

from __future__ import annotations


from repro.errors import ConfigurationError
from repro.numeric import left_sum

_FLOOR = 1e-6


def compose_sum(solo: float, per_resource: list[float]) -> float:
    """Sum composition: subtract every per-resource drop."""
    if solo <= 0:
        raise ConfigurationError("solo throughput must be positive")
    total_drop = left_sum(max(0.0, solo - t) for t in per_resource)
    return float(max(solo - total_drop, _FLOOR))


def compose_min(solo: float, per_resource: list[float]) -> float:
    """Min composition: keep only the largest per-resource drop.

    Numerically identical to the pipeline rule (Eq. 2); listed
    separately because as a *baseline* it is applied regardless of the
    NF's actual execution pattern.
    """
    if solo <= 0:
        raise ConfigurationError("solo throughput must be positive")
    worst = max((max(0.0, solo - t) for t in per_resource), default=0.0)
    return float(max(solo - worst, _FLOOR))
