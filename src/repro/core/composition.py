"""Execution-pattern-based composition of per-resource models (§4.2).

Per-resource models output the NF's end-to-end throughput if *only*
that resource were contended. Composition merges them into the
multi-resource prediction:

- **Pipeline** (Eq. 2): end-to-end throughput is set by the slowest
  stage, so only the largest per-resource drop matters:
  ``T = T_solo - max_k dT_k``.
- **Run-to-completion** (Eq. 3): per-packet stage times add, so drops
  compound: ``1/T = sum_k 1/(T_solo - dT_k) - (r-1)/T_solo``.

The pattern of an unknown NF is detected from measurements alone
(§4.2): co-run it with both benches, compose the single-resource
measurements under each hypothesis and keep the better fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.nf.framework import NetworkFunction
from repro.nic.workload import ExecutionPattern
from repro.numeric import left_sum
from repro.profiling.collector import ProfilingCollector
from repro.profiling.contention import ContentionLevel
from repro.traffic.profile import TrafficProfile

_FLOOR = 1e-6


def _drops(solo: float, per_resource: list[float]) -> list[float]:
    """Per-resource throughput drops, clamped to [0, solo)."""
    if solo <= 0:
        raise ConfigurationError("solo throughput must be positive")
    # ``solo - t`` first, so NaN propagates as it does through np.clip;
    # with solo > 0 it is never -0.0, so max() picks the same zero.
    return [float(min(max(solo - t, 0.0), solo - _FLOOR)) for t in per_resource]


def pipeline_throughput(solo: float, per_resource: list[float]) -> float:
    """Eq. 2: the largest single-resource drop dominates."""
    drops = _drops(solo, per_resource)
    worst = max(drops, default=0.0)
    return max(solo - worst, _FLOOR)


def run_to_completion_throughput(solo: float, per_resource: list[float]) -> float:
    """Eq. 3: drops compound through additive sojourn times."""
    drops = _drops(solo, per_resource)
    if not drops:
        return solo
    inverse = left_sum(1.0 / (solo - d) for d in drops) - (len(drops) - 1) / solo
    return max(1.0 / inverse, _FLOOR)


def compose(
    pattern: ExecutionPattern, solo: float, per_resource: list[float]
) -> float:
    """Dispatch to the pattern's composition rule."""
    if pattern is ExecutionPattern.PIPELINE:
        return pipeline_throughput(solo, per_resource)
    return run_to_completion_throughput(solo, per_resource)


# ----------------------------------------------------------------------
# Pattern detection (§4.2 "Detecting execution pattern")
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PatternDetectionResult:
    """Outcome of the measurement-based pattern test."""

    pattern: ExecutionPattern
    pipeline_error: float  # MAPE of the Eq. 2 hypothesis, percent
    rtc_error: float  # MAPE of the Eq. 3 hypothesis, percent

    @property
    def confident(self) -> bool:
        """True when the two hypotheses are clearly separated."""
        return abs(self.pipeline_error - self.rtc_error) > 1.0


#: Default multi-resource probe points: (mem CAR, regex rate).
_PROBE_POINTS: tuple[tuple[float, float], ...] = (
    (120.0, 0.6),
    (200.0, 1.2),
    (250.0, 1.8),
)


def detect_execution_pattern(
    collector: ProfilingCollector,
    nf: NetworkFunction,
    traffic: TrafficProfile | None = None,
    probe_points: tuple[tuple[float, float], ...] = _PROBE_POINTS,
) -> PatternDetectionResult:
    """Infer an NF's execution pattern from co-run measurements.

    For each probe point we measure the NF under memory-only contention,
    accelerator-only contention, and combined contention, then check
    whether Eq. 2 or Eq. 3 better explains the combined result. No
    source-code knowledge is used.
    """
    traffic = traffic or TrafficProfile()
    accelerators = nf.uses_accelerators(traffic)
    solo = collector.solo(nf, traffic).throughput_mpps

    if not accelerators:
        # Memory is the only modeled contended resource: with a single
        # per-resource model Eq. 2 and Eq. 3 are algebraically identical
        # (both reduce to T = T_mem), so the pattern is unobservable and
        # irrelevant for prediction. Report run-to-completion with zero
        # separation.
        return PatternDetectionResult(
            pattern=ExecutionPattern.RUN_TO_COMPLETION,
            pipeline_error=0.0,
            rtc_error=0.0,
        )

    probes = []
    for mem_car, accel_rate in probe_points:
        mem_only = ContentionLevel(mem_car=mem_car)
        # Probe the accelerator whose contention bites hardest: for NFs
        # with a compression stage that is usually compression (it has
        # the lowest stage capacity), otherwise regex.
        if "compression" in accelerators:
            accel_only = ContentionLevel(compression_rate=accel_rate)
        else:
            accel_only = ContentionLevel(regex_rate=accel_rate, regex_mtbr=900.0)
        probes.append((mem_only, accel_only, _merge_levels(mem_only, accel_only)))

    # All probe co-runs are independent: measure them in one batch
    # (identical samples to the seed's per-point loop).
    samples = collector.profile_many(
        [
            (nf, contention, traffic)
            for probe in probes
            for contention in probe
        ]
    )
    pipeline_errors, rtc_errors = [], []
    for point in range(len(probes)):
        t_mem, t_accel, t_truth = (
            s.throughput_mpps for s in samples[3 * point : 3 * point + 3]
        )
        per_resource = [t_mem, t_accel]
        pipeline_errors.append(
            abs(pipeline_throughput(solo, per_resource) - t_truth) / t_truth
        )
        rtc_errors.append(
            abs(run_to_completion_throughput(solo, per_resource) - t_truth) / t_truth
        )

    pipeline_mape = float(100.0 * np.mean(pipeline_errors))
    rtc_mape = float(100.0 * np.mean(rtc_errors))
    pattern = (
        ExecutionPattern.PIPELINE
        if pipeline_mape <= rtc_mape
        else ExecutionPattern.RUN_TO_COMPLETION
    )
    return PatternDetectionResult(
        pattern=pattern, pipeline_error=pipeline_mape, rtc_error=rtc_mape
    )


def _merge_levels(first: ContentionLevel, second: ContentionLevel) -> ContentionLevel:
    """Combine two contention levels (fields are max-merged)."""
    return ContentionLevel(
        mem_car=max(first.mem_car, second.mem_car),
        mem_wss_mb=first.mem_wss_mb if first.mem_car >= second.mem_car else second.mem_wss_mb,
        regex_rate=max(first.regex_rate, second.regex_rate),
        regex_mtbr=first.regex_mtbr if first.regex_rate >= second.regex_rate else second.regex_mtbr,
        regex_payload_bytes=first.regex_payload_bytes
        if first.regex_rate >= second.regex_rate
        else second.regex_payload_bytes,
        compression_rate=max(first.compression_rate, second.compression_rate),
        compression_payload_bytes=first.compression_payload_bytes
        if first.compression_rate >= second.compression_rate
        else second.compression_payload_bytes,
    )
