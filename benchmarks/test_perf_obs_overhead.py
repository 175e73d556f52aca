"""Perf gate: telemetry overhead on the production-scale fleet loop.

Workload: the same ~200-service greedy fleet as ``test_perf_fleet.py``
(five structurally uniform NFs, noiseless NIC, batched scoring), run
three ways:

- **bare**: no recorder argument (the engine binds the module-level
  shared ``NULL_RECORDER``);
- **null**: an explicit :class:`~repro.obs.NullRecorder` — the default
  telemetry path every ordinary run takes;
- **trace**: a full :class:`~repro.obs.TraceRecorder` collecting every
  span, event, counter and wall timing.

Two gates: the null recorder must be provably negligible (≤ 1.05× of
bare — it is a handful of attribute reads on no-op methods), and the
full trace recorder must stay cheap (≤ 1.25×) because everything it
does is append-a-dict. Correctness is asserted before timing: all
three arms must produce byte-identical reports — telemetry never
perturbs results.

Timing follows the suite conventions: CPU time, min of three runs per
arm (fresh engine + collector per run so no arm inherits warm caches),
re-measured up to three times before failing. The arms are
interleaved: each of the three rounds times bare, null and trace back
to back, so a host whose speed swings for seconds at a time slows all
three arms of a round alike instead of one arm's whole minimum.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.fleet.churn import ChurnProcess
from repro.fleet.engine import FleetEngine
from repro.fleet.policies import PlacementModel
from repro.nic.nic import SmartNic
from repro.nic.spec import bluefield2_spec
from repro.obs import NullRecorder, Recorder, TraceRecorder
from repro.profiling.collector import ProfilingCollector

#: Ceiling on the default (null-recorder) path, relative to bare.
MAX_NULL_OVERHEAD = 1.05

#: Ceiling on full trace collection, relative to bare.
MAX_TRACE_OVERHEAD = 1.25

#: Epochs simulated per run.
EPOCHS = 8

#: The structurally uniform (table-driven, no accelerator) NF pool.
NF_POOL = ("flowstats", "nat", "acl", "iprouter", "flowtracker")


def build_engine(recorder: Optional[Recorder]) -> FleetEngine:
    """A fresh engine + collector so no run inherits warm caches."""
    nic = SmartNic(bluefield2_spec(), seed=0x5EED, noise_std=0.0)
    model = PlacementModel(collector=ProfilingCollector(nic), nic=nic)
    churn = ChurnProcess(
        nf_names=NF_POOL,
        seed=11,
        arrival_rate=20.0,
        mean_lifetime=30.0,
        initial_services=60,
    )
    return FleetEngine("greedy", churn, model, recorder=recorder)


def interleaved_min_times(
    arms: dict[str, Callable[[], object]], rounds: int = 3
) -> dict[str, float]:
    """Per arm, the least CPU time over ``rounds`` rounds; each round
    runs every arm once, back to back, in order."""
    best = {name: float("inf") for name in arms}
    for _ in range(rounds):
        for name, run in arms.items():
            start = time.process_time()
            run()
            best[name] = min(best[name], time.process_time() - start)
    return best


def test_recorder_overhead_is_bounded(benchmark):
    # Byte-identity first — the overhead bound must buy zero drift.
    bare = build_engine(None).run(EPOCHS)
    nulled = build_engine(NullRecorder()).run(EPOCHS)
    trace_rec = TraceRecorder()
    traced = build_engine(trace_rec).run(EPOCHS)
    assert nulled.to_json() == bare.to_json()
    assert traced.to_json() == bare.to_json()
    assert bare.metrics[-1].services >= 150  # production-scale fleet
    assert trace_rec.records and trace_rec.timings  # it actually recorded

    arms = {
        "bare": lambda: build_engine(None).run(EPOCHS),
        "null": lambda: build_engine(NullRecorder()).run(EPOCHS),
        "trace": lambda: build_engine(TraceRecorder()).run(EPOCHS),
    }
    null_ratio = float("inf")
    trace_ratio = float("inf")
    for _ in range(3):
        times = interleaved_min_times(arms)
        null_ratio = min(null_ratio, times["null"] / times["bare"])
        trace_ratio = min(trace_ratio, times["trace"] / times["bare"])
        if (null_ratio <= MAX_NULL_OVERHEAD
                and trace_ratio <= MAX_TRACE_OVERHEAD):
            break
    benchmark.extra_info["null_recorder_overhead"] = round(null_ratio, 3)
    benchmark.extra_info["trace_recorder_overhead"] = round(trace_ratio, 3)
    benchmark.pedantic(
        lambda: build_engine(NullRecorder()).run(EPOCHS),
        rounds=1, iterations=1,
    )
    print(
        f"\ntelemetry overhead vs bare: null {null_ratio:.3f}x "
        f"(<= {MAX_NULL_OVERHEAD}), trace {trace_ratio:.3f}x "
        f"(<= {MAX_TRACE_OVERHEAD})"
    )
    assert null_ratio <= MAX_NULL_OVERHEAD
    assert trace_ratio <= MAX_TRACE_OVERHEAD
